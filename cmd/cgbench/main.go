// Command cgbench regenerates the paper's headline code-generation-cost
// comparison (abstract, §5.1, §5.3, §7): VCODE against the DCG-style
// IR-building baseline, plus the hard-coded-register and raw-emitter fast
// paths, reported as host nanoseconds per generated instruction.
//
// With -cache it instead drives the concurrent code-cache subsystem
// (internal/codecache) with a mixed key stream across goroutines,
// verifying single-flight compilation, the zero-recompile warm path and
// eviction-bounded resident code memory.
//
// With -batch M it benchmarks the parallel batch compilation pipeline
// (internal/batch): M-function batches through the worker pool with
// per-worker reused assemblers and one batched install per batch,
// against the pre-batch serial baseline (fresh assembler plus
// per-function install), reporting funcs/sec and ns per generated
// instruction for both.
//
// With -tier3 it benchmarks the profile-guided superblock tier
// (internal/superblock): the full interpret → compile → superblock →
// bias-flip-deopt lifecycle runs through jit.Adaptive on all three
// backends, then the loop workload's simulated cycles per call are
// compared tier-2 vs tier-3 per backend.  The optimized body must beat
// tier 2 by at least 15% cycles/call or the run fails.
//
// With -faults it soaks the hardened pipeline under deterministic fault
// injection (internal/faultinject) across all three simulated targets,
// verifying that no fault — corrupted code words, failed accesses,
// panicking compiles, runaway loops — ever panics, hangs, or escapes as
// anything but a typed error.
//
// With -crash-soak it repeatedly SIGKILLs a real journaled vcoded child
// mid-checkpoint — under injected fsync/write faults and bit-flipped
// journal tails — and asserts every durably-acknowledged key is served
// correctly after each restart (cycles alternate shard counts to cover
// resharded restore; -crash-cycles sets the kill count).
//
// Observability flags (any mode):
//
//	-metrics       enable the telemetry registry and print the
//	               Prometheus-text dump after the run
//	-json PATH     write a machine-readable benchmark record ("-" = stdout)
//	-profile PATH  PC-sample the simulator workload and write a
//	               pprof-compatible profile
//	-trace PATH    turn on the flight recorder (internal/flightrec) and
//	               write its ring — lifecycle records compile → regalloc →
//	               emit → verify → install → call → evict — as Chrome
//	               trace-event JSON, loadable in Perfetto ("-" = stdout);
//	               in -cache mode the run fails unless some function's
//	               full lifecycle chain is present
//	-annotate PATH write profile-annotated disassembly with branch-bias
//	               comments for a loop workload on all three backends
//	-http ADDR     serve /metrics, /metrics.json, /debug/vars, /trace and
//	               /trace.txt; the process keeps serving after the
//	               workload until killed
package main

import (
	"flag"
	"fmt"
	"net/http"
	"os"
	"time"

	"repro/internal/cgbench"
	"repro/internal/core"
	"repro/internal/dcg"
	"repro/internal/flightrec"
	"repro/internal/jit"
	"repro/internal/mem"
	"repro/internal/mips"
	"repro/internal/profile"
	"repro/internal/telemetry"
)

func main() {
	iters := flag.Int("iters", 2000, "workload repetitions per system")
	engineName := flag.String("engine", "threaded", "execution engine for simulator workloads: switch or threaded")
	cacheMode := flag.Bool("cache", false, "drive the concurrent code-cache subsystem instead")
	faultsMode := flag.Bool("faults", false, "soak the pipeline under fault injection instead")
	workers := flag.Int("workers", 0, "cache/faults/batch mode: concurrent workers (0 = GOMAXPROCS)")
	batchSize := flag.Int("batch", 0, "batch mode: functions per batch (> 0 runs the batch-compile benchmark)")
	batches := flag.Int("batches", 16, "batch mode: number of batches")
	keys := flag.Int("keys", 64, "cache/faults mode: distinct functions in the key stream")
	capacity := flag.Int("capacity", 16, "cache/faults mode: cache capacity in entries")
	requests := flag.Int("requests", 200000, "cache mode: warm-phase lookup requests")
	calls := flag.Int("calls", 120000, "faults mode: mixed compile/execute calls")
	seed := flag.Int64("seed", 1, "faults mode: base PRNG seed (reproduces a fault stream)")
	metricsOn := flag.Bool("metrics", false, "enable the telemetry registry and print its dump after the run")
	jsonPath := flag.String("json", "", "write a machine-readable benchmark record to this path (\"-\" = stdout)")
	profilePath := flag.String("profile", "", "PC-sample generated code and write a pprof profile to this path")
	stride := flag.Uint64("stride", profile.DefaultStride, "profiling: sample every N simulated instructions")
	tracePath := flag.String("trace", "", "turn on the flight recorder and write its ring as Chrome trace-event JSON to this path (\"-\" = stdout)")
	annotatePath := flag.String("annotate", "", "write profile-annotated disassembly for all three backends to this path (\"-\" = stdout)")
	edgeStride := flag.Uint64("edgestride", profile.DefaultEdgeStride, "edge profiling: record every N conditional-branch resolutions")
	httpAddr := flag.String("http", "", "serve telemetry over HTTP on this address (e.g. :8317)")
	serveURL := flag.String("serve-url", "", "client mode: drive a running vcoded server at this base URL")
	serveSoak := flag.Bool("serve-soak", false, "spin up an in-process vcoded server under fault injection and soak it")
	serveCalls := flag.Int("serve-calls", 4000, "serve modes: total requests across workers")
	serveTenants := flag.Int("serve-tenants", 4, "serve modes: synthetic tenants in the load mix")
	tier3Mode := flag.Bool("tier3", false, "benchmark the superblock tier: tier-2 vs tier-3 cycles/call per backend")
	crashSoak := flag.Bool("crash-soak", false, "SIGKILL a child vcoded mid-checkpoint repeatedly and verify recovery")
	crashCycles := flag.Int("crash-cycles", 20, "crash-soak: kill/recover cycles")
	flag.Parse()

	die := func(err error) {
		if err != nil {
			fmt.Fprintln(os.Stderr, "cgbench:", err)
			os.Exit(1)
		}
	}
	engine, err := core.ParseEngine(*engineName)
	die(err)

	if *metricsOn {
		telemetry.SetEnabled(true)
	}
	if *tracePath != "" {
		flightrec.SetEnabled(true)
	}
	var prof *profile.Profiler
	if *profilePath != "" {
		prof = profile.New(*stride)
		prof.RegisterTelemetry(telemetry.Default, "cgbench")
	}
	if *httpAddr != "" {
		telemetry.SetEnabled(true)
		mux := telemetry.NewMux(telemetry.Default)
		flightrec.RegisterHTTP(mux, telemetry.Default)
		go func() {
			if err := http.ListenAndServe(*httpAddr, mux); err != nil {
				fmt.Fprintln(os.Stderr, "cgbench: http:", err)
			}
		}()
		fmt.Printf("serving telemetry on http://%s/metrics\n", *httpAddr)
	}

	var rep *jsonReport
	switch {
	case *crashSoak:
		die(runCrashSoak(*crashCycles, *seed))
	case *serveURL != "" || *serveSoak:
		if *jsonPath != "" {
			rep = newReport("serve")
		}
		if *serveSoak {
			die(runServeSoak(*serveCalls, *workers, *serveTenants, *seed, rep))
		} else {
			die(runServeLoad(*serveURL, *serveCalls, *workers, *serveTenants, *seed, true, rep))
		}
		if rep != nil {
			die(rep.measureCodegen(max(50, *iters/10)))
		}
	case *batchSize > 0:
		if *jsonPath != "" {
			rep = newReport("batch")
		}
		die(runBatchBench(*workers, *batchSize, *batches, rep))
		if rep != nil {
			// Keep the headline ns/insn numbers in every record.
			die(rep.measureCodegen(max(50, *iters/10)))
		}
	case *cacheMode:
		if *jsonPath != "" {
			rep = newReport("cache")
		}
		die(runCacheBench(*workers, *keys, *capacity, *requests, engine, prof, rep))
		if rep != nil {
			// A short emit-only pass so the record always carries the
			// headline ns/insn numbers alongside the cache workload.
			die(rep.measureCodegen(max(50, *iters/10)))
			// Per-backend engine comparison: threaded calls/sec and its
			// speedup over the fetch/switch oracle.
			die(rep.measureExec(max(200, *requests/25)))
		}
	case *tier3Mode:
		if *jsonPath != "" {
			rep = newReport("tier3")
		}
		die(runTier3Bench(rep))
		if rep != nil {
			// Keep the headline ns/insn numbers in every record.
			die(rep.measureCodegen(max(50, *iters/10)))
		}
	case *faultsMode:
		die(runFaultsBench(*workers, *keys, *capacity, *calls, *seed))
		if *jsonPath != "" {
			rep = newReport("faults")
			die(rep.measureCodegen(max(50, *iters/10)))
		}
	default:
		rep = runCodegenBench(*iters, *jsonPath != "")
		if prof != nil {
			// Emit-only mode runs no simulator; profile a small JIT
			// workload so -profile still demonstrates the sampler.
			die(runProfileDemo(prof))
		}
	}

	if *tracePath != "" {
		if *cacheMode {
			// The cache workload must leave a complete lifecycle in the
			// ring; exiting nonzero here is the CI acceptance check.
			die(verifyLifecycleChain(flightrec.Spans()))
		}
		die(writeTraceFile(*tracePath))
	}
	if *annotatePath != "" {
		die(runAnnotateDemo(*annotatePath, *edgeStride, rep))
	}
	if prof != nil {
		die(writeProfile(prof, *profilePath, rep))
	}
	if rep != nil && *jsonPath != "" {
		if *metricsOn {
			rep.attachTelemetry()
		}
		die(rep.write(*jsonPath))
	}
	if *metricsOn {
		fmt.Println("\n--- telemetry ---")
		fmt.Print(telemetry.Default.TextString())
	}
	if *httpAddr != "" {
		fmt.Printf("workload done; still serving http://%s/metrics (Ctrl-C to exit)\n", *httpAddr)
		select {}
	}
}

// runCodegenBench reproduces the E1 table on the mips port and, when
// wantJSON is set, returns a report with all three backends measured.
func runCodegenBench(iters int, wantJSON bool) *jsonReport {
	die := func(err error) {
		if err != nil {
			fmt.Fprintln(os.Stderr, "cgbench:", err)
			os.Exit(1)
		}
	}
	bk := mips.New()

	measure := func(f func() (int, error)) float64 {
		// One warm-up, then time.
		n, err := f()
		die(err)
		start := time.Now()
		for i := 0; i < iters; i++ {
			if n, err = f(); err != nil {
				die(err)
			}
		}
		return float64(time.Since(start).Nanoseconds()) / float64(iters*n)
	}

	asm := core.NewAsm(bk)
	vcode := measure(func() (int, error) {
		_, n, err := cgbench.EmitVCODE(asm, cgbench.Blocks, false)
		return n, err
	})
	hard := measure(func() (int, error) {
		_, n, err := cgbench.EmitVCODE(asm, cgbench.Blocks, true)
		return n, err
	})
	g := dcg.New(bk)
	dcgNs := measure(func() (int, error) {
		_, n, err := cgbench.EmitDCG(g, cgbench.Blocks)
		return n, err
	})
	buf := core.NewBuf(16 * cgbench.Blocks)
	raw := measure(func() (int, error) {
		buf.Reset()
		t0, t1 := core.GPR(8), core.GPR(9)
		for j := 0; j < cgbench.Blocks; j++ {
			k := int64(j&15 + 1)
			_ = bk.ALUImm(buf, core.OpAdd, core.TypeI, t0, t1, k)
			_ = bk.ALUImm(buf, core.OpLsh, core.TypeI, t1, t0, 3)
			_ = bk.ALU(buf, core.OpXor, core.TypeI, t0, t0, t1)
			_ = bk.Load(buf, core.TypeI, t1, t0, k*4)
			_ = bk.ALU(buf, core.OpAdd, core.TypeI, t1, t1, t0)
			_ = bk.Store(buf, core.TypeI, t1, t0, k*4)
			_ = bk.ALUImm(buf, core.OpSub, core.TypeI, t0, t0, 7)
			_ = bk.ALUImm(buf, core.OpAnd, core.TypeI, t1, t1, 0xff)
			_, _ = bk.BranchImm(buf, core.OpBlt, core.TypeI, t0, 1000)
			_ = bk.ALU(buf, core.OpOr, core.TypeI, t0, t0, t1)
		}
		return 10 * cgbench.Blocks, nil
	})

	rows := []cgbench.Result{
		{System: "VCODE (virtual registers)", NsPerInsn: vcode, Ratio: 1},
		{System: "VCODE (hard-coded regs)", NsPerInsn: hard, Ratio: hard / vcode},
		{System: "raw emitters (macro analog)", NsPerInsn: raw, Ratio: raw / vcode},
		{System: "DCG (IR trees)", NsPerInsn: dcgNs, Ratio: dcgNs / vcode},
	}
	fmt.Print(cgbench.Format(rows))
	fmt.Printf("\nDCG/VCODE = %.1fx, DCG/raw = %.1fx\n", dcgNs/vcode, dcgNs/raw)

	if !wantJSON {
		return nil
	}
	rep := newReport("codegen")
	die(rep.measureCodegen(max(50, iters/4)))
	// The mips row from the table run is the higher-precision number;
	// keep it.
	rep.Codegen["mips"] = codegenStats{NsPerInsn: vcode, HardNsPerInsn: hard}
	return rep
}

// runProfileDemo exercises the PC-sampling profiler when no simulator
// workload was requested: two JIT-compiled functions, one called 20x as
// often, so the report shows the expected skew.
func runProfileDemo(prof *profile.Profiler) error {
	m, err := jit.NewMachineTarget("mips", mem.Uncosted)
	if err != nil {
		return err
	}
	if err := prof.Attach(m.Core()); err != nil {
		return err
	}
	defer prof.Detach(m.Core())
	hotFn, err := m.Compile(jit.Synthetic(1))
	if err != nil {
		return err
	}
	coldFn, err := m.Compile(jit.Synthetic(2))
	if err != nil {
		return err
	}
	for i := 0; i < 400; i++ {
		if _, _, err := m.Run(hotFn, 50); err != nil {
			return err
		}
		if i%20 == 0 {
			if _, _, err := m.Run(coldFn, 50); err != nil {
				return err
			}
		}
	}
	return nil
}

// writeProfile renders the flat report to stdout, writes the pprof file,
// and records the headline in the JSON report when one is being built.
func writeProfile(prof *profile.Profiler, path string, rep *jsonReport) error {
	snap := prof.Snapshot(10)
	fmt.Println("\n--- profile ---")
	snap.Render(os.Stdout)
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := prof.WritePprof(f); err != nil {
		return err
	}
	fmt.Printf("wrote %s (%d samples, stride %d)\n", path, snap.TotalSamples, snap.Stride)
	if rep != nil {
		ps := &profileStats{Samples: snap.TotalSamples, Stride: snap.Stride, Path: path}
		if len(snap.Funcs) > 0 {
			ps.TopFunc, ps.TopPct = snap.Funcs[0].Name, snap.Funcs[0].Pct
		}
		rep.Profile = ps
	}
	return nil
}
