// Command perfbench is the repository benchmark.  It drives the system
// through its public packages on seeded workloads, checks every result
// against an independent reference, and prints one JSON line of metrics:
// the end-to-end metrics when run untraced, the per-layer metrics when
// run with --trace 1.  BENCHMARK.json at the repository root lists the
// workloads and metrics; README.md next to this file defines them.
//
//	go run . --workload serve-hot --seed 1 --seconds 10 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"syscall"
	"time"
)

// metricDef is one metric the benchmark prints, with its unit.
type metricDef struct {
	Name, Unit string
}

// endToEnd are the metrics of an untraced run, printed by every workload.
var endToEnd = []metricDef{
	{"ok_per_s", "ops/s"},
	{"p50_us", "us"},
	{"p99_us", "us"},
	{"sim_cycles_per_call", "cycles"},
	{"setup_s", "s"},
	{"peak_rss_mb", "MB"},
}

// backends are the simulated targets jit-tiered runs on; the serve
// workloads run the first.
var backends = []string{"mips", "sparc", "alpha"}

// traceSpans are the span names the benchmark records; each gets a
// self-time metric in the traced run.
var traceSpans = []string{
	"loadgen.op", "http.roundtrip", "server.handler",
	"replay.compile", "tinyc.parse", "tinyc.compile",
	"jit.call", "replay.jit", "jit.compile", "jit.install",
}

// perLayer are the metrics of a traced run, printed by every workload; a
// layer a workload never reaches reads 0.
var perLayer = func() []metricDef {
	defs := []metricDef{
		{"fail_ratio", "ratio"},
		{"allocs_per_op", "count"},
		{"server.roundtrip_us", "us"},
		{"server.handler_us", "us"},
		{"server.transport_us", "us"},
		{"server.handler_self_us", "us"},
		{"observe.overhead_us", "us"},
		{"core.call_us", "us"},
		{"exec.sim_insns_per_call", "insns"},
		{"exec.ns_per_sim_insn", "ns"},
		{"tinyc.parse_us", "us"},
		{"tinyc.compile_us", "us"},
		{"core.emit_us_per_fn", "us"},
		{"core.emit_ns_per_insn", "ns"},
		{"verify.us_per_fn", "us"},
		{"core.install_us_per_fn", "us"},
		{"codecache.hit_ratio", "ratio"},
		{"codecache.evictions_per_req", "ratio"},
		{"codecache.compile_us", "us"},
		{"core.code_bytes_per_unit", "bytes"},
		{"batch.queue_depth_max", "count"},
		{"jit.tier3_call_share", "ratio"},
		{"superblock.formed", "count"},
		{"superblock.installed", "count"},
		{"superblock.deopt", "count"},
		{"superblock.side_exits_per_call", "ratio"},
		{"jit.compile_us", "us"},
		{"loadgen.late_p99_us", "us"},
		{"loadgen.closed.sent", "count"},
		{"loadgen.closed.ok", "count"},
		{"loadgen.closed.failed", "count"},
		{"loadgen.open.sent", "count"},
		{"loadgen.open.ok", "count"},
		{"loadgen.open.failed", "count"},
		{"loadgen.open.p50_us", "us"},
		{"loadgen.open.p99_us", "us"},
		{"trace.overhead_ratio", "ratio"},
	}
	for _, b := range backends {
		defs = append(defs,
			metricDef{"exec.sim_insns_per_call." + b, "insns"},
			metricDef{"exec.ns_per_sim_insn." + b, "ns"},
			metricDef{"jit.sim_cycles_per_call." + b, "cycles"},
			metricDef{"jit.promote_s." + b, "s"},
		)
	}
	for _, s := range traceSpans {
		defs = append(defs, metricDef{"span." + s + ".self_us", "us"})
	}
	return defs
}()

// runConfig is one invocation's settings.
type runConfig struct {
	Workload  string
	Seed      int64
	Seconds   float64
	Traced    bool
	TraceFile string
}

// runOutput is what a workload hands back: its operation counts and
// metric values by name.
type runOutput struct {
	Attempted, Failed int
	Metrics           map[string]float64
}

// workloads maps each workload name to the function that runs it.
var workloads = map[string]func(runConfig) (runOutput, error){
	"serve-hot":     func(c runConfig) (runOutput, error) { return runServe(c, true) },
	"serve-compile": func(c runConfig) (runOutput, error) { return runServe(c, false) },
	"jit-tiered":    runJIT,
}

// unlisted are the workloads BENCHMARK.json leaves out, with the reason.
// They still run by name.
var unlisted = map[string]string{
	"serve-compile": "a server defect returns wrong results when an entry is evicted between its compile and its call (README.md)",
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type report struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	var cfg runConfig
	var traced int
	flag.StringVar(&cfg.Workload, "workload", "", "workload to run (serve-hot, serve-compile, jit-tiered)")
	flag.Int64Var(&cfg.Seed, "seed", 1, "input seed; one seed always generates the same inputs")
	flag.Float64Var(&cfg.Seconds, "seconds", 10, "measured seconds, split over the run's phases")
	flag.IntVar(&traced, "trace", 0, "1 = traced run printing the per-layer metrics")
	flag.Parse()
	cfg.Traced = traced == 1
	cfg.TraceFile = filepath.Join(".bench_build", "perfbench-trace", fmt.Sprintf("%s-%d.json", cfg.Workload, cfg.Seed))
	run, ok := workloads[cfg.Workload]
	if !ok || cfg.Seconds <= 0 || traced < 0 || traced > 1 {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (serve-hot, serve-compile, jit-tiered), --seconds > 0 and --trace 0|1\n")
		os.Exit(2)
	}
	out, err := run(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", cfg.Workload, err)
		os.Exit(1)
	}
	rep, err := buildReport(cfg, out)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	line, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// buildReport checks that the workload produced exactly the metric set
// of its run kind, with legal names and finite values, and attaches
// units.
func buildReport(cfg runConfig, out runOutput) (report, error) {
	defs := endToEnd
	if cfg.Traced {
		defs = perLayer
	}
	rep := report{Correct: true, Attempted: out.Attempted, Failed: out.Failed, Metrics: map[string]metricValue{}}
	if out.Attempted < 1 {
		return rep, fmt.Errorf("no operation was attempted")
	}
	for _, d := range defs {
		if err := validName(d.Name); err != nil {
			return rep, err
		}
		v, ok := out.Metrics[d.Name]
		if !ok {
			return rep, fmt.Errorf("workload %s did not produce metric %s", cfg.Workload, d.Name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return rep, fmt.Errorf("metric %s is not finite (%v)", d.Name, v)
		}
		rep.Metrics[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
	var extra []string
	for name := range out.Metrics {
		if _, ok := rep.Metrics[name]; !ok {
			extra = append(extra, name)
		}
	}
	if len(extra) > 0 {
		sort.Strings(extra)
		return rep, fmt.Errorf("workload %s produced undeclared metrics %v", cfg.Workload, extra)
	}
	return rep, nil
}

// peakRSSMB is the process's peak resident set size, from getrusage.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// mallocs returns the process's cumulative heap allocation count.
func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// timedSetup runs setup n times and returns the last result, live, with
// the median set-up time in seconds.  Each earlier result is closed, and
// its memory returned to the operating system, before the next set-up
// starts, so only one is ever resident.
func timedSetup[T any](n int, setup func() (T, error), closeFn func(T)) (T, float64, error) {
	var live T
	times := make([]float64, 0, n)
	for k := 0; k < n; k++ {
		if k > 0 {
			closeFn(live)
		}
		debug.FreeOSMemory()
		t0 := time.Now()
		v, err := setup()
		if err != nil {
			return live, 0, err
		}
		times = append(times, time.Since(t0).Seconds())
		live = v
	}
	return live, median(times), nil
}

// phaseSeconds splits the measured time into n equal phases.
func phaseSeconds(cfg runConfig, n int) time.Duration {
	return time.Duration(cfg.Seconds / float64(n) * float64(time.Second))
}
