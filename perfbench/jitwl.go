package main

import (
	"fmt"
	"os"
	"time"

	"repro/internal/jit"
	"repro/internal/mem"
	"repro/internal/profile"
	"repro/internal/telemetry"
)

// jit-tiered sizing.  README.md records the same figures.
const (
	// jitFuncsPerBackend is large enough that p99_us, which falls among
	// the slowest functions' calls, does not hinge on the few functions
	// a seed happens to make slowest.
	jitFuncsPerBackend = 128
	// jitWorkers is one caller: two callers sharing three machines spent
	// up to a millisecond waiting on a machine's lock, and that wait, not
	// dispatch, set the p99.
	jitWorkers = 1
	// jitThreshold is the tier-2 promotion call count; jitSBThreshold is
	// how many further calls precede superblock formation.
	jitThreshold   = 2
	jitSBThreshold = 16
	// jitTrainRounds bounds set-up: a function still on tier 2 after
	// this many training calls fails the run.
	jitTrainRounds = 400
	jitSchedule    = 1 << 14
	// jitWindow is one measurement window of an untraced run.
	jitWindow = time.Second
)

// jitMemory is the simulated memory model of every machine the
// benchmark builds (no cache model, as the server's shards use).
var jitMemory = mem.Uncosted

// jitMachine is one backend's adaptive JIT and the functions it serves.
type jitMachine struct {
	backend  string
	ad       *jit.Adaptive
	funcs    []jitFunction
	promoteS float64
}

// jitSetup builds one machine per backend and trains every function to
// tier 3: each is called with its own arguments, so the edge profile
// learns the bias it keeps for the whole run.
func jitSetup(funcs [][]jitFunction) ([]*jitMachine, error) {
	var out []*jitMachine
	for bi, b := range backends {
		t0 := time.Now()
		jm, err := jit.NewMachineTarget(b, jitMemory)
		if err != nil {
			return nil, err
		}
		ad := jit.NewAdaptive(jm, jitThreshold)
		ep := profile.NewEdgeProfiler(0)
		if err := ep.Attach(jm.Core()); err != nil {
			return nil, err
		}
		ad.EnableSuperblocks(jit.SuperblockConfig{Threshold: jitSBThreshold, Edges: ep})
		mc := &jitMachine{backend: b, ad: ad, funcs: funcs[bi]}
		for round := 0; ; round++ {
			pending := 0
			for _, f := range mc.funcs {
				if ad.Superblocked(f.Fn) {
					continue
				}
				pending++
				if round == jitTrainRounds {
					return nil, fmt.Errorf("%s: function %s still on tier 2 after %d training calls", b, f.Fn.Name, round)
				}
				if _, err := mc.call(f, round%callVariants); err != nil {
					return nil, err
				}
			}
			ad.WaitPromotions()
			if pending == 0 {
				break
			}
		}
		mc.promoteS = time.Since(t0).Seconds()
		out = append(out, mc)
	}
	return out, nil
}

// call runs one variant of f, checks it against the reference and
// returns its modelled cycles.
func (mc *jitMachine) call(f jitFunction, v int) (uint64, error) {
	got, cycles, err := mc.ad.Call(f.Fn, f.Args[v][0], f.Args[v][1])
	if err != nil {
		return 0, fmt.Errorf("%s: %s%v: %w", mc.backend, f.Fn.Name, f.Args[v], err)
	}
	if got != f.Want[v] {
		return 0, fmt.Errorf("%s: %s%v = %d, reference interpreter says %d", mc.backend, f.Fn.Name, f.Args[v], got, f.Want[v])
	}
	return cycles, nil
}

// jitOp is one scheduled call: machine, function and argument variant.
type jitOp struct{ m, f, v int }

func runJIT(cfg runConfig) (runOutput, error) {
	funcs := make([][]jitFunction, len(backends))
	for bi := range backends {
		for k := 0; k < jitFuncsPerBackend; k++ {
			f, err := genBytecode(cfg.Seed, bi*jitFuncsPerBackend+k)
			if err != nil {
				return runOutput{}, err
			}
			funcs[bi] = append(funcs[bi], f)
		}
	}
	r := newRNG(cfg.Seed, streamSchedule, 2)
	sched := make([]jitOp, jitSchedule)
	for i := range sched {
		sched[i] = jitOp{r.intn(len(backends)), r.intn(jitFuncsPerBackend), r.intn(callVariants)}
	}

	telemetry.SetEnabled(cfg.Traced)
	snap0 := snapAllCodegen()
	var machines []*jitMachine
	var setupS float64
	var err error
	if cfg.Traced {
		machines, err = jitSetup(funcs)
	} else {
		machines, setupS, err = timedSetup(setupRepeats, func() ([]*jitMachine, error) {
			return jitSetup(funcs)
		}, func([]*jitMachine) {})
	}
	if err != nil {
		return runOutput{}, err
	}
	snap1 := snapAllCodegen()

	cycles := make([]uint64, cyclePrefix)
	op := func(i int, l *lane) (outcome, error) {
		o := sched[i%len(sched)]
		mc := machines[o.m]
		root := l.begin("loadgen.op", -1, uint64(i))
		sp := l.begin("jit.call", root, uint64(i))
		c, err := mc.call(mc.funcs[o.f], o.v)
		l.end(sp)
		l.end(root)
		if err != nil {
			return opFailed, err
		}
		if i < len(cycles) {
			cycles[i] = c
		}
		return opOK, nil
	}

	if !cfg.Traced {
		// Windows of a closed phase, each metric the median over windows.
		wins := int(cfg.Seconds/jitWindow.Seconds() + 0.5)
		if wins < 1 {
			wins = 1
		}
		var okRates, p50s, p99s []float64
		var attempted, failed, off int
		for k := 0; k < wins; k++ {
			closed, err := runClosed(jitWorkers, phaseSeconds(cfg, wins), 1<<62, nil, func(i int, l *lane) (outcome, error) {
				return op(off+i, l)
			})
			if err != nil {
				return runOutput{}, err
			}
			off += closed.Sent
			attempted += closed.Sent
			failed += closed.Failed
			okRates = append(okRates, float64(closed.OK)/closed.Elapsed.Seconds())
			p50s = append(p50s, percentile(closed.LatencyUS, 50))
			p99s = append(p99s, percentile(closed.LatencyUS, 99))
			fmt.Fprintf(os.Stderr, "window %d: %.0f ok/s p50 %.1fus p99 %.1fus\n", k+1, okRates[k], p50s[k], p99s[k])
		}
		return runOutput{Attempted: attempted, Failed: failed, Metrics: map[string]float64{
			"ok_per_s":            median(okRates),
			"p50_us":              median(p50s),
			"p99_us":              median(p99s),
			"sim_cycles_per_call": meanCycles(cycles),
			"setup_s":             setupS,
			"peak_rss_mb":         peakRSSMB(),
		}}, nil
	}

	// Traced: untraced baseline, then the traced phase with telemetry on,
	// then the compile+install replay on side machines.
	phase := phaseSeconds(cfg, 3)
	telemetry.SetEnabled(false)
	m0 := mallocs()
	base, err := runClosed(jitWorkers, phase, 1<<62, nil, op)
	if err != nil {
		return runOutput{}, err
	}
	allocs := ratio(float64(mallocs()-m0), float64(base.OK))
	telemetry.SetEnabled(true)
	tr := newTracer()
	lanes := make([]*lane, jitWorkers)
	for w := range lanes {
		lanes[w] = tr.lane()
	}
	sb0 := superblockCounters()
	t0 := snapAllCodegen()
	traced, err := runClosed(jitWorkers, phase, 1<<62, lanes, op)
	if err != nil {
		return runOutput{}, err
	}
	perBackendCycles := make([][]float64, len(backends))
	for i, c := range cycles {
		if c > 0 {
			perBackendCycles[sched[i].m] = append(perBackendCycles[sched[i].m], float64(c))
		}
	}
	t1 := snapAllCodegen()
	sb1 := superblockCounters()
	rl := tr.lane()
	compileUS, err := replayJITCompile(funcs, rl, phase)
	if err != nil {
		return runOutput{}, err
	}
	if err := tr.writeChrome(cfg.TraceFile); err != nil {
		return runOutput{}, err
	}
	spans := tr.selfTimes()

	m := map[string]float64{"allocs_per_op": allocs}
	// The traced phase ran schedule entries [0, traced.Sent).
	t3calls := 0
	for i := 0; i < traced.Sent; i++ {
		o := sched[i%len(sched)]
		if machines[o.m].ad.Superblocked(machines[o.m].funcs[o.f].Fn) {
			t3calls++
		}
	}
	for bi, b := range backends {
		d := t1[bi].sub(t0[bi])
		m["exec.sim_insns_per_call."+b] = ratio(float64(d.simInsns), float64(d.calls))
		m["exec.ns_per_sim_insn."+b] = ratio(float64(d.callNS), float64(d.simInsns))
		m["jit.sim_cycles_per_call."+b] = mean(perBackendCycles[bi])
		m["jit.promote_s."+b] = machines[bi].promoteS
	}
	m["fail_ratio"] = ratio(float64(base.Failed+traced.Failed), float64(base.Sent+traced.Sent))
	zero(m, "server.roundtrip_us", "server.handler_us", "server.transport_us",
		"server.handler_self_us", "observe.overhead_us", "tinyc.parse_us", "tinyc.compile_us",
		"codecache.hit_ratio", "codecache.evictions_per_req", "codecache.compile_us",
		"core.code_bytes_per_unit", "batch.queue_depth_max")
	sum := deltaAll(t0, t1)
	m["core.call_us"] = ratio(float64(sum.callNS)/1e3, float64(sum.calls))
	m["exec.sim_insns_per_call"] = ratio(float64(sum.simInsns), float64(sum.calls))
	m["exec.ns_per_sim_insn"] = ratio(float64(sum.callNS), float64(sum.simInsns))
	codegenMetrics(m, deltaAll(snap0, snap1))
	m["jit.tier3_call_share"] = ratio(float64(t3calls), float64(traced.Sent))
	m["superblock.formed"] = float64(sb1[0] - sb0[0])
	m["superblock.installed"] = float64(sb1[1] - sb0[1])
	m["superblock.deopt"] = float64(sb1[2] - sb0[2])
	m["superblock.side_exits_per_call"] = ratio(float64(sb1[3]-sb0[3]), float64(traced.OK))
	m["jit.compile_us"] = compileUS
	loadgenMetrics(m, traced, nil)
	m["trace.overhead_ratio"] = ratio(float64(traced.OK)/traced.Elapsed.Seconds(), float64(base.OK)/base.Elapsed.Seconds())
	spanMetrics(m, spans)
	return runOutput{Attempted: base.Sent + traced.Sent, Failed: base.Failed + traced.Failed, Metrics: m}, nil
}

// snapAllCodegen snapshots every backend's codegen telemetry.
func snapAllCodegen() []codegenSnap {
	out := make([]codegenSnap, len(backends))
	for i, b := range backends {
		out[i] = snapCodegen(b)
	}
	return out
}

// deltaAll sums every backend's telemetry accumulated from a to b.
func deltaAll(a, b []codegenSnap) codegenSnap {
	var t codegenSnap
	for i := range a {
		t = t.add(b[i].sub(a[i]))
	}
	return t
}

// superblockCounters reads the tier-3 telemetry counters: formed,
// installed, deopt, side exits.
func superblockCounters() [4]uint64 {
	snap := telemetry.Default.Snapshot()
	var out [4]uint64
	for i, k := range []string{"superblock.formed", "superblock.installed", "superblock.deopt", "superblock.side_exits"} {
		out[i], _ = snap[k].(uint64)
	}
	return out
}

// replayJITCompile times jit.Machine.Compile plus Install of every
// generated function on a side machine per backend, for up to budget,
// releasing the side machine's arena after each function.
func replayJITCompile(funcs [][]jitFunction, l *lane, budget time.Duration) (float64, error) {
	var us []float64
	start := time.Now()
	for req := 0; time.Since(start) < budget && req < 1<<20; {
		for bi, b := range backends {
			jm, err := jit.NewMachineTarget(b, jitMemory)
			if err != nil {
				return 0, err
			}
			m := jm.Core()
			for _, f := range funcs[bi] {
				mark := m.Mark()
				root := l.begin("replay.jit", -1, uint64(req))
				t0 := time.Now()
				sp := l.begin("jit.compile", root, uint64(req))
				fn, err := jm.Compile(f.Fn)
				l.end(sp)
				if err == nil {
					sp = l.begin("jit.install", root, uint64(req))
					err = m.Install(fn)
					l.end(sp)
				}
				us = append(us, float64(time.Since(t0))/1e3)
				l.end(root)
				m.Release(mark)
				req++
				if err != nil {
					return 0, fmt.Errorf("%s: compiling %s: %w", b, f.Fn.Name, err)
				}
			}
		}
	}
	return mean(us), nil
}
