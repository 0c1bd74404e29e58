package main

import (
	"fmt"
	"io"
	"os"

	"repro/internal/core"
	"repro/internal/flightrec"
	"repro/internal/jit"
	"repro/internal/mem"
	"repro/internal/profile"
)

// openOut opens path for writing, with "-" meaning stdout (which the
// returned closer leaves open).
func openOut(path string) (io.Writer, func() error, error) {
	if path == "-" {
		return os.Stdout, func() error { return nil }, nil
	}
	f, err := os.Create(path)
	if err != nil {
		return nil, nil, err
	}
	return f, f.Close, nil
}

// writeTraceFile exports the flight-recorder ring as Chrome trace-event
// JSON (chrome://tracing / Perfetto both load it directly).
func writeTraceFile(path string) error {
	w, closeFn, err := openOut(path)
	if err != nil {
		return err
	}
	if err := flightrec.WriteChromeTrace(w); err != nil {
		closeFn()
		return err
	}
	if err := closeFn(); err != nil {
		return err
	}
	n := flightrec.Len()
	if path != "-" {
		fmt.Printf("wrote %s (%d records)\n", path, n)
	}
	return nil
}

// lifecycleKinds is the full generate-install-execute-evict chain one
// function's flow must show for the trace to count as complete.
var lifecycleKinds = []flightrec.Kind{
	flightrec.KindCompile, flightrec.KindRegalloc, flightrec.KindEmit,
	flightrec.KindVerify, flightrec.KindInstall, flightrec.KindCall, flightrec.KindEvict,
}

// verifyLifecycleChain asserts that at least one flow in a ring snapshot
// carries the complete lifecycle.  The cache workload compiles, runs and
// evicts far more functions than the ring holds records, so this is a
// real end-to-end check, not a formality.
func verifyLifecycleChain(spans []flightrec.Span) error {
	byFlow := make(map[uint64]map[flightrec.Kind]bool)
	for _, s := range spans {
		if s.Flow == 0 {
			continue
		}
		m := byFlow[s.Flow]
		if m == nil {
			m = make(map[flightrec.Kind]bool)
			byFlow[s.Flow] = m
		}
		m[s.Kind] = true
	}
	for _, kinds := range byFlow {
		complete := true
		for _, k := range lifecycleKinds {
			if !kinds[k] {
				complete = false
				break
			}
		}
		if complete {
			return nil
		}
	}
	return fmt.Errorf("flightrec: no flow shows the full %v lifecycle across %d flows", lifecycleKinds, len(byFlow))
}

// runAnnotateDemo compiles and runs the same loop on all three backends
// with a PC-sampler and an edge profiler attached, writes annotated
// disassembly plus the branch-bias report for each, and verifies the
// edge counts are internally consistent (every undropped event in
// exactly one bucket, biases in [0,1]).  Returns an error — nonzero
// exit — on any inconsistency.
func runAnnotateDemo(path string, edgeStride uint64, rep *jsonReport) error {
	w, closeFn, err := openOut(path)
	if err != nil {
		return err
	}
	defer closeFn()

	var totalEvents uint64
	var totalBranches int
	var topBias float64
	for _, target := range []string{"mips", "sparc", "alpha"} {
		m, err := jit.NewMachineTarget(target, mem.Uncosted)
		if err != nil {
			return err
		}
		p := profile.New(16)
		e := profile.NewEdgeProfiler(edgeStride)
		if err := p.Attach(m.Core()); err != nil {
			return err
		}
		if err := e.Attach(m.Core()); err != nil {
			return err
		}
		fn, err := m.Compile(jit.Synthetic(1))
		if err != nil {
			return err
		}
		for i := 0; i < 200; i++ {
			if _, _, err := m.Run(fn, 100); err != nil {
				return err
			}
		}

		profile.Annotate(w, m.Core().Backend(), []*core.Func{fn}, p, e)
		er := e.Snapshot(-1)
		er.Render(w)
		fmt.Fprintln(w)
		p.Detach(m.Core())
		e.Detach(m.Core())

		// Consistency: the per-branch counts must partition the events.
		var sum uint64
		for _, s := range er.Edges {
			sum += s.Taken + s.NotTaken
			if s.Bias < 0 || s.Bias > 1 {
				return fmt.Errorf("annotate[%s]: bias %v out of [0,1] at %#x", target, s.Bias, s.PC)
			}
		}
		if sum != er.TotalEvents-er.DroppedPCs {
			return fmt.Errorf("annotate[%s]: edge counts sum to %d, want %d (total %d - dropped %d)",
				target, sum, er.TotalEvents-er.DroppedPCs, er.TotalEvents, er.DroppedPCs)
		}
		if len(er.Edges) == 0 {
			return fmt.Errorf("annotate[%s]: loop workload produced no edge events", target)
		}
		totalEvents += er.TotalEvents
		totalBranches += len(er.Edges)
		if b := er.Edges[0].Bias; b > topBias {
			topBias = b
		}
	}
	if path != "-" {
		fmt.Printf("wrote %s (annotated disassembly, 3 backends, %d edge events)\n", path, totalEvents)
	}
	if rep != nil {
		rep.Edges = &edgeStats{Events: totalEvents, Stride: edgeStride, Branches: totalBranches, TopBias: topBias}
	}
	return nil
}
