package flightrec

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/telemetry"
)

func TestSpanRingOrderAndReset(t *testing.T) {
	withRecording(t, true)
	flow := NextFlow()
	for i := 0; i < 5; i++ {
		Record(KindCall, "mips", "f", flow, time.Now(), time.Microsecond, Attrs{N: int64(i)})
	}
	spans := Spans()
	if len(spans) != 5 {
		t.Fatalf("got %d spans, want 5", len(spans))
	}
	for i, s := range spans {
		if s.Attrs.N != int64(i) {
			t.Fatalf("span %d out of order: N=%d", i, s.Attrs.N)
		}
		if s.Flow != flow || s.Kind != KindCall || s.Backend != "mips" {
			t.Fatalf("span %d corrupted: %+v", i, s)
		}
	}
	Reset()
	if Len() != 0 || len(Spans()) != 0 {
		t.Fatal("Reset did not clear the ring")
	}
}

func TestRingBounded(t *testing.T) {
	withRecording(t, true)
	for i := 0; i < ringCap+100; i++ {
		Record(KindCall, "mips", "f", 1, time.Now(), 0, Attrs{N: int64(i)})
	}
	if Len() != ringCap {
		t.Fatalf("Len = %d, want ring capacity %d", Len(), ringCap)
	}
	spans := Spans()
	if len(spans) != ringCap {
		t.Fatalf("got %d spans, want %d", len(spans), ringCap)
	}
	// Oldest retained span is the 100th recorded; newest is the last.
	if spans[0].Attrs.N != 100 || spans[len(spans)-1].Attrs.N != ringCap+99 {
		t.Fatalf("ring window wrong: first N=%d last N=%d", spans[0].Attrs.N, spans[len(spans)-1].Attrs.N)
	}
}

// TestDisabledSpanEmitZeroAlloc pins the acceptance criterion that the
// disabled span-emit path allocates nothing: StartSpan/End and Record must
// be a single atomic load when recording is off.
func TestDisabledSpanEmitZeroAlloc(t *testing.T) {
	withRecording(t, false)
	var start time.Time
	if n := testing.AllocsPerRun(1000, func() {
		a := StartSpan(KindEmit, "mips", "f")
		a.End(7, Attrs{Bytes: 64, N: 16})
		Record(KindCall, "mips", "f", 7, start, time.Microsecond, Attrs{Fuel: 100})
	}); n != 0 {
		t.Fatalf("disabled span emit allocates %v per op, want 0", n)
	}
}

// TestEnabledRecordZeroAlloc pins the record path itself: once the ring
// exists, recording a span copies into preallocated storage.
func TestEnabledRecordZeroAlloc(t *testing.T) {
	withRecording(t, true)
	Record(KindCall, "mips", "warm", 1, time.Now(), 0, Attrs{}) // allocate the ring
	start := time.Now()
	if n := testing.AllocsPerRun(1000, func() {
		Record(KindCall, "mips", "f", 1, start, time.Microsecond, Attrs{N: 3})
	}); n != 0 {
		t.Fatalf("enabled Record allocates %v per op, want 0", n)
	}
}

// TestSpanRingConcurrent hammers the ring from many writers while readers
// snapshot it, asserting bounded memory and no torn records (run under
// -race in CI).
func TestSpanRingConcurrent(t *testing.T) {
	withRecording(t, true)
	const writers, perWriter = 8, 2000
	var wg sync.WaitGroup
	stop := make(chan struct{})
	// Concurrent readers: snapshots must always be internally consistent.
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				spans := Spans()
				if len(spans) > ringCap {
					t.Error("snapshot exceeds ring capacity")
					return
				}
				for i := 1; i < len(spans); i++ {
					if spans[i].Seq != spans[i-1].Seq+1 {
						t.Errorf("torn snapshot: seq %d follows %d", spans[i].Seq, spans[i-1].Seq)
						return
					}
				}
			}
		}()
	}
	var wrs sync.WaitGroup
	for wr := 0; wr < writers; wr++ {
		wrs.Add(2)
		go func(wr int) {
			defer wrs.Done()
			name := fmt.Sprintf("w%d", wr)
			for i := 0; i < perWriter; i++ {
				a := StartSpan(KindCall, "mips", name)
				a.End(uint64(wr+1), Attrs{N: int64(i)})
			}
		}(wr)
		go func() {
			defer wrs.Done()
			for i := 0; i < perWriter; i++ {
				Record(KindLookup, "", "k", 0, time.Now(), 0, Attrs{Verdict: "hit"})
			}
		}()
	}
	wrs.Wait()
	close(stop)
	wg.Wait()
	if got := Len(); got > ringCap {
		t.Fatalf("ring grew past capacity: %d > %d", got, ringCap)
	}
	// Every retained span must be one of the two shapes written — a torn
	// write would mix fields across them.
	for _, s := range Spans() {
		switch s.Kind {
		case KindCall:
			if !strings.HasPrefix(s.Name, "w") || s.Backend != "mips" || s.Flow == 0 {
				t.Fatalf("torn call span: %+v", s)
			}
		case KindLookup:
			if s.Name != "k" || s.Attrs.Verdict != "hit" || s.Flow != 0 {
				t.Fatalf("torn lookup span: %+v", s)
			}
		default:
			t.Fatalf("unexpected span kind %v", s.Kind)
		}
	}
}

// recordLifecycle writes one complete compile→…→evict chain for a flow.
func recordLifecycle(flow uint64, name string) {
	base := time.Now()
	at := func(off time.Duration) time.Time { return base.Add(off) }
	Record(KindCompile, "mips", name, flow, at(0), 10*time.Microsecond, Attrs{N: 8})
	Record(KindRegalloc, "mips", name, flow, at(time.Microsecond), time.Microsecond, Attrs{N: 3})
	Record(KindEmit, "mips", name, flow, at(2*time.Microsecond), 5*time.Microsecond, Attrs{Bytes: 64, N: 8})
	Record(KindVerify, "mips", name, flow, at(11*time.Microsecond), 2*time.Microsecond, Attrs{Verdict: "ok"})
	Record(KindInstall, "mips", name, flow, at(13*time.Microsecond), time.Microsecond, Attrs{Bytes: 64})
	Record(KindCall, "mips", name, flow, at(15*time.Microsecond), 20*time.Microsecond, Attrs{N: 500, Fuel: 512})
	Record(KindEvict, "mips", name, flow, at(40*time.Microsecond), time.Microsecond, Attrs{Bytes: 64})
}

func TestWriteChromeTraceParsesWithLifecycleChain(t *testing.T) {
	withRecording(t, true)
	f1, f2 := NextFlow(), NextFlow()
	recordLifecycle(f1, "alpha_fn")
	recordLifecycle(f2, "beta_fn")
	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var parsed struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			Ts   float64        `json:"ts"`
			Dur  float64        `json:"dur"`
			Pid  int            `json:"pid"`
			Tid  uint64         `json:"tid"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &parsed); err != nil {
		t.Fatalf("Chrome trace JSON does not parse: %v", err)
	}
	chain := map[string]bool{}
	for _, ev := range parsed.TraceEvents {
		if ev.Ph == "X" && ev.Tid == f1 {
			chain[ev.Name] = true
			if ev.Dur <= 0 {
				t.Fatalf("span %q has non-positive dur %v", ev.Name, ev.Dur)
			}
		}
	}
	for _, phase := range []string{"compile", "regalloc", "emit", "verify", "install", "call", "evict"} {
		if !chain[phase] {
			t.Fatalf("flow %d missing lifecycle phase %q (got %v)", f1, phase, chain)
		}
	}
	// Track metadata must name the flow after the function.
	named := false
	for _, ev := range parsed.TraceEvents {
		if ev.Ph == "M" && ev.Name == "thread_name" && ev.Tid == f1 {
			if n, _ := ev.Args["name"].(string); strings.Contains(n, "alpha_fn") {
				named = true
			}
		}
	}
	if !named {
		t.Fatal("flow track not named after its function")
	}
}

func TestWriteTimeline(t *testing.T) {
	withRecording(t, true)
	reg := telemetry.NewRegistry()
	h := reg.Histogram("codegen.mips.emit_ns", nil)
	for _, v := range []uint64{500, 1500, 3000} {
		h.Observe(v)
	}
	flow := NextFlow()
	recordLifecycle(flow, "gamma_fn")
	var buf bytes.Buffer
	WriteTimeline(&buf, reg)
	out := buf.String()
	for _, want := range []string{"codegen.mips.emit_ns", "gamma_fn", "compile=", "evict=", "verdicts=ok"} {
		if !strings.Contains(out, want) {
			t.Fatalf("timeline missing %q:\n%s", want, out)
		}
	}
}
