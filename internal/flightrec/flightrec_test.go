package flightrec

import (
	"encoding/json"
	"fmt"
	"sync"
	"testing"
	"time"
)

// withRecording flips the gate for one test and restores the prior
// state (plus a clean ring) afterwards.
func withRecording(t *testing.T, on bool) {
	t.Helper()
	prev := Enabled()
	SetEnabled(on)
	Reset()
	t.Cleanup(func() {
		SetEnabled(prev)
		Reset()
		SetWindow(60 * time.Second)
	})
}

// TestDisabledZeroAlloc pins the disabled request-chain path at zero
// allocations: Begin, Event and Finish are a single atomic load when
// recording is off.
func TestDisabledZeroAlloc(t *testing.T) {
	withRecording(t, false)
	allocs := testing.AllocsPerRun(1000, func() {
		fr := Begin("r1", "acme")
		fr.Event(StageAdmit, Event{Verdict: "ok", Shard: 2, Priority: 5})
		fr.Event(StageExec, Event{Verdict: "ok", Fuel: 100})
		fr.Finish("ok", "", 0)
	})
	if allocs != 0 {
		t.Fatalf("disabled recording allocated %v times per op, want 0", allocs)
	}
}

// TestOneRingBothViews pins the merge: lifecycle records and request
// records share one ring and one sequence, Events() is the request-kind
// subset with matching sequence numbers, and the request record carries
// the outcome, the whole request's duration and the function's flow.
func TestOneRingBothViews(t *testing.T) {
	withRecording(t, true)
	flow := NextFlow()
	fr := Begin("r7", "acme")
	fr.Event(StageCache, Event{Verdict: "hit", Key: "k", Shard: 1})
	Record(KindCall, "mips", "f", flow, time.Now(), time.Microsecond, Attrs{N: 9})
	fr.Event(StageExec, Event{Verdict: "ok", Shard: 1, DurNS: 1000, Tier: 2})
	fr.Finish("ok", "", flow)

	spans := Spans()
	wantKinds := []Kind{KindCache, KindCall, KindExec, KindRequest}
	if len(spans) != len(wantKinds) {
		t.Fatalf("ring holds %d records, want %d", len(spans), len(wantKinds))
	}
	for i, s := range spans {
		if s.Kind != wantKinds[i] || s.Seq != uint64(i) {
			t.Fatalf("record %d = %v seq %d, want %v seq %d", i, s.Kind, s.Seq, wantKinds[i], i)
		}
	}
	req := spans[3]
	if req.Flow != flow || req.Name != "r7" || req.Attrs.Verdict != "ok" || req.Dur <= 0 {
		t.Fatalf("request record = %+v, want flow %d, r7, ok, positive duration", req, flow)
	}
	evs := Events()
	if len(evs) != 3 {
		t.Fatalf("Events() = %d, want the 3 request-kind records", len(evs))
	}
	for i, want := range []uint64{0, 2, 3} {
		if evs[i].Seq != want {
			t.Fatalf("event %d seq %d, want %d", i, evs[i].Seq, want)
		}
	}
	if evs[2].Stage != StageOutcome || evs[2].DurNS != req.Dur || evs[2].Tenant != "acme" {
		t.Fatalf("outcome event = %+v", evs[2])
	}
	if evs[1].Tier != 2 || evs[1].DurNS != 1000 {
		t.Fatalf("exec event = %+v", evs[1])
	}
}

func TestChainRecorded(t *testing.T) {
	withRecording(t, true)
	fr := Begin("r42", "acme")
	fr.Event(StageAdmit, Event{Verdict: "ok", Shard: 1, Priority: 7, Key: "k1"})
	fr.Event(StageCache, Event{Verdict: "compiled", Shard: 1, Key: "k1"})
	fr.Event(StageJournal, Event{Verdict: "durable", LSN: 9, Shard: 1, Key: "k1"})
	fr.Event(StageExec, Event{Verdict: "ok", Detail: "threaded", Fuel: 123, Shard: 1})
	fr.Finish("ok", "", 77)

	evs := Events()
	if len(evs) != 5 {
		t.Fatalf("got %d events, want 5", len(evs))
	}
	wantStages := []Stage{StageAdmit, StageCache, StageJournal, StageExec, StageOutcome}
	for i, ev := range evs {
		if ev.Stage != wantStages[i] {
			t.Fatalf("event %d stage %v, want %v", i, ev.Stage, wantStages[i])
		}
		if ev.ReqID != "r42" || ev.Tenant != "acme" {
			t.Fatalf("event %d identity %q/%q, want r42/acme", i, ev.ReqID, ev.Tenant)
		}
		if ev.Seq != uint64(i) {
			t.Fatalf("event %d seq %d", i, ev.Seq)
		}
	}
	if evs[2].LSN != 9 {
		t.Fatalf("journal event LSN %d, want 9", evs[2].LSN)
	}
	if evs[3].Fuel != 123 || evs[3].Detail != "threaded" {
		t.Fatalf("exec event fuel/engine = %d/%q", evs[3].Fuel, evs[3].Detail)
	}
	if evs[4].DurNS <= 0 {
		t.Fatalf("outcome event has no duration")
	}
}

func TestStageJSONNames(t *testing.T) {
	raw, err := json.Marshal(Event{Stage: StageJournal, Verdict: "durable"})
	if err != nil {
		t.Fatal(err)
	}
	var m map[string]any
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatal(err)
	}
	if m["stage"] != "journal" {
		t.Fatalf("stage marshaled as %v, want \"journal\"", m["stage"])
	}
}

// TestRingConcurrent hammers the ring from many writers while readers
// snapshot it, mirroring the trace ring race test: every snapshot must
// hold contiguous sequence numbers and no torn events (an event's
// request ID must match its verdict's writer).
func TestRingConcurrent(t *testing.T) {
	withRecording(t, true)
	const writers, perWriter = 8, 2000
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			id := fmt.Sprintf("w%d", w)
			for i := 0; i < perWriter; i++ {
				fr := Begin(id, id)
				fr.Event(StageAdmit, Event{Verdict: id, Shard: int32(w), Priority: int8(w)})
				fr.Finish("ok", "", 0)
			}
		}(w)
	}
	var readers sync.WaitGroup
	for r := 0; r < 2; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				evs := Events()
				for i := 1; i < len(evs); i++ {
					if evs[i].Seq != evs[i-1].Seq+1 {
						t.Errorf("non-contiguous seq %d after %d", evs[i].Seq, evs[i-1].Seq)
						return
					}
				}
				for _, ev := range evs {
					if ev.Stage == StageAdmit && ev.Verdict != ev.ReqID {
						t.Errorf("torn event: request %q verdict %q", ev.ReqID, ev.Verdict)
						return
					}
				}
				_ = Exemplars()
			}
		}()
	}
	wg.Wait()
	close(stop)
	readers.Wait()
	if Len() != ringCap {
		t.Fatalf("ring holds %d events after %d records, want full %d", Len(), writers*perWriter*3, ringCap)
	}
}

func TestExemplarErroredRetention(t *testing.T) {
	withRecording(t, true)
	for i := 0; i < errCap+5; i++ {
		fr := Begin(fmt.Sprintf("e%d", i), "t")
		fr.Event(StageAdmit, Event{Verdict: "ok"})
		fr.Finish("sim_panic", "boom", 0)
	}
	set := Exemplars()
	if len(set.Errored) != errCap {
		t.Fatalf("got %d errored exemplars, want the %d most recent", len(set.Errored), errCap)
	}
	// Oldest first: the first 5 must have aged out.
	if set.Errored[0].ReqID != "e5" {
		t.Fatalf("oldest retained errored exemplar is %s, want e5", set.Errored[0].ReqID)
	}
	last := set.Errored[len(set.Errored)-1]
	if last.Outcome != "sim_panic" || len(last.Events) != 2 {
		t.Fatalf("exemplar outcome %q with %d events, want sim_panic with full 2-event chain", last.Outcome, len(last.Events))
	}
}

func TestExemplarSlowestWindow(t *testing.T) {
	withRecording(t, true)
	SetWindow(time.Hour) // no rotation during the test
	// More ok requests than slots: only the slowest survive.  Durations
	// are faked by backdating the start time.
	for i := 0; i < slowCap*3; i++ {
		fr := Begin(fmt.Sprintf("s%d", i), "t")
		fr.start = time.Now().Add(-time.Duration(i+1) * time.Millisecond)
		fr.Event(StageAdmit, Event{Verdict: "ok"})
		fr.Finish("ok", "", uint64(i))
	}
	set := Exemplars()
	if len(set.Slowest) != slowCap {
		t.Fatalf("got %d slowest exemplars, want %d", len(set.Slowest), slowCap)
	}
	for i := 1; i < len(set.Slowest); i++ {
		if set.Slowest[i].DurNS > set.Slowest[i-1].DurNS {
			t.Fatalf("slowest set unsorted at %d", i)
		}
	}
	// The slowest request was the last one submitted (largest backdate).
	if want := fmt.Sprintf("s%d", slowCap*3-1); set.Slowest[0].ReqID != want {
		t.Fatalf("slowest exemplar is %s, want %s", set.Slowest[0].ReqID, want)
	}
	if set.Slowest[0].Flow != uint64(slowCap*3-1) {
		t.Fatalf("exemplar lost its flow/span ID")
	}
}

func TestWindowRotation(t *testing.T) {
	withRecording(t, true)
	SetWindow(time.Nanosecond) // every Finish rotates
	for i := 0; i < 4; i++ {
		fr := Begin(fmt.Sprintf("w%d", i), "t")
		fr.Finish("ok", "", 0)
	}
	set := Exemplars()
	// Current + previous window survive; older windows are discarded.
	if len(set.Slowest) == 0 || len(set.Slowest) > 2 {
		t.Fatalf("got %d slowest exemplars across rotating windows, want 1-2", len(set.Slowest))
	}
}
