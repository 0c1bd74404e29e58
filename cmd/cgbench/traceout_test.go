package main

import (
	"testing"
	"time"

	"repro/internal/flightrec"
)

// recordChain writes one flow's lifecycle into the ring, leaving out the
// kind skip (a kind outside the chain keeps all of it), with a request
// chain interleaved the way a served call interleaves them.
func recordChain(skip flightrec.Kind) {
	flow := flightrec.NextFlow()
	fr := flightrec.Begin("req-1", "acme")
	for _, k := range lifecycleKinds {
		if k == skip {
			continue
		}
		flightrec.Record(k, "mips", "f", flow, time.Now(), time.Microsecond, flightrec.Attrs{})
		if k == flightrec.KindInstall {
			fr.Event(flightrec.StageCache, flightrec.Event{Verdict: "compiled", Shard: 0})
		}
	}
	fr.Finish("ok", "", flow)
}

func TestVerifyLifecycleChain(t *testing.T) {
	was := flightrec.Enabled()
	flightrec.SetEnabled(true)
	t.Cleanup(func() { flightrec.SetEnabled(was); flightrec.Reset() })

	flightrec.Reset()
	if err := verifyLifecycleChain(flightrec.Spans()); err == nil {
		t.Fatal("empty ring passed the lifecycle check")
	}

	flightrec.Reset()
	recordChain(flightrec.Kind(255))
	if err := verifyLifecycleChain(flightrec.Spans()); err != nil {
		t.Fatalf("complete chain rejected: %v", err)
	}

	for _, missing := range lifecycleKinds {
		flightrec.Reset()
		recordChain(missing)
		if err := verifyLifecycleChain(flightrec.Spans()); err == nil {
			t.Errorf("chain without %v passed the lifecycle check", missing)
		}
	}
}
