package main

import (
	"errors"
	"testing"
	"time"
)

// TestOpenLoopChargesLateness drives one connection with requests due
// every millisecond that each take three: the generator falls further
// behind with every request, and each latency counts from the due time,
// so it includes that wait.
func TestOpenLoopChargesLateness(t *testing.T) {
	const n = 20
	due := make([]time.Duration, n)
	for i := range due {
		due[i] = time.Duration(i) * time.Millisecond
	}
	res, err := runOpen(1, due, nil, func(i int, l *lane) (outcome, error) {
		time.Sleep(3 * time.Millisecond)
		return opOK, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Sent != n || res.OK != n || len(res.LatencyUS) != n || len(res.LateUS) != n {
		t.Fatalf("accounting: %+v", res)
	}
	for i := 0; i < n; i++ {
		// Request i is issued after i earlier 3ms requests: at least 2ms
		// per request later than its 1ms-spaced due time.
		if minLate := float64(2*i) * 1e3; res.LateUS[i] < minLate-200 {
			t.Errorf("request %d late %.0fus, want at least %.0fus", i, res.LateUS[i], minLate)
		}
		if res.LatencyUS[i] < res.LateUS[i]+3e3 {
			t.Errorf("request %d latency %.0fus does not include its lateness %.0fus plus 3ms service", i, res.LatencyUS[i], res.LateUS[i])
		}
	}
}

// TestOpenLoopOnSchedule: requests far apart are issued on time.
func TestOpenLoopOnSchedule(t *testing.T) {
	due := []time.Duration{0, 5 * time.Millisecond, 10 * time.Millisecond, 15 * time.Millisecond}
	start := time.Now()
	res, err := runOpen(2, due, nil, func(i int, l *lane) (outcome, error) { return opOK, nil })
	if err != nil {
		t.Fatal(err)
	}
	if el := time.Since(start); el < 15*time.Millisecond {
		t.Errorf("phase ended after %v, before the last request was due", el)
	}
	for i, late := range res.LateUS {
		if late < 0 || late > 5000 {
			t.Errorf("request %d issued %.0fus after its due time", i, late)
		}
	}
}

func TestClosedLoopCountsAndLimit(t *testing.T) {
	res, err := runClosed(2, time.Minute, 100, nil, func(i int, l *lane) (outcome, error) {
		if i%10 == 0 {
			return opFailed, nil
		}
		return opOK, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Sent != 100 || res.OK != 90 || res.Failed != 10 || len(res.LatencyUS) != 100 {
		t.Fatalf("sent %d ok %d failed %d samples %d", res.Sent, res.OK, res.Failed, len(res.LatencyUS))
	}
	// A failed operation counts as the whole phase for the percentiles.
	if p := percentile(res.LatencyUS, 95); p != float64(time.Minute)/1e3 {
		t.Errorf("p95 with 10%% failures = %v, want the phase length", p)
	}
}

func TestClosedLoopStopsOnWrongResult(t *testing.T) {
	bad := errors.New("wrong result")
	_, err := runClosed(2, time.Minute, 1<<30, nil, func(i int, l *lane) (outcome, error) {
		if i == 50 {
			return opFailed, bad
		}
		return opOK, nil
	})
	if !errors.Is(err, bad) {
		t.Fatalf("err = %v, want the op's error", err)
	}
}

func TestSelfTime(t *testing.T) {
	tr := newTracer()
	l := tr.lane()
	l.spans = []span{
		{Name: "root", Start: 0, End: 100 * time.Microsecond, Parent: -1},
		{Name: "child", Start: 10 * time.Microsecond, End: 40 * time.Microsecond, Parent: 0},
		{Name: "child", Start: 30 * time.Microsecond, End: 60 * time.Microsecond, Parent: 0},
	}
	st := tr.selfTimes()
	if got := st["root"].MeanSelfUS; got != 50 {
		t.Errorf("root self time %vus, want 50 (100 minus the 50us its children cover)", got)
	}
	if got := st["child"].MeanUS; got != 30 {
		t.Errorf("child mean %vus, want 30", got)
	}
}
