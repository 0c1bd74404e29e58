package main

import (
	"errors"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// outcome is how one operation ended.  An operation that returns a wrong
// result is not an outcome: the op function returns an error and the run
// fails.
type outcome int

const (
	opOK     outcome = iota // completed with the reference result
	opFailed                // refused or failed: a non-200 response or a transport error
)

// opFunc performs operation i of a phase on behalf of one worker, which
// records its spans on l (nil when untraced).
type opFunc func(i int, l *lane) (outcome, error)

// phaseResult is one load phase's client-side accounting.
type phaseResult struct {
	Sent, OK, Failed int
	Elapsed          time.Duration
	// LatencyUS holds one sample per operation: closed phases time the
	// call, open phases time from the due time.  A failed operation
	// counts as the whole phase's length, so failing can never improve a
	// percentile.
	LatencyUS []float64
	// LateUS (open phases) is how long after its due time each request
	// was issued.
	LateUS []float64
}

// gather merges the workers' results into the phase's and returns the
// workers' errors.
func gather(results []phaseResult, errs []error, start time.Time) (phaseResult, error) {
	total := phaseResult{Elapsed: time.Since(start)}
	for _, o := range results {
		total.Sent += o.Sent
		total.OK += o.OK
		total.Failed += o.Failed
		total.LatencyUS = append(total.LatencyUS, o.LatencyUS...)
		total.LateUS = append(total.LateUS, o.LateUS...)
	}
	return total, errors.Join(errs...)
}

// runClosed runs a closed loop: each of workers sends its next operation
// only after the previous one completed, until dur has passed or limit
// operations were issued.  lanes (nil or one per worker) receive spans.
func runClosed(workers int, dur time.Duration, limit int, lanes []*lane, op opFunc) (phaseResult, error) {
	var next atomic.Int64
	var stop atomic.Bool
	results := make([]phaseResult, workers)
	errs := make([]error, workers)
	start := time.Now()
	deadline := start.Add(dur)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var l *lane
			if lanes != nil {
				l = lanes[w]
			}
			res := &results[w]
			for !stop.Load() {
				i := int(next.Add(1) - 1)
				t0 := time.Now()
				if i >= limit || !t0.Before(deadline) {
					return
				}
				oc, err := op(i, l)
				if err != nil {
					errs[w] = err
					stop.Store(true)
					return
				}
				res.Sent++
				if oc == opOK {
					res.OK++
					res.LatencyUS = append(res.LatencyUS, float64(time.Since(t0))/1e3)
				} else {
					res.Failed++
					res.LatencyUS = append(res.LatencyUS, float64(dur)/1e3)
				}
			}
		}(w)
	}
	wg.Wait()
	return gather(results, errs, start)
}

// arrivals returns window's seeded Poisson arrival offsets at rate per
// second over dur: exponential gaps, each request due at the running sum.
func arrivals(seed int64, window int, rate float64, dur time.Duration) []time.Duration {
	r := newRNG(seed, streamArrivals, uint64(window))
	var out []time.Duration
	t := 0.0
	for {
		t += r.exp() / rate
		d := time.Duration(t * float64(time.Second))
		if d >= dur {
			return out
		}
		out = append(out, d)
	}
}

// openGrace bounds how long an open phase keeps issuing requests that
// fell behind schedule after the schedule itself has ended.
const openGrace = 5 * time.Second

// runOpen runs an open loop: request i is due at due[i] after the phase
// starts, whether or not earlier requests have completed.  workers
// connections issue the requests in due order; a request whose turn
// comes late is sent at once, and its latency still counts from its due
// time, so a stall also charges the wait it imposed on later requests.
func runOpen(workers int, due []time.Duration, lanes []*lane, op opFunc) (phaseResult, error) {
	var next atomic.Int64
	var stop atomic.Bool
	results := make([]phaseResult, workers)
	errs := make([]error, workers)
	start := time.Now()
	var grace time.Duration
	if len(due) > 0 {
		grace = due[len(due)-1] + openGrace
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var l *lane
			if lanes != nil {
				l = lanes[w]
			}
			res := &results[w]
			for !stop.Load() {
				i := int(next.Add(1) - 1)
				if i >= len(due) || time.Since(start) > grace {
					return
				}
				sleepUntil(start.Add(due[i]))
				issued := time.Since(start)
				oc, err := op(i, l)
				if err != nil {
					errs[w] = err
					stop.Store(true)
					return
				}
				done := time.Since(start)
				res.Sent++
				res.LateUS = append(res.LateUS, float64(issued-due[i])/1e3)
				if oc == opOK {
					res.OK++
					res.LatencyUS = append(res.LatencyUS, float64(done-due[i])/1e3)
				} else {
					res.Failed++
					res.LatencyUS = append(res.LatencyUS, float64(grace)/1e3)
				}
			}
		}(w)
	}
	wg.Wait()
	return gather(results, errs, start)
}

// sleepOvershoot is about how late a nanosleep returns on Linux.
const sleepOvershoot = 50 * time.Microsecond

// sleepUntil waits until t: nanosleep to just short of it, then a short
// spin.  It calls nanosleep directly because time.Sleep can wake a
// millisecond late when the process is otherwise idle, which at thousands
// of arrivals a second would make the generator, not the server, set the
// open phase's latencies.
func sleepUntil(t time.Time) {
	if d := time.Until(t) - sleepOvershoot; d > 0 {
		ts := syscall.NsecToTimespec(int64(d))
		for syscall.Nanosleep(&ts, &ts) == syscall.EINTR {
		}
	}
	for time.Now().Before(t) {
	}
}
