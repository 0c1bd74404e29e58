// Package batch is the parallel batch compilation pipeline: a worker
// pool that fans a set of compile requests across GOMAXPROCS-bounded
// goroutines, each emitting into its own reused core.Asm buffer (no
// shared emit lock), then installs the finished bodies into the
// core.Machine arena through one batched, verification-included
// InstallBatch — a single lock acquisition and one contiguous arena
// reservation per batch instead of per function.
//
// The paper's headline is per-instruction generation cost (§1, §6);
// this package is about the per-function overheads that dominate once
// many small functions are generated at once (service warmup, adaptive
// promotion sweeps): assembler construction, the install lock, and the
// copy-on-write address-map publication are all amortized across the
// batch, and the pure link/verify/encode middle runs in parallel.
//
// Error discipline: every item gets its own error slot — one poisoned
// request fails alone while its siblings install.  A panicking compile
// callback is recovered into a *PanicError (callers layering their own
// panic taxonomy, like codecache's CompilePanicError, recover inside
// their Compile closures before the pool sees the panic).  Context
// cancellation is honored at every stage boundary: unstarted compiles
// are skipped, and the batched install either commits entirely before
// the cancel or not at all — no leaked goroutines, no half-installed
// bodies.
package batch

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/flightrec"
	"repro/internal/telemetry"
)

// ErrClosed is returned for work given to a pool after Close.
var ErrClosed = errors.New("batch: pool is closed")

// PanicError reports that a compile callback panicked; the pool recovers
// the panic so one poisoned request cannot take down the worker or the
// batch.
type PanicError struct {
	Name  string // Request.Name of the poisoned item
	Value any    // recovered panic value
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("batch: compile for %q panicked: %v", e.Name, e.Value)
}

// Request is one unit of work: Compile emits a function into the
// worker-owned assembler it is handed (Begin…End, or any front end that
// drives the Asm) and returns the finished Func.  The assembler is
// reused across requests on the same worker, so Compile must not retain
// it past the call.
type Request struct {
	// Name labels the item in errors and spans (the compiled Func
	// carries its own name for the machine's address map).
	Name string
	// Compile builds the function on the worker's assembler.
	Compile func(a *core.Asm) (*core.Func, error)
}

// Result is one item's outcome: Func on success, Err on a compile,
// verify or install failure.  Exactly one of the two is non-nil.
type Result struct {
	Func *core.Func
	Err  error
}

// Config sizes a Pool.
type Config struct {
	// Machine receives the batched installs and supplies the backend the
	// worker assemblers emit for.  Required.
	Machine *core.Machine
	// Workers is the number of compile goroutines (<= 0 means
	// GOMAXPROCS).  The same bound caps the parallel phase of the
	// batched install.
	Workers int
	// Name, when non-empty, registers the pool's instruments in the
	// process-wide telemetry registry under "batch.<Name>.*": a queue
	// depth gauge, a batch-size histogram, the per-worker compile
	// timing histogram, and item/error counters.
	Name string
}

// Pool is the worker-pool compilation pipeline.  It is safe for
// concurrent use; batches from multiple callers interleave on the same
// workers.
type Pool struct {
	m       *core.Machine
	workers int

	queue    chan *task
	workerWg sync.WaitGroup

	mu       sync.Mutex
	closed   bool
	inflight sync.WaitGroup // open batches (sync and Submit)

	queueDepth atomic.Int64

	// Telemetry instruments; nil when Config.Name was empty.
	batchSize *telemetry.Histogram
	compileNS *telemetry.Histogram
	batches   *telemetry.Counter
	items     *telemetry.Counter
	itemErrs  *telemetry.Counter
	panics    *telemetry.Counter
}

type task struct {
	ctx context.Context
	req *Request
	res *Result
	wg  *sync.WaitGroup
}

// batchSizeBounds buckets batch sizes (items, not nanoseconds).
var batchSizeBounds = []uint64{1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024}

// New builds a pool and starts its workers.  Close releases them.
func New(cfg Config) (*Pool, error) {
	if cfg.Machine == nil {
		return nil, errors.New("batch: Config.Machine is required")
	}
	n := cfg.Workers
	if n <= 0 {
		n = runtime.GOMAXPROCS(0)
	}
	p := &Pool{
		m:       cfg.Machine,
		workers: n,
		queue:   make(chan *task),
	}
	if cfg.Name != "" {
		p.RegisterTelemetry(telemetry.Default, cfg.Name)
	}
	for i := 0; i < n; i++ {
		p.workerWg.Add(1)
		go p.worker()
	}
	return p, nil
}

// RegisterTelemetry registers the pool's instruments in reg under
// "batch.<name>.*".  New does this automatically when Config.Name is
// set; use this for a registry other than the default.
func (p *Pool) RegisterTelemetry(reg *telemetry.Registry, name string) {
	prefix := "batch." + name + "."
	p.batchSize = reg.Histogram(prefix+"batch_size", batchSizeBounds)
	p.compileNS = reg.Histogram(prefix+"compile_ns", nil)
	p.batches = reg.Counter(prefix + "batches")
	p.items = reg.Counter(prefix + "items")
	p.itemErrs = reg.Counter(prefix + "item_errors")
	p.panics = reg.Counter(prefix + "compile_panics")
	reg.GaugeFunc(prefix+"queue_depth", func() float64 {
		return float64(p.queueDepth.Load())
	})
}

// Workers reports the pool's worker count.
func (p *Pool) Workers() int { return p.workers }

// QueueDepth reports how many accepted compile items have not yet been
// picked up by a worker.
func (p *Pool) QueueDepth() int64 { return p.queueDepth.Load() }

// Machine returns the install target.
func (p *Pool) Machine() *core.Machine { return p.m }

// acquire registers an open batch, failing once the pool is closed.
func (p *Pool) acquire() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return ErrClosed
	}
	p.inflight.Add(1)
	return nil
}

// CompileBatch compiles every request on the pool's workers, installs
// the successful bodies into the machine in one batched critical
// section, and returns one Result per request, index-aligned.  It
// blocks until the batch settles; concurrent batches share the workers.
func (p *Pool) CompileBatch(ctx context.Context, reqs []Request) []Result {
	res := make([]Result, len(reqs))
	if len(reqs) == 0 {
		return res
	}
	if err := p.acquire(); err != nil {
		for i := range res {
			res[i].Err = err
		}
		return res
	}
	defer p.inflight.Done()
	p.run(ctx, reqs, res)
	return res
}

// Submit is the asynchronous CompileBatch: the batch runs in the
// background and done (if non-nil) receives the results when it
// settles.  Close waits for every accepted Submit, so callbacks always
// run; an ErrClosed rejection is the only case where done is never
// called.
func (p *Pool) Submit(ctx context.Context, reqs []Request, done func([]Result)) error {
	if err := p.acquire(); err != nil {
		return err
	}
	go func() {
		defer p.inflight.Done()
		res := make([]Result, len(reqs))
		p.run(ctx, reqs, res)
		if done != nil {
			done(res)
		}
	}()
	return nil
}

// run executes one batch: compile fan-out, then the batched install.
// The caller holds an inflight registration.
func (p *Pool) run(ctx context.Context, reqs []Request, res []Result) {
	if ctx == nil {
		ctx = context.Background()
	}
	span := flightrec.StartSpan(flightrec.KindBatch, p.m.Backend().Name(), fmt.Sprintf("batch[%d]", len(reqs)))

	// Fan the compiles out to the workers.  On cancellation mid-enqueue
	// the not-yet-accepted remainder is failed immediately; items a
	// worker already holds finish or observe the cancel themselves.
	var wg sync.WaitGroup
	canceled := false
	for i := range reqs {
		if canceled {
			res[i].Err = ctx.Err()
			continue
		}
		t := &task{ctx: ctx, req: &reqs[i], res: &res[i], wg: &wg}
		wg.Add(1)
		p.queueDepth.Add(1)
		select {
		case p.queue <- t:
		case <-ctx.Done():
			p.queueDepth.Add(-1)
			wg.Done()
			res[i].Err = ctx.Err()
			canceled = true
		}
	}
	wg.Wait()

	// Batched install of every compiled body.  InstallBatch honors ctx
	// itself: on cancel the whole reservation is released and each item
	// reports the context error.
	fns := make([]*core.Func, 0, len(res))
	idxs := make([]int, 0, len(res))
	for i := range res {
		if res[i].Err != nil {
			continue
		}
		if res[i].Func == nil {
			res[i].Err = fmt.Errorf("batch: compile for %q returned no function", reqs[i].Name)
			continue
		}
		fns = append(fns, res[i].Func)
		idxs = append(idxs, i)
	}
	var installedBytes int64
	if len(fns) > 0 {
		ierrs := p.m.InstallBatch(ctx, p.workers, fns)
		for k, err := range ierrs {
			if err != nil {
				res[idxs[k]].Func, res[idxs[k]].Err = nil, err
			} else {
				installedBytes += int64(fns[k].SizeBytes())
			}
		}
	}

	nerr := 0
	for i := range res {
		if res[i].Err != nil {
			nerr++
		}
	}
	if telemetry.Enabled() && p.batchSize != nil {
		p.batchSize.Observe(uint64(len(reqs)))
		p.batches.Inc()
		p.items.Add(uint64(len(reqs)))
		p.itemErrs.Add(uint64(nerr))
	}
	verdict := "ok"
	if nerr > 0 {
		verdict = fmt.Sprintf("%d failed", nerr)
	}
	span.End(flightrec.NextFlow(), flightrec.Attrs{N: int64(len(reqs)), Bytes: installedBytes, Verdict: verdict})
}

// worker is one compile goroutine.  It owns one assembler, reused
// across items so buffer and bookkeeping allocations amortize; the
// assembler is discarded whenever a compile fails or panics, because a
// callback that errored out mid-build leaves the Asm in an unknown
// state.
func (p *Pool) worker() {
	defer p.workerWg.Done()
	var asm *core.Asm
	for t := range p.queue {
		p.queueDepth.Add(-1)
		if err := t.ctx.Err(); err != nil {
			t.res.Err = err
			t.wg.Done()
			continue
		}
		if asm == nil {
			asm = core.NewAsm(p.m.Backend())
		}
		var t0 time.Time
		if telemetry.Enabled() && p.compileNS != nil {
			t0 = time.Now()
		}
		t.res.Func, t.res.Err = p.compileOne(asm, t.req)
		if !t0.IsZero() {
			p.compileNS.Observe(uint64(time.Since(t0)))
		}
		if t.res.Err != nil {
			asm = nil
		}
		t.wg.Done()
	}
}

// compileOne runs one request's callback with panic isolation.
func (p *Pool) compileOne(asm *core.Asm, req *Request) (fn *core.Func, err error) {
	defer func() {
		if r := recover(); r != nil {
			fn = nil
			err = &PanicError{Name: req.Name, Value: r}
			if telemetry.Enabled() && p.panics != nil {
				p.panics.Inc()
			}
		}
	}()
	return req.Compile(asm)
}

// Close stops the pool: new batches are rejected with ErrClosed, open
// batches (including accepted Submits and their callbacks) are waited
// for, and the workers exit.  Close is idempotent and safe to call
// concurrently with batch submission.
func (p *Pool) Close() {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return
	}
	p.closed = true
	p.mu.Unlock()
	p.inflight.Wait()
	close(p.queue)
	p.workerWg.Wait()
}
