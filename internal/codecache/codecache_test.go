package codecache

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/flightrec"
	"repro/internal/mem"
	"repro/internal/mips"
)

// fake returns a CompileFunc yielding a standalone (uninstallable) Func
// and counting invocations.
func fake(n *atomic.Int64, words int) CompileFunc {
	return func() (*core.Func, error) {
		n.Add(1)
		return &core.Func{Name: "fake", Words: make([]uint32, words)}, nil
	}
}

func newTestMachine(t testing.TB) *core.Machine {
	t.Helper()
	m := mem.New(1<<22, false)
	return core.NewMachine(mips.New(), mips.NewCPU(m), m)
}

// buildAdder compiles "f(x) = x + k" for a real MIPS machine.
func buildAdder(t testing.TB, k int64) *core.Func {
	t.Helper()
	a := core.NewAsm(mips.New())
	a.SetName(fmt.Sprintf("add%d", k))
	args, err := a.Begin("%i", core.Leaf)
	if err != nil {
		t.Fatal(err)
	}
	a.Addii(args[0], args[0], k)
	a.Reti(args[0])
	fn, err := a.End()
	if err != nil {
		t.Fatal(err)
	}
	return fn
}

// TestSingleFlight launches K goroutines at one cold key and requires
// exactly one compile; everyone else must coalesce or hit.
func TestSingleFlight(t *testing.T) {
	c := New(Config{})
	var compiles atomic.Int64
	const K = 32
	compile := func() (*core.Func, error) {
		compiles.Add(1)
		time.Sleep(20 * time.Millisecond) // widen the race window
		return &core.Func{Name: "slow", Words: make([]uint32, 8)}, nil
	}

	var wg sync.WaitGroup
	var start sync.WaitGroup
	start.Add(1)
	fns := make([]*core.Func, K)
	for i := 0; i < K; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			start.Wait()
			fn, err := c.GetOrCompile("hot", compile)
			if err != nil {
				t.Error(err)
			}
			fns[i] = fn
		}(i)
	}
	start.Done()
	wg.Wait()

	if n := compiles.Load(); n != 1 {
		t.Fatalf("compile ran %d times, want 1", n)
	}
	for i := 1; i < K; i++ {
		if fns[i] != fns[0] {
			t.Fatalf("goroutine %d got a different *Func", i)
		}
	}
	s := c.Snapshot()
	if s.Misses != 1 || s.Compiles != 1 {
		t.Errorf("misses=%d compiles=%d, want 1/1", s.Misses, s.Compiles)
	}
	if s.Hits+s.Coalesced != K-1 {
		t.Errorf("hits+coalesced = %d+%d, want %d", s.Hits, s.Coalesced, K-1)
	}
}

// TestLRUEvictionOrder pins strict LRU order on a single shard: touching
// an entry saves it, the least-recently-used one goes.
func TestLRUEvictionOrder(t *testing.T) {
	c := New(Config{Shards: 1, MaxEntries: 2})
	var n atomic.Int64
	for _, k := range []string{"a", "b"} {
		if _, err := c.GetOrCompile(k, fake(&n, 4)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := c.GetOrCompile("a", fake(&n, 4)); err != nil { // touch a: b is now LRU
		t.Fatal(err)
	}
	if _, err := c.GetOrCompile("c", fake(&n, 4)); err != nil { // evicts b
		t.Fatal(err)
	}
	if c.Contains("b") {
		t.Error("b should have been evicted")
	}
	for _, k := range []string{"a", "c"} {
		if !c.Contains(k) {
			t.Errorf("%s should be resident", k)
		}
	}
	s := c.Snapshot()
	if s.Evictions != 1 || s.Entries != 2 {
		t.Errorf("evictions=%d entries=%d, want 1/2", s.Evictions, s.Entries)
	}
}

// TestByteBoundEviction bounds the cache by code bytes rather than count.
func TestByteBoundEviction(t *testing.T) {
	c := New(Config{Shards: 1, MaxCodeBytes: 100})
	var n atomic.Int64
	for i := 0; i < 10; i++ {
		if _, err := c.GetOrCompile(fmt.Sprint(i), fake(&n, 8)); err != nil { // 32 bytes each
			t.Fatal(err)
		}
	}
	s := c.Snapshot()
	if s.CodeBytes > 100 {
		t.Errorf("resident %d bytes exceeds 100-byte bound", s.CodeBytes)
	}
	if s.Evictions == 0 {
		t.Error("expected evictions under byte pressure")
	}
}

// TestEvictionFreesAndRecompiles is the machine-integrated round trip:
// eviction must uninstall (freeing simulator code memory for reuse) and a
// later request for the evicted key must recompile a working function.
func TestEvictionFreesAndRecompiles(t *testing.T) {
	m := newTestMachine(t)
	base := m.CodeBytesResident()
	c := New(Config{Shards: 1, MaxEntries: 1, Machine: m})

	compiles := 0
	get := func(k int64) *core.Func {
		t.Helper()
		fn, err := c.GetOrCompile(fmt.Sprint(k), func() (*core.Func, error) {
			compiles++
			return buildAdder(t, k), nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return fn
	}
	call := func(fn *core.Func, x, want int32) {
		t.Helper()
		got, err := m.Call(fn, core.I(x))
		if err != nil {
			t.Fatal(err)
		}
		if int32(got.Int()) != want {
			t.Fatalf("got %d, want %d", got.Int(), want)
		}
	}

	f1 := get(1)
	call(f1, 10, 11)
	oneResident := m.CodeBytesResident()

	f2 := get(2) // evicts f1
	if m.Installed(f1) {
		t.Error("evicted function still installed")
	}
	if !m.Installed(f2) {
		t.Error("resident function not installed")
	}
	if r := m.CodeBytesResident(); r != oneResident {
		t.Errorf("resident bytes %d after eviction, want %d (memory not freed)", r, oneResident)
	}
	call(f2, 10, 12)

	// Round trip: the evicted key recompiles and runs correctly.
	f1b := get(1)
	call(f1b, 10, 11)
	if compiles != 3 {
		t.Errorf("compiles = %d, want 3 (evicted key must recompile)", compiles)
	}
	if s := c.Snapshot(); s.Evictions != 2 {
		t.Errorf("evictions = %d, want 2", s.Evictions)
	}
	// Steady state: capacity 1 means resident code never grows past one
	// function even after a long mixed stream.
	for i := 0; i < 20; i++ {
		call(get(int64(i%5)), 1, int32(1+i%5))
	}
	if r := m.CodeBytesResident(); r != oneResident {
		t.Errorf("resident bytes %d after stream, want %d", r, oneResident)
	}
	_ = base
}

// TestCompileErrorNotCached: failures propagate to every coalesced waiter
// and the next request retries.
func TestCompileErrorNotCached(t *testing.T) {
	c := New(Config{})
	boom := errors.New("boom")
	if _, err := c.GetOrCompile("k", func() (*core.Func, error) { return nil, boom }); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	if c.Contains("k") {
		t.Error("failed compile cached")
	}
	var n atomic.Int64
	if _, err := c.GetOrCompile("k", fake(&n, 4)); err != nil {
		t.Fatalf("retry failed: %v", err)
	}
	if n.Load() != 1 {
		t.Error("retry did not recompile")
	}
}

// TestConcurrentStress hammers a machine-bound cache from many goroutines
// with a key space larger than capacity; meaningful chiefly under -race.
func TestConcurrentStress(t *testing.T) {
	m := newTestMachine(t)
	c := New(Config{MaxEntries: 4, Machine: m})
	const workers, opsPerWorker, keys = 8, 150, 16

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < opsPerWorker; i++ {
				k := int64((w + i*7) % keys)
				fn, err := c.GetOrCompile(fmt.Sprint(k), func() (*core.Func, error) {
					return buildAdder(t, k), nil
				})
				if err != nil {
					t.Error(err)
					return
				}
				if i%10 == 0 {
					got, err := m.Call(fn, core.I(100))
					if err != nil {
						t.Error(err)
						return
					}
					if int32(got.Int()) != int32(100+k) {
						t.Errorf("key %d: got %d", k, got.Int())
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()

	s := c.Snapshot()
	if s.Entries > 4 {
		t.Errorf("entries %d exceed capacity 4", s.Entries)
	}
	if s.Hits+s.Misses+s.Coalesced != workers*opsPerWorker {
		t.Errorf("request accounting off: %+v", s)
	}
	if s.CompileErrors != 0 {
		t.Errorf("%d compile errors", s.CompileErrors)
	}
}

// TestMetricsString smoke-tests the human-readable dump.
func TestMetricsString(t *testing.T) {
	c := New(Config{Shards: 1, MaxEntries: 1})
	var n atomic.Int64
	c.GetOrCompile("a", fake(&n, 4))
	c.GetOrCompile("a", fake(&n, 4))
	c.GetOrCompile("b", fake(&n, 4))
	got := c.Snapshot().String()
	for _, want := range []string{"codecache_entries 1", "codecache_hits 1", "codecache_evictions 1"} {
		if !contains(got, want) {
			t.Errorf("dump missing %q:\n%s", want, got)
		}
	}
}

func contains(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}

// TestInvalidate removes an entry explicitly and uninstalls it.
func TestInvalidate(t *testing.T) {
	m := newTestMachine(t)
	c := New(Config{Machine: m})
	fn, err := c.GetOrCompile("k", func() (*core.Func, error) { return buildAdder(t, 3), nil })
	if err != nil {
		t.Fatal(err)
	}
	if !c.Invalidate("k") {
		t.Fatal("Invalidate reported absent")
	}
	if c.Contains("k") || m.Installed(fn) {
		t.Error("entry survived Invalidate")
	}
	if c.Invalidate("k") {
		t.Error("second Invalidate reported present")
	}
}

// TestPanickingCompileClosesFlight rushes one key whose compile panics:
// the leader and every coalesced waiter must get a *CompilePanicError
// (not deadlock on the flight channel), and the key must stay retryable.
func TestPanickingCompileClosesFlight(t *testing.T) {
	c := New(Config{})
	const K = 16
	release := make(chan struct{})
	errs := make(chan error, K)
	for i := 0; i < K; i++ {
		go func() {
			_, err := c.GetOrCompile("bad", func() (*core.Func, error) {
				<-release
				panic("compiler bug")
			})
			errs <- err
		}()
	}
	time.Sleep(20 * time.Millisecond) // let the waiters pile onto the flight
	close(release)
	for i := 0; i < K; i++ {
		select {
		case err := <-errs:
			var pe *CompilePanicError
			if !errors.As(err, &pe) {
				t.Fatalf("err = %v, want *CompilePanicError", err)
			}
			if pe.Key != "bad" || pe.Value != "compiler bug" {
				t.Errorf("panic error contents: %+v", pe)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("waiter deadlocked on panicked flight")
		}
	}
	if c.Contains("bad") {
		t.Error("panicked compile left a cached entry")
	}
	if got := c.Snapshot().CompilePanics; got == 0 {
		t.Error("CompilePanics metric not incremented")
	}
	var n atomic.Int64
	if _, err := c.GetOrCompile("bad", fake(&n, 4)); err != nil || n.Load() != 1 {
		t.Errorf("key not retryable after panic: err=%v compiles=%d", err, n.Load())
	}
}

// TestFailureBackoff negative-caches a failed compile: within the window
// requests get the stored error without invoking the compiler; after it
// expires the key recompiles.
func TestFailureBackoff(t *testing.T) {
	c := New(Config{FailureBackoff: 80 * time.Millisecond})
	boom := errors.New("boom")
	var calls atomic.Int64
	failing := func() (*core.Func, error) { calls.Add(1); return nil, boom }

	if _, err := c.GetOrCompile("k", failing); !errors.Is(err, boom) {
		t.Fatalf("first compile: err = %v", err)
	}
	if _, err := c.GetOrCompile("k", failing); !errors.Is(err, boom) {
		t.Fatalf("negative hit: err = %v", err)
	}
	if calls.Load() != 1 {
		t.Fatalf("compiler invoked %d times inside backoff window", calls.Load())
	}
	if got := c.Snapshot().NegativeHits; got != 1 {
		t.Errorf("NegativeHits = %d, want 1", got)
	}
	if c.Contains("k") {
		t.Error("Contains reports a negative entry as present")
	}
	if _, ok := c.Get("k"); ok {
		t.Error("Get returned a negative entry")
	}

	time.Sleep(100 * time.Millisecond)
	var n atomic.Int64
	if _, err := c.GetOrCompile("k", fake(&n, 4)); err != nil {
		t.Fatalf("recompile after expiry: %v", err)
	}
	if calls.Load() != 1 || n.Load() != 1 {
		t.Errorf("expiry retry: failing=%d fresh=%d", calls.Load(), n.Load())
	}

	// Invalidate clears a fresh negative entry immediately.
	if _, err := c.GetOrCompile("k2", failing); !errors.Is(err, boom) {
		t.Fatal(err)
	}
	if c.Invalidate("k2") {
		t.Error("Invalidate counted a negative entry as live")
	}
	var n2 atomic.Int64
	if _, err := c.GetOrCompile("k2", fake(&n2, 4)); err != nil || n2.Load() != 1 {
		t.Errorf("k2 not retryable after Invalidate: err=%v compiles=%d", err, n2.Load())
	}
}

// TestLookupTraceVerdicts: GetOrCompile emits one KindLookup span per
// outcome, with the verdict naming which path answered.
func TestLookupTraceVerdicts(t *testing.T) {
	flightrec.SetEnabled(true)
	flightrec.Reset()
	defer func() { flightrec.SetEnabled(false); flightrec.Reset() }()

	c := New(Config{FailureBackoff: time.Minute})
	var n atomic.Int64
	if _, err := c.GetOrCompile("k1", fake(&n, 4)); err != nil { // miss
		t.Fatal(err)
	}
	if _, err := c.GetOrCompile("k1", fake(&n, 4)); err != nil { // hit
		t.Fatal(err)
	}
	boom := errors.New("boom")
	if _, err := c.GetOrCompile("bad", func() (*core.Func, error) { return nil, boom }); err == nil {
		t.Fatal("want compile error") // miss (failed)
	}
	if _, err := c.GetOrCompile("bad", fake(&n, 4)); err == nil {
		t.Fatal("want negative-cache error") // negative
	}

	got := map[string]int{}
	for _, s := range flightrec.Spans() {
		if s.Kind == flightrec.KindLookup {
			got[s.Attrs.Verdict]++
		}
	}
	if got["miss"] != 2 || got["hit"] != 1 || got["negative"] != 1 {
		t.Errorf("lookup verdicts = %v, want miss=2 hit=1 negative=1", got)
	}
	for _, s := range flightrec.Spans() {
		if s.Kind == flightrec.KindLookup && s.Attrs.Verdict == "hit" && s.Name != "fake" {
			t.Errorf("hit span name = %q, want compiled function name", s.Name)
		}
	}
}
