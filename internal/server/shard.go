package server

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/batch"
	"repro/internal/codecache"
	"repro/internal/core"
	"repro/internal/jit"
	"repro/internal/mem"
	"repro/internal/telemetry"
)

// shard is one compile-and-execute arena: a core.Machine (its own
// simulated memory, trap table and code region), the codecache bound to
// it, and a batch pool bounding compile concurrency.  Content hashes map
// onto shards by hash, so resident code scales horizontally across N
// arenas and eviction pressure in one tenant-heavy shard never touches
// another shard's cache.  Calls serialize per shard (one simulated CPU
// each); N shards give N-way call parallelism.
type shard struct {
	id      int
	machine *core.Machine
	cache   *codecache.Cache
	pool    *batch.Pool

	mu    sync.Mutex
	units map[string]*unit

	// evicted is the server's hook: sibling-function reclamation and
	// tenant residency accounting on cache eviction/invalidation.
	evicted func(u *unit)

	calls    atomic.Uint64
	compiles atomic.Uint64
}

// unit is one resident program: the cache holds its entry function; the
// unit remembers the siblings a multi-function program installed
// alongside, so eviction reclaims the whole program, and the compile
// metadata the warm-cache snapshot serializes.
type unit struct {
	key        string
	tenantName string
	lang       string
	entry      string
	source     string
	entryFn    *core.Func
	fns        []*core.Func
	bytes      int64 // summed SizeBytes over fns

	// durable flips true once the unit's journal record fsynced (or the
	// unit was restored from disk) — the crash-survival guarantee the
	// response's "durable" field reports.
	durable atomic.Bool
	// lsn is the journal sequence number behind the durable ack (0 for
	// units restored from a snapshot or compiled without a journal) — the
	// correlation ID flight-recorder events and bundles carry.
	lsn atomic.Uint64

	// pins counts requests between cache lookup and the end of their
	// call; evicted marks a unit the cache has dropped.  Both are guarded
	// by the shard mutex.  The unit's code is uninstalled once it is
	// evicted and unpinned, so a request never calls into a program whose
	// functions (or the dispatch table entries pointing at them) were
	// reclaimed and reused under it.
	pins    int
	evicted bool
}

// newShard builds one arena on the given backend.  onCompileResult,
// when non-nil, receives every settled compile flight (the server's
// circuit breaker feeds on it).
func newShard(id int, backend string, workers, maxEntries int, maxBytes int64, backoff time.Duration, reg *telemetry.Registry, onCompileResult func(key string, err error)) (*shard, error) {
	jm, err := jit.NewMachineTarget(backend, mem.Uncosted)
	if err != nil {
		return nil, err
	}
	s := &shard{
		id:      id,
		machine: jm.Core(),
		units:   make(map[string]*unit),
	}
	name := fmt.Sprintf("srv%d", id)
	// The cache is not bound to the machine: the shard installs whole
	// units (the front ends install every function) and uninstalls them
	// itself once evicted and unpinned.
	s.cache = codecache.New(codecache.Config{
		MaxEntries:      maxEntries,
		MaxCodeBytes:    maxBytes,
		Name:            name,
		OnEvict:         s.onEvict,
		FailureBackoff:  backoff,
		OnCompileResult: onCompileResult,
	})
	s.pool, err = batch.New(batch.Config{Machine: s.machine, Workers: workers, Name: name})
	if err != nil {
		return nil, err
	}
	reg.GaugeFunc(fmt.Sprintf("server.shard.%d.code_bytes_resident", id), func() float64 {
		return float64(s.machine.CodeBytesResident())
	})
	reg.GaugeFunc(fmt.Sprintf("server.shard.%d.units", id), func() float64 {
		s.mu.Lock()
		defer s.mu.Unlock()
		return float64(len(s.units))
	})
	return s, nil
}

// register records a freshly compiled unit.  Called from inside the
// compile flight, before the cache entry becomes ready, so an eviction
// of the key always finds its unit.
func (s *shard) register(u *unit) {
	s.mu.Lock()
	s.units[u.key] = u
	s.mu.Unlock()
	s.compiles.Add(1)
}

// unit returns the resident unit for key, if any.
func (s *shard) unit(key string) *unit {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.units[key]
}

// pin holds key's resident unit for one request, or returns nil when the
// key is not resident (never cached, or evicted since the lookup).  Every
// pin must be released.
func (s *shard) pin(key string) *unit {
	s.mu.Lock()
	defer s.mu.Unlock()
	u := s.units[key]
	if u != nil {
		u.pins++
	}
	return u
}

// release drops one pin, uninstalling an evicted unit's code with the
// last one.  Nil-safe.
func (s *shard) release(u *unit) {
	if u == nil {
		return
	}
	s.mu.Lock()
	u.pins--
	free := u.evicted && u.pins == 0
	s.mu.Unlock()
	if free {
		s.uninstall(u)
	}
}

// uninstall reclaims every function of an evicted, unpinned unit.
func (s *shard) uninstall(u *unit) {
	for _, f := range u.fns {
		_ = s.machine.Uninstall(f)
	}
}

// unitBytes sums the resident units' bytes — the shard side of the
// residency ledger (the tenant side is each tenant's resident counter).
func (s *shard) unitBytes() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	var sum int64
	for _, u := range s.units {
		sum += u.bytes
	}
	return sum
}

// onEvict is the codecache hook: the key has left the cache.  Reclaim
// the program's functions now, or when its last pinned request finishes,
// and tell the server so tenant residency accounting stays truthful.
// Heap-side allocations (dispatch tables, data sections) are
// bump-allocated and not reclaimed per program — they are small (a
// pointer per function plus declared data) and bounded by the admission
// quotas.
func (s *shard) onEvict(key string, fn *core.Func) {
	s.mu.Lock()
	u := s.units[key]
	delete(s.units, key)
	if u != nil {
		u.evicted = true
	}
	free := u != nil && u.pins == 0
	s.mu.Unlock()
	if u == nil {
		return
	}
	if free {
		s.uninstall(u)
	}
	if s.evicted != nil {
		s.evicted(u)
	}
}

// close releases the shard's pool workers.
func (s *shard) close() { s.pool.Close() }

// shardOf maps a content-hash key onto one of n shards (FNV-1a over the
// key, independent of the codecache's internal shard hash).
func shardOf(key string, n int) int {
	const offset, prime = 14695981039346656037, 1099511628211
	h := uint64(offset)
	for i := 0; i < len(key); i++ {
		h ^= uint64(key[i])
		h *= prime
	}
	return int(h % uint64(n))
}
