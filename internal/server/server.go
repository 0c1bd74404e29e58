// Package server is the codegen-as-a-service layer: an HTTP front end
// over the whole library stack — vasm/tinyc front ends, the VCODE
// assembler and verifier, the sharded code cache, the batch compile
// pool, sandboxed calls, telemetry and lifecycle tracing — serving
// compile-and-execute (and compile-and-cache) to many tenants at once.
//
// Requests are keyed by content hash.  Each key maps onto one of N
// shards, each a full core.Machine arena with its own codecache and
// batch pool, so resident code scales horizontally past one arena, and
// calls (one simulated CPU per shard) run N-wide.  Multi-tenancy is
// quota-based: per-tenant fuel per call, resident code bytes, and
// compile concurrency, with admission control pushing back (429 +
// Retry-After) when a shard's compile queue is past its bound.  Every
// failure is a typed JSON error mapped one-to-one from the library error
// model (see errors.go).
//
// A warm-cache snapshot serializes the verified, resident programs to
// disk at shutdown; on boot the snapshot restores through the batch
// pool's warmup path and the /readyz endpoint turns ready only once the
// restore flights drain — zero-cold-start restarts.
package server

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/batch"
	"repro/internal/codecache"
	"repro/internal/core"
	"repro/internal/faultinject"
	"repro/internal/flightrec"
	"repro/internal/slo"
	"repro/internal/telemetry"
)

// Config sizes a Server.
type Config struct {
	// Backend is the target port every shard simulates ("mips",
	// "sparc", "alpha"; default "mips").
	Backend string
	// Shards is the number of machine arenas (default 4).
	Shards int
	// WorkersPerShard bounds each shard's compile pool (default 2).
	WorkersPerShard int
	// MaxEntriesPerShard / MaxCodeBytesPerShard bound each shard's
	// cache (defaults 512 entries, 1 MiB).
	MaxEntriesPerShard   int
	MaxCodeBytesPerShard int64
	// QueueBound is the admission bound on a shard's compile queue
	// depth; past it, compile-requiring requests get queue_full
	// (default 64).
	QueueBound int64
	// CallTimeout is the wall deadline around one sandboxed call,
	// including its wait for the shard CPU (default 2s).
	CallTimeout time.Duration
	// Tenants declares the known tenants' quotas.  DefaultQuota fills
	// zero fields and governs unknown tenants when AllowUnknownTenants
	// is set; otherwise unknown tenants are rejected.
	Tenants             map[string]Quota
	DefaultQuota        Quota
	AllowUnknownTenants bool
	// FailureBackoff negative-caches failed compiles per key (0 = every
	// request retries).
	FailureBackoff time.Duration
	// FsyncInterval is the journal writer's group-commit window: appends
	// gather up to this long (or a batch bound) before one write+fsync
	// releases them all (default 2ms).
	FsyncInterval time.Duration
	// CheckpointInterval, when positive, folds journal + snapshot into a
	// fresh snapshot generation on this period (started by Recover when
	// a journal path is given).
	CheckpointInterval time.Duration
	// BreakerThreshold opens a key's compile circuit after this many
	// consecutive failures (default 3; negative disables the breaker).
	BreakerThreshold int
	// BreakerCooldown holds an open circuit before the half-open probe
	// (default 5s).
	BreakerCooldown time.Duration
	// ShedLowWatermark / ShedHighWatermark are total batch-queue depths
	// past which compile-requiring traffic below priority 4 / 8 is shed
	// (defaults: half and 90% of Shards×QueueBound).
	ShedLowWatermark  int64
	ShedHighWatermark int64
	// Registry receives the server's instruments (default
	// telemetry.Default).
	Registry *telemetry.Registry
	// SLO configures the watchdog's objectives (zero fields take the
	// slo package defaults); SLODisable skips the watchdog entirely.
	SLO        slo.Objectives
	SLODisable bool
	// Logger receives the server's structured request log (default
	// slog.Default()).  Per-request lines log at Debug so steady-state
	// traffic stays quiet unless the handler is raised to that level.
	Logger *slog.Logger
	// Injector, when set, seeds deterministic faults into every shard:
	// memory faults on the simulated machines and compile
	// errors/panics around the front ends — the soak configuration.
	Injector *faultinject.Injector
}

func (c Config) withDefaults() Config {
	if c.Backend == "" {
		c.Backend = "mips"
	}
	if c.Shards <= 0 {
		c.Shards = 4
	}
	if c.WorkersPerShard <= 0 {
		c.WorkersPerShard = 2
	}
	if c.MaxEntriesPerShard <= 0 {
		c.MaxEntriesPerShard = 512
	}
	if c.MaxCodeBytesPerShard <= 0 {
		c.MaxCodeBytesPerShard = 1 << 20
	}
	if c.QueueBound <= 0 {
		c.QueueBound = 64
	}
	if c.CallTimeout <= 0 {
		c.CallTimeout = 2 * time.Second
	}
	if c.DefaultQuota.FuelPerCall == 0 {
		c.DefaultQuota.FuelPerCall = 1 << 20
	}
	if c.FsyncInterval <= 0 {
		c.FsyncInterval = 2 * time.Millisecond
	}
	if c.BreakerThreshold == 0 {
		c.BreakerThreshold = 3
	}
	if c.BreakerCooldown <= 0 {
		c.BreakerCooldown = 5 * time.Second
	}
	capacity := int64(c.Shards) * c.QueueBound
	if c.ShedLowWatermark <= 0 {
		c.ShedLowWatermark = capacity / 2
	}
	if c.ShedHighWatermark <= 0 {
		c.ShedHighWatermark = capacity * 9 / 10
	}
	if c.Registry == nil {
		c.Registry = telemetry.Default
	}
	return c
}

// Server is the multi-tenant compile-and-execute service.
type Server struct {
	cfg     Config
	shards  []*shard
	tenants *tenantSet
	health  *telemetry.Health
	started time.Time
	log     *slog.Logger

	// SLO watchdog: nil when disabled; sloGlobal is the service-wide
	// tracker every finished request observes into.
	slo       *slo.Watchdog
	sloGlobal *slo.Tracker

	reqSeq  atomic.Uint64
	closing atomic.Bool

	// Crash durability: the steady-state journal and the paths the
	// periodic checkpointer folds into (set by Recover).
	journal  *journal
	snapPath string
	jrnlPath string
	ckptMu   sync.Mutex
	ckptQuit chan struct{}
	ckptWG   sync.WaitGroup

	// Overload protection.
	breakers   *breakerSet
	queueDepth func() int64 // summed batch queue depth (tests may stub)

	recoveryMS atomic.Int64

	requests  *telemetry.Counter
	errorsAll *telemetry.Counter
	callNS    *telemetry.Histogram
	requestNS *telemetry.Histogram

	rateLimited            *telemetry.Counter
	shedded                *telemetry.Counter
	breakerFast            *telemetry.Counter
	checkpoints            *telemetry.Counter
	ckptErrors             *telemetry.Counter
	jrnlReplayed, jrnlTorn *telemetry.Counter

	snapSaved, snapRestored   *telemetry.Counter
	snapExact, snapRecompiled *telemetry.Counter
	snapErrors, snapIncompat  *telemetry.Counter
	snapResharded             *telemetry.Counter
}

// New builds the server: N shard arenas on the configured backend, the
// tenant set, and the health state with the two startup conditions
// (snapshot_restored, warmup_drained) registered unmet — call Restore
// (with "" when there is nothing to load) to flip them.
func New(cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	reg := cfg.Registry
	s := &Server{
		cfg:            cfg,
		tenants:        newTenantSet(reg, cfg.Tenants, cfg.DefaultQuota, cfg.AllowUnknownTenants),
		health:         &telemetry.Health{},
		started:        time.Now(),
		requests:       reg.Counter("server.requests"),
		errorsAll:      reg.Counter("server.errors"),
		callNS:         reg.Histogram("server.call_ns", nil),
		requestNS:      reg.Histogram("server.request_ns", nil),
		rateLimited:    reg.Counter("server.rate_limited"),
		shedded:        reg.Counter("server.shed"),
		breakerFast:    reg.Counter("server.breaker_open"),
		checkpoints:    reg.Counter("server.checkpoints"),
		ckptErrors:     reg.Counter("server.checkpoint_errors"),
		jrnlReplayed:   reg.Counter("server.journal.replayed"),
		jrnlTorn:       reg.Counter("server.journal.torn"),
		snapSaved:      reg.Counter("server.snapshot.saved"),
		snapRestored:   reg.Counter("server.snapshot.restored"),
		snapExact:      reg.Counter("server.snapshot.exact"),
		snapRecompiled: reg.Counter("server.snapshot.recompiled"),
		snapErrors:     reg.Counter("server.snapshot.errors"),
		snapIncompat:   reg.Counter("server.snapshot.incompatible"),
		snapResharded:  reg.Counter("server.snapshot.resharded"),
	}
	s.log = cfg.Logger
	if s.log == nil {
		s.log = slog.Default()
	}
	s.queueDepth = s.totalQueueDepth
	if cfg.BreakerThreshold > 0 {
		s.breakers = newBreakerSet(cfg.BreakerThreshold, cfg.BreakerCooldown)
	}
	if !cfg.SLODisable {
		s.slo = slo.New(cfg.SLO, reg, s.health)
		s.sloGlobal = s.slo.Global()
		s.tenants.setWatchdog(s.slo)
		s.slo.Start()
	}
	reg.GaugeFunc("server.recovery_ms", func() float64 {
		return float64(s.recoveryMS.Load())
	})
	s.health.Expect("snapshot_restored")
	s.health.Expect("warmup_drained")
	var onResult func(key string, err error)
	if s.breakers != nil {
		onResult = s.breakers.record
	}
	for i := 0; i < cfg.Shards; i++ {
		sh, err := newShard(i, cfg.Backend, cfg.WorkersPerShard, cfg.MaxEntriesPerShard, cfg.MaxCodeBytesPerShard, cfg.FailureBackoff, reg, onResult)
		if err != nil {
			return nil, err
		}
		sh.evicted = s.unitEvicted
		if cfg.Injector != nil {
			sh.machine.Mem().SetFaultHook(cfg.Injector)
		}
		s.shards = append(s.shards, sh)
	}
	return s, nil
}

// Health exposes the readiness state (the HTTP mux mounts it at
// /healthz and /readyz).
func (s *Server) Health() *telemetry.Health { return s.health }

// Shards reports the shard count.
func (s *Server) Shards() int { return len(s.shards) }

// unitEvicted is the shard eviction callback: return the program's
// bytes to its tenant's residency budget and journal a tombstone (best
// effort — a lost tombstone just re-warms an evicted key on recovery).
func (s *Server) unitEvicted(u *unit) {
	if t, apiE := s.tenants.get(u.tenantName); apiE == nil {
		t.resident.Add(-u.bytes)
	}
	if s.journal != nil {
		s.journal.tombstones.Inc()
		_, _ = s.journal.append(journalRecord{Op: journalOpDel, Key: u.key, Shards: len(s.shards)}, false)
	}
}

// BeginDrain stops admitting new work — requests get shutting_down and
// /readyz flips not-ready immediately — while in-flight calls keep
// running.  The graceful-shutdown sequence is BeginDrain, drain the HTTP
// server with its deadline, Checkpoint or SaveSnapshot, Close.
func (s *Server) BeginDrain() {
	s.closing.Store(true)
	s.health.Set("accepting_traffic", false)
}

// Close releases every shard's pool workers and stops the checkpointer
// and journal.  In-flight batches finish (and their journal appends
// settle) before the journal closes.
func (s *Server) Close() {
	s.closing.Store(true)
	s.stopCheckpoints()
	if s.slo != nil {
		s.slo.Stop()
	}
	for _, sh := range s.shards {
		sh.close()
	}
	if s.journal != nil {
		s.journal.close()
	}
}

// --- the two core operations ---

// compileResult is what the compile path hands the HTTP layer.  The
// unit is pinned: the caller must release it (shard.release) once done
// with fn, and until then eviction leaves the unit's code installed.
type compileResult struct {
	key     string
	shard   *shard
	unit    *unit
	fn      *core.Func
	cached  bool // served from cache without compiling here
	durable bool // journal record fsynced (or restored from disk)
}

// compile resolves (lang, source, entry) — or a bare key — to a
// resident entry function, compiling through the shard's batch pool
// under admission control and quotas on a miss.  Concurrent requests
// for one key coalesce into a single flight regardless of tenant.
// prio is the request's shed priority (0–9).  fr (nil-safe) records
// the admission, cache and journal decisions on the request's flight
// chain.
func (s *Server) compile(ctx context.Context, fr *flightrec.Request, t *tenant, lang, source, entry, key string, prio int) (compileResult, *APIError) {
	reject := func(apiE *APIError) (compileResult, *APIError) {
		fr.Event(flightrec.StageAdmit, flightrec.Event{
			Verdict: string(apiE.Code), Key: key, Shard: -1, Priority: int8(prio)})
		return compileResult{}, apiE
	}
	if s.closing.Load() {
		return reject(apiErr(CodeShuttingDown, "server is shutting down"))
	}
	if key == "" {
		if source == "" {
			return reject(apiErr(CodeBadRequest, "need source (or a resident key)"))
		}
		key = contentKey(lang, entry, source)
	}
	sh := s.shards[shardOf(key, len(s.shards))]
	if _, ok := sh.cache.Get(key); ok {
		// Hit path: no admission gates ran, so the chain goes straight
		// to the cache verdict.  A unit evicted between the lookup and
		// the pin is a miss.
		if u := sh.pin(key); u != nil {
			fr.Event(flightrec.StageCache, flightrec.Event{
				Verdict: "hit", Key: key, Shard: int32(sh.id), Priority: int8(prio)})
			return compileResult{key: key, shard: sh, unit: u, fn: u.entryFn, cached: true, durable: u.durable.Load()}, nil
		}
	}
	if source == "" {
		fr.Event(flightrec.StageCache, flightrec.Event{
			Verdict: string(CodeNotFound), Key: key, Shard: int32(sh.id), Priority: int8(prio)})
		return compileResult{}, apiErr(CodeNotFound, "key %s is not resident and no source was given", key)
	}

	// Overload protection on the compile path: keys whose compiles keep
	// failing fast-fail on the open circuit, then the global shed
	// watermarks drop low-priority traffic while queues are deep.  Both
	// run before the per-shard queue bound so a rejected request never
	// touches the pool.
	if s.breakers != nil {
		if wait, open := s.breakers.allow(key); open {
			t.rejected.Inc()
			s.breakerFast.Inc()
			ms := wait.Milliseconds()
			if ms < 1 {
				ms = retryAfterBreakerMS
			}
			return reject(apiErr(CodeCircuitOpen,
				"key %s is failing repeatedly; circuit open", key).withRetryAfter(ms))
		}
	}
	if apiE := s.shedCheck(prio); apiE != nil {
		t.rejected.Inc()
		return reject(apiE)
	}

	// Admission: shard compile-queue backpressure, then tenant quotas.
	if depth := sh.pool.QueueDepth(); depth >= s.cfg.QueueBound {
		t.rejected.Inc()
		return reject(apiErr(CodeQueueFull,
			"shard %d compile queue at %d (bound %d)", sh.id, depth, s.cfg.QueueBound).
			withRetryAfter(retryAfterQueueMS))
	}
	if apiE := t.admitCompile(); apiE != nil {
		t.rejected.Inc()
		return reject(apiE)
	}
	defer t.releaseCompile()
	fr.Event(flightrec.StageAdmit, flightrec.Event{
		Verdict: "ok", Key: key, Shard: int32(sh.id), Priority: int8(prio)})

	// The flight that compiles the unit pins it for this request before
	// the cache publishes it, so no eviction can reclaim it first.
	var pinned *unit
	doCompile := func() (*core.Func, error) {
		u, err := compileUnit(sh.machine, key, t.name, lang, source, entry)
		if err != nil {
			return nil, err
		}
		u.pins = 1
		pinned = u
		sh.register(u)
		t.resident.Add(u.bytes)
		t.compiles.Inc()
		if s.journal != nil {
			// Group commit: block this flight until the record fsyncs.
			// A degraded journal (write/fsync failure) still serves the
			// unit — the ack just goes out durable=false until the next
			// checkpoint rotation hands the writer a fresh file.
			lsn, jerr := s.journal.append(journalRecord{
				Op:     journalOpAdd,
				Entry:  snapEntryOf(u, sh.id),
				Shards: len(s.shards),
			}, true)
			if jerr == nil {
				u.durable.Store(true)
				u.lsn.Store(lsn)
				fr.Event(flightrec.StageJournal, flightrec.Event{
					Verdict: "durable", Key: key, Shard: int32(sh.id), LSN: lsn})
			} else {
				fr.Event(flightrec.StageJournal, flightrec.Event{
					Verdict: "degraded", Key: key, Shard: int32(sh.id), Detail: truncate(jerr.Error())})
			}
		}
		return u.entryFn, nil
	}
	if inj := s.cfg.Injector; inj != nil {
		doCompile = inj.WrapCompile(doCompile)
	}
	fn, err := sh.cache.GetOrCompile(key, func() (*core.Func, error) {
		// One-item batch: the pool bounds per-shard compile concurrency
		// and is the queue the admission bound watches.
		res := sh.pool.CompileBatch(ctx, []batch.Request{{
			Name:    key,
			Compile: func(*core.Asm) (*core.Func, error) { return doCompile() },
		}})
		return res[0].Func, res[0].Err
	})
	u, verdict := pinned, "compiled"
	if err == nil && u == nil {
		// Coalesced onto another request's flight: pin what it produced,
		// unless the unit was already evicted again.
		verdict = "coalesced"
		if u = sh.pin(key); u == nil {
			err = apiErr(CodeOverloaded, "key %s was evicted before it could run", key).
				withRetryAfter(retryAfterQueueMS)
		}
	}
	if err != nil {
		sh.release(pinned)
		apiE := classifyCompile(err)
		fr.Event(flightrec.StageCache, flightrec.Event{
			Verdict: "error", Key: key, Shard: int32(sh.id), Detail: string(apiE.Code)})
		return compileResult{}, apiE
	}
	fr.Event(flightrec.StageCache, flightrec.Event{
		Verdict: verdict, Key: key, Shard: int32(sh.id)})
	return compileResult{key: key, shard: sh, unit: u, fn: fn, cached: pinned == nil, durable: u.durable.Load()}, nil
}

// truncate bounds error text carried in flight events and logs.
func truncate(s string) string {
	if len(s) > 120 {
		return s[:120]
	}
	return s
}

// execResult is one completed call.
type execResult struct {
	value core.Value
	stats core.CallStats
}

// exec runs one sandboxed call under the tenant's fuel quota and the
// server call timeout.  fr (nil-safe) records the call's engine, fuel
// spend and wall time on the request's flight chain.
func (s *Server) exec(ctx context.Context, fr *flightrec.Request, t *tenant, sh *shard, fn *core.Func, args []core.Value, fuel uint64) (execResult, *APIError) {
	budget := t.quota.FuelPerCall
	if fuel > 0 {
		if budget > 0 && fuel > budget {
			t.rejected.Inc()
			apiE := apiErr(CodeQuotaFuel,
				"requested fuel %d exceeds tenant cap %d", fuel, budget)
			fr.Event(flightrec.StageExec, flightrec.Event{
				Verdict: string(apiE.Code), Shard: int32(sh.id), Tier: 2})
			return execResult{}, apiE
		}
		budget = fuel
	}
	cctx, cancel := context.WithTimeout(ctx, s.cfg.CallTimeout)
	defer cancel()
	v, st, err := sh.machine.CallWithStats(cctx, core.CallOpts{Fuel: budget}, fn, args...)
	sh.calls.Add(1)
	if telemetry.Enabled() {
		s.callNS.Observe(uint64(st.Wall))
		t.callNS.Observe(uint64(st.Wall))
	}
	if err != nil {
		apiE := classify(err)
		fr.Event(flightrec.StageExec, flightrec.Event{
			Verdict: string(apiE.Code), Shard: int32(sh.id), Tier: 2,
			Detail: sh.machine.Engine().String(), Fuel: st.Fuel, DurNS: st.Wall.Nanoseconds()})
		return execResult{}, apiE
	}
	fr.Event(flightrec.StageExec, flightrec.Event{
		Verdict: "ok", Shard: int32(sh.id), Tier: 2,
		Detail: sh.machine.Engine().String(), Fuel: st.Fuel, DurNS: st.Wall.Nanoseconds()})
	return execResult{value: v, stats: st}, nil
}

// requestID returns the caller-supplied ID or mints one.
func (s *Server) requestID(supplied string) string {
	if supplied != "" {
		return supplied
	}
	return fmt.Sprintf("r%06d", s.reqSeq.Add(1))
}

// finishRequest records the request's telemetry, its SLO observation,
// its flight-recorder request record and (at Debug) its structured log
// line.  The request record's flow joins the entry function's lifecycle
// lane when the function is known, so a Perfetto lane ties
// verify/install/call records back to the network request.
func (s *Server) finishRequest(t *tenant, reqID, key string, shardID int, start time.Time, fn *core.Func, fr *flightrec.Request, apiE *APIError) {
	s.requests.Inc()
	t.requests.Inc()
	d := time.Since(start)
	if telemetry.Enabled() {
		s.requestNS.Observe(uint64(d))
		t.requestNS.Observe(uint64(d))
	}
	verdict, errText := "ok", ""
	if apiE != nil {
		s.errorsAll.Inc()
		t.errors.Inc()
		verdict, errText = string(apiE.Code), truncate(apiE.Message)
	}
	// SLO: only 5xx-class failures are the service's fault — typed 4xx
	// rejections spend the caller's budget, not the error objective.
	isFault := apiE != nil && apiE.Status() >= 500
	s.sloGlobal.Observe(uint64(d), isFault)
	t.slo.Observe(uint64(d), isFault)
	var flow uint64
	if fn != nil {
		flow = fn.TraceFlow()
	}
	fr.Finish(verdict, errText, flow)
	if s.log.Enabled(context.Background(), slog.LevelDebug) {
		s.log.Debug("request",
			"request_id", reqID, "tenant", t.name, "shard", shardID,
			"key", key, "code", verdict, "dur_ms", d.Milliseconds())
	}
}

// lookupStats aggregates one shard's cache metrics for /v1/stats.
func (sh *shard) statsView() ShardStats {
	ar := sh.machine.ArenaStats()
	sh.mu.Lock()
	units := len(sh.units)
	sh.mu.Unlock()
	return ShardStats{
		ID:                 sh.id,
		Units:              units,
		UnitBytes:          sh.unitBytes(),
		Calls:              sh.calls.Load(),
		Compiles:           sh.compiles.Load(),
		QueueDepth:         sh.pool.QueueDepth(),
		CodeBytesResident:  ar.CodeBytesResident,
		CodeBytesHighWater: ar.CodeBytesHighWater,
		HeapBytesUsed:      ar.HeapBytesUsed,
		FreeRegions:        ar.FreeRegions,
		InstalledFuncs:     ar.Funcs,
		Cache:              sh.cache.Snapshot(),
	}
}

// ShardStats is one arena's /v1/stats row.
type ShardStats struct {
	ID                 int               `json:"id"`
	Units              int               `json:"units"`
	UnitBytes          int64             `json:"unit_bytes"`
	Calls              uint64            `json:"calls"`
	Compiles           uint64            `json:"compiles"`
	QueueDepth         int64             `json:"queue_depth"`
	CodeBytesResident  uint64            `json:"code_bytes_resident"`
	CodeBytesHighWater uint64            `json:"code_bytes_high_water"`
	HeapBytesUsed      uint64            `json:"heap_bytes_used"`
	FreeRegions        int               `json:"free_regions"`
	InstalledFuncs     int               `json:"installed_funcs"`
	Cache              codecache.Metrics `json:"cache"`
}

// TenantStats is one tenant's /v1/stats row.
type TenantStats struct {
	Name          string `json:"name"`
	Requests      uint64 `json:"requests"`
	Errors        uint64 `json:"errors"`
	Rejected      uint64 `json:"rejected"`
	Compiles      uint64 `json:"compiles"`
	ResidentBytes int64  `json:"resident_bytes"`
	Calls         uint64 `json:"calls"`
	CallP50NS     uint64 `json:"call_p50_ns"`
	CallP99NS     uint64 `json:"call_p99_ns"`
}

// Stats is the /v1/stats document.
type Stats struct {
	Backend     string        `json:"backend"`
	UptimeSec   float64       `json:"uptime_sec"`
	Ready       bool          `json:"ready"`
	Requests    uint64        `json:"requests"`
	Errors      uint64        `json:"errors"`
	RateLimited uint64        `json:"rate_limited"`
	Shed        uint64        `json:"shed"`
	BreakerOpen uint64        `json:"breaker_open"`
	Resharded   uint64        `json:"resharded"`
	RecoveryMS  int64         `json:"recovery_ms"`
	QueueDepth  int64         `json:"queue_depth"`
	CallP50NS   uint64        `json:"call_p50_ns"`
	CallP99NS   uint64        `json:"call_p99_ns"`
	Shards      []ShardStats  `json:"shards"`
	Tenants     []TenantStats `json:"tenants"`
	// SLO is the watchdog's evaluated view (absent when disabled).
	SLO *slo.Snapshot `json:"slo,omitempty"`
}

// StatsView assembles the current service-wide statistics.
func (s *Server) StatsView() Stats {
	ready, _ := s.health.Ready()
	sum := s.callNS.Summary()
	st := Stats{
		Backend:     s.cfg.Backend,
		UptimeSec:   time.Since(s.started).Seconds(),
		Ready:       ready,
		Requests:    s.requests.Load(),
		Errors:      s.errorsAll.Load(),
		RateLimited: s.rateLimited.Load(),
		Shed:        s.shedded.Load(),
		BreakerOpen: s.breakerFast.Load(),
		Resharded:   s.snapResharded.Load(),
		RecoveryMS:  s.recoveryMS.Load(),
		QueueDepth:  s.queueDepth(),
		CallP50NS:   sum.P50,
		CallP99NS:   sum.P99,
	}
	if s.slo != nil {
		snap := s.slo.View()
		st.SLO = &snap
	}
	for _, sh := range s.shards {
		st.Shards = append(st.Shards, sh.statsView())
	}
	for _, name := range s.tenants.names() {
		t, apiE := s.tenants.get(name)
		if apiE != nil {
			continue
		}
		ts := TenantStats{
			Name:          t.name,
			Requests:      t.requests.Load(),
			Errors:        t.errors.Load(),
			Rejected:      t.rejected.Load(),
			Compiles:      t.compiles.Load(),
			ResidentBytes: t.resident.Load(),
		}
		csum := t.callNS.Summary()
		ts.Calls, ts.CallP50NS, ts.CallP99NS = csum.Count, csum.P50, csum.P99
		st.Tenants = append(st.Tenants, ts)
	}
	return st
}

// errorsIs is a tiny helper for tests and drivers: whether err (an
// *APIError or anything else) carries the given code.
func errorsIs(err error, code Code) bool {
	var ae *APIError
	return errors.As(err, &ae) && ae.Code == code
}
