package main

import (
	"encoding/json"
	"fmt"
	"os"
	"time"

	"repro/internal/alpha"
	"repro/internal/cgbench"
	"repro/internal/core"
	"repro/internal/flightrec"
	"repro/internal/jit"
	"repro/internal/mem"
	"repro/internal/mips"
	"repro/internal/server"
	"repro/internal/sparc"
	"repro/internal/telemetry"
)

// jsonReport is the machine-readable benchmark record written by -json.
// The schema string is versioned so downstream tooling (CI key checks,
// the BENCH_pr4.json artifact) can detect format drift.
//
// v2 bounds the record: the telemetry section carries every histogram as
// a fixed-size Summary (count/min/max/mean/p50/p99) but only the top-N
// scalar counters by value — TelemetryElided says how many were cut — and
// the embedded telemetry event dump of v1 is gone (lifecycle spans now go
// to the -trace Chrome-trace file, which Perfetto loads directly).
type jsonReport struct {
	Schema          string                  `json:"schema"`
	Mode            string                  `json:"mode"`
	Codegen         map[string]codegenStats `json:"codegen"`
	Cache           *cacheStats             `json:"cache,omitempty"`
	Compile         *compileStats           `json:"compile,omitempty"`
	Telemetry       map[string]any          `json:"telemetry,omitempty"`
	TelemetryElided int                     `json:"telemetry_elided,omitempty"`
	Profile         *profileStats           `json:"profile,omitempty"`
	Edges           *edgeStats              `json:"edges,omitempty"`
	Serve           *serveStats             `json:"serve,omitempty"`
	Exec            map[string]execStats    `json:"exec,omitempty"`
	Tier3           map[string]tier3Stats   `json:"tier3,omitempty"`
	Superblock      *superblockStats        `json:"superblock,omitempty"`
}

// tier3Stats is the per-backend superblock-tier headline: simulated
// cycles per call of the tier-2 body vs the tier-3 optimized body on the
// loop workload, and their ratio.  Cycle counts are deterministic, so
// benchdiff can gate them with a tight band.
type tier3Stats struct {
	Tier2CyclesPerCall float64 `json:"tier2_cycles_per_call"`
	CyclesPerCall      float64 `json:"cycles_per_call"`
	Speedup            float64 `json:"speedup"`
}

// superblockStats is the tier's lifecycle counters as observed by the
// -tier3 pipeline run (interpret → compile → superblock → bias-flip
// deopt on every backend).  Values are workload-dependent; benchdiff
// gates on the keys staying present.
type superblockStats struct {
	Formed    uint64 `json:"formed"`
	Installed uint64 `json:"installed"`
	SideExits uint64 `json:"side_exits"`
	Deopt     uint64 `json:"deopt"`
}

// execStats is the per-backend execution-engine headline: sandboxed warm
// calls/sec through the predecoded direct-threaded dispatch loop, and
// its speedup over the fetch/switch oracle on the identical workload.
type execStats struct {
	CallsPerSec     float64 `json:"calls_per_sec"`
	SpeedupVsSwitch float64 `json:"speedup_vs_switch"`
}

// serveStats summarizes a -serve-url / -serve-soak run against the
// vcoded server: the load's throughput and tail latency, the typed-error
// mix, and the server's own per-shard / per-tenant accounting.
type serveStats struct {
	Calls        uint64               `json:"calls"`
	Errors       uint64               `json:"errors"`
	Retries      uint64               `json:"retries"`
	CallsPerSec  float64              `json:"calls_per_sec"`
	P50NS        uint64               `json:"p50_ns"`
	P99NS        uint64               `json:"p99_ns"`
	RecoveryMS   float64              `json:"recovery_ms"`
	RateLimited  uint64               `json:"rate_limited"`
	Shed         uint64               `json:"shed"`
	BreakerOpen  uint64               `json:"breaker_open"`
	ErrorsByCode map[string]uint64    `json:"errors_by_code,omitempty"`
	Shards       []server.ShardStats  `json:"shards,omitempty"`
	Tenants      []server.TenantStats `json:"tenants,omitempty"`
	// CallsPerSecByBackend attributes throughput to the execution
	// engine per port: a clean (fault-free) server per backend under
	// the same mixed load.  The aggregate CallsPerSec above remains
	// the fault-injected soak headline.
	CallsPerSecByBackend map[string]float64 `json:"calls_per_sec_by_backend,omitempty"`
	// SLO is the server's watchdog view at the end of the run —
	// benchdiff gates on the presence of these keys so the
	// observability surface can't silently regress.
	SLO *sloStats `json:"slo,omitempty"`
}

// sloStats is the flattened slice of the server's SLO snapshot the
// bench record keeps.
type sloStats struct {
	GlobalP99NS     uint64   `json:"global_p99_ns"`
	GlobalErrorRate float64  `json:"global_error_rate"`
	LatencyBreaches uint64   `json:"latency_breaches"`
	ErrorBreaches   uint64   `json:"error_breaches"`
	BudgetBurnMS    uint64   `json:"budget_burn_ms"`
	Degraded        []string `json:"degraded,omitempty"`
}

// codegenStats is the headline paper number per backend: host nanoseconds
// per generated instruction through the dynamic-register interface, and
// through hard-coded register names (§5.3's ~2x-cheaper path).
type codegenStats struct {
	NsPerInsn     float64 `json:"ns_per_insn"`
	HardNsPerInsn float64 `json:"hard_ns_per_insn"`
}

// cacheStats summarizes the -cache workload.
type cacheStats struct {
	HitRate       float64 `json:"hit_rate"`
	LookupsPerSec float64 `json:"lookups_per_sec"`
	CallsPerSec   float64 `json:"calls_per_sec"`
	Compiles      uint64  `json:"compiles"`
	Evictions     uint64  `json:"evictions"`
	Entries       int64   `json:"entries"`
}

// profileStats summarizes a -profile run (the full sample set goes to the
// pprof file; this is the headline for the JSON record).
type profileStats struct {
	Samples uint64  `json:"samples"`
	Stride  uint64  `json:"stride"`
	Path    string  `json:"path"`
	TopFunc string  `json:"top_func,omitempty"`
	TopPct  float64 `json:"top_pct,omitempty"`
}

// edgeStats summarizes the -annotate branch-profile demo.
type edgeStats struct {
	Events   uint64  `json:"events"`
	Stride   uint64  `json:"stride"`
	Branches int     `json:"branches"`
	TopBias  float64 `json:"top_bias"`
}

func newReport(mode string) *jsonReport {
	return &jsonReport{
		Schema:  "cgbench/v2",
		Mode:    mode,
		Codegen: map[string]codegenStats{},
	}
}

// measureCodegen fills the per-backend ns/generated-instruction numbers.
// All three ports run the same E1 workload; iters trades precision for
// runtime (the -cache path uses a short pass just to populate the keys).
func (r *jsonReport) measureCodegen(iters int) error {
	backends := []core.Backend{mips.New(), sparc.New(), alpha.New()}
	for _, bk := range backends {
		soft, err := emitNsPerInsn(bk, iters, false)
		if err != nil {
			return err
		}
		hard, err := emitNsPerInsn(bk, iters, true)
		if err != nil {
			return err
		}
		r.Codegen[bk.Name()] = codegenStats{NsPerInsn: soft, HardNsPerInsn: hard}
	}
	return nil
}

// emitNsPerInsn times the E1 emit workload on one backend: one warm-up
// pass, then the best of three timed runs of iters repetitions each —
// the minimum is the run least disturbed by the scheduler and GC, which
// is what the CI regression gate should compare.
func emitNsPerInsn(bk core.Backend, iters int, hard bool) (float64, error) {
	a := core.NewAsm(bk)
	_, n, err := cgbench.EmitVCODE(a, cgbench.Blocks, hard)
	if err != nil {
		return 0, err
	}
	best := 0.0
	for pass := 0; pass < 3; pass++ {
		start := time.Now()
		for i := 0; i < iters; i++ {
			if _, n, err = cgbench.EmitVCODE(a, cgbench.Blocks, hard); err != nil {
				return 0, err
			}
		}
		ns := float64(time.Since(start).Nanoseconds()) / float64(iters*n)
		if pass == 0 || ns < best {
			best = ns
		}
	}
	return best, nil
}

// measureExec fills the per-backend engine comparison: the same JIT-
// compiled loop runs warm on the fetch/switch oracle and then on the
// threaded engine, best-of-three timed passes each, so the record
// attributes the call-rate headline to the engine rather than to cache
// or driver effects.
func (r *jsonReport) measureExec(calls int) error {
	// Recording off for the measurement: tens of thousands of per-call
	// records would both distort the rate and flush the workload's
	// lifecycle chain out of the bounded ring before -trace snapshots it.
	if flightrec.Enabled() {
		flightrec.SetEnabled(false)
		defer flightrec.SetEnabled(true)
	}
	r.Exec = map[string]execStats{}
	for _, target := range []string{"mips", "sparc", "alpha"} {
		m, err := jit.NewMachineTarget(target, mem.Uncosted)
		if err != nil {
			return err
		}
		fn, err := m.Compile(jit.Synthetic(1))
		if err != nil {
			return err
		}
		rate := func(engine core.Engine) (float64, error) {
			if err := m.Core().SetEngine(engine); err != nil {
				return 0, err
			}
			best := 0.0
			for pass := 0; pass < 3; pass++ {
				start := time.Now()
				for i := 0; i < calls; i++ {
					got, _, err := m.Run(fn, 10)
					if err != nil {
						return 0, err
					}
					if got != 395 {
						return 0, fmt.Errorf("exec measure (%s, engine %v): got %d, want 395", target, engine, got)
					}
				}
				if cps := float64(calls) / time.Since(start).Seconds(); cps > best {
					best = cps
				}
			}
			return best, nil
		}
		sw, err := rate(core.EngineSwitch)
		if err != nil {
			return err
		}
		th, err := rate(core.EngineThreaded)
		if err != nil {
			return err
		}
		r.Exec[target] = execStats{CallsPerSec: th, SpeedupVsSwitch: th / sw}
	}
	return nil
}

// attachTelemetry copies a bounded registry snapshot into the report:
// histogram summaries plus the top scalar counters, never the full
// metric set.  Call after the workload, with telemetry enabled.
func (r *jsonReport) attachTelemetry() {
	const topN = 48
	r.Telemetry, r.TelemetryElided = telemetry.Default.SummarySnapshot(topN)
}

// write emits the report as indented JSON; path "-" means stdout.
func (r *jsonReport) write(path string) error {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if path == "-" {
		_, err = os.Stdout.Write(data)
		return err
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote %s\n", path)
	return nil
}
