package main

import (
	"repro/internal/telemetry"
)

// codegenSnap is one backend's codegen and call telemetry at one instant.
type codegenSnap struct {
	insns                       uint64
	emitNS, verifyNS, installNS uint64
	emitN, verifyN, installN    uint64
	calls, simInsns, callNS     uint64
}

func snapCodegen(backend string) codegenSnap {
	cg := telemetry.ForBackend(backend)
	return codegenSnap{
		insns:  cg.Insns.Load(),
		emitNS: cg.EmitNS.Sum(), emitN: cg.EmitNS.Count(),
		verifyNS: cg.VerifyNS.Sum(), verifyN: cg.VerifyNS.Count(),
		installNS: cg.InstallNS.Sum(), installN: cg.InstallNS.Count(),
		calls: cg.Calls.Load(), simInsns: cg.SimInsns.Load(), callNS: cg.CallNS.Sum(),
	}
}

// sub returns the counts accumulated between a (earlier) and s.
func (s codegenSnap) sub(a codegenSnap) codegenSnap {
	return codegenSnap{
		insns:  s.insns - a.insns,
		emitNS: s.emitNS - a.emitNS, emitN: s.emitN - a.emitN,
		verifyNS: s.verifyNS - a.verifyNS, verifyN: s.verifyN - a.verifyN,
		installNS: s.installNS - a.installNS, installN: s.installN - a.installN,
		calls: s.calls - a.calls, simInsns: s.simInsns - a.simInsns, callNS: s.callNS - a.callNS,
	}
}

func (s codegenSnap) add(b codegenSnap) codegenSnap {
	return codegenSnap{
		insns:  s.insns + b.insns,
		emitNS: s.emitNS + b.emitNS, emitN: s.emitN + b.emitN,
		verifyNS: s.verifyNS + b.verifyNS, verifyN: s.verifyN + b.verifyN,
		installNS: s.installNS + b.installNS, installN: s.installN + b.installN,
		calls: s.calls + b.calls, simInsns: s.simInsns + b.simInsns, callNS: s.callNS + b.callNS,
	}
}

// codegenMetrics derives the emit, verify and install costs from a
// telemetry delta.
func codegenMetrics(m map[string]float64, d codegenSnap) {
	m["core.emit_us_per_fn"] = ratio(float64(d.emitNS)/1e3, float64(d.emitN))
	m["core.emit_ns_per_insn"] = ratio(float64(d.emitNS), float64(d.insns))
	m["verify.us_per_fn"] = ratio(float64(d.verifyNS)/1e3, float64(d.verifyN))
	m["core.install_us_per_fn"] = ratio(float64(d.installNS)/1e3, float64(d.installN))
}

// loadgenMetrics reports the load generator's per-phase counts; open is
// nil for a workload without an open phase.
func loadgenMetrics(m map[string]float64, closed phaseResult, open *phaseResult) {
	m["loadgen.closed.sent"] = float64(closed.Sent)
	m["loadgen.closed.ok"] = float64(closed.OK)
	m["loadgen.closed.failed"] = float64(closed.Failed)
	for _, k := range []string{"sent", "ok", "failed", "p50_us", "p99_us"} {
		m["loadgen.open."+k] = 0
	}
	m["loadgen.late_p99_us"] = 0
	if open != nil && open.Sent > 0 {
		m["loadgen.open.sent"] = float64(open.Sent)
		m["loadgen.open.ok"] = float64(open.OK)
		m["loadgen.open.failed"] = float64(open.Failed)
		m["loadgen.open.p50_us"] = percentile(open.LatencyUS, 50)
		m["loadgen.open.p99_us"] = percentile(open.LatencyUS, 99)
		m["loadgen.late_p99_us"] = percentile(open.LateUS, 99)
	}
}

// spanMetrics reports each span name's mean self time.
func spanMetrics(m map[string]float64, spans map[string]*layerTime) {
	for _, s := range traceSpans {
		m["span."+s+".self_us"] = 0
		if lt := spans[s]; lt != nil {
			m["span."+s+".self_us"] = lt.MeanSelfUS
		}
	}
}

// zero sets metrics of layers a workload never reaches.
func zero(m map[string]float64, names ...string) {
	for _, n := range names {
		m[n] = 0
	}
}
