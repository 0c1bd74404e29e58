package telemetry

import "sync"

// CodegenStats bundles the per-backend lifecycle instruments, resolved
// once per backend so hot paths update atomics without registry lookups.
type CodegenStats struct {
	// Funcs counts functions completed by v_end; Insns counts the VCODE
	// (source-level) instructions they contained.
	Funcs, Insns *Counter
	// EmitNS..CallNS are per-phase wall-time histograms in nanoseconds.
	EmitNS, VerifyNS, InstallNS, CallNS *Histogram
	// Installs and Uninstalls count code placements and reclamations.
	Installs, Uninstalls *Counter
	// Calls counts completed calls; CallErrors the subset that failed.
	Calls, CallErrors *Counter
	// SimInsns and SimCycles accumulate the simulator's retired
	// instruction and cycle counts across calls.
	SimInsns, SimCycles *Counter
}

var backendStats sync.Map // backend name -> *CodegenStats

// ForBackend returns the Default-registry instrument bundle for a backend
// (memoized; safe for concurrent use).
func ForBackend(backend string) *CodegenStats {
	if s, ok := backendStats.Load(backend); ok {
		return s.(*CodegenStats)
	}
	cg, mc := "codegen."+backend+".", "machine."+backend+"."
	s := &CodegenStats{
		Funcs:      Default.Counter(cg + "funcs"),
		Insns:      Default.Counter(cg + "insns"),
		EmitNS:     Default.Histogram(cg+"emit_ns", nil),
		VerifyNS:   Default.Histogram(mc+"verify_ns", nil),
		InstallNS:  Default.Histogram(mc+"install_ns", nil),
		CallNS:     Default.Histogram(mc+"call_ns", nil),
		Installs:   Default.Counter(mc + "installs"),
		Uninstalls: Default.Counter(mc + "uninstalls"),
		Calls:      Default.Counter(mc + "calls"),
		CallErrors: Default.Counter(mc + "call_errors"),
		SimInsns:   Default.Counter(mc + "sim_insns"),
		SimCycles:  Default.Counter(mc + "sim_cycles"),
	}
	actual, _ := backendStats.LoadOrStore(backend, s)
	return actual.(*CodegenStats)
}
