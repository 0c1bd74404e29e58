package core

import (
	"context"
	"fmt"
	"io"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/exec"
	"repro/internal/flightrec"
	"repro/internal/mem"
	"repro/internal/telemetry"
	"repro/internal/verify"
)

// CPU is the execution substrate for one target: a cycle-counted simulator
// that runs the binary code VCODE emits.  Register access uses the same
// Reg naming as the assembler (GPR/FPR).
type CPU interface {
	// PC returns the current program counter.
	PC() uint64
	// SetPC jumps the simulator (clearing any pending delay slot).
	SetPC(pc uint64)
	// Reg reads an integer register's raw 64-bit contents.
	Reg(r Reg) uint64
	// SetReg writes an integer register.
	SetReg(r Reg, v uint64)
	// FReg reads a floating-point register: IEEE-754 single bits
	// (double=false, low 32 bits) or double bits (double=true).  The
	// width matters on targets that pair FP registers (SPARC).
	FReg(r Reg, double bool) uint64
	// SetFReg writes a floating-point register.
	SetFReg(r Reg, v uint64, double bool)
	// Step executes one instruction (including any delay slot
	// bookkeeping) and returns an error on a fault.
	Step() error
	// Cycles returns the cycle count including memory stalls.
	Cycles() uint64
	// Insns returns the retired instruction count.
	Insns() uint64
	// ResetStats zeroes both counters.
	ResetStats()
}

// SamplingCPU is implemented by simulators that can invoke a hook with
// the pre-execution program counter every fixed number of retired
// instructions — the substrate of the PC-sampling profiler.  The hook
// runs inside Step, so it must not call back into the Machine's locked
// API (the lock-free FuncSpans/SymbolizePC are safe).
type SamplingCPU interface {
	// SetSampler installs fn to fire every stride instructions; nil fn
	// or zero stride disables sampling.
	SetSampler(fn func(pc uint64), stride uint64)
}

// SetSampler installs (or, with a nil fn, removes) a PC-sampling hook on
// the machine's simulator.  It reports an error if the CPU does not
// implement SamplingCPU.
func (m *Machine) SetSampler(fn func(pc uint64), stride uint64) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	sc, ok := m.cpu.(SamplingCPU)
	if !ok {
		return fmt.Errorf("machine: %s CPU does not support PC sampling", m.backend.Name())
	}
	sc.SetSampler(fn, stride)
	return nil
}

// EdgeProfilingCPU is implemented by simulators that can invoke a hook
// with (branch PC, taken) at conditional-branch resolution, countdown-
// gated so only every strideth branch event fires — the substrate of
// basic-block edge profiling.  Like the sampling hook, it runs inside
// Step and must not call back into the Machine's locked API (the
// lock-free FuncSpans/SymbolizePC/InCodeRegion are safe).
type EdgeProfilingCPU interface {
	// SetEdgeProbe installs fn to fire every stride conditional-branch
	// resolutions; nil fn or zero stride disables the probe.
	SetEdgeProbe(fn func(pc uint64, taken bool), stride uint64)
}

// SetEdgeProbe installs (or, with a nil fn, removes) a branch edge probe
// on the machine's simulator.  It reports an error if the CPU does not
// implement EdgeProfilingCPU.
func (m *Machine) SetEdgeProbe(fn func(pc uint64, taken bool), stride uint64) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	ec, ok := m.cpu.(EdgeProfilingCPU)
	if !ok {
		return fmt.Errorf("machine: %s CPU does not support edge profiling", m.backend.Name())
	}
	ec.SetEdgeProbe(fn, stride)
	return nil
}

// TrapHandler implements a runtime helper in the host: it reads arguments
// from the CPU per the emulation convention and writes only the result
// register.
type TrapHandler func(c CPU, m *mem.Memory)

// Machine binds a backend, its CPU simulator and a simulated memory into a
// loader and call harness for generated functions.  It plays the role of
// the linking half of v_end plus the surrounding process: code placement,
// relocation, runtime helper symbols and the call trampoline.
//
// A Machine is safe for concurrent use: installs, uninstalls, allocations
// and calls are serialized by an internal lock (there is one simulated CPU,
// so calls cannot overlap in any case).
type Machine struct {
	mu      sync.Mutex
	backend Backend
	cpu     CPU
	mem     *mem.Memory

	syms  map[string]uint64
	traps map[uint64]TrapHandler

	codeBase uint64
	codeNext uint64
	// codeNextPub mirrors codeNext for lock-free readers (InCodeRegion,
	// called from sampling hooks inside the simulator step loop); it is
	// refreshed after every mutation of codeNext under mu.
	codeNextPub atomic.Uint64
	// freeCode holds code regions returned by Uninstall: sorted by
	// address, coalesced, and all strictly below codeNext.  Installs are
	// served first-fit from here before bumping codeNext.
	freeCode []codeRegion
	heapNext uint64
	heapEnd  uint64
	stackTop uint64
	haltAddr uint64
	trapNext uint64
	trapEnd  uint64

	// MaxSteps bounds a single Call (guards against runaway generated
	// code in tests).
	MaxSteps uint64

	// verifyOff disables the pre-install code verifier (SetVerify).
	verifyOff bool

	// spanList maps installed code regions (and trap vectors) to names;
	// sorted by Start, maintained under mu.  spans is its immutable
	// published copy, rebuilt copy-on-write after every change so the
	// PC-sampling profiler can symbolize from inside the simulator step
	// loop without taking mu (which the run loop already holds).
	spanList []FuncSpan
	spans    atomic.Pointer[[]FuncSpan]

	// tstats caches the telemetry instrument bundle for this backend
	// (resolved lazily on the first enabled-telemetry operation).
	tstats *telemetry.CodegenStats

	// tcpu is the simulator's threaded engine, or nil if the CPU only
	// implements Step; engine selects which one Call uses (engine.go).
	// bodies holds the predecoded body per installed function, sorted by
	// Base; lastBody is a single-entry dispatch cache.  All under mu.
	tcpu     ThreadedCPU
	engine   Engine
	bodies   []*exec.Body
	lastBody *exec.Body

	trace io.Writer
}

// FuncSpan maps one installed code region — or a trap vector — to a
// symbolic name: the install-time address map behind SymbolizePC and the
// PC-sampling profiler.
type FuncSpan struct {
	// Start and End bound the region as [Start, End).
	Start, End uint64
	// Name is the installed function's name, or the trap symbol.
	Name string
}

// Memory layout of a Machine (all regions within the simulated memory):
//
//	0x0000_0040 .. 0x0000_0fff   trap vectors (halt, runtime helpers)
//	0x0000_1000 ..               installed code, growing up
//	memsize/2   ..               heap (Machine.Alloc), growing up
//	memsize     ..               stack, growing down
const (
	trapBase = 0x40
	codeBase = 0x1000
)

// NewMachine builds a machine around a backend, a CPU simulator for that
// backend's ISA, and a memory.  The standard runtime helpers (integer
// division/remainder emulation) are pre-registered.
func NewMachine(b Backend, cpu CPU, m *mem.Memory) *Machine {
	mc := &Machine{
		backend:  b,
		cpu:      cpu,
		mem:      m,
		syms:     make(map[string]uint64),
		traps:    make(map[uint64]TrapHandler),
		codeBase: codeBase,
		codeNext: codeBase,
		heapNext: m.Size() / 2,
		heapEnd:  m.Size() - 1<<20,
		stackTop: m.Size() - 64, // a little headroom above SP
		trapNext: trapBase + 16,
		trapEnd:  codeBase,
		MaxSteps: 1 << 28,
	}
	mc.haltAddr = trapBase
	if t, ok := cpu.(ThreadedCPU); ok {
		mc.tcpu = t
		mc.engine = EngineThreaded
	}
	mc.codeNextPub.Store(mc.codeNext)
	mc.spanList = append(mc.spanList, FuncSpan{Start: trapBase, End: trapBase + 16, Name: "<halt>"})
	registerDivHelpers(mc)
	mc.publishSpans()
	return mc
}

// stats lazily resolves the machine's telemetry handles (callers hold mu
// or are otherwise serialized; NewMachine runs before any concurrency).
func (m *Machine) stats() *telemetry.CodegenStats {
	if m.tstats == nil {
		m.tstats = telemetry.ForBackend(m.backend.Name())
	}
	return m.tstats
}

// Backend returns the machine's target port.
func (m *Machine) Backend() Backend { return m.backend }

// CPU returns the simulator (for cycle/instruction statistics).
func (m *Machine) CPU() CPU { return m.cpu }

// Mem returns the simulated memory.
func (m *Machine) Mem() *mem.Memory { return m.mem }

// DefineTrap registers a runtime helper under a symbol name, callable from
// generated code via CallSym.  The handler must follow the emulation
// convention: read arguments from the argument registers, write only the
// return register (the paper's emulation routines preserve all
// caller-saved registers, which lets VCODE call them even from leaves).
func (m *Machine) DefineTrap(sym string, h TrapHandler) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, dup := m.syms[sym]; dup {
		return fmt.Errorf("machine: symbol %q already defined", sym)
	}
	if m.trapNext+16 > m.trapEnd {
		return fmt.Errorf("machine: trap table full")
	}
	addr := m.trapNext
	m.trapNext += 16
	m.syms[sym] = addr
	m.traps[addr] = h
	m.addSpan(FuncSpan{Start: addr, End: addr + 16, Name: sym})
	return nil
}

// addSpan inserts s into the address map (sorted by Start) and publishes
// a fresh immutable snapshot.  Caller holds mu (or is pre-concurrency).
func (m *Machine) addSpan(s FuncSpan) {
	i := sort.Search(len(m.spanList), func(i int) bool { return m.spanList[i].Start >= s.Start })
	m.spanList = append(m.spanList, FuncSpan{})
	copy(m.spanList[i+1:], m.spanList[i:])
	m.spanList[i] = s
	m.publishSpans()
}

// removeSpan drops the span starting at start.  Caller holds mu.
func (m *Machine) removeSpan(start uint64) {
	for i, s := range m.spanList {
		if s.Start == start {
			m.spanList = append(m.spanList[:i], m.spanList[i+1:]...)
			m.publishSpans()
			return
		}
	}
}

// pruneSpans drops every code span at or above limit (Release reclaims
// wholesale; trap vectors live below codeBase and are never pruned).
// Caller holds mu.
func (m *Machine) pruneSpans(limit uint64) {
	kept := m.spanList[:0]
	for _, s := range m.spanList {
		if s.Start >= m.codeBase && s.Start >= limit {
			continue
		}
		kept = append(kept, s)
	}
	m.spanList = kept
	m.publishSpans()
}

func (m *Machine) publishSpans() {
	cp := append([]FuncSpan(nil), m.spanList...)
	m.spans.Store(&cp)
}

// FuncSpans returns the current install-time address map as an immutable,
// Start-sorted slice.  It is lock-free and safe to call from a sampling
// hook running inside the simulator.
func (m *Machine) FuncSpans() []FuncSpan {
	if p := m.spans.Load(); p != nil {
		return *p
	}
	return nil
}

// InCodeRegion reports whether pc falls inside the machine's code arena
// (at or above the code base and below the allocation high-water mark).
// Lock-free; safe from a sampling hook.  A PC that is in the region but
// fails SymbolizePC points at code that was installed and since evicted.
func (m *Machine) InCodeRegion(pc uint64) bool {
	return pc >= m.codeBase && pc < m.codeNextPub.Load()
}

// SymbolizePC resolves a program counter to the name of the installed
// function (or trap vector) containing it.  Lock-free; safe from a
// sampling hook.
func (m *Machine) SymbolizePC(pc uint64) (string, bool) {
	spans := m.FuncSpans()
	i := sort.Search(len(spans), func(i int) bool { return spans[i].Start > pc })
	if i > 0 && pc < spans[i-1].End {
		return spans[i-1].Name, true
	}
	return "", false
}

// DefineSym binds a symbol to an arbitrary address (e.g. a data table the
// generated code should reference).
func (m *Machine) DefineSym(sym string, addr uint64) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, dup := m.syms[sym]; dup {
		return fmt.Errorf("machine: symbol %q already defined", sym)
	}
	m.syms[sym] = addr
	return nil
}

// Mark captures the machine's code and heap allocation state so that
// everything installed or allocated afterwards can be reclaimed in one
// Release — the arena discipline behind the paper's observation that a
// dynamic function's storage "is easily reclaimed when the function is
// deallocated" (§5.2).
type Mark struct {
	code, heap uint64
}

// Mark returns the current allocation watermark.
func (m *Machine) Mark() Mark {
	m.mu.Lock()
	defer m.mu.Unlock()
	return Mark{code: m.codeNext, heap: m.heapNext}
}

// Release reclaims all code and heap space allocated since mk was taken.
// Functions installed after the mark become invalid and must not be
// called or re-installed.  Mark/Release is a stack discipline; it and the
// per-function Uninstall path are alternatives — free regions above the
// mark are simply forgotten (the bump pointer subsumes them).
func (m *Machine) Release(mk Mark) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if mk.code >= m.codeBase && mk.code <= m.codeNext {
		m.codeNext = mk.code
		kept := m.freeCode[:0]
		for _, r := range m.freeCode {
			if r.addr >= m.codeNext {
				continue
			}
			if r.addr+r.size > m.codeNext {
				r.size = m.codeNext - r.addr
			}
			kept = append(kept, r)
		}
		m.freeCode = kept
		m.codeNextPub.Store(m.codeNext)
		m.pruneSpans(m.codeNext)
		m.dropBodies(m.codeNext, m.mem.Size()-m.codeNext)
	}
	if mk.heap <= m.heapNext && mk.heap >= m.mem.Size()/2 {
		m.heapNext = mk.heap
	}
}

// Alloc reserves n bytes of heap, aligned to at least 16 bytes, and
// returns the simulated address.
func (m *Machine) Alloc(n int) (uint64, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	addr := (m.heapNext + 15) &^ 15
	if addr+uint64(n) > m.heapEnd {
		return 0, fmt.Errorf("machine: heap exhausted (%d bytes requested)", n)
	}
	m.heapNext = addr + uint64(n)
	return addr, nil
}

// codeRegion is a span of reclaimable simulated code memory.
type codeRegion struct {
	addr, size uint64
}

// sumWords fingerprints machine code: four interleaved FNV-1a lanes
// folded at the end.  The lanes break the serial xor-multiply dependency
// chain — this runs on every call of an installed function (the
// mutation-after-install guard in installPrecheck), so its latency is
// part of the warm call path.
func sumWords(words []uint32) uint64 {
	const offset, prime = 14695981039346656037, 1099511628211
	h0 := uint64(offset)
	h1 := uint64(offset) ^ 0x9e3779b97f4a7c15
	h2 := uint64(offset) ^ 0xc2b2ae3d27d4eb4f
	h3 := uint64(offset) ^ 0x165667b19e3779f9
	i := 0
	for ; i+4 <= len(words); i += 4 {
		h0 = (h0 ^ uint64(words[i])) * prime
		h1 = (h1 ^ uint64(words[i+1])) * prime
		h2 = (h2 ^ uint64(words[i+2])) * prime
		h3 = (h3 ^ uint64(words[i+3])) * prime
	}
	for ; i < len(words); i++ {
		h0 = (h0 ^ uint64(words[i])) * prime
	}
	return ((h0*prime^h1)*prime^h2)*prime ^ h3
}

// Install places f (and, recursively, every generated function it
// references) into simulated code memory and resolves its relocations.
// Re-installing an installed, unmodified function is a no-op; if the
// function's code was mutated since it was installed, or it is installed
// on a different Machine, Install reports an error instead of silently
// running stale code.
func (m *Machine) Install(f *Func) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.install(f)
}

// TakeAddr returns f's callable entry address for a front end to store
// in simulated memory — a dispatch table, a function pointer — and marks
// f address-taken: once f is uninstalled, calling it fails with
// ErrUninstalled instead of re-installing it on demand, because the
// stored addresses (its own, and its siblings') would still point at the
// reclaimed regions.
func (m *Machine) TakeAddr(f *Func) uint64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	f.addrTaken = true
	return f.EntryAddr()
}

// Installed reports whether f is currently installed on this machine (a
// function released wholesale via Release still claims to be installed —
// Mark/Release does not track individual functions).
func (m *Machine) Installed(f *Func) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return f.installed && f.owner == m
}

// Uninstall removes an installed function, returning its code region to a
// free list that later installs reuse — the per-function reclamation path
// a cache with out-of-order eviction needs, complementing the paper's
// stack-style Mark/Release arena (§5.2).  Only f's own words are freed;
// functions it references stay installed.  The caller must ensure nothing
// resident still jumps into f.  The function itself stays valid and may be
// installed again (here or on another machine).  A call re-installs an
// uninstalled function on demand unless its address was taken
// (TakeAddr): that call fails with ErrUninstalled until an explicit
// Install, rather than running next to stale stored addresses.
func (m *Machine) Uninstall(f *Func) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if !f.installed {
		return fmt.Errorf("machine: uninstall %s: not installed", f.Name)
	}
	if f.owner != m {
		return fmt.Errorf("machine: uninstall %s: installed on a different machine", f.Name)
	}
	m.dropBodies(f.addr, f.codeSize)
	m.freeRegion(codeRegion{addr: f.addr, size: f.codeSize})
	m.removeSpan(f.addr)
	if telemetry.Enabled() {
		m.stats().Uninstalls.Inc()
	}
	if flightrec.Enabled() {
		flightrec.Record(flightrec.KindEvict, f.BackendName, f.Name, f.lifecycleFlow(),
			time.Now(), 0, flightrec.Attrs{Bytes: int64(f.codeSize)})
	}
	f.addr = 0
	f.installed = false
	f.uninstalled = true
	f.owner = nil
	f.codeSize = 0
	f.sumValid = false
	return nil
}

// ArenaStats is a point-in-time view of one machine's memory arenas —
// the per-shard residency snapshot a multi-arena server reports and
// sizes admission against.
type ArenaStats struct {
	// CodeBytesResident is installed code occupying the code region
	// (allocated span minus freed holes); CodeBytesHighWater is the
	// bump-pointer high-water mark including holes.
	CodeBytesResident, CodeBytesHighWater uint64
	// FreeRegions is the current free-list length (fragmentation signal).
	FreeRegions int
	// HeapBytesUsed is bump-allocated heap (dispatch tables, data
	// sections); heap is reclaimed only by Mark/Release.
	HeapBytesUsed uint64
	// Funcs is the number of installed code spans (trap vectors excluded).
	Funcs int
}

// ArenaStats captures the machine's current arena occupancy.
func (m *Machine) ArenaStats() ArenaStats {
	m.mu.Lock()
	defer m.mu.Unlock()
	var free uint64
	for _, r := range m.freeCode {
		free += r.size
	}
	funcs := 0
	for _, s := range m.spanList {
		if s.Start >= m.codeBase {
			funcs++
		}
	}
	return ArenaStats{
		CodeBytesResident:  m.codeNext - m.codeBase - free,
		CodeBytesHighWater: m.codeNext - m.codeBase,
		FreeRegions:        len(m.freeCode),
		HeapBytesUsed:      m.heapNext - m.mem.Size()/2,
		Funcs:              funcs,
	}
}

// CodeBytesResident returns the installed code bytes currently occupying
// the code region (allocated span minus freed holes).
func (m *Machine) CodeBytesResident() uint64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	var free uint64
	for _, r := range m.freeCode {
		free += r.size
	}
	return m.codeNext - m.codeBase - free
}

// freeRegion inserts r into the free list sorted by address, coalescing
// with its neighbours, then gives back any free tail to the bump pointer.
func (m *Machine) freeRegion(r codeRegion) {
	i := 0
	for i < len(m.freeCode) && m.freeCode[i].addr < r.addr {
		i++
	}
	m.freeCode = append(m.freeCode, codeRegion{})
	copy(m.freeCode[i+1:], m.freeCode[i:])
	m.freeCode[i] = r
	// Coalesce with the successor, then the predecessor.
	if i+1 < len(m.freeCode) && r.addr+r.size == m.freeCode[i+1].addr {
		m.freeCode[i].size += m.freeCode[i+1].size
		m.freeCode = append(m.freeCode[:i+1], m.freeCode[i+2:]...)
	}
	if i > 0 && m.freeCode[i-1].addr+m.freeCode[i-1].size == m.freeCode[i].addr {
		m.freeCode[i-1].size += m.freeCode[i].size
		m.freeCode = append(m.freeCode[:i], m.freeCode[i+1:]...)
	}
	if n := len(m.freeCode); n > 0 {
		if top := m.freeCode[n-1]; top.addr+top.size == m.codeNext {
			m.codeNext = top.addr
			m.freeCode = m.freeCode[:n-1]
			m.codeNextPub.Store(m.codeNext)
		}
	}
}

// allocCode reserves a 16-aligned code span: first fit from the free list,
// else the bump pointer.
func (m *Machine) allocCode(size uint64) (uint64, error) {
	for i, r := range m.freeCode {
		if r.size >= size {
			addr := r.addr
			if r.size == size {
				m.freeCode = append(m.freeCode[:i], m.freeCode[i+1:]...)
			} else {
				m.freeCode[i] = codeRegion{addr: r.addr + size, size: r.size - size}
			}
			return addr, nil
		}
	}
	addr := (m.codeNext + 15) &^ 15
	end := addr + size
	if end > m.heapNext-(m.heapEnd-m.heapNext) && end > m.mem.Size()/2 {
		return 0, fmt.Errorf("machine: code region exhausted")
	}
	m.codeNext = end
	m.codeNextPub.Store(m.codeNext)
	return addr, nil
}

// installSize is the 16-aligned code-region reservation f needs.
func installSize(f *Func) uint64 { return (uint64(4*len(f.Words)) + 15) &^ 15 }

// installPrecheck handles the cases where no code placement should
// happen: f is already installed here (possibly mutated since), installed
// elsewhere, or targets the wrong backend.  done means install must
// return err (nil for the benign already-installed case) without placing
// code.  Caller holds mu.
func (m *Machine) installPrecheck(f *Func) (done bool, err error) {
	if f == nil {
		return true, fmt.Errorf("machine: install of nil function")
	}
	if f.installed {
		if f.owner != m {
			return true, fmt.Errorf("machine: %s is installed on a different machine", f.Name)
		}
		if f.sumValid && sumWords(f.Words) != f.sum {
			return true, fmt.Errorf("machine: %s was mutated after install; Uninstall it first", f.Name)
		}
		return true, nil
	}
	if f.BackendName != m.backend.Name() {
		return true, fmt.Errorf("machine: %s code installed on %s machine", f.BackendName, m.backend.Name())
	}
	return false, nil
}

// spanName labels f's code region in the address map.
func (f *Func) spanName() string {
	if f.Name == "" {
		return fmt.Sprintf("func@%#x", f.addr)
	}
	return f.Name
}

func (m *Machine) install(f *Func) error {
	if done, err := m.installPrecheck(f); done || err != nil {
		return err
	}
	var start time.Time
	if observed() {
		start = time.Now()
	}
	size := installSize(f)
	addr, err := m.allocCode(size)
	if err != nil {
		return err
	}
	f.addr = addr
	f.installed = true
	f.owner = m
	f.codeSize = size
	f.sumValid = false
	resolved, err := m.resolveRelocs(f, nil)
	var image []byte
	if err == nil {
		image, err = m.linkAndVerify(f, resolved, m.validCallTarget, m.verifyOff)
	}
	if err == nil {
		err = m.mem.WriteBytes(f.addr, image)
	}
	if err != nil {
		// Roll back so a rejected function neither leaks code space nor
		// claims to be installed (a later retry — e.g. after the missing
		// symbol is defined — starts clean).
		m.freeRegion(codeRegion{addr: f.addr, size: f.codeSize})
		f.addr = 0
		f.installed = false
		f.owner = nil
		f.codeSize = 0
		return err
	}
	f.sum = sumWords(f.Words)
	f.sumValid = true
	f.uninstalled = false
	m.addSpan(FuncSpan{Start: addr, End: addr + size, Name: f.spanName()})
	if m.tcpu != nil {
		// f.Words were patched in place by linkAndVerify, so they match
		// the installed image exactly.
		m.attachBody(m.tcpu.Predecode(f.Words, f.addr))
	}
	if !start.IsZero() {
		// Nested installs (referenced functions) are timed individually;
		// the parent's duration includes its children.
		d := time.Since(start)
		if telemetry.Enabled() {
			st := m.stats()
			st.InstallNS.Observe(uint64(d))
			st.Installs.Inc()
		}
		if flightrec.Enabled() {
			flightrec.Record(flightrec.KindInstall, f.BackendName, f.Name, f.lifecycleFlow(),
				start, d, flightrec.Attrs{Bytes: int64(size)})
		}
	}
	return nil
}

// resolvedReloc is one relocation with its target address pinned — the
// part of linking that needs the machine's symbol table and therefore the
// lock.
type resolvedReloc struct {
	kind   RelocKind
	sites  []int
	target uint64
}

// resolveRelocs pins every relocation of f to an absolute target address,
// recursively installing referenced functions that are not placed yet.
// assigned maps batch members to their pre-reserved base addresses so
// intra-batch references resolve before the members are committed.
// Caller holds mu.
func (m *Machine) resolveRelocs(f *Func, assigned map[*Func]uint64) ([]resolvedReloc, error) {
	if len(f.Relocs) == 0 {
		return nil, nil
	}
	out := make([]resolvedReloc, 0, len(f.Relocs))
	for _, r := range f.Relocs {
		var target uint64
		switch {
		case r.Target != nil:
			base, ok := assigned[r.Target]
			if !ok {
				if err := m.install(r.Target); err != nil {
					return nil, err
				}
				base = r.Target.addr
			}
			switch {
			case r.Kind == RelocCall:
				target = base + 4*uint64(r.Target.Entry)
			case r.Addend == relocEntry:
				target = base + 4*uint64(r.Target.Entry)
			default:
				target = base + uint64(r.Addend)
			}
		default:
			a, ok := m.syms[r.Sym]
			if !ok {
				return nil, fmt.Errorf("machine: undefined symbol %q in %s", r.Sym, f.Name)
			}
			target = a + uint64(r.Addend)
		}
		out = append(out, resolvedReloc{kind: r.Kind, sites: r.Sites, target: target})
	}
	return out, nil
}

// linkAndVerify patches f's words with the resolved relocation targets,
// runs the pre-install verifier, and encodes the finished image in target
// byte order.  It reads only f, the stateless backend, and the supplied
// extern predicate — no machine state — so batched installs run it
// without the machine lock, in parallel across functions.
func (m *Machine) linkAndVerify(f *Func, resolved []resolvedReloc, extern func(uint64) bool, verifyOff bool) ([]byte, error) {
	buf := &Buf{w: f.Words}
	for _, r := range resolved {
		var err error
		switch r.kind {
		case RelocCall:
			err = m.backend.PatchCall(buf, r.sites, f.addr, r.target)
		case RelocAddr:
			err = m.backend.PatchAddr(buf, r.sites, r.target)
		}
		if err != nil {
			return nil, fmt.Errorf("machine: relocating %s: %w", f.Name, err)
		}
	}

	if !verifyOff {
		if err := m.verifyFunc(f, extern); err != nil {
			return nil, err
		}
	}

	// Encode the finished words in target byte order.
	image := make([]byte, 4*len(f.Words))
	big := m.backend.BigEndian()
	for i, w := range f.Words {
		if big {
			image[4*i] = byte(w >> 24)
			image[4*i+1] = byte(w >> 16)
			image[4*i+2] = byte(w >> 8)
			image[4*i+3] = byte(w)
		} else {
			image[4*i] = byte(w)
			image[4*i+1] = byte(w >> 8)
			image[4*i+2] = byte(w >> 16)
			image[4*i+3] = byte(w >> 24)
		}
	}
	return image, nil
}

// externSnapshot captures validCallTarget's answer set — the halt vector,
// the trap table, and the current code-region bounds — so batch verifiers
// can consult it without holding mu.  Caller holds mu; the snapshot is
// taken after the batch reservation, so intra-batch calls are in range.
func (m *Machine) externSnapshot() func(uint64) bool {
	traps := make(map[uint64]struct{}, len(m.traps))
	for a := range m.traps {
		traps[a] = struct{}{}
	}
	halt, base, next := m.haltAddr, m.codeBase, m.codeNext
	return func(addr uint64) bool {
		if addr == halt {
			return true
		}
		if _, ok := traps[addr]; ok {
			return true
		}
		return addr >= base && addr < next && addr%4 == 0
	}
}

// reflectDuplicates copies the first instance's outcome onto any
// duplicate *Func entries in a batch.
func reflectDuplicates(fns []*Func, firstIdx map[*Func]int, errs []error) {
	for i, f := range fns {
		if f == nil {
			continue
		}
		if j, ok := firstIdx[f]; ok && j != i {
			errs[i] = errs[j]
		}
	}
}

// InstallBatch installs fns in one batched, verification-included install
// with a single contiguous arena reservation covering the whole batch.
// The work is split so the expensive middle runs outside the lock:
//
//  1. (locked) prechecks, one contiguous code reservation, address
//     assignment, and relocation-target resolution for every function;
//  2. (unlocked) linking, verification and image encoding, fanned across
//     min(parallelism, len(fns)) goroutines — pure per-function work
//     (parallelism <= 0 means GOMAXPROCS);
//  3. (locked) the commit: images are copied into simulated memory and
//     the address map is sorted and published once for the whole batch.
//
// The returned slice has one error per input (nil on success).  A
// rejected function's sub-reservation returns to the free list while its
// siblings install.  If ctx is canceled before the commit, the whole
// reservation is released, no function from the batch becomes installed,
// and every pending item reports the context's error — there are no
// half-installed bodies.
//
// The caller must own fns exclusively for the duration of the call (no
// concurrent Install or Call on the same *Func values).  Functions
// already installed on m are tolerated and report success.
func (m *Machine) InstallBatch(ctx context.Context, parallelism int, fns []*Func) []error {
	errs := make([]error, len(fns))
	if len(fns) == 0 {
		return errs
	}
	if ctx == nil {
		ctx = context.Background()
	}
	var start time.Time
	if observed() {
		start = time.Now()
	}

	type item struct {
		f        *Func
		idx      int // index into fns/errs
		size     uint64
		resolved []resolvedReloc
		image    []byte
		body     *exec.Body // predecoded in phase 2, attached in phase 3
		linkNS   int64
		skip     bool // phase-1 failure; later phases pass it over
	}

	// --- phase 1 (locked): reserve, assign, resolve ---
	m.mu.Lock()
	items := make([]*item, 0, len(fns))
	firstIdx := make(map[*Func]int, len(fns))
	assigned := make(map[*Func]uint64, len(fns))
	var total uint64
	for i, f := range fns {
		if f != nil {
			if _, dup := firstIdx[f]; dup {
				continue // reflectDuplicates mirrors the first outcome
			}
			firstIdx[f] = i
		}
		if done, err := m.installPrecheck(f); done || err != nil {
			errs[i] = err
			continue
		}
		size := installSize(f)
		assigned[f] = total // offset within the reservation, for now
		items = append(items, &item{f: f, idx: i, size: size})
		total += size
	}
	if len(items) == 0 {
		m.mu.Unlock()
		reflectDuplicates(fns, firstIdx, errs)
		return errs
	}
	base, err := m.allocCode(total)
	if err != nil {
		// The contiguous reservation failed (fragmentation, or a batch
		// larger than the remaining arena): fall back to per-function
		// placement under this same lock so individually fitting
		// functions still install.
		for _, it := range items {
			errs[it.idx] = m.install(it.f)
		}
		m.mu.Unlock()
		reflectDuplicates(fns, firstIdx, errs)
		return errs
	}
	for _, it := range items {
		f := it.f
		f.addr = base + assigned[f]
		assigned[f] = f.addr
		f.owner = m
		f.codeSize = it.size
		f.sumValid = false
	}
	for _, it := range items {
		var rerr error
		if it.resolved, rerr = m.resolveRelocs(it.f, assigned); rerr != nil {
			errs[it.idx] = rerr
			it.skip = true
		}
	}
	extern := m.externSnapshot()
	verifyOff := m.verifyOff
	m.mu.Unlock()

	// --- phase 2 (unlocked): link + verify + encode, fanned out ---
	if ctx.Err() == nil {
		n := parallelism
		if n <= 0 {
			n = runtime.GOMAXPROCS(0)
		}
		if n > len(items) {
			n = len(items)
		}
		work := make(chan *item)
		var wg sync.WaitGroup
		for w := 0; w < n; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for it := range work {
					if ctx.Err() != nil {
						continue // the commit below reports the ctx error
					}
					t0 := time.Now()
					image, lerr := m.linkAndVerify(it.f, it.resolved, extern, verifyOff)
					it.linkNS = time.Since(t0).Nanoseconds()
					if lerr != nil {
						errs[it.idx] = lerr // each item owns only its slot
						it.skip = true
						continue
					}
					it.image = image
					if m.tcpu != nil {
						// Predecode is pure, so it parallelizes with the
						// linking fan-out; the body is attached under the
						// commit lock in phase 3.
						it.body = m.tcpu.Predecode(it.f.Words, it.f.addr)
					}
				}
			}()
		}
		for _, it := range items {
			if !it.skip {
				work <- it
			}
		}
		close(work)
		wg.Wait()
	}

	// --- phase 3 (locked): commit or abort ---
	m.mu.Lock()
	if cerr := ctx.Err(); cerr != nil {
		// Abort: the whole reservation is returned and nothing from this
		// batch becomes installed or visible.
		for _, it := range items {
			f := it.f
			f.addr = 0
			f.owner = nil
			f.codeSize = 0
		}
		m.freeRegion(codeRegion{addr: base, size: total})
		m.mu.Unlock()
		for _, it := range items {
			if errs[it.idx] == nil {
				errs[it.idx] = cerr
			}
		}
		reflectDuplicates(fns, firstIdx, errs)
		return errs
	}
	installed := 0
	var linkTotal int64
	for _, it := range items {
		f := it.f
		if !it.skip && errs[it.idx] == nil {
			errs[it.idx] = m.mem.WriteBytes(f.addr, it.image)
		}
		if errs[it.idx] != nil {
			m.freeRegion(codeRegion{addr: f.addr, size: it.size})
			f.addr = 0
			f.owner = nil
			f.codeSize = 0
			continue
		}
		f.sum = sumWords(f.Words)
		f.sumValid = true
		f.installed = true
		f.uninstalled = false
		m.spanList = append(m.spanList, FuncSpan{Start: f.addr, End: f.addr + it.size, Name: f.spanName()})
		m.attachBody(it.body)
		installed++
		linkTotal += it.linkNS
	}
	if installed > 0 {
		// One sort + one copy-on-write publication for the whole batch —
		// the amortization a per-function install cannot have.
		sort.Slice(m.spanList, func(i, j int) bool { return m.spanList[i].Start < m.spanList[j].Start })
		m.publishSpans()
	}
	m.mu.Unlock()

	if !start.IsZero() && installed > 0 {
		// Per-item install spans: the item's own (parallel) link + verify
		// + encode time plus an equal share of the locked phases.
		share := (time.Since(start).Nanoseconds() - linkTotal) / int64(installed)
		if share < 0 {
			share = 0
		}
		for _, it := range items {
			f := it.f
			if errs[it.idx] != nil {
				continue
			}
			d := time.Duration(it.linkNS + share)
			if telemetry.Enabled() {
				st := telemetry.ForBackend(f.BackendName)
				st.InstallNS.Observe(uint64(d))
				st.Installs.Inc()
			}
			if flightrec.Enabled() {
				flightrec.Record(flightrec.KindInstall, f.BackendName, f.Name, f.lifecycleFlow(),
					start, d, flightrec.Attrs{Bytes: int64(it.size)})
			}
		}
	}
	reflectDuplicates(fns, firstIdx, errs)
	return errs
}

// SetVerify enables or disables the pre-install code verifier.  It is on
// by default; benchmarks that install in a hot loop may turn it off.
func (m *Machine) SetVerify(on bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.verifyOff = !on
}

// verifyFunc runs the static verifier over f's relocated image.  extern
// answers out-of-function call-target queries: m.validCallTarget under
// the lock, or an externSnapshot closure from a lock-free batch phase.
// The function reads no mutable machine state (telemetry goes through
// the concurrency-safe ForBackend lookup), so batch installs call it
// from their parallel phase.
func (m *Machine) verifyFunc(f *Func, extern func(uint64) bool) error {
	var start time.Time
	if observed() {
		start = time.Now()
	}
	var prs []verify.PoolRef
	for _, r := range f.Relocs {
		if r.Kind == RelocAddr && r.Target == f && r.Addend != relocEntry {
			prs = append(prs, verify.PoolRef{Sites: r.Sites, Offset: r.Addend, Size: 8})
		}
	}
	ps := f.PoolStart
	if ps < f.Entry || ps > len(f.Words) {
		ps = len(f.Words)
	}
	err := verify.Verify(m.backend, &verify.Code{
		Name:      f.Name,
		Words:     f.Words,
		Base:      f.addr,
		Entry:     f.Entry,
		PoolStart: ps,
		PoolRefs:  prs,
	}, verify.Options{ExternTarget: extern})
	if !start.IsZero() {
		d := time.Since(start)
		if telemetry.Enabled() {
			telemetry.ForBackend(f.BackendName).VerifyNS.Observe(uint64(d))
		}
		if flightrec.Enabled() {
			verdict := "ok"
			if err != nil {
				verdict = "reject"
			}
			flightrec.Record(flightrec.KindVerify, f.BackendName, f.Name, f.lifecycleFlow(),
				start, d, flightrec.Attrs{N: int64(len(f.Words)), Verdict: verdict, Detail: errText(err)})
		}
	}
	return err
}

// errText renders an error for a span attribute, bounded so one failure
// cannot bloat the ring.
func errText(err error) string {
	if err == nil {
		return ""
	}
	s := err.Error()
	if len(s) > 120 {
		s = s[:120]
	}
	return s
}

// validCallTarget reports whether an out-of-function call target is an
// address the machine can account for: the halt vector, a registered trap,
// or somewhere in the installed-code region.
func (m *Machine) validCallTarget(addr uint64) bool {
	if addr == m.haltAddr {
		return true
	}
	if _, ok := m.traps[addr]; ok {
		return true
	}
	return addr >= m.codeBase && addr < m.codeNext && addr%4 == 0
}

// CallOpts tunes the sandbox around one call.
type CallOpts struct {
	// Fuel bounds the number of simulated steps (instructions plus trap
	// dispatches) this call may consume; 0 means no per-call budget (the
	// machine-wide MaxSteps backstop still applies).  Exhaustion returns
	// an error wrapping ErrFuelExhausted.
	Fuel uint64
	// PollStride is how many steps run between context checks; 0 means
	// the default (1024).  Smaller strides bound cancellation latency
	// more tightly at a small dispatch cost.
	PollStride uint64
}

// Call installs f if needed, marshals args per the backend's default
// calling convention, runs the simulator until the function returns, and
// returns the typed result.
func (m *Machine) Call(f *Func, args ...Value) (Value, error) {
	return m.CallWith(context.Background(), CallOpts{}, f, args...)
}

// CallContext is Call with cancellation: the run loop polls ctx on a
// stride and returns ctx.Err() (wrapped) once the deadline passes or the
// context is canceled.
func (m *Machine) CallContext(ctx context.Context, f *Func, args ...Value) (Value, error) {
	return m.CallWith(ctx, CallOpts{}, f, args...)
}

// CallWith is the fully sandboxed call: context cancellation, a per-call
// fuel budget, trap-handler panic recovery, and a last-resort recover
// around the simulator itself.  Every failure surfaces as a typed error;
// the call never panics and never outlives ctx by more than one poll
// stride of simulated steps.
func (m *Machine) CallWith(ctx context.Context, opts CallOpts, f *Func, args ...Value) (Value, error) {
	v, _, err := m.CallWithStats(ctx, opts, f, args...)
	return v, err
}

// CallStats describes one completed (or failed) call's cost: the
// simulator's cycle and retired-instruction deltas for this call alone,
// and the host wall time including any install-on-demand.  Because the
// machine serializes calls internally, the deltas are exact per-call
// attributions — no stat reset (and no reset race) is needed.
type CallStats struct {
	Cycles, Insns uint64
	// Fuel is the step budget the call consumed (0 when unlimited or the
	// engine did not meter it) — the per-call cost a quota-billing layer
	// or a flight recorder attributes to the request.
	Fuel uint64
	Wall time.Duration
}

// CallWithStats is CallWith returning per-call simulator statistics
// alongside the result.
func (m *Machine) CallWithStats(ctx context.Context, opts CallOpts, f *Func, args ...Value) (Value, CallStats, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if ctx == nil {
		ctx = context.Background()
	}
	start := time.Now()
	cycles0, insns0 := m.cpu.Cycles(), m.cpu.Insns()
	v, fuelUsed, err := m.callLocked(ctx, opts, f, args)
	st := CallStats{
		Cycles: m.cpu.Cycles() - cycles0,
		Insns:  m.cpu.Insns() - insns0,
		Fuel:   fuelUsed,
		Wall:   time.Since(start),
	}
	if telemetry.Enabled() {
		ts := m.stats()
		ts.Calls.Inc()
		if err != nil {
			ts.CallErrors.Inc()
		}
		ts.CallNS.Observe(uint64(st.Wall))
		ts.SimInsns.Add(st.Insns)
		ts.SimCycles.Add(st.Cycles)
	}
	if flightrec.Enabled() && f != nil {
		flightrec.Record(flightrec.KindCall, f.BackendName, f.Name, f.lifecycleFlow(),
			start, st.Wall, flightrec.Attrs{N: int64(st.Insns), Fuel: fuelUsed, Detail: errText(err)})
	}
	return v, st, err
}

// callLocked is the hot body of a call: install-on-demand, argument
// marshaling, the simulator run, and result extraction.  It is split from
// CallWithStats so the wrapper's stats/telemetry bookkeeping closes over
// nothing — with ≤ callBufArgs arguments the per-call path does not
// allocate.  The second result is the simulated steps consumed (fuel).
// Caller holds mu.
func (m *Machine) callLocked(ctx context.Context, opts CallOpts, f *Func, args []Value) (Value, uint64, error) {
	if f == nil || !f.installed || f.owner != m {
		// Slow path: install-on-demand (or surface the nil/wrong-machine
		// error).  Already-resident functions skip install entirely: the
		// mutation fingerprint is verified on explicit Install, and a
		// call always executes the installed image, so a mutated Words
		// slice cannot affect it — re-hashing every call would put an
		// O(code size) scan on the warm path.  An uninstalled
		// address-taken function is not re-installed here: the dispatch
		// table holding its old address, and the siblings that table
		// points at, may have been reclaimed and reused with it.
		if f != nil && f.uninstalled && f.addrTaken {
			return Value{}, 0, fmt.Errorf("machine: calling %s: %w", f.Name, ErrUninstalled)
		}
		if err := m.install(f); err != nil {
			return Value{}, 0, err
		}
	}
	if len(args) != len(f.Params) {
		return Value{}, 0, fmt.Errorf("machine: %s takes %d args, got %d", f.Name, len(f.Params), len(args))
	}
	conv := m.backend.DefaultConv()

	sp := m.stackTop
	var tbuf [callBufArgs]Type
	types := tbuf[:0]
	for i, a := range args {
		if a.T != f.Params[i] {
			return Value{}, 0, fmt.Errorf("machine: %s arg %d: have %s, want %s", f.Name, i, a.T, f.Params[i])
		}
		types = append(types, a.T)
	}
	var lbuf [callBufArgs]argLoc
	locs, stackBytes := conv.layoutArgs(types, lbuf[:0])
	if stackBytes > 0 {
		sp -= uint64(stackBytes)
	}
	if a := uint64(conv.StackAlign); a > 0 {
		sp &^= a - 1
	}
	for i, loc := range locs {
		if loc.reg != NoReg {
			if loc.t.IsFloat() {
				m.cpu.SetFReg(loc.reg, args[i].Bits, loc.t == TypeD)
			} else {
				m.cpu.SetReg(loc.reg, regBits(args[i], m.backend.PtrBytes()))
			}
			continue
		}
		sz := loc.t.Size(m.backend.PtrBytes())
		if err := m.mem.Store(sp+uint64(loc.stackOff), sz, args[i].Bits); err != nil {
			return Value{}, 0, err
		}
	}

	m.cpu.SetReg(conv.SP, sp)
	m.cpu.SetReg(conv.RA, m.retLinkValue(m.haltAddr))
	m.cpu.SetPC(f.EntryAddr())
	steps, err := m.run(ctx, opts, conv)
	if err != nil {
		return Value{}, steps, fmt.Errorf("machine: running %s: %w", f.Name, err)
	}

	return m.result(f.Result, conv), steps, nil
}

// callBufArgs is how many arguments the call path can marshal without
// heap allocation; calls with more still work, spilling to the heap.
const callBufArgs = 8

// retLinkValue converts a desired return target into the value stored in
// the link register (SPARC's call convention returns to RA+8).
func (m *Machine) retLinkValue(target uint64) uint64 {
	return target - uint64(m.backend.RetAddrOffset())
}

// SetTrace enables (or, with nil, disables) single-step execution
// tracing: every executed instruction is disassembled to w.  This is the
// debugging facility the paper lists as VCODE's most critical missing
// piece (§6.2: "debugging dynamically generated code currently requires
// stepping through it at the level of host-specific machine code") — the
// disassembler is generated alongside the encoders, so client-added
// instructions appear automatically.
func (m *Machine) SetTrace(w io.Writer) { m.trace = w }

func (m *Machine) run(ctx context.Context, opts CallOpts, conv *CallConv) (steps uint64, err error) {
	// Last line of defense: the simulators are panic-proofed and fuzzed,
	// but if one does panic the call must still return an error rather
	// than unwind the caller (who may be a cache or a server loop).
	defer func() {
		if r := recover(); r != nil {
			err = &PanicError{PC: m.cpu.PC(), Value: r}
		}
	}()
	budget := m.MaxSteps
	if opts.Fuel > 0 && opts.Fuel < budget {
		budget = opts.Fuel
	}
	stride := opts.PollStride
	if stride == 0 {
		stride = 1024
	}
	cancelable := ctx.Done() != nil
	for {
		pc := m.cpu.PC()
		if pc == m.haltAddr {
			return steps, nil
		}
		if cancelable && steps%stride == 0 {
			if err := ctx.Err(); err != nil {
				return steps, fmt.Errorf("after %d steps: %w", steps, err)
			}
		}
		// A trap dispatch consumes a step too, so a trap that returns to
		// itself burns fuel instead of spinning forever.
		steps++
		if steps > budget {
			return steps, fmt.Errorf("%w: %d steps (runaway generated code?)", ErrFuelExhausted, budget)
		}
		// Threaded fast path: dispatch through the predecoded body when
		// one covers pc.  It runs before the trap lookup because
		// attachBody refuses bodies overlapping a trap address — an
		// in-body pc is never a trap — and the per-iteration map probe
		// is measurable on the call hot path.  The budget check above
		// already admitted this instruction, so the body may retire up
		// to budget-steps+1 more before the loop must regain control;
		// with a cancelable context the slice is clamped to the poll
		// stride so cancellation latency stays bounded exactly as on the
		// Step path.  A pending delay slot (materialized by a previous
		// fuel-bounded exit), a fault-injection hook (which intercepts
		// per-instruction fetches the threaded engine does not perform),
		// and single-step tracing all force Step.
		if m.engine == EngineThreaded && m.tcpu != nil && m.trace == nil &&
			!m.tcpu.PendingDelay() && !m.mem.HasFaultHook() {
			if b := m.bodyAt(pc); b != nil {
				allow := budget - steps + 1
				if cancelable && allow > stride {
					allow = stride
				}
				n, rerr := m.tcpu.RunBody(b, b.IndexOf(pc), allow)
				if n > 0 {
					steps += n - 1
				}
				if rerr != nil {
					return steps, rerr
				}
				continue
			}
		}
		if h, ok := m.traps[pc]; ok {
			if m.trace != nil {
				fmt.Fprintf(m.trace, "%08x: <trap %s>\n", pc, m.symAt(pc))
			}
			if err := m.safeTrap(pc, h); err != nil {
				return steps, err
			}
			ret := m.cpu.Reg(conv.RA) + uint64(m.backend.RetAddrOffset())
			m.cpu.SetPC(ret)
			continue
		}
		if m.trace != nil {
			if w, err := m.mem.FetchWord(pc); err == nil {
				fmt.Fprintf(m.trace, "%08x: %08x  %s\n", pc, w, m.backend.Disasm(w, pc))
			}
			// Tracing needs per-instruction visibility: stay on Step.
			if err := m.cpu.Step(); err != nil {
				return steps, err
			}
			continue
		}
		if err := m.cpu.Step(); err != nil {
			return steps, err
		}
	}
}

// safeTrap runs one trap handler with panic isolation: a faulty runtime
// helper becomes a *TrapPanicError instead of unwinding the process.
func (m *Machine) safeTrap(pc uint64, h TrapHandler) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = &TrapPanicError{Sym: m.symAt(pc), PC: pc, Value: r}
		}
	}()
	h(m.cpu, m.mem)
	return nil
}

func (m *Machine) symAt(addr uint64) string {
	for name, a := range m.syms {
		if a == addr {
			return name
		}
	}
	return "?"
}

func (m *Machine) result(t Type, conv *CallConv) Value {
	switch t {
	case TypeV:
		return Value{T: TypeV}
	case TypeF:
		return Value{T: TypeF, Bits: m.cpu.FReg(conv.RetFP, false) & 0xffffffff}
	case TypeD:
		return Value{T: TypeD, Bits: m.cpu.FReg(conv.RetFP, true)}
	case TypeI:
		return Value{T: t, Bits: uint64(int64(int32(m.cpu.Reg(conv.RetInt))))}
	case TypeU:
		return Value{T: t, Bits: uint64(uint32(m.cpu.Reg(conv.RetInt)))}
	default:
		bits := m.cpu.Reg(conv.RetInt)
		if m.backend.PtrBytes() == 4 {
			switch t {
			case TypeL:
				bits = uint64(int64(int32(bits)))
			case TypeUL, TypeP:
				bits = uint64(uint32(bits))
			}
		}
		return Value{T: t, Bits: bits}
	}
}

// regBits canonicalizes an argument value for the target's register width.
func regBits(v Value, ptrBytes int) uint64 {
	switch v.T {
	case TypeI:
		return uint64(int64(int32(v.Bits)))
	case TypeU:
		if ptrBytes == 8 {
			// 32-bit values are held sign-extended (canonical form).
			return uint64(int64(int32(v.Bits)))
		}
		return uint64(uint32(v.Bits))
	case TypeF:
		return v.Bits & 0xffffffff
	default:
		return v.Bits
	}
}

// registerDivHelpers installs the integer division/remainder emulation
// helpers used by targets without hardware divide (paper §5.2: "on
// machines that do not provide division in hardware, the VCODE integer
// division instructions require subroutine calls").
func registerDivHelpers(m *Machine) {
	conv := m.backend.DefaultConv()
	a0, a1, v0 := conv.IntArgs[0], conv.IntArgs[1], conv.RetInt
	type sem struct {
		sym string
		f   func(x, y uint64) uint64
	}
	div := func(signed bool, bits int, mod bool) func(x, y uint64) uint64 {
		return func(x, y uint64) uint64 {
			if signed {
				sx, sy := int64(x), int64(y)
				if bits == 32 {
					sx, sy = int64(int32(x)), int64(int32(y))
				}
				if sy == 0 {
					return 0
				}
				var r int64
				if mod {
					r = sx % sy
				} else {
					r = sx / sy
				}
				if bits == 32 {
					r = int64(int32(r))
				}
				return uint64(r)
			}
			ux, uy := x, y
			if bits == 32 {
				ux, uy = uint64(uint32(x)), uint64(uint32(y))
			}
			if uy == 0 {
				return 0
			}
			var r uint64
			if mod {
				r = ux % uy
			} else {
				r = ux / uy
			}
			if bits == 32 {
				r = uint64(int64(int32(r)))
			}
			return r
		}
	}
	helpers := []sem{
		{"__div_i", div(true, 32, false)},
		{"__div_u", div(false, 32, false)},
		{"__div_l", div(true, 64, false)},
		{"__div_ul", div(false, 64, false)},
		{"__mod_i", div(true, 32, true)},
		{"__mod_u", div(false, 32, true)},
		{"__mod_l", div(true, 64, true)},
		{"__mod_ul", div(false, 64, true)},
	}
	for _, h := range helpers {
		f := h.f
		// Ignoring the error is safe: the table is empty at this point.
		_ = m.DefineTrap(h.sym, func(c CPU, _ *mem.Memory) {
			c.SetReg(v0, f(c.Reg(a0), c.Reg(a1)))
		})
	}
}
