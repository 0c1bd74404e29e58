// Package flightrec is the process's one event recorder: a lazily
// allocated ring of fixed-shape records holding both the code-generation
// lifecycle — compile → regalloc → emit → verify → install → call×N →
// evict per generated function, plus cache lookups, pipeline batches and
// superblock promotions — and the vcoded server's per-request decision
// chain: the admission verdict, the shard and cache verdict, the journal
// LSN behind a durable ack, the engine and fuel of the sandboxed call, and
// the request record that carries the outcome.  After an incident the ring
// reconstructs the admission→compile→journal→exec→outcome chain of any
// recent request, and the compile→…→evict chain of the code it ran,
// without ever having logged a line.
//
// There is one gate (SetEnabled), one epoch, one flow-ID allocator and
// one set of exporters: Chrome trace-event JSON (/trace, loadable in
// Perfetto), the text timeline (/trace.txt), and the per-request Event
// view (Events) the diagnostic bundle ships as flight.json.  With the gate
// off an instrumented site pays a single atomic load and allocates nothing
// (pinned by a zero-alloc test); with it on, a record is one mutex
// acquisition and a struct copy into the preallocated ring.
//
// Records of one function's lifecycle share a flow ID (see NextFlow);
// exporters group by flow, so Perfetto shows one lane per generated
// function, and a request's record joins the lane of the function it ran.
//
// On top of the ring sits bounded exemplar capture (request.go): the
// slowest-N requests per rolling window and the most recent errored
// requests keep their complete event chain, so the tail and the failures
// stay reconstructible after the ring has lapped.
package flightrec

import (
	"sync"
	"sync/atomic"
	"time"
)

// Kind identifies what a record describes.  The lifecycle kinds come
// first, in pipeline order: the jit front end compiles bytecode
// (assigning registers on the way), the Asm emits target instructions,
// the Machine verifies, installs, calls and eventually evicts the code.
// The request kinds follow, in request-path order.
type Kind uint8

const (
	// KindCompile covers a whole front-end compilation (jit bytecode →
	// VCODE emission); regalloc and emit nest inside it.
	KindCompile Kind = iota
	// KindRegalloc is register and spill-slot assignment.
	KindRegalloc
	// KindEmit covers v_lambda through v_end in the Asm.
	KindEmit
	// KindVerify is the pre-install static verifier.
	KindVerify
	// KindInstall is code placement, relocation and the memory copy.
	KindInstall
	// KindCall is one execution of an installed function.
	KindCall
	// KindEvict is code reclamation (cache eviction or Uninstall).
	KindEvict
	// KindLookup is a code-cache probe; its Verdict attribute records
	// hit, miss, coalesced or negative.
	KindLookup
	// KindBatch covers one whole batch through the parallel compilation
	// pipeline (internal/batch): fan-out compile plus the batched
	// install.  N is the item count, Bytes the installed code bytes.
	KindBatch
	// KindSuperblock covers one tier-3 promotion: superblock formation
	// from the tier-2 recording plus the optimized re-emission.  N is
	// the trace's block count, Bytes the installed optimized body.
	KindSuperblock

	// KindAdmit is a request's admission verdict: "ok" once past the
	// rate limiter, breaker, shed watermarks, queue bound and tenant
	// quotas, or the typed rejection code.
	KindAdmit
	// KindCache is a request's shard + cache verdict: "hit", "compiled",
	// "coalesced" or "error".
	KindCache
	// KindJournal is a request's durability decision: "durable" with the
	// record's LSN, or "degraded" when the ack goes out non-durable.
	KindJournal
	// KindExec is a request's sandboxed call: Detail carries the engine
	// name, Fuel the steps consumed, and the record spans the call.
	KindExec
	// KindRequest is one whole server request, recorded once when it
	// finishes: its Verdict is the outcome ("ok" or the error code), it
	// spans admission to response, and its flow is the entry function's
	// lifecycle flow when one was resolved.
	KindRequest

	numKinds = int(KindRequest) + 1
)

var kindNames = [numKinds]string{
	"compile", "regalloc", "emit", "verify", "install", "call", "evict",
	"lookup", "batch", "superblock",
	"admit", "cache", "journal", "exec", "request",
}

func (k Kind) String() string {
	if int(k) < numKinds {
		return kindNames[k]
	}
	return "unknown"
}

// isRequest reports whether k belongs to a server request's chain.
func (k Kind) isRequest() bool { return k >= KindAdmit && int(k) < numKinds }

// Attrs carries the kind-specific attributes.  It is a fixed struct
// rather than a map so that recording never allocates; unused fields are
// zero and elided by the exporters.
type Attrs struct {
	// Bytes is the code size the phase handled (emit/install/evict).
	Bytes int64
	// N is a kind-specific magnitude: source instructions for
	// compile/emit, words checked for verify, simulator instructions
	// retired for call.
	N int64
	// Fuel is the step budget a call consumed (0 when unlimited or
	// unknown).
	Fuel uint64
	// LSN is the journal sequence number behind a durable ack.
	LSN uint64
	// Verdict is a short outcome label: "ok"/"reject" for verify,
	// "hit"/"miss"/"coalesced"/"negative" for cache lookups, the
	// decision or error code on request kinds.
	Verdict string
	// Detail is the (truncated) error text when the phase failed, or
	// the engine name on a request's exec record.
	Detail string
	// Tenant, Key, Shard and Priority identify a request's tenant,
	// program key, shard (-1 before one is chosen) and shed priority.
	Tenant   string
	Key      string
	Shard    int32
	Priority int8
	// Tier is the execution tier that served an exec record: 1
	// interpreted, 2 compiled, 3 superblock-optimized.
	Tier int8
}

// Span is one record in the ring.  Start is nanoseconds since the
// recorder epoch (process-local, monotonic); Dur is the wall time the
// record covers (zero for instantaneous decisions).
type Span struct {
	Seq     uint64
	Flow    uint64 // lifecycle ID shared by all records of one function
	Kind    Kind
	Backend string
	Name    string // function name; the request ID on request kinds
	Start   int64  // ns since epoch
	Dur     int64  // ns
	Attrs   Attrs
}

// enabled is the one gate; see the package comment.
var enabled atomic.Bool

// Enabled reports whether recording is on.
func Enabled() bool { return enabled.Load() }

// SetEnabled turns recording on or off (default off).  The ring is
// allocated lazily on the first record, so a process that never records
// pays no memory.
func SetEnabled(on bool) { enabled.Store(on) }

// flowSeq allocates lifecycle IDs; 0 means "no flow assigned yet".
var flowSeq atomic.Uint64

// NextFlow returns a fresh lifecycle ID.  All records of one generated
// function should share the ID so exporters can reassemble the
// compile→…→evict chain.
func NextFlow() uint64 { return flowSeq.Add(1) }

// epoch anchors timestamps.  time.Since(epoch) uses the monotonic clock,
// so records order correctly even across wall-clock adjustments.
var epoch = time.Now()

// ringCap bounds the ring: the most recent ringCap records are retained.
// At 176 bytes a record (64-bit hosts) the ring is about 4 MiB, allocated
// lazily; it holds at least what the two rings it replaced held together.
const ringCap = 24576

var (
	ringMu  sync.Mutex
	ring    []Span // nil until the first record; len == ringCap after
	ringSeq uint64
)

// put stamps sp with the next sequence number and copies it into the
// ring, returning the sequence number.  The caller builds the record
// outside the lock; the critical section is the slot copy alone.
func put(sp *Span) uint64 {
	ringMu.Lock()
	if ring == nil {
		ring = make([]Span, ringCap)
	}
	sp.Seq = ringSeq
	ring[ringSeq%ringCap] = *sp
	ringSeq++
	ringMu.Unlock()
	return sp.Seq
}

// Active is an in-flight span handle returned by StartSpan.  It is a
// value — holding one costs no allocation — and End on a zero Active is a
// no-op, so call sites can unconditionally End a handle they
// conditionally started.
type Active struct {
	start   time.Time
	backend string
	name    string
	kind    Kind
	live    bool
}

// StartSpan opens a span if recording is enabled; otherwise it returns an
// inert handle.  The flow ID is supplied at End because many call sites
// only learn it after the phase completes (e.g. the compile span learns
// its function's flow from the assembled Func).
func StartSpan(kind Kind, backend, name string) Active {
	if !enabled.Load() {
		return Active{}
	}
	return Active{start: time.Now(), backend: backend, name: name, kind: kind, live: true}
}

// End closes the span and records it.  No-op on an inert handle or if
// recording was disabled mid-span.
func (a Active) End(flow uint64, at Attrs) {
	if !a.live || !enabled.Load() {
		return
	}
	Record(a.kind, a.backend, a.name, flow, a.start, time.Since(a.start), at)
}

// Record appends one record with caller-measured timing.  It is a no-op
// (one atomic load) unless recording is enabled.  Use it where the caller
// already times the phase for telemetry; use StartSpan/End otherwise.
func Record(kind Kind, backend, name string, flow uint64, start time.Time, dur time.Duration, at Attrs) {
	if !enabled.Load() {
		return
	}
	sp := Span{
		Flow:    flow,
		Kind:    kind,
		Backend: backend,
		Name:    name,
		Start:   start.Sub(epoch).Nanoseconds(),
		Dur:     dur.Nanoseconds(),
		Attrs:   at,
	}
	put(&sp)
}

// Spans snapshots the ring, oldest first.
func Spans() []Span {
	ringMu.Lock()
	defer ringMu.Unlock()
	n := ringSeq
	if n > ringCap {
		n = ringCap
	}
	out := make([]Span, 0, n)
	for i := ringSeq - n; i < ringSeq; i++ {
		out = append(out, ring[i%ringCap])
	}
	return out
}

// Len reports how many records are currently retained (bounded by the
// ring capacity regardless of how many were ever recorded).
func Len() int {
	ringMu.Lock()
	defer ringMu.Unlock()
	if ringSeq > ringCap {
		return ringCap
	}
	return int(ringSeq)
}

// Reset discards all records and exemplars (the ring memory is kept).
func Reset() {
	ringMu.Lock()
	ringSeq = 0
	ringMu.Unlock()
	resetExemplars()
}
