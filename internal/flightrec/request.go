package flightrec

import (
	"encoding/json"
	"fmt"
	"sync"
	"time"
)

// Stage names one decision point of a request in the Event view.  The
// stages map one-to-one onto the request kinds; StageOutcome is the
// KindRequest record.
type Stage uint8

const (
	// StageAdmit is the admission verdict (KindAdmit); Priority carries
	// the request's shed priority.
	StageAdmit Stage = iota
	// StageCache is the shard + cache verdict (KindCache).
	StageCache
	// StageJournal is the durability decision (KindJournal).
	StageJournal
	// StageExec is the sandboxed call (KindExec): Detail carries the
	// engine name, Fuel the steps consumed, DurNS the call wall time.
	StageExec
	// StageOutcome closes the chain (KindRequest): the response's
	// verdict ("ok" or the error code) and the whole request's wall time.
	StageOutcome

	numStages = int(StageOutcome) + 1
)

var stageNames = [numStages]string{"admit", "cache", "journal", "exec", "outcome"}

func (s Stage) String() string {
	if int(s) < numStages {
		return stageNames[s]
	}
	return "unknown"
}

func (s Stage) kind() Kind { return KindAdmit + Kind(s) }

// MarshalJSON renders the stage by name so bundle consumers (and humans)
// never decode enum ordinals.
func (s Stage) MarshalJSON() ([]byte, error) {
	return []byte(`"` + s.String() + `"`), nil
}

// UnmarshalJSON parses the stage name back — bundle tooling round-trips
// rings through JSON.
func (s *Stage) UnmarshalJSON(b []byte) error {
	var name string
	if err := json.Unmarshal(b, &name); err != nil {
		return err
	}
	for i, n := range stageNames {
		if n == name {
			*s = Stage(i)
			return nil
		}
	}
	return fmt.Errorf("flightrec: unknown stage %q", name)
}

// Event is the request-chain view of one request-kind record: the wire
// shape of the diagnostic bundle's flight.json and of exemplar chains.
// Time is the record's start (ns since the recorder epoch): the decision
// instant, the call's start on exec, the request's start on the outcome.
type Event struct {
	Seq      uint64 `json:"seq"`
	Time     int64  `json:"t_ns"`
	Stage    Stage  `json:"stage"`
	ReqID    string `json:"request_id"`
	Tenant   string `json:"tenant"`
	Key      string `json:"key,omitempty"`
	Verdict  string `json:"verdict"`
	Detail   string `json:"detail,omitempty"` // engine name, truncated error
	Shard    int32  `json:"shard"`            // -1 before a shard is chosen
	Priority int8   `json:"priority"`
	Fuel     uint64 `json:"fuel,omitempty"`
	LSN      uint64 `json:"lsn,omitempty"`
	DurNS    int64  `json:"dur_ns,omitempty"`
	// Tier is the execution tier that served a StageExec event: 1
	// interpreted, 2 compiled, 3 superblock-optimized.  Zero on stages
	// where no tier applies.
	Tier int8 `json:"tier,omitempty"`
}

// span converts the event into its ring record.
func (e *Event) span(flow uint64) Span {
	return Span{
		Flow:  flow,
		Kind:  e.Stage.kind(),
		Name:  e.ReqID,
		Start: e.Time,
		Dur:   e.DurNS,
		Attrs: Attrs{
			Fuel: e.Fuel, LSN: e.LSN, Verdict: e.Verdict, Detail: e.Detail,
			Tenant: e.Tenant, Key: e.Key, Shard: e.Shard, Priority: e.Priority, Tier: e.Tier,
		},
	}
}

// EventsOf extracts the request-chain view from a ring snapshot, in ring
// order; lifecycle records are skipped.
func EventsOf(spans []Span) []Event {
	out := []Event{}
	for i := range spans {
		s := &spans[i]
		if !s.Kind.isRequest() {
			continue
		}
		out = append(out, Event{
			Seq: s.Seq, Time: s.Start, Stage: Stage(s.Kind - KindAdmit),
			ReqID: s.Name, Tenant: s.Attrs.Tenant, Key: s.Attrs.Key,
			Verdict: s.Attrs.Verdict, Detail: s.Attrs.Detail, Shard: s.Attrs.Shard,
			Priority: s.Attrs.Priority, Fuel: s.Attrs.Fuel, LSN: s.Attrs.LSN,
			DurNS: s.Dur, Tier: s.Attrs.Tier,
		})
	}
	return out
}

// Events snapshots the ring's request-chain records, oldest first.
func Events() []Event { return EventsOf(Spans()) }

// chainCap bounds one request's retained chain: admit + cache + journal
// + exec + outcome plus slack for repeated admission events.
const chainCap = 10

// Request is the per-request recording handle.  Begin returns nil when
// recording is disabled and every method no-ops on a nil receiver, so
// call sites never branch.  Handles are pooled; after Finish the handle
// must not be used again.
type Request struct {
	reqID  string
	tenant string
	start  time.Time
	n      int
	events [chainCap]Event
}

var reqPool = sync.Pool{New: func() any { return new(Request) }}

// Begin opens a request chain.  Returns nil (an inert handle) when
// recording is disabled.
func Begin(reqID, tenant string) *Request {
	if !enabled.Load() {
		return nil
	}
	r := reqPool.Get().(*Request)
	r.reqID, r.tenant, r.start, r.n = reqID, tenant, time.Now(), 0
	return r
}

// Event records one decision on the request's chain and in the ring.
// The caller fills the stage-specific fields; Seq, Time, ReqID and Tenant
// are stamped here.  An event carrying DurNS (the exec stage) starts that
// long before now.
func (r *Request) Event(stage Stage, e Event) {
	if r == nil {
		return
	}
	e.Stage = stage
	e.Time = time.Since(epoch).Nanoseconds() - e.DurNS
	r.record(e, 0)
}

func (r *Request) record(e Event, flow uint64) {
	e.ReqID = r.reqID
	e.Tenant = r.tenant
	sp := e.span(flow)
	e.Seq = put(&sp)
	if r.n < chainCap {
		r.events[r.n] = e
		r.n++
	}
}

// Finish closes the chain with the request's one KindRequest record —
// outcome "ok" or the error code, detail the truncated error text, flow
// the entry function's lifecycle flow when known, spanning the whole
// request — runs exemplar retention, and returns the handle to the pool.
// The handle must not be used afterwards.
func (r *Request) Finish(outcome, detail string, flow uint64) {
	if r == nil {
		return
	}
	dur := time.Since(r.start).Nanoseconds()
	r.record(Event{
		Stage: StageOutcome, Time: r.start.Sub(epoch).Nanoseconds(),
		Verdict: outcome, Detail: detail, Shard: -1, DurNS: dur,
	}, flow)
	retain(r, outcome, flow, dur)
	r.reqID, r.tenant, r.n = "", "", 0
	reqPool.Put(r)
}

// --- exemplars ---

// Exemplar is one retained request: its identity, outcome, the lifecycle
// flow of the function it ran, and a copy of its complete event chain.
type Exemplar struct {
	ReqID   string  `json:"request_id"`
	Tenant  string  `json:"tenant"`
	Outcome string  `json:"outcome"`
	Flow    uint64  `json:"flow,omitempty"` // entry function's lifecycle flow
	StartNS int64   `json:"start_ns"`       // ns since the recorder epoch
	DurNS   int64   `json:"dur_ns"`
	Events  []Event `json:"events"`
}

const (
	// slowCap bounds the slowest-request exemplars kept per window.
	slowCap = 8
	// errCap bounds the errored-request exemplars (a ring of the most
	// recent; "every errored request" up to this retention).
	errCap = 32
)

var (
	exMu       sync.Mutex
	exWindow   = int64(60 * time.Second) // rotation period, ns
	exWindowAt int64                     // current window's start, ns since epoch
	slowCur    []Exemplar                // slowest-N of the current window
	slowPrev   []Exemplar                // the completed previous window
	errRing    [errCap]Exemplar
	errSeq     uint64
)

// SetWindow changes the slowest-N rotation window (default 60s).
func SetWindow(d time.Duration) {
	exMu.Lock()
	exWindow = d.Nanoseconds()
	exMu.Unlock()
}

func retain(r *Request, outcome string, flow uint64, dur int64) {
	errored := outcome != "ok"
	now := time.Since(epoch).Nanoseconds()
	exMu.Lock()
	defer exMu.Unlock()
	if now-exWindowAt >= exWindow {
		slowPrev, slowCur = slowCur, nil
		exWindowAt = now
	}
	// Slowest-N admission: fill up, then displace the fastest member.
	slowIdx := -1
	if len(slowCur) < slowCap {
		slowIdx = len(slowCur)
		slowCur = append(slowCur, Exemplar{})
	} else {
		min := 0
		for i := 1; i < len(slowCur); i++ {
			if slowCur[i].DurNS < slowCur[min].DurNS {
				min = i
			}
		}
		if dur > slowCur[min].DurNS {
			slowIdx = min
		}
	}
	if slowIdx < 0 && !errored {
		return
	}
	ex := Exemplar{
		ReqID:   r.reqID,
		Tenant:  r.tenant,
		Outcome: outcome,
		Flow:    flow,
		StartNS: now - dur,
		DurNS:   dur,
		Events:  append([]Event(nil), r.events[:r.n]...),
	}
	if slowIdx >= 0 {
		slowCur[slowIdx] = ex
	}
	if errored {
		errRing[errSeq%errCap] = ex
		errSeq++
	}
}

// ExemplarSet is the Exemplars snapshot.
type ExemplarSet struct {
	// Slowest merges the current and previous windows, slowest first.
	Slowest []Exemplar `json:"slowest"`
	// Errored is the retained errored requests, oldest first.
	Errored []Exemplar `json:"errored"`
}

// Exemplars snapshots the retained exemplars.
func Exemplars() ExemplarSet {
	exMu.Lock()
	defer exMu.Unlock()
	var set ExemplarSet
	set.Slowest = append(append([]Exemplar(nil), slowCur...), slowPrev...)
	for i := 0; i+1 < len(set.Slowest); i++ {
		for j := i + 1; j < len(set.Slowest); j++ {
			if set.Slowest[j].DurNS > set.Slowest[i].DurNS {
				set.Slowest[i], set.Slowest[j] = set.Slowest[j], set.Slowest[i]
			}
		}
	}
	n := errSeq
	if n > errCap {
		n = errCap
	}
	for i := errSeq - n; i < errSeq; i++ {
		set.Errored = append(set.Errored, errRing[i%errCap])
	}
	return set
}

func resetExemplars() {
	exMu.Lock()
	slowCur, slowPrev = nil, nil
	errSeq = 0
	exWindowAt = time.Since(epoch).Nanoseconds()
	exMu.Unlock()
}
