package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around
// the layer's public function.  Parent indexes the same lane's spans (-1
// for a root); every span of one operation carries its request id.
type span struct {
	Name       string
	Start, End time.Duration // since the tracer's epoch
	Parent     int
	Req        uint64
}

// maxSpansPerLane bounds memory and the trace file; spans past it are
// not recorded (the phase still runs).
const maxSpansPerLane = 50000

// tracer keeps spans in memory, one lane per goroutine so recording
// takes no lock; it writes them out once, when the run ends.
type tracer struct {
	epoch time.Time
	lanes []*lane
}

// lane is one goroutine's span buffer.  A nil *lane records nothing, so
// untraced phases pass nil and pay one comparison per span.
type lane struct {
	id    int
	epoch time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// lane returns a fresh lane; call it before starting the goroutine that
// owns it.
func (t *tracer) lane() *lane {
	l := &lane{id: len(t.lanes) + 1, epoch: t.epoch}
	t.lanes = append(t.lanes, l)
	return l
}

// begin opens a span and returns its handle for end (-1 when not
// recorded).
func (l *lane) begin(name string, parent int, req uint64) int {
	if l == nil || len(l.spans) >= maxSpansPerLane {
		return -1
	}
	l.spans = append(l.spans, span{Name: name, Start: time.Since(l.epoch), Parent: parent, Req: req})
	return len(l.spans) - 1
}

func (l *lane) end(i int) {
	if l == nil || i < 0 {
		return
	}
	l.spans[i].End = time.Since(l.epoch)
}

// layerTime is one span name's aggregate over a run.
type layerTime struct {
	Count      int
	TotalUS    float64
	SelfUS     float64 // total minus the time covered by child spans
	MeanUS     float64
	MeanSelfUS float64
}

// selfTimes aggregates every recorded span by name.  A span's self time
// is its duration minus the union of its children's intervals.
func (t *tracer) selfTimes() map[string]*layerTime {
	out := map[string]*layerTime{}
	for _, l := range t.lanes {
		children := make(map[int][]span)
		for _, s := range l.spans {
			if s.Parent >= 0 {
				children[s.Parent] = append(children[s.Parent], s)
			}
		}
		for i, s := range l.spans {
			if s.End == 0 {
				continue // still open when the phase ended
			}
			lt := out[s.Name]
			if lt == nil {
				lt = &layerTime{}
				out[s.Name] = lt
			}
			d := float64(s.End-s.Start) / 1e3
			lt.Count++
			lt.TotalUS += d
			lt.SelfUS += d - float64(covered(children[i]))/1e3
		}
	}
	for _, lt := range out {
		lt.MeanUS = lt.TotalUS / float64(lt.Count)
		lt.MeanSelfUS = lt.SelfUS / float64(lt.Count)
	}
	return out
}

// covered returns the length of the union of the spans' intervals.
func covered(ss []span) time.Duration {
	if len(ss) == 0 {
		return 0
	}
	sort.Slice(ss, func(i, j int) bool { return ss[i].Start < ss[j].Start })
	var total time.Duration
	cs, ce := ss[0].Start, ss[0].End
	for _, s := range ss[1:] {
		if s.Start > ce {
			total += ce - cs
			cs, ce = s.Start, s.End
		} else if s.End > ce {
			ce = s.End
		}
	}
	return total + ce - cs
}

// chromeEvent is one Chrome trace-event "complete" event; Perfetto and
// chrome://tracing load a {"traceEvents": [...]} file of them.
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	Ph   string         `json:"ph"`
	TS   float64        `json:"ts"`
	Dur  float64        `json:"dur"`
	PID  int            `json:"pid"`
	TID  int            `json:"tid"`
	Args map[string]any `json:"args"`
}

// writeChrome writes every recorded span as Chrome trace-event JSON to
// path, creating its directory.
func (t *tracer) writeChrome(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	fmt.Fprint(w, `{"displayTimeUnit":"ns","traceEvents":[`)
	first := true
	for _, l := range t.lanes {
		for _, s := range l.spans {
			if s.End == 0 {
				continue
			}
			args := map[string]any{"request_id": s.Req}
			if s.Parent >= 0 {
				args["parent"] = l.spans[s.Parent].Name
			}
			if !first {
				fmt.Fprint(w, ",")
			}
			first = false
			if err := enc.Encode(chromeEvent{
				Name: s.Name, Cat: "perfbench", Ph: "X",
				TS: float64(s.Start) / 1e3, Dur: float64(s.End-s.Start) / 1e3,
				PID: 1, TID: l.id, Args: args,
			}); err != nil {
				f.Close()
				return err
			}
		}
	}
	fmt.Fprint(w, "]}\n")
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
