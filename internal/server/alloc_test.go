//go:build !race

package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/internal/flightrec"
)

// hotExecAllocBound is the allocation count of one in-process,
// cache-hot exec-by-key request through Handler() — request parsing,
// admission, the call and JSON encoding, plus the test's own request and
// recorder — measured before the event recorders were merged.  Recording
// must not add to it.  (The race detector's instrumentation allocates, so
// this file builds without it.)
const hotExecAllocBound = 40

func TestHotExecAllocs(t *testing.T) {
	s, ts := newTestServer(t, nil)
	status, out := post(t, ts, "/v1/exec", map[string]any{
		"tenant": "alice", "lang": "vasm", "source": factVasm, "args": []int{5},
	})
	if status != http.StatusOK {
		t.Fatalf("seed exec = %d %v", status, out)
	}
	body, _ := json.Marshal(map[string]any{"tenant": "alice", "key": out["key"], "args": []int{5}})
	h := s.Handler()
	run := func() {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/exec", bytes.NewReader(body)))
		if rec.Code != http.StatusOK {
			t.Fatalf("exec by key = %d %s", rec.Code, rec.Body.Bytes())
		}
	}
	was := flightrec.Enabled()
	t.Cleanup(func() { flightrec.SetEnabled(was); flightrec.Reset() })
	for _, on := range []bool{false, true} {
		flightrec.SetEnabled(on)
		run() // warm the pools and, when on, the ring
		if n := testing.AllocsPerRun(200, run); n > hotExecAllocBound {
			t.Errorf("recorder on=%v: %v allocs per hot exec, bound %d", on, n, hotExecAllocBound)
		}
	}
}
