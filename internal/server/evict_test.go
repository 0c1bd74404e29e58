package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"

	"repro/internal/tinyc"
)

// TestEvictionChurnRunsCorrectCode drives two goroutines that compile
// and exec distinct two-function tinyc programs against a one-shard
// server holding a single entry, so nearly every request evicts the
// other goroutine's unit — often between that unit's cache lookup and its
// call.  Every result must match the tinyc interpreter: a pinned unit's
// code stays installed until its call finishes, so no request runs
// through a dispatch table whose targets were reclaimed and reused.
func TestEvictionChurnRunsCorrectCode(t *testing.T) {
	srv, _ := newTestServer(t, func(c *Config) {
		c.Shards = 1
		c.MaxEntriesPerShard = 1
	})
	h := srv.Handler()
	const perWorker = 150
	var wg sync.WaitGroup
	errs := make(chan error, 2)
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				// Three programs per goroutine, so some requests hit a
				// resident key and others compile (and evict).
				k := 2*(i%3) + w + 2
				src := fmt.Sprintf("int h(int x) { return x * %d + 1; }\nint main(int a) { return h(a) * 10 + %d; }", k, w)
				arg := int32(i%7 + 1)
				if err := execChecked(h, src, arg); err != nil {
					errs <- fmt.Errorf("worker %d request %d: %w", w, i, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if ev := srv.shards[0].cache.Snapshot().Evictions; ev == 0 {
		t.Fatal("no evictions: the test exercised nothing")
	}
}

// execChecked runs src's main(arg) through the handler and compares the
// result with the tinyc interpreter's.
func execChecked(h http.Handler, src string, arg int32) error {
	prog, err := tinyc.Parse(src)
	if err != nil {
		return err
	}
	want, err := tinyc.NewInterp(prog).Call("main", tinyc.IntV(arg))
	if err != nil {
		return err
	}
	body, _ := json.Marshal(map[string]any{"lang": "tinyc", "source": src, "args": []int32{arg}})
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/exec", bytes.NewReader(body)))
	if rec.Code != http.StatusOK {
		return fmt.Errorf("status %d: %s", rec.Code, rec.Body.Bytes())
	}
	var out struct {
		Result int32 `json:"result"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
		return err
	}
	if out.Result != want.I {
		return fmt.Errorf("main(%d) = %d, interpreter says %d", arg, out.Result, want.I)
	}
	return nil
}
