package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"ltrf/internal/exp"
	_ "ltrf/internal/faultinject"
	"ltrf/internal/store"
)

// newTestServer stands up a server over an httptest listener. cfg.Engine
// defaults to a fresh in-memory engine.
func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	if cfg.Engine == nil {
		cfg.Engine = exp.NewEngine()
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

// post sends a JSON body and decodes the response envelope.
func post(t *testing.T, url string, body any) (int, map[string]json.RawMessage) {
	t.Helper()
	data, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var m map[string]json.RawMessage
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		t.Fatalf("decode %s: %v", url, err)
	}
	return resp.StatusCode, m
}

// errKind extracts error.kind from an error envelope.
func errKind(t *testing.T, m map[string]json.RawMessage) string {
	t.Helper()
	var e errorBody
	if raw, ok := m["error"]; ok {
		if err := json.Unmarshal(raw, &e); err != nil {
			t.Fatal(err)
		}
	}
	return e.Kind
}

// quickEval is a fast healthy request body.
func quickEval() map[string]any {
	return map[string]any{"design": "LTRF", "workload": "vectoradd", "budget": 2000}
}

func TestEvalHappyPath(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	code, m := post(t, ts.URL+"/v1/eval", quickEval())
	if code != http.StatusOK {
		t.Fatalf("status = %d, body %v", code, m)
	}
	var r EvalResponse
	full, _ := json.Marshal(m)
	if err := json.Unmarshal(full, &r); err != nil {
		t.Fatal(err)
	}
	if r.Design != "LTRF" || r.Workload != "vectoradd" || r.IPC <= 0 || r.Cycles <= 0 {
		t.Errorf("implausible response: %+v", r)
	}
	if r.Truncated {
		t.Error("quick healthy point reported truncated")
	}
}

// invalidEvalBodies are /v1/eval bodies the server must reject with 400
// before admission; FuzzEvalRequest seeds its corpus with them.
var invalidEvalBodies = []map[string]any{
	{"design": "nosuch", "workload": "sgemm"},
	{"design": "LTRF", "workload": "nosuch"},
	{"design": "LTRF", "workload": "sgemm", "tech": 99},
	{"design": "LTRF", "workload": "sgemm", "latency_x": -1},
	{"design": "LTRF", "workload": "sgemm", "scheduler": "nosuch"},
	{"design": "LTRF", "workload": "sgemm", "prefetch": "nosuch"},
	{"design": "LTRF", "workload": "sgemm", "budget": -5},
	{"design": "LTRF", "workload": "sgemm", "bogus_field": 1},
	// Out of the simulator's range: interval budgets below its minimum
	// or above the architectural register count, and a budget whose
	// derived cycle stop (12 cycles per instruction) overflows int64.
	{"design": "LTRF", "workload": "sgemm", "regs_per_interval": 2},
	{"design": "LTRF", "workload": "sgemm", "regs_per_interval": 100_000_000},
	{"design": "LTRF", "workload": "sgemm", "budget": 8e17},
	// An active set larger than the SM's 64 resident warps.
	{"design": "LTRF", "workload": "sgemm", "active_warps": 100_000},
	// A latency multiplier whose main-RF cycles overflow an int.
	{"design": "LTRF", "workload": "sgemm", "latency_x": 1e300},
	// A timeout whose nanosecond Duration overflows int64, and a negative one.
	{"design": "LTRF", "workload": "sgemm", "timeout_ms": 18446744073710},
	{"design": "LTRF", "workload": "sgemm", "timeout_ms": -5},
}

func TestEvalValidationIs400BeforeSimulation(t *testing.T) {
	srv, ts := newTestServer(t, Config{})
	for _, c := range invalidEvalBodies {
		code, m := post(t, ts.URL+"/v1/eval", c)
		if code != http.StatusBadRequest {
			t.Errorf("%v: status = %d (%v), want 400", c, code, m)
		}
	}
	// A valid request followed by anything but whitespace is not one request.
	for _, body := range trailingDataBodies(`{"design":"BL","workload":"vectoradd","budget":1000}`) {
		if code, got, _ := postRaw(t, ts.URL+"/v1/eval", body); code != http.StatusBadRequest {
			t.Errorf("%q: status = %d (%s), want 400", body, code, got)
		}
	}
	if n := srv.cfg.Engine.Sims(); n != 0 {
		t.Errorf("validation burned %d simulations, want 0", n)
	}
	if n := srv.cfg.Engine.Failures(); n != 0 {
		t.Errorf("validation recorded %d engine failures, want 0", n)
	}
}

// TestEvalTruncated422 asserts a cycle-cap-starved point is an explicit
// error state carrying the lower-bound result, and that allow_truncated
// downgrades it to 200.
func TestEvalTruncated422(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	// BL at 64x main-RF latency stalls IPC far below 1/12, so the cycle cap
	// (12x budget) fires first — verified truncated by the sim tests.
	body := map[string]any{"design": "BL", "workload": "sgemm", "latency_x": 64, "budget": 12000}

	code, m := post(t, ts.URL+"/v1/eval", body)
	if code != http.StatusUnprocessableEntity || errKind(t, m) != "truncated" {
		t.Fatalf("status = %d kind=%q, want 422/truncated", code, errKind(t, m))
	}
	var e errorBody
	if err := json.Unmarshal(m["error"], &e); err != nil {
		t.Fatal(err)
	}
	if e.Result == nil || !e.Result.Truncated || e.Result.Instrs >= 12000 {
		t.Errorf("422 must carry the truncated lower-bound result, got %+v", e.Result)
	}

	body["allow_truncated"] = true
	code, m = post(t, ts.URL+"/v1/eval", body)
	if code != http.StatusOK {
		t.Fatalf("allow_truncated: status = %d (%v), want 200", code, m)
	}
	var r EvalResponse
	full, _ := json.Marshal(m)
	if err := json.Unmarshal(full, &r); err != nil {
		t.Fatal(err)
	}
	if !r.Truncated {
		t.Error("allow_truncated response must still mark truncated")
	}
}

// TestEvalPanicIsStructured500 asserts a panicking design answers a typed
// 500 with forensics and the server keeps serving afterwards.
func TestEvalPanicIsStructured500(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	code, m := post(t, ts.URL+"/v1/eval",
		map[string]any{"design": "fault-panic", "workload": "vectoradd", "budget": 2000})
	if code != http.StatusInternalServerError || errKind(t, m) != "panic" {
		t.Fatalf("status = %d kind=%q, want 500/panic", code, errKind(t, m))
	}
	var e errorBody
	if err := json.Unmarshal(m["error"], &e); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(e.PanicValue, "injected design panic") || e.PanicStack == "" {
		t.Errorf("panic forensics missing: value=%q stackLen=%d", e.PanicValue, len(e.PanicStack))
	}

	// The process survived: a healthy request still answers.
	code, _ = post(t, ts.URL+"/v1/eval", quickEval())
	if code != http.StatusOK {
		t.Errorf("healthy request after panic = %d, want 200", code)
	}
}

// TestEvalHangTimesOut504 asserts a hung evaluation is bounded by
// timeout_ms and reported as a gateway timeout, not served stale or hung.
func TestEvalHangTimesOut504(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	start := time.Now()
	code, m := post(t, ts.URL+"/v1/eval",
		map[string]any{"design": "fault-hang", "workload": "vectoradd", "budget": 100000, "timeout_ms": 20})
	if code != http.StatusGatewayTimeout || errKind(t, m) != "timeout" {
		t.Fatalf("status = %d kind=%q, want 504/timeout", code, errKind(t, m))
	}
	if e := time.Since(start); e > 5*time.Second {
		t.Errorf("hung request held for %v; deadline did not propagate", e)
	}
}

// TestShedding asserts the bounded-queue gate: with one slot and a
// one-deep queue held by hung requests, the next request sheds 429
// immediately instead of queueing unboundedly.
func TestShedding(t *testing.T) {
	srv, ts := newTestServer(t, Config{MaxInFlight: 1, MaxQueue: 1})

	// Occupy the slot and the queue with hung evaluations (server-side
	// timeout keeps them bounded so the test always drains).
	hang := map[string]any{"design": "fault-hang", "workload": "vectoradd",
		"budget": 100000, "timeout_ms": 800}
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			post(t, ts.URL+"/v1/eval", hang)
		}()
	}
	// Wait until both are admitted (1 in flight, 1 waiting).
	deadline := time.Now().Add(2 * time.Second)
	for srv.waiting.Load() < 1 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if srv.waiting.Load() < 1 {
		t.Fatal("queue never filled")
	}

	code, m := post(t, ts.URL+"/v1/eval", quickEval())
	if code != http.StatusTooManyRequests || errKind(t, m) != "overloaded" {
		t.Errorf("status = %d kind=%q, want 429/overloaded", code, errKind(t, m))
	}
	if srv.shed429.Load() == 0 {
		t.Error("shed counter not incremented")
	}
	wg.Wait()
}

// TestAdmitFreeSlotWithFullQueue asserts a request that finds a free slot
// is admitted however many requests the queue counts: only a request that
// finds no slot waits, so only it counts against MaxQueue. (Counting every
// arrival let two simultaneous requests at an idle one-slot server shed
// one of them with the queue empty.)
func TestAdmitFreeSlotWithFullQueue(t *testing.T) {
	srv, err := New(Config{Engine: exp.NewEngine(), MaxInFlight: 1, MaxQueue: 1})
	if err != nil {
		t.Fatal(err)
	}
	srv.waiting.Store(1)
	w := httptest.NewRecorder()
	srv.Handler().ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/eval",
		strings.NewReader(`{"design":"LTRF","workload":"vectoradd","budget":2000}`)))
	if w.Code != http.StatusOK {
		t.Fatalf("status %d with a free slot and a full queue, want 200: %s", w.Code, w.Body.Bytes())
	}
	if n, q := srv.shed429.Load(), srv.waiting.Load(); n != 0 || q != 1 {
		t.Errorf("shed %d, waiting %d after the request, want 0 and 1", n, q)
	}
}

// TestRetryAfterDerivedFromServiceTime pins the backoff arithmetic: the
// shed responses' Retry-After is the observed mean service time scaled by
// the current backlog in worker-pool units, clamped to [1s, 60s], with the
// old hardcoded 1s only as the no-observations fallback.
func TestRetryAfterDerivedFromServiceTime(t *testing.T) {
	s, err := New(Config{Engine: exp.NewEngine(), MaxInFlight: 2, MaxQueue: 4})
	if err != nil {
		t.Fatal(err)
	}
	if got := s.retryAfter(); got != "1" {
		t.Errorf("no observations: Retry-After = %s, want the 1s fallback", got)
	}

	s.observeService(3 * time.Second)
	// Idle server: one mean service time, whole seconds.
	if got := s.retryAfter(); got != "3" {
		t.Errorf("idle Retry-After = %s, want 3", got)
	}

	// Two in flight + two queued over a pool of two: (1 + 4/2) x 3s = 9s.
	s.sem <- struct{}{}
	s.sem <- struct{}{}
	s.waiting.Store(2)
	if got := s.retryAfter(); got != "9" {
		t.Errorf("backlogged Retry-After = %s, want 9", got)
	}
	s.waiting.Store(0)
	<-s.sem
	<-s.sem

	// The mean is exponentially weighted: a run of fast requests pulls a
	// slow start back down toward reality.
	for i := 0; i < 40; i++ {
		s.observeService(10 * time.Millisecond)
	}
	if got := s.retryAfter(); got != "1" {
		t.Errorf("after fast requests Retry-After = %s, want clamped floor 1", got)
	}

	// And the ceiling clamps pathological means.
	s.observeService(10 * time.Hour)
	s.observeService(10 * time.Hour)
	s.observeService(10 * time.Hour)
	if got := s.retryAfter(); got != "60" {
		t.Errorf("pathological Retry-After = %s, want ceiling 60", got)
	}
}

// TestRetryAfterHeaderOnShed asserts the shed paths actually carry the
// derived header (integer seconds >= 1).
func TestRetryAfterHeaderOnShed(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	s.BeginDrain()
	body, _ := json.Marshal(quickEval())
	resp, err := http.Post(ts.URL+"/v1/eval", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("draining eval = %d, want 503", resp.StatusCode)
	}
	ra := resp.Header.Get("Retry-After")
	secs, err := strconv.Atoi(ra)
	if err != nil || secs < 1 || secs > 60 {
		t.Errorf("Retry-After = %q, want integer seconds in [1, 60]", ra)
	}
}

// TestDrain asserts the shutdown contract: after BeginDrain new work sheds
// 503 (and healthz flips), in-flight work finishes, and Drain returns.
func TestDrain(t *testing.T) {
	srv, ts := newTestServer(t, Config{})

	started := make(chan struct{})
	done := make(chan int, 1)
	go func() {
		close(started)
		code, _ := post(t, ts.URL+"/v1/eval", quickEval())
		done <- code
	}()
	<-started

	srv.BeginDrain()

	code, m := post(t, ts.URL+"/v1/eval", quickEval())
	if code != http.StatusServiceUnavailable || errKind(t, m) != "draining" {
		t.Errorf("post-drain eval = %d kind=%q, want 503/draining", code, errKind(t, m))
	}
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body) //nolint:errcheck
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("healthz while draining = %d, want 503", resp.StatusCode)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	// The in-flight request must have completed normally (200) or been
	// shed (503) if it lost the race to admission — never abandoned.
	select {
	case code := <-done:
		if code != http.StatusOK && code != http.StatusServiceUnavailable {
			t.Errorf("in-flight request finished with %d", code)
		}
	case <-time.After(5 * time.Second):
		t.Error("in-flight request abandoned after drain")
	}
}

// TestExperimentEndpoint regenerates paper artifacts over HTTP and checks
// each response against the same experiment run in process on a fresh
// engine: every field, the rendered text included.
func TestExperimentEndpoint(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	_, ts := newTestServer(t, Config{})
	for _, id := range []string{"figure9", "designsweep"} {
		code, m := post(t, ts.URL+"/v1/experiment",
			map[string]any{"id": id, "quick": true, "workloads": []string{"vectoradd"}})
		if code != http.StatusOK {
			t.Fatalf("%s: status = %d (%v)", id, code, m)
		}
		var got ExperimentResponse
		full, _ := json.Marshal(m)
		if err := json.Unmarshal(full, &got); err != nil {
			t.Fatal(err)
		}

		spec, err := exp.ByID(id)
		if err != nil {
			t.Fatal(err)
		}
		tab, err := spec.Run(exp.Options{Quick: true, Workloads: []string{"vectoradd"}, Engine: exp.NewEngine()})
		if err != nil {
			t.Fatal(err)
		}
		want := ExperimentResponse{
			ID: tab.ID, Title: tab.Title, Headers: tab.Headers, Rows: tab.Rows, Notes: tab.Notes, Text: tab.String(),
		}
		if got.Text != want.Text {
			t.Errorf("%s: text differs from the in-process table:\n--- http ---\n%s\n--- in process ---\n%s", id, got.Text, want.Text)
		}
		gotJSON, _ := json.Marshal(got)
		wantJSON, _ := json.Marshal(want)
		if !bytes.Equal(gotJSON, wantJSON) {
			t.Errorf("%s: response differs from the in-process table:\n got %s\nwant %s", id, gotJSON, wantJSON)
		}
	}

	for _, body := range []map[string]any{
		{"id": "nosuch"},
		{"id": "figure9", "quick": true, "workloads": []string{"nosuch"}},
		{"id": "designspace", "quick": true, "designs": []string{"nosuch"}},
		{"id": "figure9", "timeout_ms": 18446744073710},
		{"id": "figure9", "timeout_ms": -5},
	} {
		if code, m := post(t, ts.URL+"/v1/experiment", body); code != http.StatusBadRequest {
			t.Errorf("%v: status = %d (%s), want 400", body, code, m)
		}
	}
}

// TestMetaExposesStoreCounters asserts /v1/meta reflects the persistent
// store: puts after a miss, hits after a restart.
func TestMetaExposesStoreCounters(t *testing.T) {
	dir := t.TempDir()
	open := func() *exp.Engine {
		s, err := store.Open(dir, store.Options{Version: exp.StoreVersion()})
		if err != nil {
			t.Fatal(err)
		}
		return exp.NewEngineWithStore(s)
	}

	getMeta := func(ts *httptest.Server) MetaResponse {
		t.Helper()
		resp, err := http.Get(ts.URL + "/v1/meta")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var meta MetaResponse
		if err := json.NewDecoder(resp.Body).Decode(&meta); err != nil {
			t.Fatal(err)
		}
		return meta
	}

	_, ts1 := newTestServer(t, Config{Engine: open()})
	if code, m := post(t, ts1.URL+"/v1/eval", quickEval()); code != http.StatusOK {
		t.Fatalf("eval = %d (%v)", code, m)
	}
	meta := getMeta(ts1)
	if meta.Sims != 1 || meta.Store == nil || meta.Store.Puts != 1 {
		t.Fatalf("cold meta: sims=%d store=%+v, want 1 sim / 1 put", meta.Sims, meta.Store)
	}
	if len(meta.Designs) == 0 || len(meta.Workloads) == 0 || len(meta.Experiments) == 0 {
		t.Error("meta missing registry listings")
	}
	for _, d := range meta.Designs {
		if strings.HasPrefix(d, "fault-") {
			t.Errorf("hidden fault design %q leaked into meta listing", d)
		}
	}

	// Restart: same directory, fresh engine — served from disk, zero sims.
	_, ts2 := newTestServer(t, Config{Engine: open()})
	if code, m := post(t, ts2.URL+"/v1/eval", quickEval()); code != http.StatusOK {
		t.Fatalf("restart eval = %d (%v)", code, m)
	}
	meta = getMeta(ts2)
	if meta.Sims != 0 || meta.StoreHits != 1 {
		t.Errorf("restart meta: sims=%d storeHits=%d, want 0/1", meta.Sims, meta.StoreHits)
	}
}

// TestServerRecoversFromOnDiskCorruption asserts the full stack heals a
// corrupted record: quarantine, recompute, correct answer, counter visible.
func TestServerRecoversFromOnDiskCorruption(t *testing.T) {
	dir := t.TempDir()
	s1, err := store.Open(dir, store.Options{Version: exp.StoreVersion()})
	if err != nil {
		t.Fatal(err)
	}
	eng1 := exp.NewEngineWithStore(s1)
	_, ts1 := newTestServer(t, Config{Engine: eng1})
	code, m1 := post(t, ts1.URL+"/v1/eval", quickEval())
	if code != http.StatusOK {
		t.Fatalf("eval = %d", code)
	}

	// Corrupt the one record on disk (flip a payload byte).
	key := recordPathOfOnlyEntry(t, s1)
	data, err := os.ReadFile(key)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-2] ^= 0xff
	if err := os.WriteFile(key, data, 0o644); err != nil {
		t.Fatal(err)
	}

	s2, err := store.Open(dir, store.Options{Version: exp.StoreVersion()})
	if err != nil {
		t.Fatal(err)
	}
	eng2 := exp.NewEngineWithStore(s2)
	_, ts2 := newTestServer(t, Config{Engine: eng2})
	code, m2 := post(t, ts2.URL+"/v1/eval", quickEval())
	if code != http.StatusOK {
		t.Fatalf("eval after corruption = %d, want 200 (recompute)", code)
	}
	b1, _ := json.Marshal(m1)
	b2, _ := json.Marshal(m2)
	if !bytes.Equal(b1, b2) {
		t.Errorf("recomputed response differs from original:\n%s\nvs\n%s", b1, b2)
	}
	if s2.Quarantined() != 1 || eng2.Sims() != 1 {
		t.Errorf("quarantined=%d sims=%d, want 1/1", s2.Quarantined(), eng2.Sims())
	}
}

// recordPathOfOnlyEntry walks the store's shard dirs and returns the single
// .rec file, failing if there is not exactly one.
func recordPathOfOnlyEntry(t *testing.T, s *store.Store) string {
	t.Helper()
	var recs []string
	shards, err := os.ReadDir(s.Dir())
	if err != nil {
		t.Fatal(err)
	}
	for _, sh := range shards {
		if !sh.IsDir() || sh.Name() == "tmp" || sh.Name() == "quarantine" {
			continue
		}
		ents, err := os.ReadDir(fmt.Sprintf("%s/%s", s.Dir(), sh.Name()))
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range ents {
			recs = append(recs, fmt.Sprintf("%s/%s/%s", s.Dir(), sh.Name(), e.Name()))
		}
	}
	if len(recs) != 1 {
		t.Fatalf("store has %d records, want exactly 1: %v", len(recs), recs)
	}
	return recs[0]
}
