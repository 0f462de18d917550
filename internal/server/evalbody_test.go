package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"ltrf/internal/exp"
	"ltrf/internal/sim"
	"ltrf/internal/store"
	"ltrf/internal/workloads"
)

// postRaw sends body as is and returns the status, the raw response body
// and the Content-Type.
func postRaw(t *testing.T, url, body string) (int, []byte, string) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, data, resp.Header.Get("Content-Type")
}

// defaultAxesPoint is the point a /v1/eval request naming only a design,
// a workload, a latency multiplier and a budget asks for, built literally
// rather than by the server's point constructor.
func defaultAxesPoint(design, workload string, latX float64, budget int64) exp.Point {
	return exp.Point{
		Design: sim.Design(design), Tech: 1, LatencyX: latX,
		Workload: workload, Unroll: workloads.UnrollMaxwell, Budget: budget,
	}
}

// referenceEvalBodies are pt's /v1/eval bodies computed without the
// server: a direct Eval on a fresh engine, encoded as a literal 12-field
// EvalResponse the way unary responses are (two-space indent, trailing
// newline). ok is the 200 body; truncated is the 422 body a truncated
// result answers without allow_truncated (nil otherwise).
func referenceEvalBodies(t *testing.T, pt exp.Point) (ok, truncated []byte) {
	t.Helper()
	res, err := exp.NewEngine().Eval(context.Background(), pt)
	if err != nil {
		t.Fatal(err)
	}
	encode := func(v any) []byte {
		var buf bytes.Buffer
		enc := json.NewEncoder(&buf)
		enc.SetIndent("", "  ")
		if err := enc.Encode(v); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	resp := EvalResponse{
		Design: res.Design.Name(), Workload: pt.Workload, Tech: pt.Tech, LatencyX: pt.LatencyX,
		Budget: pt.Budget, IPC: res.IPC, Cycles: res.Cycles, Instrs: res.Instrs,
		Truncated: res.Truncated, Warps: res.Warps, Capacity: res.Capacity, Stats: res.Stats,
	}
	if res.Truncated {
		truncated = encode(map[string]errorBody{"error": {
			Kind:    "truncated",
			Message: "simulation hit the cycle cap before its instruction budget; stats are a lower bound (set allow_truncated to accept)",
			Result:  &resp,
		}})
	}
	return encode(resp), truncated
}

// TestEvalBodyByteIdentical asserts a default-axis point's /v1/eval body
// is the same bytes whether it was simulated, served from the server's
// stored bytes, or read from the persistent store by a fresh server, and
// that those bytes are an independent encoding of a direct evaluation:
// the 200 of a full run, and the 422 of a truncated one.
func TestEvalBodyByteIdentical(t *testing.T) {
	dir := t.TempDir()
	open := func() *exp.Engine {
		s, err := store.Open(dir, store.Options{Version: exp.StoreVersion()})
		if err != nil {
			t.Fatal(err)
		}
		return exp.NewEngineWithStore(s)
	}
	okBody, _ := referenceEvalBodies(t, defaultAxesPoint("LTRF", "sgemm", 4, 3000))
	// TestEvalTruncated422's point: BL at 64x latency hits the cycle cap.
	_, truncBody := referenceEvalBodies(t, defaultAxesPoint("BL", "sgemm", 64, 12000))
	if truncBody == nil {
		t.Fatal("BL/sgemm at 64x is no longer truncated; pick another 422 point")
	}
	points := []struct {
		body string
		code int
		want []byte
	}{
		{`{"design":"LTRF","workload":"sgemm","latency_x":4,"budget":3000}`, http.StatusOK, okBody},
		{`{"design":"BL","workload":"sgemm","latency_x":64,"budget":12000}`, http.StatusUnprocessableEntity, truncBody},
	}

	srv1, ts1 := newTestServer(t, Config{Engine: open()})
	srv2, ts2 := newTestServer(t, Config{Engine: open()})
	for _, p := range points {
		for _, c := range []struct{ name, url string }{
			{"cold", ts1.URL},
			{"memo-warm", ts1.URL},
			{"store-warm", ts2.URL},
		} {
			code, got, ctype := postRaw(t, c.url+"/v1/eval", p.body)
			if code != p.code || ctype != "application/json" {
				t.Fatalf("%s %s: status %d, Content-Type %q, want %d: %s", p.body, c.name, code, ctype, p.code, got)
			}
			if !bytes.Equal(got, p.want) {
				t.Errorf("%s %s body differs from the direct encoding:\n got %s\nwant %s", p.body, c.name, got, p.want)
			}
		}
	}
	if n := srv1.cfg.Engine.Sims(); n != int64(len(points)) {
		t.Errorf("first server simulated %d times, want %d", n, len(points))
	}
	if sims, hits := srv2.cfg.Engine.Sims(), srv2.cfg.Engine.StoreHits(); sims != 0 || hits != int64(len(points)) {
		t.Errorf("restarted server: %d sims, %d store hits, want 0 and %d", sims, hits, len(points))
	}
}

// TestEvalTruncatedRepeatsByteIdentical asserts a truncated point answers
// 422 without allow_truncated and 200 with it, in any order of repeats,
// each answer byte-identical to the first of its kind.
func TestEvalTruncatedRepeatsByteIdentical(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	// TestEvalTruncated422's point: BL at 64x latency hits the cycle cap.
	const point = `"design":"BL","workload":"sgemm","latency_x":64,"budget":12000`
	first := map[int][]byte{}
	for i, allow := range []bool{false, true, false, true} {
		code, got, _ := postRaw(t, ts.URL+"/v1/eval", fmt.Sprintf(`{%s,"allow_truncated":%t}`, point, allow))
		want := http.StatusUnprocessableEntity
		if allow {
			want = http.StatusOK
		}
		if code != want {
			t.Fatalf("request %d (allow_truncated %t): status %d, want %d: %s", i, allow, code, want, got)
		}
		if prev, ok := first[code]; !ok {
			first[code] = got
		} else if !bytes.Equal(got, prev) {
			t.Errorf("request %d: %d body differs from the first:\n got %s\nwant %s", i, code, got, prev)
		}
	}
	if !bytes.Contains(first[http.StatusUnprocessableEntity], []byte(`"kind": "truncated"`)) {
		t.Errorf("422 body is not the truncated error: %s", first[http.StatusUnprocessableEntity])
	}
}

// TestEvalStoredBodiesConcurrent has 8 clients post a mix of equal and
// distinct points at once (run it under -race); every 200 body must be the
// point's reference body.
func TestEvalStoredBodiesConcurrent(t *testing.T) {
	var reqs []EvalRequest
	var want [][]byte
	for _, d := range []string{"BL", "LTRF"} {
		for _, latX := range []float64{1, 3} {
			reqs = append(reqs, EvalRequest{Design: d, Workload: "vectoradd", LatencyX: latX, Budget: 1500})
			ok, _ := referenceEvalBodies(t, defaultAxesPoint(d, "vectoradd", latX, 1500))
			want = append(want, ok)
		}
	}
	bodies := make([]string, len(reqs))
	for i, r := range reqs {
		data, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		bodies[i] = string(data)
	}

	_, ts := newTestServer(t, Config{})
	var wg sync.WaitGroup
	for c := range 8 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := range 3 * len(reqs) {
				i := (c + k) % len(reqs)
				resp, err := http.Post(ts.URL+"/v1/eval", "application/json", strings.NewReader(bodies[i]))
				if err != nil {
					t.Error(err)
					return
				}
				got, err := io.ReadAll(resp.Body)
				resp.Body.Close()
				if err != nil {
					t.Error(err)
					return
				}
				if resp.StatusCode != http.StatusOK || !bytes.Equal(got, want[i]) {
					t.Errorf("client %d, point %d: status %d, body differs from the reference:\n got %s\nwant %s",
						c, i, resp.StatusCode, got, want[i])
					return
				}
			}
		}()
	}
	wg.Wait()
}

// trailingDataBodies appends to a valid request body the kinds of trailing
// data every POST route must reject with 400: bytes that are not JSON, a
// second request, an empty object, and a stray closing bracket.
func trailingDataBodies(valid string) []string {
	return []string{valid + " garbage", valid + `{"design":"nope"}`, valid + " {}", valid + "]"}
}

// TestPostTrailingData asserts trailing data is a 400 on /v1/experiment
// too (the eval and sweep validation tests cover their routes), and that
// trailing whitespace stays legal.
func TestPostTrailingData(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	for _, body := range trailingDataBodies(`{"id":"table1","quick":true}`) {
		if code, got, _ := postRaw(t, ts.URL+"/v1/experiment", body); code != http.StatusBadRequest {
			t.Errorf("%q: status %d, want 400: %s", body, code, got)
		}
	}
	for path, body := range map[string]string{
		"/v1/eval":  `{"design":"BL","workload":"vectoradd","budget":1000}`,
		"/v1/sweep": `{"designs":["BL"],"workloads":["vectoradd"],"budget":1000}`,
	} {
		if code, got, _ := postRaw(t, ts.URL+path, body+" \n\t\r\n"); code != http.StatusOK {
			t.Errorf("%s with trailing whitespace: status %d, want 200: %s", path, code, got)
		}
	}
}

// BenchmarkEvalMemoHit posts a memo-warm point through the handler: the
// HTTP layer's cost of a repeat /v1/eval (decode, validation, admission,
// stored-bytes write), with no network and no simulation.
func BenchmarkEvalMemoHit(b *testing.B) {
	srv, err := New(Config{Engine: exp.NewEngine()})
	if err != nil {
		b.Fatal(err)
	}
	h := srv.Handler()
	body := []byte(`{"design":"LTRF","workload":"sgemm","budget":2000,"allow_truncated":true}`)
	post := func() {
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/eval", bytes.NewReader(body)))
		if w.Code != http.StatusOK {
			b.Fatalf("status %d: %s", w.Code, w.Body.Bytes())
		}
	}
	post() // simulate once; every timed request is a memo hit
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		post()
	}
}
