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
	"ltrf/internal/store"
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

// referenceEvalBody is the 200 body of req computed without the server's
// stored bytes: a direct Eval on a fresh engine, encoded as unary
// responses are (two-space indent, trailing newline).
func referenceEvalBody(t *testing.T, req EvalRequest) []byte {
	t.Helper()
	pt, err := parsePoint(&req)
	if err != nil {
		t.Fatal(err)
	}
	res, err := exp.NewEngine().Eval(context.Background(), pt)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(evalResponse(pt, res)); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestEvalBodyByteIdentical asserts a point's /v1/eval body is the same
// bytes whether it was simulated, served from the server's stored bytes,
// or read from the persistent store by a fresh server, and that those
// bytes are an independent encoding of a direct evaluation.
func TestEvalBodyByteIdentical(t *testing.T) {
	dir := t.TempDir()
	open := func() *exp.Engine {
		s, err := store.Open(dir, store.Options{Version: exp.StoreVersion()})
		if err != nil {
			t.Fatal(err)
		}
		return exp.NewEngineWithStore(s)
	}
	const body = `{"design":"LTRF","workload":"sgemm","latency_x":4,"budget":3000}`
	want := referenceEvalBody(t, EvalRequest{Design: "LTRF", Workload: "sgemm", LatencyX: 4, Budget: 3000})

	srv1, ts1 := newTestServer(t, Config{Engine: open()})
	srv2, ts2 := newTestServer(t, Config{Engine: open()})
	for _, c := range []struct{ name, url string }{
		{"cold", ts1.URL},
		{"memo-warm", ts1.URL},
		{"store-warm", ts2.URL},
	} {
		code, got, ctype := postRaw(t, c.url+"/v1/eval", body)
		if code != http.StatusOK || ctype != "application/json" {
			t.Fatalf("%s: status %d, Content-Type %q: %s", c.name, code, ctype, got)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s body differs from the direct encoding:\n got %s\nwant %s", c.name, got, want)
		}
	}
	if n := srv1.cfg.Engine.Sims(); n != 1 {
		t.Errorf("first server simulated %d times, want 1", n)
	}
	if sims, hits := srv2.cfg.Engine.Sims(), srv2.cfg.Engine.StoreHits(); sims != 0 || hits != 1 {
		t.Errorf("restarted server: %d sims, %d store hits, want 0 and 1", sims, hits)
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
	for _, d := range []string{"BL", "LTRF"} {
		for _, latX := range []float64{1, 3} {
			reqs = append(reqs, EvalRequest{Design: d, Workload: "vectoradd", LatencyX: latX, Budget: 1500})
		}
	}
	bodies := make([]string, len(reqs))
	want := make([][]byte, len(reqs))
	for i, r := range reqs {
		data, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		bodies[i] = string(data)
		want[i] = referenceEvalBody(t, r)
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
