package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strconv"
	"testing"
	"time"

	"ltrf/internal/exp"
	"ltrf/internal/faultinject"
	"ltrf/internal/regfile"
)

// FuzzEvalRequest posts arbitrary bodies to /v1/eval. Whatever the body,
// the answer is a client error, a result, or one of the documented
// shedding and deadline states — never a 500 or a panic — and a rejected
// body (400, 413) neither runs a simulation nor records an engine failure.
// A body answered 200 is posted again, and the repeat (served from the
// stored bytes) must be the same 200 body byte for byte.
//
// The server's short DefaultTimeout turns a huge valid budget into a 504;
// the request's own context bounds bodies that ask for a long timeout_ms.
// A recorder observes the status the handler writes even when that
// context fires, which a client of a listening server would not.
func FuzzEvalRequest(f *testing.F) {
	for _, b := range append(invalidEvalBodies, quickEval()) {
		data, err := json.Marshal(b)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	for _, sched := range []string{"static", "flat", "twolevel", "nosuch"} {
		f.Add([]byte(`{"design":"LTRF","workload":"vectoradd","budget":2000,"scheduler":"` + sched + `"}`))
	}
	f.Add([]byte(`{"design":"LTRF","workload":"sgemm","latency_x":1e300}`))
	f.Add([]byte(`{"design":"LTRF","workload":"sgemm","budget":1e15,"timeout_ms":1e6}`))
	f.Add([]byte(`{"design":"LTRF","workload":"sgemm"} trailing`))
	f.Add([]byte(`not json`))

	f.Fuzz(func(t *testing.T, body []byte) {
		// The fault-injection designs this binary registers answer 500 and
		// hang on purpose; their contract is TestEvalPanicIsStructured500's.
		// Decoding only the first JSON value also skips the bodies that name
		// one and that the server rejects for trailing data.
		var req EvalRequest
		if json.NewDecoder(bytes.NewReader(body)).Decode(&req) == nil {
			if d, err := regfile.Lookup(req.Design); err == nil &&
				(d.Name == faultinject.DesignPanic || d.Name == faultinject.DesignHang) {
				t.Skip("fault-injection design")
			}
		}

		eng := exp.NewEngine()
		srv, err := New(Config{Engine: eng, DefaultTimeout: 50 * time.Millisecond})
		if err != nil {
			t.Fatal(err)
		}
		post := func() *httptest.ResponseRecorder {
			ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
			defer cancel()
			r := httptest.NewRequest(http.MethodPost, "/v1/eval", bytes.NewReader(body)).WithContext(ctx)
			w := httptest.NewRecorder()
			srv.Handler().ServeHTTP(w, r)
			return w
		}
		w := post()

		switch w.Code {
		case http.StatusOK, http.StatusBadRequest, http.StatusRequestEntityTooLarge,
			http.StatusUnprocessableEntity, http.StatusTooManyRequests,
			statusClientClosedRequest, http.StatusServiceUnavailable, http.StatusGatewayTimeout:
		default:
			t.Fatalf("body %q: status %d: %s", body, w.Code, w.Body.Bytes())
		}
		if w.Code == http.StatusBadRequest || w.Code == http.StatusRequestEntityTooLarge {
			if n := eng.Sims(); n != 0 {
				t.Fatalf("body %q: rejected with %d after %d simulations", body, w.Code, n)
			}
			if n := eng.Failures(); n != 0 {
				t.Fatalf("body %q: rejected with %d after %d engine failures", body, w.Code, n)
			}
		}
		if w.Code == http.StatusOK {
			if again := post(); again.Code != http.StatusOK || !bytes.Equal(again.Body.Bytes(), w.Body.Bytes()) {
				t.Fatalf("body %q: repeat answered %d %s, first 200 %s", body, again.Code, again.Body.Bytes(), w.Body.Bytes())
			}
		}
	})
}

// FuzzSweepRequest posts arbitrary bodies to /v1/sweep. Whatever the body,
// the answer is a client error that neither simulates nor records an engine
// failure, or a 200 whose NDJSON stream is well formed: every point is
// delivered at most once, the summary is the last record and counts the
// others, and every embedded Stats obeys the simulator's conservation laws.
// It is never a 500 or a panic.
//
// As in FuzzEvalRequest, the server's short DefaultTimeout bounds a long
// sweep (its unfinished points are counted as cancelled), the request's
// own context bounds bodies that ask for a long timeout_ms, and a recorder
// sees what the handler writes even when that context fires. A small grid
// cap keeps one body from fanning out into many concurrent simulations.
func FuzzSweepRequest(f *testing.F) {
	for _, b := range []map[string]any{
		{"designs": []string{"LTRF"}, "workloads": []string{"vectoradd"}, "budget": 2000, "include_stats": true},
		{"designs": []string{"BL", "RFC", "SHRF", "LTRF+"}, "workloads": []string{"vectoradd"}, "latency_xs": []float64{1, 4}, "budget": 1500, "include_stats": true},
		{"designs": []string{"LTRF"}, "workloads": []string{"vectoradd"}, "latency_xs": []float64{2, 1e300}},
		{"designs": []string{"LTRF"}, "workloads": []string{"sgemm"}, "budget": 8e17},
		{"designs": []string{"LTRF"}, "workloads": []string{"sgemm"}, "techs": []int{99}},
		{"designs": []string{"nosuch"}, "workloads": []string{"sgemm"}},
		{"designs": []string{"BL"}},
		{"designs": []string{"LTRF"}, "workloads": []string{"vectoradd"}, "budget": 1500, "regs_per_interval": []int{8, 16}, "active_warps": []int{4}},
	} {
		data, err := json.Marshal(b)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Add([]byte(`{"designs":["LTRF"],"workloads":["sgemm"],"budget":1e15,"timeout_ms":1e6,"parallelism":1e9}`))
	f.Add([]byte(`{"designs":["LTRF"],"workloads":["vectoradd"]} trailing`))
	f.Add([]byte(overflowSweepBody(512)))
	f.Add([]byte(`not json`))

	f.Fuzz(func(t *testing.T, body []byte) {
		var req SweepRequest
		if json.NewDecoder(bytes.NewReader(body)).Decode(&req) == nil {
			for _, name := range req.Designs {
				if d, err := regfile.Lookup(name); err == nil &&
					(d.Name == faultinject.DesignPanic || d.Name == faultinject.DesignHang) {
					t.Skip("fault-injection design")
				}
			}
		}

		eng := exp.NewEngine()
		srv, err := New(Config{Engine: eng, DefaultTimeout: 50 * time.Millisecond, MaxSweepPoints: 16})
		if err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		defer cancel()
		r := httptest.NewRequest(http.MethodPost, "/v1/sweep", bytes.NewReader(body)).WithContext(ctx)
		w := httptest.NewRecorder()
		srv.Handler().ServeHTTP(w, r)

		switch {
		case w.Code == http.StatusOK:
			checkSweepStream(t, body, w)
		case w.Code >= 400 && w.Code < 500:
			if n := eng.Sims(); n != 0 {
				t.Fatalf("body %q: rejected with %d after %d simulations", body, w.Code, n)
			}
			if n := eng.Failures(); n != 0 {
				t.Fatalf("body %q: rejected with %d after %d engine failures", body, w.Code, n)
			}
		default:
			t.Fatalf("body %q: status %d: %s", body, w.Code, w.Body.Bytes())
		}
	})
}

// checkSweepStream asserts a 200 sweep response is a well-formed stream.
func checkSweepStream(t *testing.T, body []byte, w *httptest.ResponseRecorder) {
	t.Helper()
	points, err := strconv.Atoi(w.Header().Get("X-Sweep-Points"))
	if err != nil {
		t.Fatalf("body %q: X-Sweep-Points %q: %v", body, w.Header().Get("X-Sweep-Points"), err)
	}
	seen := make(map[int]bool)
	results, errs := 0, 0
	var sum *SweepSummary
	sc := bufio.NewScanner(w.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		if sum != nil {
			t.Fatalf("body %q: record after the summary: %s", body, sc.Bytes())
		}
		var head struct{ Type string }
		if err := json.Unmarshal(sc.Bytes(), &head); err != nil {
			t.Fatalf("body %q: bad NDJSON line %q: %v", body, sc.Bytes(), err)
		}
		switch head.Type {
		case "heartbeat":
		case "summary":
			sum = new(SweepSummary)
			if err := json.Unmarshal(sc.Bytes(), sum); err != nil {
				t.Fatalf("body %q: summary %q: %v", body, sc.Bytes(), err)
			}
		case "result", "error":
			var rec SweepResultRecord
			if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
				t.Fatalf("body %q: record %q: %v", body, sc.Bytes(), err)
			}
			if rec.Index < 0 || rec.Index >= points || seen[rec.Index] {
				t.Fatalf("body %q: record index %d out of [0, %d) or repeated", body, rec.Index, points)
			}
			seen[rec.Index] = true
			if rec.Type == "error" {
				errs++
				if rec.Error == nil {
					t.Fatalf("body %q: error record without an error: %s", body, sc.Bytes())
				}
				continue
			}
			results++
			if rec.Stats != nil {
				checkRecordConservation(t, body, &rec)
			}
		default:
			t.Fatalf("body %q: unknown record type %q", body, head.Type)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatalf("body %q: stream read: %v", body, err)
	}
	if sum == nil {
		t.Fatalf("body %q: stream has no summary", body)
	}
	if sum.Points != points || sum.OK != results || sum.Errors != errs || sum.Cancelled != points-results-errs {
		t.Fatalf("body %q: summary %+v does not count %d points, %d results, %d errors", body, *sum, points, results, errs)
	}
}

// checkRecordConservation asserts a result record's Stats agree with its
// headline fields and obey the conservation laws: every retired
// instruction is in exactly one class, hits never exceed accesses, and a
// cached design's register cache fronts every operand read and result
// write the SM asked for.
func checkRecordConservation(t *testing.T, body []byte, rec *SweepResultRecord) {
	t.Helper()
	st := rec.Stats
	if st.Instrs != rec.Instrs || st.Cycles != rec.Cycles {
		t.Fatalf("body %q: record %d: stats %d instrs / %d cycles, headline %d / %d", body, rec.Index, st.Instrs, st.Cycles, rec.Instrs, rec.Cycles)
	}
	if got := st.ALUOps + st.SFUOps + st.MemOps + st.CtrlOps; got != st.Instrs {
		t.Fatalf("body %q: record %d: op classes sum to %d, Instrs %d", body, rec.Index, got, st.Instrs)
	}
	if st.RF.CacheReadHits > st.RF.CacheReads || st.Mem.L1Misses > st.Mem.L1Accesses || st.IdleCycles > st.Cycles {
		t.Fatalf("body %q: record %d: a hit or idle count exceeds its total: %+v", body, rec.Index, *st)
	}
	if d, err := regfile.Lookup(rec.Design); err == nil && d.IsCached &&
		(st.RF.CacheReads != st.OperandReads || st.RF.CacheWrites != st.ResultWrites) {
		t.Fatalf("body %q: record %d: %s cache reads/writes %d/%d, operand reads/result writes %d/%d",
			body, rec.Index, rec.Design, st.RF.CacheReads, st.RF.CacheWrites, st.OperandReads, st.ResultWrites)
	}
}
