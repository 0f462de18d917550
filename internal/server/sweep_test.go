package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
	"time"

	"ltrf/internal/exp"
	"ltrf/internal/faultinject"
	"ltrf/internal/store"
)

// postSweep fires a sweep request and returns the raw response for the
// caller to read incrementally.
func postSweep(t *testing.T, ts *httptest.Server, body any) *http.Response {
	t.Helper()
	data, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := ts.Client().Post(ts.URL+"/v1/sweep", "application/json", bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// sweepLine is the union decode target for any NDJSON record.
type sweepLine struct {
	Type      string      `json:"type"`
	Index     int         `json:"index"`
	Design    string      `json:"design"`
	Workload  string      `json:"workload"`
	IPC       float64     `json:"ipc"`
	Error     *errorBody  `json:"error"`
	Points    int         `json:"points"`
	OK        int         `json:"ok"`
	Errors    int         `json:"errors"`
	Cancelled int         `json:"cancelled"`
	Truncated interface{} `json:"truncated"` // []int on summaries, bool on results
	Failures  []SweepFail `json:"failures"`
}

func decodeSweepStream(t *testing.T, resp *http.Response) []sweepLine {
	t.Helper()
	defer resp.Body.Close()
	var lines []sweepLine
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		var l sweepLine
		if err := json.Unmarshal(sc.Bytes(), &l); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
		lines = append(lines, l)
	}
	if err := sc.Err(); err != nil {
		t.Fatalf("stream read: %v", err)
	}
	return lines
}

func TestSweepStreamsFullGridWithSummary(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	_, ts := newTestServer(t, Config{})
	resp := postSweep(t, ts, map[string]any{
		"designs":    []string{"BL", "LTRF"},
		"workloads":  []string{"vectoradd"},
		"latency_xs": []float64{1, 4},
		"budget":     2000,
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("Content-Type = %q", ct)
	}
	if n := resp.Header.Get("X-Sweep-Points"); n != "4" {
		t.Errorf("X-Sweep-Points = %q, want 4", n)
	}
	lines := decodeSweepStream(t, resp)
	if len(lines) == 0 {
		t.Fatal("empty stream")
	}
	last := lines[len(lines)-1]
	if last.Type != "summary" || last.Points != 4 || last.OK != 4 || last.Errors != 0 || last.Cancelled != 0 {
		t.Errorf("summary = %+v", last)
	}
	seen := map[int]bool{}
	for _, l := range lines[:len(lines)-1] {
		if l.Type != "result" {
			t.Errorf("unexpected record type %q before summary", l.Type)
			continue
		}
		if seen[l.Index] {
			t.Errorf("index %d delivered twice", l.Index)
		}
		seen[l.Index] = true
		if l.IPC <= 0 {
			t.Errorf("point %d: implausible ipc %v", l.Index, l.IPC)
		}
	}
	if len(seen) != 4 {
		t.Errorf("delivered %d distinct points, want 4", len(seen))
	}
}

// TestSweepWarmRecordArrivesBeforeColdSimulationFinishes is the PR 10
// streaming acceptance pin: a grid mixing one warm point with a cold
// fault-hang point (which cannot finish before the request deadline) must
// deliver the warm point's NDJSON record while the cold simulation is still
// running — no head-of-line blocking behind grid order.
func TestSweepWarmRecordArrivesBeforeColdSimulationFinishes(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	eng := exp.NewEngine()
	_, ts := newTestServer(t, Config{Engine: eng})

	// Warm LTRF/vectoradd through the public API first.
	code, _ := post(t, ts.URL+"/v1/eval", quickEval())
	if code != http.StatusOK {
		t.Fatalf("warmup status = %d", code)
	}
	simsBefore := eng.Sims()

	// fault-hang first in the grid (grid order must NOT dictate delivery),
	// the warm point second. The hang design sleeps per operand read, so its
	// cold simulation takes on the order of a second — plenty of window for
	// the warm record to flush first.
	resp := postSweep(t, ts, map[string]any{
		"designs":   []string{faultinject.DesignHang, "LTRF"},
		"workloads": []string{"vectoradd"},
		"budget":    2000,
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	defer resp.Body.Close()

	sc := bufio.NewScanner(resp.Body)
	if !sc.Scan() {
		t.Fatalf("no first record: %v", sc.Err())
	}
	firstAt := time.Now()
	var first sweepLine
	if err := json.Unmarshal(sc.Bytes(), &first); err != nil {
		t.Fatal(err)
	}
	if first.Type != "result" || first.Design != "LTRF" {
		t.Fatalf("first record = %q %q, want the warm LTRF result", first.Type, first.Design)
	}
	// The warm record must flush from the memo, not a fresh simulation.
	if eng.Sims() != simsBefore+1 { // +1: the fault-hang sim is in flight (counted at start)
		t.Errorf("sims = %d, want %d (warm point must not re-simulate)", eng.Sims(), simsBefore+1)
	}

	// Drain the rest. The hang point's slow cold simulation completes long
	// after the warm record flushed: the stream outliving the first record
	// by a wide margin proves the warm record arrived before any cold
	// simulation finished.
	var rest []sweepLine
	for sc.Scan() {
		var l sweepLine
		if err := json.Unmarshal(sc.Bytes(), &l); err != nil {
			t.Fatal(err)
		}
		rest = append(rest, l)
	}
	if len(rest) == 0 {
		t.Fatal("stream ended without further records")
	}
	tail := time.Since(firstAt)
	if tail < 300*time.Millisecond {
		t.Errorf("stream closed %v after the first record; the warm record did not precede the cold simulation", tail)
	}
	last := rest[len(rest)-1]
	if last.Type != "summary" || last.Points != 2 || last.OK != 2 || last.Errors != 0 {
		t.Errorf("summary = %+v", last)
	}
}

// TestSweepHeadersArriveBeforeAnyPoint asserts a sweep's status and grid
// size reach the client as soon as the sweep is accepted, not with its
// first record: a one-point grid whose only point cannot finish before the
// request deadline still answers client.Do within a second, and the stream
// still ends in a summary.
func TestSweepHeadersArriveBeforeAnyPoint(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	_, ts := newTestServer(t, Config{})
	body := `{"designs":["` + faultinject.DesignHang + `"],"workloads":["vectoradd"],"budget":2000,"timeout_ms":3000}`
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/sweep", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	if waited := time.Since(start); waited > time.Second {
		t.Errorf("headers arrived after %v, want within 1s", waited)
	}
	if resp.StatusCode != http.StatusOK || resp.Header.Get("X-Sweep-Points") != "1" {
		t.Errorf("status %d, X-Sweep-Points %q; want 200 and 1", resp.StatusCode, resp.Header.Get("X-Sweep-Points"))
	}
	lines := decodeSweepStream(t, resp)
	if last := lines[len(lines)-1]; last.Type != "summary" || last.Points != 1 {
		t.Errorf("terminal record = %+v, want a one-point summary", last)
	}
}

func TestSweepValidationRejectsBeforeAdmission(t *testing.T) {
	srv, ts := newTestServer(t, Config{})
	for name, body := range map[string]map[string]any{
		"no designs":      {"workloads": []string{"vectoradd"}},
		"no workloads":    {"designs": []string{"BL"}},
		"bad design":      {"designs": []string{"nosuch"}, "workloads": []string{"vectoradd"}},
		"bad workload":    {"designs": []string{"BL"}, "workloads": []string{"nosuch"}},
		"bad tech":        {"designs": []string{"BL"}, "workloads": []string{"vectoradd"}, "techs": []int{99}},
		"bad latency":     {"designs": []string{"BL"}, "workloads": []string{"vectoradd"}, "latency_xs": []float64{-1}},
		"bad scheduler":   {"designs": []string{"BL"}, "workloads": []string{"vectoradd"}, "schedulers": []string{"nosuch"}},
		"bad prefetch":    {"designs": []string{"BL"}, "workloads": []string{"vectoradd"}, "prefetch": []string{"nosuch"}},
		"bad interval":    {"designs": []string{"LTRF"}, "workloads": []string{"vectoradd"}, "regs_per_interval": []int{16, 2}},
		"bad warps":       {"designs": []string{"LTRF"}, "workloads": []string{"vectoradd"}, "active_warps": []int{100_000}},
		"bad late name":   {"designs": []string{"BL", "nosuch"}, "workloads": []string{"vectoradd", "nosuch"}},
		"negative budget": {"designs": []string{"BL"}, "workloads": []string{"vectoradd"}, "budget": -1},
		// Its derived cycle stop (12 cycles per instruction) overflows int64.
		"overflowing budget": {"designs": []string{"BL"}, "workloads": []string{"vectoradd"}, "budget": 8e17},
		// Its nanosecond Duration overflows int64.
		"overflowing timeout": {"designs": []string{"BL"}, "workloads": []string{"vectoradd"}, "timeout_ms": 18446744073710},
		"negative timeout":    {"designs": []string{"BL"}, "workloads": []string{"vectoradd"}, "timeout_ms": -5},
	} {
		resp := postSweep(t, ts, body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status = %d, want 400", name, resp.StatusCode)
		}
	}
	for _, body := range trailingDataBodies(`{"designs":["BL"],"workloads":["vectoradd"],"budget":1000}`) {
		if code, got, _ := postRaw(t, ts.URL+"/v1/sweep", body); code != http.StatusBadRequest {
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

func TestSweepGridCapIs400(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxSweepPoints: 3})
	resp := postSweep(t, ts, map[string]any{
		"designs":    []string{"BL", "LTRF"},
		"workloads":  []string{"vectoradd"},
		"latency_xs": []float64{1, 2},
	})
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("4-point grid under cap 3: status = %d, want 400", resp.StatusCode)
	}
}

// overflowSweepBody is a sweep whose seven axes of the original expansion
// each list n values: an n^7-point grid of tiny JSON. At n = 512 the
// product is 2^63, which wraps an int to its minimum; at n = 1024 it is
// 2^70, which wraps to 0. Either slips under a cap checked after an
// unchecked multiplication.
func overflowSweepBody(n int) string {
	list := func(v string) string { return "[" + strings.Repeat(v+",", n-1) + v + "]" }
	return fmt.Sprintf(`{"designs":%s,"workloads":%s,"techs":%s,"latency_xs":%s,"schedulers":%s,"prefetch":%s,"ctas":%s}`,
		list(`"BL"`), list(`"vectoradd"`), list("1"), list("1"), list(`"flat"`), list(`"off"`), list("1"))
}

// TestSweepGridOverflowIs400 asserts a grid whose point count overflows an
// int is a prompt 400 before admission, not a panic or an unbounded
// expansion.
func TestSweepGridOverflowIs400(t *testing.T) {
	for _, n := range []int{512, 1024} {
		srv, err := New(Config{Engine: exp.NewEngine()})
		if err != nil {
			t.Fatal(err)
		}
		start := time.Now()
		w := httptest.NewRecorder()
		srv.Handler().ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/sweep", strings.NewReader(overflowSweepBody(n))))
		if w.Code != http.StatusBadRequest {
			t.Errorf("%d^7 grid: status %d, want 400: %.200s", n, w.Code, w.Body.Bytes())
		}
		if d := time.Since(start); d > 2*time.Second {
			t.Errorf("%d^7 grid: answered after %v", n, d)
		}
		if sims := srv.cfg.Engine.Sims(); sims != 0 {
			t.Errorf("%d^7 grid: %d simulations, want 0", n, sims)
		}
	}
}

// TestEvalSweepAxisParity asserts both routes build the same point for
// each optional axis: the /v1/eval answer of a point and the record of the
// same one-point /v1/sweep, each from its own fresh engine, carry the same
// axes, the axis set, and the same ipc, cycles and instrs.
func TestEvalSweepAxisParity(t *testing.T) {
	for _, c := range []struct {
		evalKey, sweepKey string
		value             any
		want              OptionalAxes
	}{
		{"scheduler", "schedulers", "static", OptionalAxes{Scheduler: "static"}},
		{"scheduler", "schedulers", "flat", OptionalAxes{Scheduler: "flat"}},
		{"prefetch", "prefetch", "stride", OptionalAxes{Prefetch: "stride"}},
		{"prefetch", "prefetch", "cta", OptionalAxes{Prefetch: "cta"}},
		{"ctas", "ctas", 2, OptionalAxes{CTAs: 2}},
		{"regs_per_interval", "regs_per_interval", 8, OptionalAxes{RegsPerInterval: 8}},
		{"active_warps", "active_warps", 4, OptionalAxes{ActiveWarps: 4}},
	} {
		serve := func(path string, body map[string]any) []byte {
			t.Helper()
			srv, err := New(Config{Engine: exp.NewEngine()})
			if err != nil {
				t.Fatal(err)
			}
			data, _ := json.Marshal(body)
			w := httptest.NewRecorder()
			srv.Handler().ServeHTTP(w, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(data)))
			if w.Code != http.StatusOK {
				t.Fatalf("%s %s: status %d: %s", path, data, w.Code, w.Body.Bytes())
			}
			return w.Body.Bytes()
		}
		var ev EvalResponse
		if err := json.Unmarshal(serve("/v1/eval", map[string]any{
			"design": "LTRF", "workload": "vectoradd", "budget": 2000, "allow_truncated": true, c.evalKey: c.value,
		}), &ev); err != nil {
			t.Fatal(err)
		}
		var rec SweepResultRecord
		stream := serve("/v1/sweep", map[string]any{
			"designs": []string{"LTRF"}, "workloads": []string{"vectoradd"}, "budget": 2000, c.sweepKey: []any{c.value},
		})
		if err := json.Unmarshal(stream[:bytes.IndexByte(stream, '\n')], &rec); err != nil {
			t.Fatal(err)
		}
		if rec.Type != "result" {
			t.Fatalf("%s %v: first sweep record is %q, want a result", c.evalKey, c.value, rec.Type)
		}
		if ev.OptionalAxes != c.want || rec.OptionalAxes != c.want {
			t.Errorf("%s %v: eval echoes %+v, sweep %+v, want %+v", c.evalKey, c.value, ev.OptionalAxes, rec.OptionalAxes, c.want)
		}
		if ev.Design != rec.Design || ev.Workload != rec.Workload || ev.Tech != rec.Tech || ev.LatencyX != rec.LatencyX || ev.Budget != rec.Budget ||
			ev.IPC != rec.IPC || ev.Cycles != rec.Cycles || ev.Instrs != rec.Instrs {
			t.Errorf("%s %v: eval answered %s/%s tech %d %gx budget %d ipc %v cycles %d instrs %d; sweep %s/%s tech %d %gx budget %d ipc %v cycles %d instrs %d",
				c.evalKey, c.value, ev.Design, ev.Workload, ev.Tech, ev.LatencyX, ev.Budget, ev.IPC, ev.Cycles, ev.Instrs,
				rec.Design, rec.Workload, rec.Tech, rec.LatencyX, rec.Budget, rec.IPC, rec.Cycles, rec.Instrs)
		}
	}
}

func TestPostBodyCapIs413(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxBodyBytes: 256})
	huge := strings.Repeat("x", 1024)
	for _, path := range []string{"/v1/eval", "/v1/sweep", "/v1/experiment"} {
		resp, err := ts.Client().Post(ts.URL+path, "application/json",
			strings.NewReader(`{"design":"`+huge+`"}`))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusRequestEntityTooLarge {
			t.Errorf("%s oversized body: status = %d, want 413", path, resp.StatusCode)
		}
	}
}

// TestSweepClientDisconnectLeaksNoGoroutines cancels a sweep mid-stream and
// asserts the server's evaluation goroutines unwind (the PR 10 satellite
// leak test).
func TestSweepClientDisconnectLeaksNoGoroutines(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	_, ts := newTestServer(t, Config{})
	before := runtime.NumGoroutine()

	ctx, cancel := context.WithCancel(context.Background())
	body, _ := json.Marshal(map[string]any{
		// A pure-cold hang grid: nothing completes; the stream stays open
		// until we sever it.
		"designs":   []string{faultinject.DesignHang},
		"workloads": []string{"vectoradd", "sgemm", "btree"},
		"budget":    5000,
	})
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/v1/sweep", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	// Disconnect while the cold points are mid-simulation.
	time.Sleep(100 * time.Millisecond)
	cancel()
	resp.Body.Close()

	transport, _ := ts.Client().Transport.(*http.Transport)
	deadline := time.Now().Add(10 * time.Second)
	var after int
	for {
		if transport != nil {
			transport.CloseIdleConnections()
		}
		runtime.GC()
		after = runtime.NumGoroutine()
		if after <= before+3 || time.Now().After(deadline) {
			break
		}
		time.Sleep(50 * time.Millisecond)
	}
	if after > before+3 {
		t.Errorf("goroutines: %d before, %d after disconnect — sweep leaked", before, after)
	}
}

func TestSweepHeartbeatsDuringColdStretch(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	_, ts := newTestServer(t, Config{SweepHeartbeat: 50 * time.Millisecond})
	resp := postSweep(t, ts, map[string]any{
		"designs":    []string{faultinject.DesignHang},
		"workloads":  []string{"vectoradd"},
		"budget":     2000,
		"timeout_ms": 700,
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	lines := decodeSweepStream(t, resp)
	beats := 0
	for _, l := range lines {
		if l.Type == "heartbeat" {
			beats++
		}
	}
	if beats == 0 {
		t.Errorf("no heartbeat records on a %d-line cold stream", len(lines))
	}
	if last := lines[len(lines)-1]; last.Type != "summary" {
		t.Errorf("terminal record type %q, want summary", last.Type)
	}
}

// TestMetaExposesLeaseCounters drives a cold point through a store-backed
// server and asserts the new lease counters surface in /v1/meta.
func TestMetaExposesLeaseCounters(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	st, err := store.Open(t.TempDir(), store.Options{Version: exp.StoreVersion()})
	if err != nil {
		t.Fatal(err)
	}
	_, ts := newTestServer(t, Config{Engine: exp.NewEngineWithStore(st)})
	if code, _ := post(t, ts.URL+"/v1/eval", quickEval()); code != http.StatusOK {
		t.Fatalf("eval status = %d", code)
	}
	code, m := func() (int, map[string]json.RawMessage) {
		resp, err := ts.Client().Get(ts.URL + "/v1/meta")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var m map[string]json.RawMessage
		if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, m
	}()
	if code != http.StatusOK {
		t.Fatalf("meta status = %d", code)
	}
	var sm StoreMeta
	if err := json.Unmarshal(m["store"], &sm); err != nil {
		t.Fatal(err)
	}
	if sm.LeasesAcquired != 1 || sm.LeaseWaits != 0 || sm.LeaseTakeovers != 0 {
		t.Errorf("lease counters = %+v, want exactly one acquisition", sm)
	}
	if sm.Puts != 1 {
		t.Errorf("puts = %d, want 1", sm.Puts)
	}
}

// TestTwoReplicaSweepComputesEachPointOnce fires the same all-cold grid at
// two servers sharing one store directory, at once: each stream delivers
// every point, and the store's leases split the cold work so the pair
// simulates each point exactly once between them.
func TestTwoReplicaSweepComputesEachPointOnce(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	dir := t.TempDir()
	var engines [2]*exp.Engine
	var urls [2]string
	for i := range engines {
		st, err := store.Open(dir, store.Options{Version: exp.StoreVersion()})
		if err != nil {
			t.Fatal(err)
		}
		engines[i] = exp.NewEngineWithStore(st)
		_, ts := newTestServer(t, Config{Engine: engines[i]})
		urls[i] = ts.URL
	}
	// The store is fresh and no other test uses this budget: every point is cold.
	const points = 8
	body := `{"designs":["BL","RFC","LTRF","LTRF+"],"workloads":["vectoradd"],"latency_xs":[1,2],"budget":3001}`
	// A sweep's headers arrive before any point is computed, so both
	// requests are in flight before either stream is read.
	var resps [2]*http.Response
	for i, u := range urls {
		resp, err := http.Post(u+"/v1/sweep", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatalf("replica %d: %v", i, err)
		}
		resps[i] = resp
	}

	for i, resp := range resps {
		var sum sweepLine
		seen := map[int]bool{}
		for _, l := range decodeSweepStream(t, resp) {
			switch {
			case l.Type == "summary":
				sum = l
			case l.Type == "result" && !seen[l.Index]:
				seen[l.Index] = true
			case l.Type != "heartbeat":
				t.Errorf("replica %d: unexpected %s record for index %d", i, l.Type, l.Index)
			}
		}
		if len(seen) != points || sum.Points != points || sum.OK != points {
			t.Errorf("replica %d: %d distinct points delivered, summary %+v; want %d, all ok", i, len(seen), sum, points)
		}
	}
	if sims := engines[0].Sims() + engines[1].Sims(); sims != points {
		t.Errorf("the replicas simulated %d points between them, want exactly %d (%d + %d)",
			sims, points, engines[0].Sims(), engines[1].Sims())
	}
}

// TestValidationErrorsAreNeverMemoized asserts a 400 leaves no trace in
// the engine — no simulation, no recorded failure, no memo entry, even for
// the valid points of a rejected grid — so the same request with its bad
// axis value dropped simulates as if the rejection never happened.
func TestValidationErrorsAreNeverMemoized(t *testing.T) {
	srv, ts := newTestServer(t, Config{})
	eng := srv.cfg.Engine
	evalBody := func(latX float64) map[string]any {
		return map[string]any{"design": "LTRF", "workload": "vectoradd", "budget": 2000, "latency_x": latX}
	}
	sweepBody := func(latXs ...float64) map[string]any {
		return map[string]any{"designs": []string{"LTRF"}, "workloads": []string{"vectoradd"}, "budget": 2000, "latency_xs": latXs}
	}
	unchanged := func(when string, sims int64, memo int) {
		t.Helper()
		if n := eng.Sims(); n != sims {
			t.Errorf("%s: %d simulations, want %d", when, n, sims)
		}
		if n := eng.Failures(); n != 0 {
			t.Errorf("%s: %d engine failures, want 0", when, n)
		}
		if n := eng.Memoized(); n != memo {
			t.Errorf("%s: memo holds %d points, want %d", when, n, memo)
		}
	}

	if code, m := post(t, ts.URL+"/v1/eval", evalBody(1e300)); code != http.StatusBadRequest {
		t.Fatalf("eval latency_x 1e300: status %d (%v), want 400", code, m)
	}
	unchanged("after the rejected eval", 0, 0)
	resp := postSweep(t, ts, sweepBody(2, 1e300))
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("sweep latency_xs [2, 1e300]: status %d, want 400", resp.StatusCode)
	}
	unchanged("after the rejected sweep", 0, 0)

	if code, m := post(t, ts.URL+"/v1/eval", evalBody(1.5)); code != http.StatusOK {
		t.Fatalf("valid eval retry: status %d (%v), want 200", code, m)
	}
	unchanged("after the eval retry", 1, 1)
	lines := decodeSweepStream(t, postSweep(t, ts, sweepBody(2)))
	if last := lines[len(lines)-1]; last.Type != "summary" || last.OK != 1 {
		t.Fatalf("valid sweep retry summary = %+v", last)
	}
	unchanged("after the sweep retry", 2, 2)
}

// flushCounter is a ResponseWriter that counts the handler's flushes.
type flushCounter struct {
	*httptest.ResponseRecorder
	flushes int
}

func (f *flushCounter) Flush() {
	f.flushes++
	f.ResponseRecorder.Flush()
}

// TestSweepWarmRecordsShareFlushes asserts that a fully memo-warm sweep
// reaches the client in fewer flushes than it has points: records that are
// ready together are written together and flushed once.
func TestSweepWarmRecordsShareFlushes(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	s, err := New(Config{Engine: exp.NewEngine()})
	if err != nil {
		t.Fatal(err)
	}
	body, _ := json.Marshal(map[string]any{
		"designs":    []string{"BL", "LTRF"},
		"workloads":  []string{"vectoradd", "sgemm", "btree"},
		"latency_xs": []float64{1, 2, 4, 6},
		"budget":     2000,
	})
	const n = 2 * 3 * 4
	sweep := func() *flushCounter {
		w := &flushCounter{ResponseRecorder: httptest.NewRecorder()}
		s.Handler().ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/sweep", bytes.NewReader(body)))
		if w.Code != http.StatusOK {
			t.Fatalf("status = %d: %s", w.Code, w.Body)
		}
		lines := strings.Split(strings.TrimSuffix(w.Body.String(), "\n"), "\n")
		if len(lines) != n+1 || !strings.HasPrefix(lines[n], `{"type":"summary","points":24,"ok":24,`) {
			t.Fatalf("got %d lines ending %q, want %d results and an all-ok summary", len(lines), lines[len(lines)-1], n)
		}
		return w
	}
	sweep() // cold: memoizes every point
	if warm := sweep(); warm.flushes >= n {
		t.Errorf("memo-warm %d-point sweep flushed %d times, want fewer than one per record", n, warm.flushes)
	} else {
		t.Logf("memo-warm %d-point sweep: %d flushes", n, warm.flushes)
	}
}
