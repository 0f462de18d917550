package server

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"ltrf/internal/exp"
	"ltrf/internal/store"
)

// soakOutcomes counts a soak run's outcomes by class.
type soakOutcomes struct {
	ok, truncated, shed, cancelled, failed int
	statuses                               map[int]int // 0: no response
}

// soakRun fires n /v1/eval requests from the given number of workers and
// classifies each outcome. The requests are drawn up front from one seeded
// RNG, so the mix is the same whatever the workers' interleaving. Each picks
// a point from a 48-point pool, so repeats hit the memo; a quarter get a
// never-seen budget, a guaranteed miss; cancelFrac of them are cancelled.
func soakRun(ts *httptest.Server, n, workers int, cancelFrac float64, seed int64) soakOutcomes {
	type job struct {
		body   string
		cancel bool
	}
	designs := []string{"BL", "RFC", "LTRF", "LTRF+"}
	workloads := []string{"sgemm", "btree", "vectoradd"}
	latencies := []float64{1, 2, 4, 8}
	rng := rand.New(rand.NewSource(seed))
	jobs := make(chan job, n)
	for i := range n {
		design := designs[rng.Intn(len(designs))]
		workload := workloads[rng.Intn(len(workloads))]
		latency := latencies[rng.Intn(len(latencies))]
		budget := 12_000
		if rng.Float64() < 0.25 {
			budget += i
		}
		// Truncation is part of the expected mix, not a failure.
		body := fmt.Sprintf(`{"design":%q,"workload":%q,"latency_x":%g,"budget":%d,"allow_truncated":true}`, design, workload, latency, budget)
		jobs <- job{body, rng.Float64() < cancelFrac}
	}
	close(jobs)
	out := soakOutcomes{statuses: map[int]int{}}
	var mu sync.Mutex
	var wg sync.WaitGroup
	for range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range jobs {
				status, err := soakPost(ts, j.body, j.cancel)
				mu.Lock()
				switch {
				case j.cancel:
					out.cancelled++
				case err != nil:
					out.failed++
				case status == http.StatusOK:
					out.ok++
				case status == http.StatusUnprocessableEntity:
					out.truncated++
				case status == http.StatusTooManyRequests || status == http.StatusServiceUnavailable:
					out.shed++
				default:
					out.failed++
				}
				out.statuses[status]++
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return out
}

// soakPost sends one request and returns its status. A cancelled request's
// context dies 2 ms after dispatch, mid-queue or mid-simulation.
func soakPost(ts *httptest.Server, body string, cancel bool) (int, error) {
	ctx := context.Background()
	if cancel {
		var stop context.CancelFunc
		ctx, stop = context.WithTimeout(ctx, 2*time.Millisecond)
		defer stop()
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/v1/eval", strings.NewReader(body))
	if err != nil {
		return 0, err
	}
	resp, err := ts.Client().Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	io.Copy(io.Discard, resp.Body) //nolint:errcheck // drain for keep-alive
	return resp.StatusCode, nil
}

// TestSoakMixedLoad drives the server with a seeded hit/miss/cancel mix
// and asserts the service invariants that matter under churn:
//
//   - the mix is what it claims: some requests were cancelled, some missed
//     and simulated, and repeats hit the memo;
//   - no request is lost: every outcome is classified, OK+shed+cancelled+
//     truncated+failed == requests;
//   - nothing fails outright: cancellations and shedding are expected
//     outcomes, 5xx on healthy points are not;
//   - no goroutine leak: cancelled-mid-simulation requests must release
//     their evaluation goroutines (measured after a settle window);
//   - the store stays consistent: counters visible, nothing quarantined.
func TestSoakMixedLoad(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	st, err := store.Open(t.TempDir(), store.Options{Version: exp.StoreVersion()})
	if err != nil {
		t.Fatal(err)
	}
	eng := exp.NewEngineWithStore(st)
	// A deep queue so the whole stream is served rather than shed even on a
	// race-slowed runner — TestShedding exercises the shedding path
	// deliberately; the soak is about churn on the serving path.
	srv, err := New(Config{Engine: eng, MaxQueue: 256, DefaultTimeout: 30 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	before := runtime.NumGoroutine()

	const requests = 96
	stats := soakRun(ts, requests, 12, 0.15, 42)
	t.Logf("soak: %+v sims=%d", stats, eng.Sims())

	if stats.cancelled == 0 {
		t.Error("the stream cancelled no request")
	}
	if eng.Sims() == 0 {
		t.Error("the engine simulated nothing: no request missed")
	}
	if eng.Sims() >= int64(stats.ok) {
		t.Errorf("%d simulations for %d OK responses: no repeat hit the memo", eng.Sims(), stats.ok)
	}
	if got := stats.ok + stats.truncated + stats.shed + stats.cancelled + stats.failed; got != requests {
		t.Errorf("outcomes %d != requests %d (a request was lost)", got, requests)
	}
	if stats.failed > 0 {
		t.Errorf("%d requests failed outright (status mix %v)", stats.failed, stats.statuses)
	}
	if stats.ok == 0 {
		t.Error("soak produced zero successful evaluations")
	}
	if st.Quarantined() != 0 {
		t.Errorf("soak quarantined %d records on a healthy disk", st.Quarantined())
	}

	// Leak check: cancelled evaluations stop inside the simulator's advance
	// loop, so after a settle window the goroutine count returns to (about)
	// the baseline. Idle keep-alive connections are closed each iteration —
	// their readLoop/writeLoop goroutines are pool bookkeeping, not leaks.
	// The slack absorbs runtime/net scheduler noise; a leak of one goroutine
	// per cancelled request (~14 here) blows well past it.
	transport, _ := ts.Client().Transport.(*http.Transport)
	deadline := time.Now().Add(5 * time.Second)
	var after int
	for {
		if transport != nil {
			transport.CloseIdleConnections()
		}
		runtime.GC()
		after = runtime.NumGoroutine()
		if after <= before+5 || time.Now().After(deadline) {
			break
		}
		time.Sleep(50 * time.Millisecond)
	}
	if after > before+5 {
		t.Errorf("goroutines: %d before, %d after soak — leak", before, after)
	}
}
