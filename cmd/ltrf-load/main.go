// Command ltrf-load drives an ltrf-server with a seeded, mixed
// hit/miss/cancel request stream and reports latency and status counts.
// It is the out-of-process face of the soak harness in internal/load —
// the server soak test runs the same generator against an in-process
// handler.
//
// Modes:
//
//	eval  (default) — the PR 5 mixed eval stream against a live server:
//	        ltrf-load -addr http://localhost:8080 -n 256 -workers 16 -cancel 0.1
//	sweep — spin up -replicas in-process servers sharing one store dir and
//	        fire the SAME grid sweep at all of them, reporting per-replica
//	        time-to-first/last-result and the fleet duplicate-compute ratio:
//	        ltrf-load -mode sweep -replicas 2 -points 8 -store /tmp/ltrf-store
//
// It is a load and correctness driver, not a benchmark: the repository's
// performance is measured by layerbench (bash layerbench/run.sh) and the
// Go Benchmark* functions.
package main

import (
	"context"
	"flag"
	"fmt"
	"net/http/httptest"
	"os"
	"os/signal"
	"syscall"

	"ltrf/internal/exp"
	"ltrf/internal/load"
	"ltrf/internal/server"
	"ltrf/internal/store"
)

func main() {
	var (
		mode    = flag.String("mode", "eval", "eval | sweep")
		addr    = flag.String("addr", "http://localhost:8080", "server base URL (eval mode)")
		n       = flag.Int("n", 64, "total requests (eval mode)")
		workers = flag.Int("workers", 8, "concurrent workers (eval mode)")
		cancel  = flag.Float64("cancel", 0, "fraction of requests cancelled client-side mid-flight (0..1)")
		unique  = flag.Float64("unique", 0.25, "fraction of requests using a never-seen point (forced miss)")
		quick   = flag.Bool("quick", true, "quick per-point budget (12k instrs instead of 40k)")
		seed    = flag.Int64("seed", 1, "request stream seed")

		replicas = flag.Int("replicas", 2, "in-process replicas sharing the store (sweep mode)")
		points   = flag.Int("points", 8, "approximate grid size (sweep mode)")
		storeDir = flag.String("store", "", "shared store directory (sweep mode; default: temp dir)")
		budget   = flag.Int64("budget", 2000, "per-point instruction budget (sweep mode)")
		nonce    = flag.Int64("nonce", 0, "budget offset forcing a cold grid (sweep mode; 0 = warm ok)")
		requireD = flag.Bool("require-dup0", false, "exit non-zero unless duplicate-compute ratio is 0 (sweep mode)")
	)
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	var err error
	switch *mode {
	case "eval":
		err = runEval(ctx, *addr, *n, *workers, *cancel, *unique, *quick, *seed)
	case "sweep":
		err = runSweep(ctx, *replicas, *points, *budget+*nonce, *storeDir, *requireD)
	default:
		err = fmt.Errorf("unknown -mode %q", *mode)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "ltrf-load:", err)
		os.Exit(1)
	}
}

func runEval(ctx context.Context, addr string, n, workers int, cancel, unique float64, quick bool, seed int64) error {
	st, err := load.Run(ctx, load.Config{
		BaseURL:    addr,
		Requests:   n,
		Workers:    workers,
		CancelFrac: cancel,
		UniqueFrac: unique,
		Quick:      quick,
		Seed:       seed,
	})
	if err != nil {
		return err
	}
	fmt.Println(st)
	for code, cnt := range st.ByStatus {
		fmt.Printf("  %d: %d\n", code, cnt)
	}
	if st.Failed > 0 {
		return fmt.Errorf("%d requests failed", st.Failed)
	}
	return nil
}

// replicaFleet spins up n in-process servers, each with its own engine but
// all sharing one store directory — the deployment the lease protocol is
// for, minus the network.
func replicaFleet(n int, dir string) (urls []string, shutdown func(), err error) {
	var servers []*httptest.Server
	shutdown = func() {
		for _, ts := range servers {
			ts.Close()
		}
	}
	for i := 0; i < n; i++ {
		st, err := store.Open(dir, store.Options{Version: exp.StoreVersion()})
		if err != nil {
			shutdown()
			return nil, nil, err
		}
		srv, err := server.New(server.Config{Engine: exp.NewEngineWithStore(st)})
		if err != nil {
			shutdown()
			return nil, nil, err
		}
		ts := httptest.NewServer(srv.Handler())
		servers = append(servers, ts)
		urls = append(urls, ts.URL)
	}
	return urls, shutdown, nil
}

// sweepBody builds a grid request of roughly the asked-for size from fixed
// axes: designs × latencies × workloads. points is met exactly for the
// sizes the harness uses (8 = 2×2×2, 100 = 4×5×5).
func sweepBody(points int, budget int64) map[string]any {
	designs := []string{"BL", "RFC", "LTRF", "LTRF+"}
	lats := []float64{1, 2, 4, 8, 16}
	wls := []string{"vectoradd", "btree", "sgemm", "bfs", "kmeans"}
	d, l, w := len(designs), len(lats), len(wls)
	for d*l*w > points && w > 1 {
		w--
	}
	for d*l*w > points && l > 1 {
		l--
	}
	for d*l*w > points && d > 1 {
		d--
	}
	return map[string]any{
		"designs":    designs[:d],
		"latency_xs": lats[:l],
		"workloads":  wls[:w],
		"budget":     budget,
	}
}

func runSweep(ctx context.Context, replicas, points int, budget int64, dir string, requireDup0 bool) error {
	if dir == "" {
		var err error
		if dir, err = os.MkdirTemp("", "ltrf-sweep-*"); err != nil {
			return err
		}
		defer os.RemoveAll(dir)
	}
	urls, shutdown, err := replicaFleet(replicas, dir)
	if err != nil {
		return err
	}
	defer shutdown()

	st, err := load.RunSweep(ctx, load.SweepConfig{
		BaseURLs: urls,
		Body:     sweepBody(points, budget),
	})
	if err != nil {
		return err
	}
	fmt.Print(st)
	for _, r := range st.Replicas {
		if r.Err != nil {
			return fmt.Errorf("replica %s: %w", r.URL, r.Err)
		}
	}
	if requireDup0 && st.DuplicateRatio != 0 {
		return fmt.Errorf("duplicate-compute ratio %.3f, want 0 (sims=%d grid=%d)",
			st.DuplicateRatio, st.Sims, st.GridSize)
	}
	return nil
}
