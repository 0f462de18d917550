package exp

import (
	"context"
	"encoding/json"
	"os"
	"sync"
	"testing"
	"time"

	"ltrf/internal/sim"
	"ltrf/internal/store"
	"ltrf/internal/workloads"
)

// coldGrid builds a small all-cold grid: distinct budgets guarantee
// distinct canonical points that no other test's engine has warmed.
func coldGrid(n int) []Point {
	pts := make([]Point, n)
	designs := []sim.Design{sim.DesignBL, sim.DesignLTRF}
	for i := range pts {
		pts[i] = Point{
			Design:   designs[i%len(designs)],
			Tech:     1,
			LatencyX: 1.0,
			Workload: "vectoradd",
			Unroll:   workloads.UnrollMaxwell,
			Budget:   3_000 + int64(i), // unique → forced miss everywhere
		}
	}
	return pts
}

// drain consumes an EvalStream channel, failing the test on any point error
// and returning the set of delivered indices.
func drain(t *testing.T, ch <-chan StreamResult) map[int]bool {
	t.Helper()
	got := map[int]bool{}
	for r := range ch {
		if r.Err != nil {
			t.Errorf("point %d (%s/%s budget %d): %v", r.Index, r.Point.Design, r.Point.Workload, r.Point.Budget, r.Err)
			continue
		}
		if got[r.Index] {
			t.Errorf("point %d delivered twice", r.Index)
		}
		got[r.Index] = true
	}
	return got
}

// TestTwoReplicaColdSweepComputesEachPointOnce is the PR 10 exactly-once
// criterion: two engines ("replicas") sharing one store directory stream
// the same all-cold grid concurrently. The per-point leases must arbitrate
// so the replicas' Sims() SUM to exactly one compute per point — duplicate-
// compute ratio zero — while both replicas still deliver every point.
func TestTwoReplicaColdSweepComputesEachPointOnce(t *testing.T) {
	dir := t.TempDir()
	a := NewEngineWithStore(openTestStore(t, dir))
	b := NewEngineWithStore(openTestStore(t, dir))
	pts := coldGrid(12)

	var wg sync.WaitGroup
	results := make([]map[int]bool, 2)
	for i, eng := range []*Engine{a, b} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			results[i] = drain(t, eng.EvalStream(context.Background(), 2, pts))
		}()
	}
	wg.Wait()

	for i, got := range results {
		if len(got) != len(pts) {
			t.Errorf("replica %d delivered %d/%d points", i, len(got), len(pts))
		}
	}
	total := a.Sims() + b.Sims()
	if total != int64(len(pts)) {
		t.Errorf("Sims() sum = %d, want exactly %d (duplicate-compute ratio %.2f)",
			total, len(pts), float64(total-int64(len(pts)))/float64(len(pts)))
	}
	// Both replicas served the whole grid: what one computed, the other got
	// from the store (hit) — never by re-simulating.
	if hits := a.StoreHits() + b.StoreHits(); hits < int64(len(pts)) {
		t.Errorf("combined store hits %d < grid size %d: a waiter re-simulated", hits, len(pts))
	}
}

// TestTwoReplicaEvalBlockingAlsoCoalesces covers the /v1/eval path (plain
// blocking Eval, no streaming): two replicas evaluating the same single
// cold point concurrently must still compute it once between them.
func TestTwoReplicaEvalBlockingAlsoCoalesces(t *testing.T) {
	dir := t.TempDir()
	a := NewEngineWithStore(openTestStore(t, dir))
	b := NewEngineWithStore(openTestStore(t, dir))
	p := coldGrid(1)[0]

	var wg sync.WaitGroup
	for _, eng := range []*Engine{a, b} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := eng.Eval(context.Background(), p); err != nil {
				t.Errorf("Eval: %v", err)
			}
		}()
	}
	wg.Wait()
	if total := a.Sims() + b.Sims(); total != 1 {
		t.Errorf("Sims() sum = %d, want 1", total)
	}
}

// TestCrashMidLeaseTakeover plants a stale lease — a replica that died
// mid-compute, its promise deadline already past — and asserts a live
// replica takes the point over and computes it instead of waiting forever.
func TestCrashMidLeaseTakeover(t *testing.T) {
	dir := t.TempDir()
	st := openTestStore(t, dir)
	eng := NewEngineWithStore(st)
	p := coldGrid(1)[0]

	rec, _ := json.Marshal(struct {
		Owner    string    `json:"owner"`
		Deadline time.Time `json:"deadline"`
	}{Owner: "crashed-replica", Deadline: time.Now().Add(-time.Second)})
	if err := os.WriteFile(st.LeasePath(p.canon().storeKey()), rec, 0o644); err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if _, err := eng.Eval(ctx, p); err != nil {
		t.Fatalf("Eval over stale lease: %v", err)
	}
	if eng.Sims() != 1 {
		t.Errorf("Sims=%d, want 1 (takeover must compute, not wait)", eng.Sims())
	}
	if st.LeaseTakeovers() == 0 {
		t.Error("no takeover recorded for a stale lease")
	}
}

// TestLiveLeaseDefersNoWaitEval pins the contract of an evaluation without
// the wait mode (EvalStream's cold pass): while another replica's live
// lease stands, the call returns the isLeaseBusy deferral signal without
// computing, and the deferral is NOT memoized — once the lease is released
// (here: without a publish, i.e. the holder failed), the next call
// computes normally.
func TestLiveLeaseDefersNoWaitEval(t *testing.T) {
	dir := t.TempDir()
	st := openTestStore(t, dir)
	eng := NewEngineWithStore(openTestStore(t, dir))
	p := coldGrid(1)[0]

	lease, err := st.AcquireLease(p.canon().storeKey(), "other-replica", time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.eval(context.Background(), p, evalMode{}); !isLeaseBusy(err) {
		t.Fatalf("no-wait eval under live lease: got %v, want isLeaseBusy", err)
	}
	if eng.Sims() != 0 {
		t.Fatalf("Sims=%d after deferral, want 0", eng.Sims())
	}
	if err := lease.Release(); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.eval(context.Background(), p, evalMode{}); err != nil {
		t.Fatalf("no-wait eval after release: %v", err)
	}
	if eng.Sims() != 1 {
		t.Fatalf("Sims=%d, want 1", eng.Sims())
	}
}

// TestRunBatchDefersLeasedPoint pins RunBatch's lease deferral: while
// another replica's live lease stands on the first point in dispatch order,
// a one-worker RunBatch memoizes every other point instead of blocking
// behind it, and once the lease is released (here: without a publish, i.e.
// the holder failed) it computes the leased point too.
func TestRunBatchDefersLeasedPoint(t *testing.T) {
	dir := t.TempDir()
	st := openTestStore(t, dir)
	eng := NewEngineWithStore(openTestStore(t, dir))
	pts := coldGrid(4)
	lease, err := st.AcquireLease(pts[0].canon().storeKey(), "other-replica", time.Minute)
	if err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	done := make(chan struct{})
	go func() {
		defer close(done)
		eng.RunBatch(ctx, Options{Parallelism: 1}, pts)
	}()

	others := int64(len(pts) - 1)
	for eng.Sims() < others {
		select {
		case <-done:
			t.Fatalf("RunBatch returned with Sims=%d while the lease stands", eng.Sims())
		case <-ctx.Done():
			t.Fatalf("Sims=%d, want %d: RunBatch blocked behind the leased point", eng.Sims(), others)
		case <-time.After(time.Millisecond):
		}
	}
	for _, p := range pts[1:] {
		if _, err := eng.Eval(ctx, p); err != nil {
			t.Fatalf("point budget %d: %v", p.Budget, err)
		}
	}
	if eng.Sims() != others {
		t.Fatalf("Sims=%d after re-reading the other points, want %d (not memoized)", eng.Sims(), others)
	}
	select {
	case <-done:
		t.Fatal("RunBatch returned before the leased point was computed")
	default:
	}

	if err := lease.Release(); err != nil {
		t.Fatal(err)
	}
	select {
	case <-done:
	case <-ctx.Done():
		t.Fatal("RunBatch did not finish after the lease was released")
	}
	if ctx.Err() != nil {
		t.Fatal("RunBatch finished only because its context expired")
	}
	if _, err := eng.Eval(ctx, pts[0]); err != nil {
		t.Fatalf("leased point: %v", err)
	}
	if eng.Sims() != int64(len(pts)) {
		t.Fatalf("Sims=%d, want %d: the leased point was not computed by RunBatch", eng.Sims(), len(pts))
	}
}

// TestEvalStreamWarmPointsFlushFirst pins the no-head-of-line-blocking
// property at the engine layer: with a grid of one pre-warmed point and
// several cold ones, the first delivery off the stream is the warm point.
func TestEvalStreamWarmPointsFlushFirst(t *testing.T) {
	eng := NewEngineWithStore(openTestStore(t, t.TempDir()))
	pts := coldGrid(4)
	warm := pts[3] // warm the LAST declared point: order must come from warmth, not position
	if _, err := eng.Eval(context.Background(), warm); err != nil {
		t.Fatal(err)
	}

	ch := eng.EvalStream(context.Background(), 1, pts)
	first, ok := <-ch
	if !ok {
		t.Fatal("stream closed without results")
	}
	if first.Index != 3 {
		t.Errorf("first delivery is point %d, want the warm point 3", first.Index)
	}
	if n := len(drain(t, ch)); n != 3 {
		t.Errorf("remaining deliveries %d, want 3", n)
	}
}

// TestEvalStreamStoreWarmPointFlushesFirst is the store-warm form of the
// property above: a fresh engine over a store that holds only the LAST
// declared point delivers that point first, because the probe reads every
// entry before any cold point is dispatched.
func TestEvalStreamStoreWarmPointFlushesFirst(t *testing.T) {
	dir := t.TempDir()
	pts := coldGrid(4)
	if _, err := NewEngineWithStore(openTestStore(t, dir)).Eval(context.Background(), pts[3]); err != nil {
		t.Fatal(err)
	}

	eng := NewEngineWithStore(openTestStore(t, dir))
	ch := eng.EvalStream(context.Background(), 1, pts)
	first, ok := <-ch
	if !ok {
		t.Fatal("stream closed without results")
	}
	if first.Index != 3 {
		t.Errorf("first delivery is point %d, want the store-warm point 3", first.Index)
	}
	if n := len(drain(t, ch)); n != 3 {
		t.Errorf("remaining deliveries %d, want 3", n)
	}
	if eng.StoreHits() != 1 || eng.Sims() != 3 {
		t.Errorf("store hits=%d sims=%d, want 1/3", eng.StoreHits(), eng.Sims())
	}
}

// TestEvalStreamReadsEachKeyOnce counts the store reads of a stream per
// key: a cold grid reads each entry once before its lease (one miss per
// point, none for the lease path), and the same grid on a fresh engine
// reads each entry once more and simulates nothing.
func TestEvalStreamReadsEachKeyOnce(t *testing.T) {
	dir := t.TempDir()
	pts := coldGrid(6)
	n := int64(len(pts))
	for _, phase := range []struct {
		name               string
		hits, misses, sims int64
	}{
		{"cold", 0, n, n},
		{"store-warm", n, 0, 0},
	} {
		t.Run(phase.name, func(t *testing.T) {
			rec := &store.KeyRecorder{}
			st, err := store.Open(dir, store.Options{
				Version:  StoreVersion(),
				Injector: &store.Faults{OnRead: rec.Hook()},
			})
			if err != nil {
				t.Fatal(err)
			}
			eng := NewEngineWithStore(st)
			if got := len(drain(t, eng.EvalStream(context.Background(), 2, pts))); got != len(pts) {
				t.Fatalf("delivered %d points, want %d", got, len(pts))
			}
			reads := map[string]int{}
			for _, k := range rec.Keys() {
				reads[k]++
			}
			for _, p := range pts {
				if got := reads[p.canon().storeKey()]; got != 1 {
					t.Errorf("point budget %d: %d reads, want 1", p.Budget, got)
				}
			}
			if len(reads) != len(pts) {
				t.Errorf("read %d distinct keys, want %d", len(reads), len(pts))
			}
			if st.Hits() != phase.hits || st.Misses() != phase.misses {
				t.Errorf("store hits=%d misses=%d, want %d/%d", st.Hits(), st.Misses(), phase.hits, phase.misses)
			}
			if eng.StoreHits() != phase.hits || eng.Sims() != phase.sims {
				t.Errorf("engine store hits=%d sims=%d, want %d/%d", eng.StoreHits(), eng.Sims(), phase.hits, phase.sims)
			}
		})
	}
}

// TestEvalStreamCancelledPromptly: a cancelled stream closes its channel
// without delivering the whole grid and without wedging its workers.
func TestEvalStreamCancelledPromptly(t *testing.T) {
	eng := NewEngineWithStore(openTestStore(t, t.TempDir()))
	ctx, cancel := context.WithCancel(context.Background())
	pts := coldGrid(8)
	ch := eng.EvalStream(ctx, 2, pts)
	<-ch // at least one delivery proves the stream was live
	cancel()
	deadline := time.After(30 * time.Second)
	for {
		select {
		case _, ok := <-ch:
			if !ok {
				return // closed: workers unwound
			}
		case <-deadline:
			t.Fatal("stream did not close after cancellation")
		}
	}
}
