package exp

import (
	"context"
	"runtime"
	"testing"

	"ltrf/internal/sim"
	"ltrf/internal/store"
)

// detOpts is the reduced configuration the determinism and benchmark tests
// run at: quick budgets, two workloads (one register-sensitive, one
// insensitive).
func detOpts(parallelism int) Options {
	return Options{
		Quick:       true,
		Workloads:   []string{"sgemm", "btree"},
		Parallelism: parallelism,
		Engine:      NewEngine(),
	}
}

// TestParallelOutputIdenticalToSerial asserts the acceptance criterion:
// table output is byte-identical between Parallelism=1 and Parallelism=8,
// each on a cold cache, for the experiments the issue calls out plus a
// static one routed through parallelEach.
func TestParallelOutputIdenticalToSerial(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	for _, id := range []string{"figure9", "figure11", "table4"} {
		t.Run(id, func(t *testing.T) {
			spec, err := ByID(id)
			if err != nil {
				t.Fatal(err)
			}
			serial, err := spec.Run(detOpts(1))
			if err != nil {
				t.Fatal(err)
			}
			parallel, err := spec.Run(detOpts(8))
			if err != nil {
				t.Fatal(err)
			}
			if serial.String() != parallel.String() {
				t.Errorf("parallel output differs from serial:\n--- serial ---\n%s\n--- parallel ---\n%s",
					serial.String(), parallel.String())
			}
		})
	}
}

// TestEngineMemoizesAcrossExperiments asserts that (1) re-running an
// experiment on a warm engine simulates nothing new, and (2) experiments
// sharing points (Figure 9 and Figure 3 both need the config-#1 BL
// baseline) dedup across each other.
func TestEngineMemoizesAcrossExperiments(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	o := detOpts(0)
	eng := o.Engine

	if _, err := Figure9(o); err != nil {
		t.Fatal(err)
	}
	afterF9 := eng.Sims()
	if afterF9 == 0 {
		t.Fatal("figure9 simulated nothing")
	}

	// Warm re-run: zero new simulations.
	if _, err := Figure9(o); err != nil {
		t.Fatal(err)
	}
	if got := eng.Sims(); got != afterF9 {
		t.Errorf("re-running figure9 simulated %d new points, want 0", got-afterF9)
	}

	// Figure 3's whole point set (BL/#1 baseline, Ideal/#6, BL/#6) is a
	// subset of Figure 9's: on a warm engine it simulates nothing at all.
	if _, err := Figure3(o); err != nil {
		t.Fatal(err)
	}
	if fresh := eng.Sims() - afterF9; fresh != 0 {
		t.Errorf("figure3 after figure9 simulated %d new points, want 0", fresh)
	}

	// Figure 4 shares nothing with figure9 (RFC and SHRF on config #1):
	// exactly 2 fresh points per workload.
	if _, err := Figure4(o); err != nil {
		t.Fatal(err)
	}
	if fresh := eng.Sims() - afterF9; fresh != 2*2 {
		t.Errorf("figure4 after figure9 simulated %d new points, want 4", fresh)
	}
}

// TestEngineCanonSharesDefaultVariant asserts Figure 12's "16 regs" variant
// (the Table 3 default) hits the same memo entries as a default-knob LTRF
// sweep instead of re-simulating it.
func TestEngineCanonSharesDefaultVariant(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	o := detOpts(0)
	p := o.point(sim.DesignLTRF, 1, 1.0, "sgemm")
	q := p
	q.RegsPerInterval = 16 // the default
	q.ActiveWarps = 8      // the default
	if p.canon() != q.canon() {
		t.Fatalf("canon(%+v) != canon(%+v)", p, q)
	}
	if _, err := o.Engine.Eval(o.ctx(), p); err != nil {
		t.Fatal(err)
	}
	before := o.Engine.Sims()
	if _, err := o.Engine.Eval(o.ctx(), q); err != nil {
		t.Fatal(err)
	}
	if got := o.Engine.Sims(); got != before {
		t.Errorf("default-knob variant re-simulated (%d -> %d sims)", before, got)
	}
}

// TestEngineErrorsAreDeterministic asserts a bad point surfaces the same
// memoized error from batch and from render, at any parallelism.
func TestEngineErrorsAreDeterministic(t *testing.T) {
	o := detOpts(4)
	bad := o.point(sim.DesignBL, 99, 1.0, "sgemm") // no such tech config
	o.Engine.RunBatch(o.ctx(), o, []Point{bad})
	_, err1 := o.Engine.Eval(o.ctx(), bad)
	_, err2 := o.Engine.Eval(o.ctx(), bad)
	if err1 == nil || err2 == nil {
		t.Fatal("expected error for tech config #99")
	}
	if err1.Error() != err2.Error() {
		t.Errorf("error not memoized: %q vs %q", err1, err2)
	}
	if _, err := o.Engine.Eval(o.ctx(), o.point(sim.DesignBL, 1, 1.0, "nosuchworkload")); err == nil {
		t.Error("expected error for unknown workload")
	}
}

// TestRunBatchKernelBatching pins the kernel-batched dispatch's compile
// economy: a cold multi-kernel, multi-config sweep through RunBatch must run
// the allocation pipeline exactly once per distinct (kernel, regCap) — the
// expected set computed independently via each point's occupancy decision —
// and a warm re-dispatch must compile and simulate nothing new. A fresh
// store-backed engine over a store holding every third point compiles once
// per distinct (kernel, regCap) of the points it still has to simulate.
func TestRunBatchKernelBatching(t *testing.T) {
	o := Options{
		Quick:       true,
		Workloads:   []string{"sgemm", "btree", "stencil"},
		Parallelism: 8,
		Engine:      NewEngine(),
	}
	eng := o.Engine

	var pts []Point
	for _, wl := range o.Workloads {
		for _, d := range []sim.Design{sim.DesignBL, sim.DesignLTRF, sim.DesignRFC} {
			for _, tech := range []int{1, 7} {
				for _, lx := range []float64{1, 2, 6.3} {
					pts = append(pts, o.point(d, tech, lx, wl))
				}
			}
		}
	}

	want := distinctAllocs(t, eng, pts)
	eng.RunBatch(o.ctx(), o, pts)
	if err := eng.FirstError(); err != nil {
		t.Fatal(err)
	}
	if got := eng.Compiles(); got != want {
		t.Errorf("cold batch ran %d allocation pipelines, want %d (one per distinct kernel+regCap)",
			got, want)
	}

	// Warm re-dispatch: everything memoized, nothing compiles or simulates.
	sims := eng.Sims()
	eng.RunBatch(o.ctx(), o, pts)
	if got := eng.Compiles(); got != want {
		t.Errorf("warm re-dispatch compiled %d new kernels, want 0", got-want)
	}
	if got := eng.Sims(); got != sims {
		t.Errorf("warm re-dispatch simulated %d new points, want 0", got-sims)
	}

	// Store-warm grid: the memo above publishes every third point to a
	// store, and a fresh engine over it runs the whole grid.
	dir := t.TempDir()
	seed := openTestStore(t, dir)
	var cold []Point
	for i, p := range pts {
		if i%3 != 0 {
			cold = append(cold, p)
			continue
		}
		res, err := eng.Eval(o.ctx(), p)
		if err != nil {
			t.Fatal(err)
		}
		if err := seed.Put(p.canon().storeKey(), encodeResult(res)); err != nil {
			t.Fatal(err)
		}
	}
	fresh := NewEngineWithStore(openTestStore(t, dir))
	want = distinctAllocs(t, fresh, cold)
	fresh.RunBatch(o.ctx(), o, pts)
	if err := fresh.FirstError(); err != nil {
		t.Fatal(err)
	}
	if got := fresh.Compiles(); got != want {
		t.Errorf("store-warm batch ran %d allocation pipelines, want %d (one per distinct kernel+regCap of its cold points)",
			got, want)
	}
	if warm := int64(len(pts) - len(cold)); fresh.StoreHits() != warm || fresh.Sims() != int64(len(cold)) {
		t.Errorf("store-warm batch: store hits=%d sims=%d, want %d/%d", fresh.StoreHits(), fresh.Sims(), warm, len(cold))
	}
}

// distinctAllocs counts the distinct (kernel, regCap) pairs of pts, derived
// from the same occupancy decision evaluation makes.
func distinctAllocs(t *testing.T, eng *Engine, pts []Point) int64 {
	t.Helper()
	type allocID struct {
		workload string
		regCap   int
	}
	want := map[allocID]bool{}
	for _, p := range pts {
		virt, err := eng.virtual(p.Workload, p.Unroll)
		if err != nil {
			t.Fatal(err)
		}
		demand, err := eng.Pressure(p.Workload, p.Unroll)
		if err != nil {
			t.Fatal(err)
		}
		c, err := p.config()
		if err != nil {
			t.Fatal(err)
		}
		regCap, _, _, err := c.ResolveOccupancy(demand, virt)
		if err != nil {
			t.Fatal(err)
		}
		want[allocID{p.Workload, regCap}] = true
	}
	return int64(len(want))
}

// runRegistry regenerates every experiment once on the given options.
func runRegistry(b *testing.B, o Options) {
	b.Helper()
	for _, s := range Registry() {
		if _, err := s.Run(o); err != nil {
			b.Fatalf("%s: %v", s.ID, err)
		}
	}
}

// BenchmarkExperimentEngineSerial regenerates the full registry on a cold
// engine with a single worker.
func BenchmarkExperimentEngineSerial(b *testing.B) {
	for i := 0; i < b.N; i++ {
		runRegistry(b, detOpts(1))
	}
}

// BenchmarkExperimentEngineParallel regenerates the full registry on a cold
// engine with GOMAXPROCS workers. Comparing against Serial shows the
// worker-pool scaling; both benefit equally from memoization.
func BenchmarkExperimentEngineParallel(b *testing.B) {
	b.ReportMetric(float64(runtime.GOMAXPROCS(0)), "workers")
	for i := 0; i < b.N; i++ {
		runRegistry(b, detOpts(0))
	}
}

// BenchmarkEvalStreamStoreWarm streams a 64-point grid from a populated
// store through a fresh engine per iteration: the store-warm sweep path
// below HTTP, one probe read and decode per point and no simulation.
func BenchmarkEvalStreamStoreWarm(b *testing.B) {
	st, err := store.Open(b.TempDir(), store.Options{Version: StoreVersion()})
	if err != nil {
		b.Fatal(err)
	}
	pts := coldGrid(64)
	NewEngineWithStore(st).RunBatch(context.Background(), Options{}, pts)
	for b.Loop() {
		eng := NewEngineWithStore(st)
		for r := range eng.EvalStream(context.Background(), 0, pts) {
			if r.Err != nil {
				b.Fatal(r.Err)
			}
		}
		if eng.Sims() != 0 {
			b.Fatalf("store-warm stream simulated %d points", eng.Sims())
		}
	}
	b.ReportMetric(float64(b.N*len(pts))/b.Elapsed().Seconds(), "points/s")
}
