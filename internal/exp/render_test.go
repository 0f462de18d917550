package exp

import (
	"errors"
	"sync"
	"testing"

	"ltrf/internal/faultinject"
	"ltrf/internal/sim"
)

// driverOpts is the reduced configuration the render tests run every
// registered experiment at: quick budgets and one paper workload plus one
// family member, so pipesweep and prefsweep sweep a single pair.
func driverOpts(eng *Engine) Options {
	return Options{Quick: true, Workloads: []string{"sgemm", "regpipe"}, Engine: eng}
}

// canonSet is the set of canonical points among pts.
func canonSet(pts []Point) map[Point]bool {
	out := make(map[Point]bool, len(pts))
	for _, p := range pts {
		out[p.canon()] = true
	}
	return out
}

// TestDriversBatchEveryPoint runs every registered experiment on a fresh
// engine and asserts that each render's second pass asks for exactly the
// points its first pass recorded: no point is simulated outside the batch,
// and no batched point goes unused. A warm re-render must not dispatch,
// must simulate nothing and must render the same table.
func TestDriversBatchEveryPoint(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	type pass struct{ recorded, asked []Point }
	var passes []pass
	renderHook = func(recorded, asked []Point) {
		passes = append(passes, pass{recorded, asked})
	}
	defer func() { renderHook = nil }()

	for _, s := range Registry() {
		t.Run(s.ID, func(t *testing.T) {
			passes = nil
			o := driverOpts(NewEngine())
			cold, err := s.Run(o)
			if err != nil {
				t.Fatal(err)
			}
			batched := 0
			for _, p := range passes {
				recorded, asked := canonSet(p.recorded), canonSet(p.asked)
				if len(recorded) != len(p.recorded) {
					t.Errorf("first pass recorded %d points, %d distinct", len(p.recorded), len(recorded))
				}
				for q := range asked {
					if !recorded[q] {
						t.Errorf("second pass asked for %+v, which the first pass did not record", q)
					}
				}
				for q := range recorded {
					if !asked[q] {
						t.Errorf("first pass recorded %+v, which the second pass never asked for", q)
					}
				}
				batched += len(recorded)
			}
			if got := o.Engine.Sims(); got != int64(batched) {
				t.Errorf("simulated %d points, batched %d", got, batched)
			}

			passes = nil
			warm, err := s.Run(o)
			if err != nil {
				t.Fatal(err)
			}
			if len(passes) != 0 {
				t.Errorf("warm re-render dispatched %d batches", len(passes))
			}
			if got := o.Engine.Sims(); got != int64(batched) {
				t.Errorf("warm re-render simulated %d new points", got-int64(batched))
			}
			if warm.String() != cold.String() {
				t.Errorf("warm table differs from cold:\n--- cold ---\n%s--- warm ---\n%s", cold, warm)
			}
		})
	}
}

// TestDriversRenderConcurrently renders the whole registry from two
// goroutines on one engine, so each first pass reads memo entries the
// other render's batch is filling, and asserts both see the same tables.
func TestDriversRenderConcurrently(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	o := driverOpts(NewEngine())
	specs := Registry()
	var out [2][]string
	var errs [2]error
	var wg sync.WaitGroup
	for g := range out {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, s := range specs {
				tab, err := s.Run(o)
				if err != nil {
					errs[g] = err
					return
				}
				out[g] = append(out[g], tab.String())
			}
		}()
	}
	wg.Wait()
	for g, err := range errs {
		if err != nil {
			t.Fatalf("renderer %d: %v", g, err)
		}
	}
	for i, s := range specs {
		if out[0][i] != out[1][i] {
			t.Errorf("%s: concurrent renders differ:\n%s\nvs\n%s", s.ID, out[0][i], out[1][i])
		}
	}
}

// TestDriversSurfaceMemoizedError asserts a driver surfaces a failed
// point's memoized error whichever pass meets it: cold (after the batch),
// warm (from the first pass, without dispatching), and when the failure
// was memoized before the render while other points were still missing.
func TestDriversSurfaceMemoizedError(t *testing.T) {
	o := Options{Quick: true, Workloads: []string{"vectoradd"},
		Designs: []string{faultinject.DesignPanic}, Engine: NewEngine()}
	_, err1 := DesignSpace(o)
	var pe *PanicError
	if !errors.As(err1, &pe) {
		t.Fatalf("cold render: err = %v (%T), want *PanicError", err1, err1)
	}
	sims := o.Engine.Sims()
	_, err2 := DesignSpace(o)
	if err2 == nil || err2.Error() != err1.Error() {
		t.Errorf("warm render: err = %v, want %v", err2, err1)
	}
	if got := o.Engine.Sims(); got != sims {
		t.Errorf("warm render simulated %d new points", got-sims)
	}

	o.Engine = NewEngine()
	bad := o.point(sim.Design(faultinject.DesignPanic), designSpaceTech, 1.0, "vectoradd")
	if _, err := o.Engine.Eval(o.ctx(), bad); err == nil {
		t.Fatal("fault-panic point evaluated without error")
	}
	_, err3 := DesignSpace(o)
	if err3 == nil || err3.Error() != err1.Error() {
		t.Errorf("render over a memoized failure: err = %v, want %v", err3, err1)
	}
	if got := o.Engine.Sims(); got != 2 {
		t.Errorf("simulated %d points, want 2 (the failed point and the batched BL baseline)", got)
	}
}
