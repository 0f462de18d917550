package sim

// Metamorphic latency-tolerance property over the software-pipelined
// workload family: the paper's central claim, pinned as an executable
// relation between runs instead of a golden number.
//
// For each family pair, the pipelined and naive variants retire identical
// per-warp instruction-class counts (asserted by the workloads calibration
// suite), so any difference in how their cycle counts GROW when register-
// file latency rises from 1x to 6.3x (the Table 2 far point) is
// attributable to software latency hiding alone. Under LTRF, a deactivated
// warp pays a latency-scaled working-set refetch on every reactivation; the
// naive variants deactivate an order of magnitude more often (every load
// result is demanded immediately), so their growth must be strictly larger.
// Under BL there is no register-file cache and hence no refetch mechanism —
// the same contrast must shrink.
//
// The property is measured where the mechanism is on the critical path: a
// scarce active set (2 slots), so a reactivating warp's refetch stall
// cannot hide behind seven siblings, and a deactivation threshold of 120
// cycles, which catches the naive variants' full-memory-latency operand
// waits but not post-slack residues. These are honest operating points of
// the Table 3 system (ActiveWarps and DeactivateThreshold are first-class
// config axes), not tuned constants the simulator special-cases.

import (
	"context"
	"testing"

	"ltrf/internal/workloads"
)

// metaConfig is the operating point described above.
func metaConfig(d Design, latX float64) Config {
	c := DefaultConfig(d)
	c.ActiveWarps = 2
	c.DeactivateThreshold = 120
	c.LatencyX = latX
	return c
}

// latencyGrowth runs one kernel at 1x and 6.3x RF latency and returns
// cycles(6.3x)/cycles(1x). Both runs must retire the whole kernel: growth
// ratios of truncated runs compare different amounts of work.
func latencyGrowth(t *testing.T, d Design, w workloads.Workload, unroll int) float64 {
	t.Helper()
	prog := w.Build(unroll)
	var cyc [2]int64
	for i, latX := range []float64{1.0, 6.3} {
		res, err := RunWithCacheCtx(context.Background(), metaConfig(d, latX), prog, nil)
		if err != nil {
			t.Fatalf("%s under %s latX=%g: %v", w.Name, d, latX, err)
		}
		if !res.Finished || res.Truncated {
			t.Fatalf("%s under %s latX=%g: did not complete (finished=%v truncated=%v)",
				w.Name, d, latX, res.Finished, res.Truncated)
		}
		cyc[i] = res.Cycles
	}
	return float64(cyc[1]) / float64(cyc[0])
}

func TestMetamorphicLatencyTolerance(t *testing.T) {
	unrolls := []int{workloads.UnrollFermi, workloads.UnrollMaxwell}
	if testing.Short() {
		unrolls = []int{workloads.UnrollMaxwell}
	}
	for _, fam := range workloads.Families() {
		pair, err := workloads.FamilyPair(fam)
		if err != nil {
			t.Fatal(err)
		}
		for _, unroll := range unrolls {
			pipeLTRF := latencyGrowth(t, DesignLTRF, pair.Pipelined, unroll)
			naiveLTRF := latencyGrowth(t, DesignLTRF, pair.Naive, unroll)
			if pipeLTRF >= naiveLTRF {
				t.Errorf("%s unroll=%d under LTRF: pipelined growth %.4f must be strictly below naive %.4f — software pipelining should buy latency tolerance",
					fam, unroll, pipeLTRF, naiveLTRF)
			}
			gapLTRF := naiveLTRF - pipeLTRF

			pipeBL := latencyGrowth(t, DesignBL, pair.Pipelined, unroll)
			naiveBL := latencyGrowth(t, DesignBL, pair.Naive, unroll)
			gapBL := naiveBL - pipeBL
			if gapBL >= gapLTRF {
				t.Errorf("%s unroll=%d: tolerance gap must shrink without the register-file cache: gap(BL)=%.4f, gap(LTRF)=%.4f",
					fam, unroll, gapBL, gapLTRF)
			}
		}
	}
}

// TestMetamorphicSchedulerSensitivity folds the PR 4 warp-reshuffle finding
// into the family: under SchedStatic a long-latency wait pins its active
// slot (no swap-out), so the naive variants lose their main recovery
// mechanism while the pipelined variants — whose loads resolve during the
// compute phase they overlap — barely used it. The cycle penalty of
// switching the two-level scheduler off must therefore be strictly larger
// for the naive variant of every pair. SchedStatic must also retire the
// same work (same Instrs) and never deactivate.
func TestMetamorphicSchedulerSensitivity(t *testing.T) {
	penalty := func(w workloads.Workload) float64 {
		t.Helper()
		prog := w.Build(workloads.UnrollMaxwell)
		var cyc [2]int64
		var instrs [2]int64
		for i, sched := range []Scheduler{SchedTwoLevel, SchedStatic} {
			c := metaConfig(DesignLTRF, 6.3)
			// A pinned slot serializes its warp's whole memory latency, so
			// static runs are legitimately much longer; give them room to
			// retire completely rather than comparing truncated samples.
			c.ActiveWarps = 4
			c.MaxCycles = 6_000_000
			c.Scheduler = sched
			res, err := RunWithCacheCtx(context.Background(), c, prog, nil)
			if err != nil {
				t.Fatalf("%s sched=%s: %v", w.Name, sched, err)
			}
			if !res.Finished || res.Truncated {
				t.Fatalf("%s sched=%s: did not complete", w.Name, sched)
			}
			if sched == SchedStatic && res.Deactivations != 0 {
				t.Errorf("%s: SchedStatic deactivated %d times; latency-driven swaps must be off", w.Name, res.Deactivations)
			}
			cyc[i], instrs[i] = res.Cycles, res.Instrs
		}
		if instrs[0] != instrs[1] {
			t.Errorf("%s: scheduler changed retired work: %d vs %d instrs", w.Name, instrs[0], instrs[1])
		}
		return float64(cyc[1]) / float64(cyc[0])
	}
	for _, fam := range workloads.Families() {
		pair, err := workloads.FamilyPair(fam)
		if err != nil {
			t.Fatal(err)
		}
		pp, np := penalty(pair.Pipelined), penalty(pair.Naive)
		if pp >= np {
			t.Errorf("%s: static-scheduler penalty %.4f (pipelined) must be strictly below %.4f (naive)", fam, pp, np)
		}
	}
}
