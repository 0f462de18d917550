package workloads

// Calibration suite for the software-pipelined family (calib_test.go
// pattern): each pipelined variant must pay for its latency hiding with
// strictly more allocated register pressure than its naive counterpart,
// while retiring EXACTLY the same instruction-class counts per warp — so
// any cycle difference the metamorphic and pipesweep layers observe is
// attributable to load placement and buffer liveness alone, never to a
// variant sneaking in extra (or cheaper) work.

import (
	"context"
	"testing"

	"ltrf/internal/regalloc"
	"ltrf/internal/sim"
)

func TestPipelinedPressureStrictlyExceedsNaive(t *testing.T) {
	for _, pair := range Pairs() {
		for _, unroll := range []int{UnrollFermi, UnrollMaxwell} {
			pp, _ := regalloc.Pressure(pair.Pipelined.Build(unroll))
			np, _ := regalloc.Pressure(pair.Naive.Build(unroll))
			if pp <= np {
				t.Errorf("%s unroll=%d: pipelined pressure %d must strictly exceed naive %d (the second buffer is the point)",
					pair.Family, unroll, pp, np)
			}
			// The premium is the double buffer, not an accident of unrelated
			// temporaries: it must be at least the tile size.
			if tile := tileRegsOf(pair.Family); pp-np < tile {
				t.Errorf("%s unroll=%d: pressure premium %d smaller than the %d-register tile buffer",
					pair.Family, unroll, pp-np, tile)
			}
		}
	}
}

func tileRegsOf(family string) int {
	switch family {
	case "regpipe":
		return regPipeDefaults.tileRegs
	case "smempipe":
		return smemPipeDefaults.tileRegs
	}
	return 0
}

// perWarp is the per-warp retired instruction-class profile of a completed
// run. Every warp executes the same straight-line kernel, so totals divide
// exactly by the resident warp count; normalizing makes profiles comparable
// across variants even though their occupancy differs (pressure differs).
type perWarp struct {
	Instrs, ALU, SFU, Mem, Ctrl int64
}

func classProfile(t *testing.T, w Workload, d sim.Design, unroll int) perWarp {
	t.Helper()
	cfg := sim.DefaultConfig(d)
	res, err := sim.RunWithCacheCtx(context.Background(), cfg, w.Build(unroll), nil)
	if err != nil {
		t.Fatalf("%s under %s: %v", w.Name, d, err)
	}
	if !res.Finished || res.Truncated {
		t.Fatalf("%s under %s: run did not complete (finished=%v truncated=%v instrs=%d) — calibration needs full retirement",
			w.Name, d, res.Finished, res.Truncated, res.Instrs)
	}
	warps := int64(res.Warps)
	for _, c := range []int64{res.Instrs, res.ALUOps, res.SFUOps, res.MemOps, res.CtrlOps} {
		if c%warps != 0 {
			t.Fatalf("%s under %s: count %d not divisible by %d warps", w.Name, d, c, warps)
		}
	}
	return perWarp{
		Instrs: res.Instrs / warps,
		ALU:    res.ALUOps / warps,
		SFU:    res.SFUOps / warps,
		Mem:    res.MemOps / warps,
		Ctrl:   res.CtrlOps / warps,
	}
}

func TestPairsRetireIdenticalClassCounts(t *testing.T) {
	for _, pair := range Pairs() {
		for _, d := range []sim.Design{sim.DesignBL, sim.DesignLTRF} {
			for _, unroll := range []int{UnrollFermi, UnrollMaxwell} {
				pp := classProfile(t, pair.Pipelined, d, unroll)
				np := classProfile(t, pair.Naive, d, unroll)
				if pp != np {
					t.Errorf("%s under %s unroll=%d: per-warp class counts diverge\n  pipelined %+v\n  naive     %+v",
						pair.Family, d, unroll, pp, np)
				}
				if pp.Instrs != pp.ALU+pp.SFU+pp.Mem+pp.Ctrl {
					t.Errorf("%s under %s: classes do not partition instrs: %+v", pair.Family, d, pp)
				}
			}
		}
	}
}
