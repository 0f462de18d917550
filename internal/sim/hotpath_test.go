package sim

import (
	"testing"

	"ltrf/internal/isa"
	"ltrf/internal/memsys"
)

// buildTestSM compiles a kernel and wires an SM exactly like Run does,
// returning it un-stepped.
func buildTestSM(t testing.TB, c Config, virtual *isa.Program) *SM {
	t.Helper()
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	info, err := (*CompileCache)(nil).Compile(&c, virtual)
	if err != nil {
		t.Fatal(err)
	}
	mem := memsys.NewHierarchy(c.Mem)
	mem.Shared.SetWorkloadBytes(memsys.WorkloadSharedBytes(virtual))
	rf, err := buildSubsystem(&c, info.Prog, info.Part, mem.Shared, info.Warps)
	if err != nil {
		t.Fatal(err)
	}
	return newSM(&c, info.Prog, info.Part, rf, mem, info.Warps, 0)
}

// step advances the SM by one cycle, returning false when the kernel has
// finished or a budget is exhausted — one cycle of the reference clock,
// used by tests that drive an SM pass by pass.
func (sm *SM) step() bool {
	if !sm.runnable() {
		return false
	}
	sm.advanceTo(sm.cycle+1, sm.pass())
	return true
}

// aluKernel is a long-running compute-only loop: it keeps the issue path
// hot (collector claims, scoreboard checks, deactivation decisions) without
// touching the memory hierarchy.
func aluKernel(iters int) *isa.Program {
	b := isa.NewBuilder("alu")
	r := b.RegN(10)
	for i := range r {
		b.IMovImm(r[i], int64(i))
	}
	b.Loop(iters, func() {
		b.FFMA(r[0], r[1], r[2], r[0])
		b.FFMA(r[3], r[4], r[5], r[3])
		b.FMul(r[6], r[0], r[3])
		b.FAdd(r[7], r[6], r[8])
	})
	return b.MustBuild()
}

// TestRemoveActiveAllocationFree is the regression guard for the active-
// list compaction: zero heap allocations per call, at any mix of active
// warp states.
func TestRemoveActiveAllocationFree(t *testing.T) {
	c := DefaultConfig(DesignLTRF)
	sm := buildTestSM(t, c, aluKernel(500))
	// Drive the SM until the active set is populated.
	for i := 0; i < 50 && sm.step(); i++ {
	}
	if len(sm.active) == 0 {
		t.Fatal("active set empty after warmup")
	}
	if allocs := testing.AllocsPerRun(200, sm.removeActive); allocs != 0 {
		t.Errorf("removeActive allocates %.1f times per call, want 0", allocs)
	}
}

// TestIssueCycleSteadyStateAllocationFree guards the per-cycle issue path:
// once warp bookkeeping has warmed up (scoreboards, bit-vectors, queues),
// stepping a compute-bound SM must not allocate.
func TestIssueCycleSteadyStateAllocationFree(t *testing.T) {
	c := DefaultConfig(DesignLTRF)
	c.MaxInstrs = 1 << 30
	c.MaxCycles = 1 << 40
	sm := buildTestSM(t, c, aluKernel(1_000_000))
	for i := 0; i < 2000; i++ {
		if !sm.step() {
			t.Fatal("kernel finished during warmup; enlarge the loop")
		}
	}
	allocs := testing.AllocsPerRun(500, func() {
		// Full steps, not bare refill+issueCycle: the indexed scan's ring
		// only re-arms wheel-parked warps when advanceTo merges due buckets,
		// so stepping is what keeps this measuring the live issue path.
		if !sm.step() {
			t.Fatal("kernel finished mid-measurement; enlarge the loop")
		}
	})
	if allocs != 0 {
		t.Errorf("steady-state issue cycle allocates %.2f times per cycle, want 0", allocs)
	}
}

// TestFastForwardSteppingAllocationFree guards the event-driven run loop:
// steady-state passes, idle detection, next-event computation, and clock
// jumps must not allocate — on a memory-heavy kernel whose deactivations
// and wakeups exercise the wakeQueue heaps continuously.
func TestFastForwardSteppingAllocationFree(t *testing.T) {
	c := DefaultConfig(DesignLTRF)
	c.MaxInstrs = 1 << 30
	c.MaxCycles = 1 << 40
	sm := buildTestSM(t, c, streamKernel(12, 1_000_000))
	for i := 0; i < 2000; i++ {
		if !sm.step() {
			t.Fatal("kernel finished during warmup; enlarge the loop")
		}
	}
	allocs := testing.AllocsPerRun(500, func() {
		if !sm.runnable() {
			t.Fatal("kernel finished mid-measurement; enlarge the loop")
		}
		idle := sm.pass()
		next := sm.cycle + 1
		if idle {
			next = sm.nextEventCycle()
		}
		sm.advanceTo(next, idle)
	})
	if allocs != 0 {
		t.Errorf("fast-forward stepping allocates %.2f times per pass, want 0", allocs)
	}
}

// TestWakeQueueAllocationFree guards the heap-backed inactive pool: pushes,
// drains, FIFO-stable ready picks, and eager picks must stay within the
// preallocated arrays at any fill level.
func TestWakeQueueAllocationFree(t *testing.T) {
	var q wakeQueue
	q.init(64)
	allocs := testing.AllocsPerRun(200, func() {
		for i := 0; i < 64; i++ {
			q.push(i, int64(100+(i*37)%50))
		}
		// Drain half as ready picks, the rest as eager picks.
		for i := 0; i < 32; i++ {
			if q.pick(125) == -1 {
				t.Fatal("queue empty too early")
			}
		}
		for q.pick(0) != -1 {
		}
	})
	if allocs != 0 {
		t.Errorf("wakeQueue operations allocate %.2f times per cycle, want 0", allocs)
	}
}

// TestFinishedCounterMatchesScan cross-checks the O(1) finished counter
// against a direct state scan over the whole life of a kernel.
func TestFinishedCounterMatchesScan(t *testing.T) {
	c := DefaultConfig(DesignLTRF)
	sm := buildTestSM(t, c, aluKernel(5))
	for sm.step() {
		n := 0
		for _, w := range sm.warps {
			if w.state == stateFinished {
				n++
			}
		}
		if n != sm.finished {
			t.Fatalf("cycle %d: finished counter %d, scan %d", sm.cycle, sm.finished, n)
		}
	}
	if !sm.allFinished() {
		t.Fatal("kernel did not finish")
	}
	if sm.finished != len(sm.warps) {
		t.Fatalf("finished counter %d at end, want %d", sm.finished, len(sm.warps))
	}
}

// TestRunWithCacheMatchesRun asserts cached compilation changes nothing
// about simulation results, and that the cache actually dedups compiles.
func TestRunWithCacheMatchesRun(t *testing.T) {
	kernel := tiledKernel(40, 12)
	cc := NewCompileCache()
	for _, d := range []Design{DesignBL, DesignRFC, DesignLTRF, DesignLTRFPlus} {
		c := DefaultConfig(d)
		c.MaxInstrs = 10_000
		c.MaxCycles = c.MaxInstrs * 12
		plain, err := Run(c, kernel)
		if err != nil {
			t.Fatal(err)
		}
		for _, lx := range []float64{1, 4} {
			c.LatencyX = lx
			c1, c2 := c, c
			r1, err := RunWithCache(c1, kernel, cc)
			if err != nil {
				t.Fatal(err)
			}
			r2, err := RunWithCache(c2, kernel, cc)
			if err != nil {
				t.Fatal(err)
			}
			if r1.Cycles != r2.Cycles || r1.Instrs != r2.Instrs || r1.IPC != r2.IPC {
				t.Errorf("%v@%gx: cached rerun differs: %+v vs %+v", d, lx, r1.Stats, r2.Stats)
			}
			if lx == 1 && (r1.Cycles != plain.Cycles || r1.IPC != plain.IPC) {
				t.Errorf("%v: RunWithCache differs from Run: cycles %d vs %d",
					d, r1.Cycles, plain.Cycles)
			}
		}
	}
}

// BenchmarkRemoveActive measures the compaction with half the active set
// pending removal.
func BenchmarkRemoveActive(b *testing.B) {
	c := DefaultConfig(DesignLTRF)
	sm := buildTestSM(b, c, aluKernel(500))
	for i := 0; i < 50 && sm.step(); i++ {
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sm.removeActive()
	}
}
