package sim

// Both run entry points launch through one setup (newLaunch) and finish
// each SM through one step (finalize). These tests hold the two paths to
// that: a one-SM GPU run must report exactly what the single-SM run
// reports, and both paths must cancel the same way and not at all under a
// live context that is never cancelled.

import (
	"context"
	"errors"
	"reflect"
	"regexp"
	"strconv"
	"testing"
	"time"

	"ltrf/internal/isa"
	"ltrf/internal/regfile"
)

// TestLaunchOneSMMatchesRunWithCacheCtx asserts that RunGPUCtx with one SM
// reports, field for field, the Stats RunWithCacheCtx reports for the same
// configuration: every registered design x four kernels x the baseline and
// a high main-RF latency. The hungry kernel runs on a 16KB register file so
// that the allocation spills and SpilledRegs is checked on a non-zero
// value.
func TestLaunchOneSMMatchesRunWithCacheCtx(t *testing.T) {
	ctx := context.Background()
	cc := NewCompileCache()
	kernels := []struct {
		prog       *isa.Program
		capacityKB int
	}{
		{tiledKernel(4, 4), 0},
		{streamKernel(10, 300), 0},
		{smemDoubleBufKernel(6, 5), 0},
		{hungryKernel(40, 20), 16},
	}
	spilled := false
	for _, name := range regfile.Names() {
		for _, k := range kernels {
			for _, latX := range []float64{1, 6} {
				c := DefaultConfig(Design(name))
				c.LatencyX = latX
				c.CapacityKB = k.capacityKB
				c.MaxInstrs = 3000
				c.MaxCycles = 3000 * 12
				label := name + "/" + k.prog.Name + "@" + strconv.FormatFloat(latX, 'g', -1, 64) + "x"
				one, err := RunWithCacheCtx(ctx, c, k.prog, cc)
				if err != nil {
					t.Fatalf("%s: RunWithCacheCtx: %v", label, err)
				}
				gpu, err := RunGPUCtx(ctx, c, 1, k.prog)
				if err != nil {
					t.Fatalf("%s: RunGPUCtx: %v", label, err)
				}
				if !reflect.DeepEqual(gpu.PerSM[0], one.Stats) {
					t.Errorf("%s: one-SM GPU run differs from the single-SM run:\n  gpu: %+v\n  one: %+v",
						label, gpu.PerSM[0], one.Stats)
				}
				if one.Warps == 0 || one.RegsPerThread == 0 {
					t.Errorf("%s: Warps %d, RegsPerThread %d; want both set", label, one.Warps, one.RegsPerThread)
				}
				spilled = spilled || one.SpilledRegs > 0
			}
		}
	}
	if !spilled {
		t.Error("no run spilled a register; the SpilledRegs comparison was vacuous")
	}
}

// cancelledAt matches the cycle a cancelled run's error names.
var cancelledAt = regexp.MustCompile(`cancelled at cycle (\d+)`)

// TestLaunchCancelledMidRun cancels a long run on one SM and on four and
// asserts both paths return an error that wraps context.Canceled and names
// a cycle the run reached.
func TestLaunchCancelledMidRun(t *testing.T) {
	for _, nSMs := range []int{1, 4} {
		c := DefaultConfig(DesignLTRF)
		// A budget far beyond what the run can reach before the cancel.
		c.MaxInstrs = 1 << 40
		c.MaxCycles = 1 << 44
		kernel := aluKernel(1 << 30)
		ctx, cancel := context.WithCancel(context.Background())
		time.AfterFunc(20*time.Millisecond, cancel)
		var err error
		if nSMs == 1 {
			_, err = RunWithCacheCtx(ctx, c, kernel, nil)
		} else {
			_, err = RunGPUCtx(ctx, c, nSMs, kernel)
		}
		cancel()
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("%d SMs: err = %v, want one wrapping context.Canceled", nSMs, err)
		}
		m := cancelledAt.FindStringSubmatch(err.Error())
		if m == nil {
			t.Fatalf("%d SMs: error %q names no cycle", nSMs, err)
		}
		if cycle, _ := strconv.ParseInt(m[1], 10, 64); cycle <= 0 {
			t.Errorf("%d SMs: cancelled at cycle %d, want a cycle the run reached", nSMs, cycle)
		}
	}
}

// TestLaunchLiveContextChangesNothing asserts the cancellation poll reads
// no simulation state: under a live context that is never cancelled, both
// paths return exactly what they return under context.Background().
func TestLaunchLiveContextChangesNothing(t *testing.T) {
	c := DefaultConfig(DesignLTRF)
	c.LatencyX = 4
	c.MaxInstrs = 20_000
	c.MaxCycles = 20_000 * 12
	kernel := tiledKernel(30, 10)
	live, cancel := context.WithCancel(context.Background())
	defer cancel()

	want, err := RunWithCacheCtx(context.Background(), c, kernel, nil)
	if err != nil {
		t.Fatal(err)
	}
	got, err := RunWithCacheCtx(live, c, kernel, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("one SM: a live context changed the result:\n  live: %+v\n  bg:   %+v", got.Stats, want.Stats)
	}
	// A pass issues at most IssueWidth instructions, so this many retired
	// instructions took more passes than one poll interval.
	if want.Instrs <= int64(c.IssueWidth)*(cancelCheckMask+1) {
		t.Errorf("the run retired %d instructions, too few for the poll to run; the check was vacuous", want.Instrs)
	}

	wantGPU, err := RunGPUCtx(context.Background(), c, 4, kernel)
	if err != nil {
		t.Fatal(err)
	}
	gotGPU, err := RunGPUCtx(live, c, 4, kernel)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(gotGPU, wantGPU) {
		t.Errorf("4 SMs: a live context changed the result:\n  live: %+v\n  bg:   %+v", gotGPU, wantGPU)
	}
}
