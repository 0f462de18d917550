package ltrf_test

import (
	"math"
	"strings"
	"testing"

	"ltrf"
)

func TestCompilePipeline(t *testing.T) {
	c, err := ltrf.Compile(quickstartKernel(), ltrf.CompileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if c.Demand <= 0 || c.Allocated.RegCount() <= 0 {
		t.Errorf("compile results incomplete: %+v", c)
	}
	if c.Intervals.NumUnits() == 0 || c.Strands.NumUnits() == 0 {
		t.Error("partitions must be formed")
	}
	if c.Intervals.NumUnits() > c.Strands.NumUnits() {
		t.Error("intervals must be coarser than strands")
	}
	if err := c.Instrumented.Validate(); err != nil {
		t.Errorf("instrumented program: %v", err)
	}
}

func TestSimulateHeadlineResult(t *testing.T) {
	// The paper's headline behavior through the public API: on a 6.3x
	// slower main register file, LTRF retains most of the baseline's
	// performance while BL collapses.
	kernel := quickstartKernel()
	bl1, err := ltrf.Simulate(ltrf.SimOptions{Design: ltrf.BL, LatencyX: 1, MaxInstrs: 30000}, kernel)
	if err != nil {
		t.Fatal(err)
	}
	bl63, err := ltrf.Simulate(ltrf.SimOptions{Design: ltrf.BL, LatencyX: 6.3, MaxInstrs: 30000}, kernel)
	if err != nil {
		t.Fatal(err)
	}
	ltrf63, err := ltrf.Simulate(ltrf.SimOptions{Design: ltrf.LTRF, LatencyX: 6.3, MaxInstrs: 30000}, kernel)
	if err != nil {
		t.Fatal(err)
	}
	if bl63.IPC >= bl1.IPC*0.7 {
		t.Errorf("BL should degrade at 6.3x: %.3f vs %.3f", bl63.IPC, bl1.IPC)
	}
	if ltrf63.IPC <= bl63.IPC {
		t.Errorf("LTRF (%.3f) must beat BL (%.3f) at 6.3x", ltrf63.IPC, bl63.IPC)
	}
}

func TestWorkloadAccessors(t *testing.T) {
	if len(ltrf.Workloads()) != 39 {
		t.Errorf("Workloads() = %d, want 39 (35 paper + 4 family)", len(ltrf.Workloads()))
	}
	if len(ltrf.PaperWorkloads()) != 35 {
		t.Errorf("PaperWorkloads() = %d, want 35", len(ltrf.PaperWorkloads()))
	}
	if len(ltrf.EvalWorkloads()) != 14 {
		t.Errorf("EvalWorkloads() = %d, want 14", len(ltrf.EvalWorkloads()))
	}
	if _, err := ltrf.WorkloadByName("sgemm"); err != nil {
		t.Error(err)
	}
	pairs := ltrf.WorkloadPairs()
	if len(pairs) != 2 {
		t.Fatalf("WorkloadPairs() = %d, want 2", len(pairs))
	}
	for _, p := range pairs {
		if !p.Pipelined.Pipelined || p.Naive.Pipelined || p.Pipelined.Family != p.Family {
			t.Errorf("malformed pair %+v", p)
		}
	}
	if _, err := ltrf.WorkloadFamilyPair("regpipe"); err != nil {
		t.Error(err)
	}
	if len(ltrf.WorkloadFamilies()) != 2 {
		t.Errorf("WorkloadFamilies() = %v, want 2 families", ltrf.WorkloadFamilies())
	}
}

// TestSchedulerOption pins the façade's scheduler axis: the static variant
// must never deactivate a warp, and must retire the same work.
func TestSchedulerOption(t *testing.T) {
	w, err := ltrf.WorkloadByName("regpipe-naive")
	if err != nil {
		t.Fatal(err)
	}
	kernel := w.Build(ltrf.UnrollMaxwell)
	two, err := ltrf.Simulate(ltrf.SimOptions{Design: ltrf.LTRF, MaxInstrs: 20000}, kernel)
	if err != nil {
		t.Fatal(err)
	}
	static, err := ltrf.Simulate(ltrf.SimOptions{Design: ltrf.LTRF, MaxInstrs: 20000, Scheduler: ltrf.StaticScheduler}, kernel)
	if err != nil {
		t.Fatal(err)
	}
	if two.Deactivations == 0 {
		t.Error("two-level run of the naive kernel should deactivate")
	}
	if static.Deactivations != 0 {
		t.Errorf("static run deactivated %d times", static.Deactivations)
	}
}

// TestSimOptionsRejectOutOfRangeKnobs pins that the facade rejects the
// knobs the engine's point validation rejects, with the same message: a
// budget whose 12-cycles-per-instruction stop would overflow int64 (not
// the "budgets must be positive" of the wrapped product), an active set
// larger than the SM can hold (not a silently shrunk register cap), and a
// latency multiplier that is not finite or whose main-RF latency overflows
// a cycle count (not a run clamped back to the 1x timing).
func TestSimOptionsRejectOutOfRangeKnobs(t *testing.T) {
	kernel := quickstartKernel()
	cases := []struct {
		o    ltrf.SimOptions
		want string
	}{
		{ltrf.SimOptions{Design: ltrf.LTRF, MaxInstrs: 800_000_000_000_000_000}, "budget 800000000000000000 outside [1, "},
		{ltrf.SimOptions{Design: ltrf.LTRF, MaxInstrs: -5}, "budget -5 outside [1, "},
		{ltrf.SimOptions{Design: ltrf.LTRF, ActiveWarps: 100_000}, "ActiveWarps 100000 exceeds MaxWarps 64"},
		{ltrf.SimOptions{Design: ltrf.LTRF, LatencyX: 1e300}, "LatencyX 1e+300 makes the main-RF bank access"},
		{ltrf.SimOptions{Design: ltrf.LTRF, LatencyX: math.NaN()}, "LatencyX NaN must be positive and finite"},
		{ltrf.SimOptions{Design: ltrf.LTRF, LatencyX: math.Inf(1)}, "LatencyX +Inf must be positive and finite"},
	}
	for _, c := range cases {
		_, err := ltrf.Simulate(c.o, kernel)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("Simulate(%+v) error = %v, want it to contain %q", c.o, err, c.want)
		}
		_, err = ltrf.SimulateGPU(c.o, 2, kernel)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("SimulateGPU(%+v) error = %v, want it to contain %q", c.o, err, c.want)
		}
	}
}

func TestTechAccessor(t *testing.T) {
	p, err := ltrf.Tech(7)
	if err != nil {
		t.Fatal(err)
	}
	if p.CapacityKB() != 2048 {
		t.Errorf("config #7 capacity = %dKB, want 2048", p.CapacityKB())
	}
	if _, err := ltrf.Tech(9); err == nil {
		t.Error("Tech(9) must fail")
	}
}

func TestExperimentRegistry(t *testing.T) {
	specs := ltrf.Experiments()
	if len(specs) != 17 {
		t.Errorf("Experiments() = %d entries, want 17 (13 paper artifacts + designspace + designsweep + pipesweep + prefsweep)", len(specs))
	}
	// Table 2 is cheap: run it through the public API.
	tab, err := ltrf.RunExperiment("table2", ltrf.ExperimentOptions{Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	s := tab.String()
	for _, want := range []string{"#1", "#7", "DWM", "6.30"} {
		if !strings.Contains(s, want) {
			t.Errorf("table2 output missing %q:\n%s", want, s)
		}
	}
	if _, err := ltrf.RunExperiment("nope", ltrf.ExperimentOptions{}); err == nil {
		t.Error("unknown experiment must fail")
	}
}

func TestRunAllExperimentsQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	var sb strings.Builder
	o := ltrf.ExperimentOptions{Quick: true, Workloads: []string{"btree", "sgemm"}}
	if err := ltrf.RunAllExperiments(&sb, o); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, id := range []string{"table1", "table2", "table4", "figure2", "figure3",
		"figure4", "figure9", "figure10", "figure11", "figure12", "figure13", "figure14",
		"overheads", "designspace"} {
		if !strings.Contains(out, "== "+id+":") {
			t.Errorf("missing %s in combined output", id)
		}
	}
}

// TestRunAllExperimentsParallelDeterminism exercises the experiment engine
// end-to-end through the public API: the full registry regenerated with 8
// workers on a cold engine must be byte-identical to a single-worker run on
// another cold engine.
func TestRunAllExperimentsParallelDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	render := func(parallelism int) string {
		var sb strings.Builder
		o := ltrf.ExperimentOptions{
			Quick:       true,
			Workloads:   []string{"btree", "sgemm"},
			Parallelism: parallelism,
			Engine:      ltrf.NewExperimentEngine(),
		}
		if err := ltrf.RunAllExperiments(&sb, o); err != nil {
			t.Fatal(err)
		}
		return sb.String()
	}
	serial := render(1)
	parallel := render(8)
	if serial != parallel {
		t.Error("parallel registry output differs from serial")
	}
}

func TestSimulateGPU(t *testing.T) {
	kernel := quickstartKernel()
	res, err := ltrf.SimulateGPU(ltrf.SimOptions{Design: ltrf.LTRF, LatencyX: 2, MaxInstrs: 6000}, 3, kernel)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.PerSM) != 3 || res.TotalIPC <= 0 {
		t.Errorf("GPU result incomplete: %d SMs, IPC %v", len(res.PerSM), res.TotalIPC)
	}
}

func TestChipEnergyPublicAPI(t *testing.T) {
	kernel := quickstartKernel()
	res, err := ltrf.Simulate(ltrf.SimOptions{Design: ltrf.LTRF, TechConfig: 7, LatencyX: 6.3, MaxInstrs: 6000}, kernel)
	if err != nil {
		t.Fatal(err)
	}
	rf, err := ltrf.RFEnergy(res)
	if err != nil {
		t.Fatal(err)
	}
	chip, err := ltrf.ChipEnergy(res)
	if err != nil {
		t.Fatal(err)
	}
	if rf.Total() <= 0 || chip.Total() <= 0 {
		t.Fatalf("energy totals must be positive: RF %v, chip %v", rf.Total(), chip.Total())
	}
	if chip.EDP(res.Cycles) < rf.EDP(res.Cycles) {
		t.Errorf("chip EDP %v < RF EDP %v", chip.EDP(res.Cycles), rf.EDP(res.Cycles))
	}

	// A SimOptions.Chip override re-prices the matching component without
	// touching timing.
	boosted, err := ltrf.Simulate(ltrf.SimOptions{
		Design: ltrf.LTRF, TechConfig: 7, LatencyX: 6.3, MaxInstrs: 6000,
		Chip: ltrf.ChipConfig{DRAMAccessEnergy: 1000},
	}, kernel)
	if err != nil {
		t.Fatal(err)
	}
	if boosted.Cycles != res.Cycles {
		t.Fatalf("chip-energy option changed timing: %d vs %d cycles", boosted.Cycles, res.Cycles)
	}
	bchip, err := ltrf.ChipEnergy(boosted)
	if err != nil {
		t.Fatal(err)
	}
	if bchip.DRAMDynamic <= chip.DRAMDynamic {
		t.Errorf("DRAM energy override had no effect: %v vs %v", bchip.DRAMDynamic, chip.DRAMDynamic)
	}
}
