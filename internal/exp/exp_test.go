package exp

import (
	"math"
	"strconv"
	"strings"
	"testing"

	"ltrf/internal/core"
	"ltrf/internal/isa"
	"ltrf/internal/memtech"
	"ltrf/internal/workloads"
)

func TestTableRendering(t *testing.T) {
	tab := &Table{
		ID: "t", Title: "demo",
		Headers: []string{"a", "bb"},
		Rows:    [][]string{{"x", "1"}, {"longer", "2"}},
		Notes:   []string{"n1"},
	}
	s := tab.String()
	for _, want := range []string{"== t: demo ==", "longer", "note: n1"} {
		if !strings.Contains(s, want) {
			t.Errorf("rendering missing %q:\n%s", want, s)
		}
	}
	if v, ok := tab.Cell("longer", 1); !ok || v != "2" {
		t.Errorf("Cell = %q,%v", v, ok)
	}
	if _, ok := tab.Cell("absent", 1); ok {
		t.Error("Cell must miss for absent row")
	}
}

func TestGeomeanAndMean(t *testing.T) {
	if g := geomean([]float64{1, 4}); math.Abs(g-2) > 1e-9 {
		t.Errorf("geomean(1,4) = %v, want 2", g)
	}
	if g := geomean(nil); g != 1 {
		t.Errorf("geomean(nil) = %v, want 1", g)
	}
	if g := geomean([]float64{2, 0}); g != 0 {
		t.Errorf("geomean with zero = %v, want 0", g)
	}
	if m := mean([]float64{1, 2, 3}); m != 2 {
		t.Errorf("mean = %v", m)
	}
}

func TestMaxTolerableInterpolation(t *testing.T) {
	// curve on grid 1..8: stays above 0.95 until between 4x and 5x.
	curve := []float64{1.0, 0.99, 0.98, 0.96, 0.90, 0.80, 0.70, 0.60}
	got := maxTolerable(curve, 0.05)
	if got < 4.0 || got > 5.0 {
		t.Errorf("maxTolerable = %v, want within (4,5)", got)
	}
	// Curve never dropping: tolerates the whole grid.
	flat := []float64{1, 1, 1, 1, 1, 1, 1, 1}
	if got := maxTolerable(flat, 0.05); got != sweepGrid[len(sweepGrid)-1] {
		t.Errorf("flat curve tolerance = %v, want %v", got, sweepGrid[len(sweepGrid)-1])
	}
	// Curve below threshold immediately: tolerance is the 1x point.
	bad := []float64{1, 0.5, 0.4, 0.3, 0.2, 0.1, 0.1, 0.1}
	if got := maxTolerable(bad, 0.05); got > 2 {
		t.Errorf("collapsing curve tolerance = %v, want <= 2", got)
	}
}

func TestTraceKernelSemantics(t *testing.T) {
	b := isa.NewBuilder("trace")
	r := b.RegN(2)
	b.IMovImm(r[0], 0)
	b.Loop(3, func() { b.IAddImm(r[1], r[0], 1) })
	p := b.MustBuild()
	tr := traceKernel(p, 1000, 1)
	// Prologue (imovimm + loop counter init) + 4 instrs per iteration x 3
	// trips (body, iadd.imm, setp.imm, bra.cond) + exit.
	if len(tr) != 2+4*3+1 {
		t.Errorf("trace length = %d, want 15", len(tr))
	}
	if tr[len(tr)-1] != len(p.Instrs)-1 {
		t.Error("trace must end at exit")
	}
	// Determinism.
	tr2 := traceKernel(p, 1000, 1)
	if len(tr2) != len(tr) {
		t.Error("trace not deterministic")
	}
}

func TestDynamicIntervalLengthsSplitsAtBoundaries(t *testing.T) {
	b := isa.NewBuilder("runs")
	r := b.RegN(24)
	for i := range r {
		b.IMovImm(r[i], int64(i))
	}
	p := b.MustBuild()
	part, starts := mustIntervals(t, p, 8)
	tr := traceKernel(p, 1000, 1)
	lengths, st := dynamicIntervalLengths(part, tr)
	if len(lengths) != part.NumUnits() {
		t.Errorf("straight-line runs = %d, want %d (one per unit)", len(lengths), part.NumUnits())
	}
	if len(st) != len(lengths) {
		t.Errorf("starts/lengths mismatch: %d vs %d", len(st), len(lengths))
	}
	total := 0
	for _, l := range lengths {
		total += l
	}
	if total != len(tr) {
		t.Errorf("run lengths sum to %d, want %d", total, len(tr))
	}
	_ = starts
}

func TestOptimalIsUpperBoundPerRun(t *testing.T) {
	b := isa.NewBuilder("opt")
	r := b.RegN(20)
	for i := range r {
		b.IMovImm(r[i], int64(i))
	}
	b.Loop(4, func() {
		b.FFMA(r[0], r[1], r[2], r[0])
		b.FFMA(r[3], r[4], r[5], r[3])
	})
	p := b.MustBuild()
	part, _ := mustIntervals(t, p, 8)
	tr := traceKernel(p, 1000, 1)
	real, starts := dynamicIntervalLengths(part, tr)
	opt := optimalIntervalLengths(p, tr, starts, 8)
	if len(opt) != len(real) {
		t.Fatalf("lengths mismatch: %d vs %d", len(opt), len(real))
	}
	for i := range real {
		if opt[i] < real[i] {
			t.Errorf("run %d: optimal %d < real %d (must be an upper bound)", i, opt[i], real[i])
		}
	}
}

func mustIntervals(t *testing.T, p *isa.Program, n int) (*core.Partition, []int) {
	t.Helper()
	pt, err := core.FormRegisterIntervals(p, n)
	if err != nil {
		t.Fatal(err)
	}
	return pt, nil
}

// TestStaticExperimentsFast exercises the non-simulation experiments at full
// budget (they are cheap) and asserts their headline bands.
func TestStaticExperimentsFast(t *testing.T) {
	o := Options{}

	t1, err := Table1(o)
	if err != nil {
		t.Fatal(err)
	}
	fermiAvg, _ := t1.Cell("Fermi (128KB)", 1)
	if !strings.Contains(fermiAvg, "KB") {
		t.Errorf("table1 fermi avg malformed: %q", fermiAvg)
	}

	t2, err := Table2(o)
	if err != nil {
		t.Fatal(err)
	}
	if lat, _ := t2.Cell("#7", 10); lat != "6.30" {
		t.Errorf("table2 #7 latency = %q, want 6.30", lat)
	}

	t4, err := Table4(o)
	if err != nil {
		t.Fatal(err)
	}
	realAvg := cellFloat(t, t4, "Real (multi-interval)", 1)
	optAvg := cellFloat(t, t4, "Optimal (multi-interval)", 1)
	if realAvg < 7 || realAvg > 60 {
		t.Errorf("table4 real avg %.1f outside plausible band (paper 31.2)", realAvg)
	}
	if ratio := realAvg / optAvg; ratio < 0.7 || ratio > 1.001 {
		t.Errorf("table4 real/optimal = %.2f, want <= 1 and near paper's 0.89", ratio)
	}

	f2t, err := Figure2(o)
	if err != nil {
		t.Fatal(err)
	}
	if share, _ := f2t.Cell("Pascal (2016)", 4); share != "61%" {
		t.Errorf("figure2 Pascal RF share = %q, want 61%%", share)
	}
}

// TestStaticTablesMemoized pins the warm static tables: a first render of
// table2 and table4 on an engine runs Table 2's seven distinct queueing
// measurements (config #1 is both a row and the baseline) and one interval
// analysis per paper workload, and a second render runs none and prints
// the same bytes. Table 4's memo is keyed by trace length, so the full
// budget measures again; the engine's effective latencies equal
// memtech.EffectiveLatencyX's.
func TestStaticTablesMemoized(t *testing.T) {
	eng := NewEngine()
	o := Options{Quick: true, Engine: eng}
	render := func() string {
		t.Helper()
		var sb strings.Builder
		for _, run := range []func(Options) (*Table, error){Table2, Table4} {
			tab, err := run(o)
			if err != nil {
				t.Fatal(err)
			}
			tab.Fprint(&sb)
		}
		return sb.String()
	}
	nCfg, nWl := len(memtech.Table2), len(workloads.PaperSuite())
	first := render()
	if eng.queueing.runs != nCfg || eng.intervals.runs != nWl {
		t.Fatalf("first render ran %d queueing and %d interval analyses, want %d and %d",
			eng.queueing.runs, eng.intervals.runs, nCfg, nWl)
	}
	if again := render(); again != first {
		t.Errorf("warm render differs:\n%s\nwant\n%s", again, first)
	}
	if eng.queueing.runs != nCfg || eng.intervals.runs != nWl {
		t.Errorf("warm render recomputed: %d queueing and %d interval analyses in all, want %d and %d",
			eng.queueing.runs, eng.intervals.runs, nCfg, nWl)
	}

	o.Quick = false
	if _, err := Table4(o); err != nil {
		t.Fatal(err)
	}
	if eng.intervals.runs != 2*nWl {
		t.Errorf("a full-budget table4 ran %d interval analyses in all, want %d", eng.intervals.runs, 2*nWl)
	}

	for cfg := 1; cfg <= nCfg; cfg++ {
		base, _ := eng.queueingLatency(1)
		lat, _ := eng.queueingLatency(cfg)
		if got, want := lat/base, memtech.EffectiveLatencyX(memtech.MustConfig(cfg), table2Traffic); got != want {
			t.Errorf("config #%d: memoized effective latency %v, memtech says %v", cfg, got, want)
		}
	}
}

// TestStaticAnalysisFailureNotMemoized asserts that a failed analysis is
// reported to every caller and computed again by the next one, never
// cached as a result.
func TestStaticAnalysisFailureNotMemoized(t *testing.T) {
	eng := NewEngine()
	for i := 1; i <= 2; i++ {
		if _, err := eng.measureIntervals("nosuch", 100); err == nil {
			t.Fatal("unknown workload measured without error")
		}
		if _, err := eng.queueingLatency(0); err == nil {
			t.Fatal("config #0 measured without error")
		}
		if eng.intervals.runs != i || eng.queueing.runs != i {
			t.Errorf("call %d: %d interval and %d queueing runs, want %d each (failures are retried)",
				i, eng.intervals.runs, eng.queueing.runs, i)
		}
	}
	if len(eng.intervals.m) != 0 || len(eng.queueing.m) != 0 {
		t.Errorf("failed analyses were cached: %v, %v", eng.intervals.m, eng.queueing.m)
	}
}

// TestSimulationBandsQuick asserts the headline reproduction bands on a
// reduced workload pair so it stays test-suite fast.
func TestSimulationBandsQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	o := Options{Quick: true, Workloads: []string{"sgemm", "btree"}}

	// Figure 9: LTRF must clearly beat BL and RFC on config #6.
	f9, err := Figure9(o)
	if err != nil {
		t.Fatal(err)
	}
	var bl6, rfc6, ltrf6 float64
	for _, row := range f9.Rows {
		if row[0] == "geomean" && row[1] == "#6" {
			bl6 = parseF(t, row[2])
			rfc6 = parseF(t, row[3])
			ltrf6 = parseF(t, row[4])
		}
	}
	if !(ltrf6 > rfc6 && rfc6 >= bl6*0.9) {
		t.Errorf("figure9 ordering violated: BL=%.2f RFC=%.2f LTRF=%.2f", bl6, rfc6, ltrf6)
	}
	if ltrf6 < 1.0 {
		t.Errorf("figure9: LTRF on 8x RF should beat the 1x baseline, got %.2f", ltrf6)
	}

	// Figure 11: LTRF tolerance must exceed RFC's by a wide margin.
	f11, err := Figure11(o)
	if err != nil {
		t.Fatal(err)
	}
	var rfcTol, ltrfTol float64
	for _, row := range f11.Rows {
		if row[0] == "mean @5% loss" {
			rfcTol = parseF(t, row[2])
			ltrfTol = parseF(t, row[3])
		}
	}
	if ltrfTol < rfcTol+1.5 {
		t.Errorf("figure11: LTRF %.1fx vs RFC %.1fx — want a wide gap (paper 5.3 vs 2.1)", ltrfTol, rfcTol)
	}
}

func cellFloat(t *testing.T, tab *Table, row string, col int) float64 {
	t.Helper()
	s, ok := tab.Cell(row, col)
	if !ok {
		t.Fatalf("missing cell %s[%d]", row, col)
	}
	return parseF(t, s)
}

func parseF(t *testing.T, s string) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(strings.TrimSuffix(s, "x"), 64)
	if err != nil {
		t.Fatalf("parse %q: %v", s, err)
	}
	return v
}
