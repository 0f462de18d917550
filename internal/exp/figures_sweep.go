package exp

import (
	"fmt"

	"ltrf/internal/sim"
)

// sweepGrid is the latency-multiplier x-axis of Figures 11-14.
var sweepGrid = []float64{1, 2, 3, 4, 5, 6, 7, 8}

// sweepVariant names one series of a sweep figure: its design and the Point
// knob it varies. set may be nil for a plain sweep of the design's defaults.
type sweepVariant struct {
	name string
	d    sim.Design
	set  func(*Point)
}

// sweepCurve renders one (design, workload, variant) series over the
// latency grid on the config-#1 technology: normalized IPC relative to the
// series' own 1x point, plus a per-point truncation flag so renderers can
// mark budget-starved cells instead of serving them silently.
func sweepCurve(o Options, eval evalFunc, d sim.Design, workload string, set func(*Point)) ([]float64, []bool, error) {
	out := make([]float64, len(sweepGrid))
	trunc := make([]bool, len(sweepGrid))
	var ipc1 float64
	for i, x := range sweepGrid {
		p := o.point(d, 1, x, workload)
		if set != nil {
			set(&p)
		}
		res, err := eval(p)
		if err != nil {
			return nil, nil, err
		}
		if i == 0 {
			ipc1 = res.IPC
		}
		if ipc1 > 0 {
			out[i] = res.IPC / ipc1
		}
		trunc[i] = res.Truncated
	}
	return out, trunc, nil
}

// anyTrue reports whether any flag is set.
func anyTrue(flags []bool) bool {
	for _, f := range flags {
		if f {
			return true
		}
	}
	return false
}

// maxTolerable interpolates the largest latency multiplier whose normalized
// IPC stays at or above 1-loss (§6.3's "maximum tolerable register file
// access latency").
func maxTolerable(curve []float64, loss float64) float64 {
	threshold := 1 - loss
	best := sweepGrid[0]
	for i := 1; i < len(curve); i++ {
		if curve[i] >= threshold {
			best = sweepGrid[i]
			continue
		}
		// Linear interpolation inside [i-1, i] to the crossing point.
		prev, cur := curve[i-1], curve[i]
		if prev > cur && prev >= threshold {
			frac := (prev - threshold) / (prev - cur)
			best = sweepGrid[i-1] + frac*(sweepGrid[i]-sweepGrid[i-1])
		}
		break
	}
	return best
}

// Figure11 reproduces the paper's Figure 11: the maximum tolerable main
// register file access latency (<=5% IPC loss) per workload for BL, RFC,
// LTRF, and LTRF+, plus the §6.3 averages at 1% and 10% allowed loss.
func Figure11(o Options) (*Table, error) {
	ws, err := o.evalSet()
	if err != nil {
		return nil, err
	}
	designs := []sim.Design{sim.DesignBL, sim.DesignRFC, sim.DesignLTRF, sim.DesignLTRFPlus}

	return render(o, func(eval evalFunc) (*Table, error) {
		t := &Table{
			ID:      "figure11",
			Title:   "Maximum tolerable register file access latency (5% IPC loss)",
			Headers: []string{"Workload", "BL", "RFC", "LTRF", "LTRF+"},
			Notes: []string{
				"paper averages at 5% loss: RFC 2.1x, LTRF 5.3x, LTRF+ 6.2x",
				"paper averages at 1% loss: RFC 1.4x, LTRF 2.8x, LTRF+ 3.5x; at 10%: RFC 2.9x, LTRF 6.5x, LTRF+ 7.9x",
			},
		}
		curves := map[sim.Design][][]float64{}
		var anyTrunc bool
		for _, w := range ws {
			row := []string{label(w)}
			for _, d := range designs {
				curve, trunc, err := sweepCurve(o, eval, d, w.Name, nil)
				if err != nil {
					return nil, err
				}
				curves[d] = append(curves[d], curve)
				row = append(row, markIf(f1(maxTolerable(curve, 0.05)), anyTrue(trunc)))
				anyTrunc = anyTrunc || anyTrue(trunc)
			}
			t.Rows = append(t.Rows, row)
		}
		for _, loss := range []float64{0.01, 0.05, 0.10} {
			row := []string{fmt.Sprintf("mean @%d%% loss", int(loss*100))}
			for _, d := range designs {
				var tol []float64
				for _, curve := range curves[d] {
					tol = append(tol, maxTolerable(curve, loss))
				}
				row = append(row, f1(mean(tol)))
			}
			t.Rows = append(t.Rows, row)
		}
		noteTruncation(t, anyTrunc)
		return t, nil
	})
}

// sweepAverage renders a latency-grid table with one column per variant:
// its normalized IPC curve, geomean over the evaluation workloads. A cell
// whose geomean includes a truncated run is marked.
func sweepAverage(o Options, id, title string, variants []sweepVariant, notes []string) (*Table, error) {
	ws, err := o.evalSet()
	if err != nil {
		return nil, err
	}
	return render(o, func(eval evalFunc) (*Table, error) {
		series := make([][]float64, len(variants))
		truncs := make([][]bool, len(variants))
		for vi, v := range variants {
			acc := make([][]float64, len(sweepGrid))
			truncs[vi] = make([]bool, len(sweepGrid))
			for _, w := range ws {
				curve, trunc, err := sweepCurve(o, eval, v.d, w.Name, v.set)
				if err != nil {
					return nil, err
				}
				for i, val := range curve {
					acc[i] = append(acc[i], val)
					truncs[vi][i] = truncs[vi][i] || trunc[i]
				}
			}
			series[vi] = make([]float64, len(sweepGrid))
			for i := range acc {
				series[vi][i] = geomean(acc[i])
			}
		}

		t := &Table{ID: id, Title: title, Notes: notes, Headers: []string{"Latency"}}
		for _, v := range variants {
			t.Headers = append(t.Headers, v.name)
		}
		var anyTrunc bool
		for i, x := range sweepGrid {
			row := []string{fmt.Sprintf("%.0fx", x)}
			for vi := range series {
				trunc := truncs[vi][i]
				row = append(row, markIf(f2(series[vi][i]), trunc))
				anyTrunc = anyTrunc || trunc
			}
			t.Rows = append(t.Rows, row)
		}
		noteTruncation(t, anyTrunc)
		return t, nil
	})
}

// Figure12 reproduces the paper's Figure 12: LTRF IPC (normalized to its
// own 1x point) as main RF latency grows, for 8, 16, and 32 registers per
// register-interval.
func Figure12(o Options) (*Table, error) {
	return sweepAverage(o, "figure12", "LTRF sensitivity to registers per register-interval",
		[]sweepVariant{
			{"8 regs", sim.DesignLTRF, func(p *Point) { p.RegsPerInterval = 8 }},
			{"16 regs", sim.DesignLTRF, func(p *Point) { p.RegsPerInterval = 16 }},
			{"32 regs", sim.DesignLTRF, func(p *Point) { p.RegsPerInterval = 32 }},
		}, []string{
			"each series normalized to its own 1x IPC",
			"paper: 8-reg intervals degrade markedly at high latency; 16 suffices; 32 is not uniformly better",
		})
}

// Figure13 reproduces the paper's Figure 13: LTRF IPC versus latency for 4,
// 8, and 16 active warps, with the per-warp cache partition held constant.
func Figure13(o Options) (*Table, error) {
	return sweepAverage(o, "figure13", "LTRF sensitivity to the number of active warps",
		[]sweepVariant{
			{"4 warps", sim.DesignLTRF, func(p *Point) { p.ActiveWarps = 4 }},
			{"8 warps", sim.DesignLTRF, func(p *Point) { p.ActiveWarps = 8 }},
			{"16 warps", sim.DesignLTRF, func(p *Point) { p.ActiveWarps = 16 }},
		}, []string{
			"each series normalized to its own 1x IPC; cache space per warp constant",
			"paper: 4->8 warps +36.9% at the slowest RF; beyond 8 no significant gain",
		})
}

// Figure14 reproduces the paper's Figure 14: normalized IPC versus latency
// for BL, RFC, SHRF, LTRF with strands, and LTRF with register-intervals.
func Figure14(o Options) (*Table, error) {
	return sweepAverage(o, "figure14", "LTRF vs. software-managed register caching under latency",
		[]sweepVariant{
			{"BL", sim.DesignBL, nil},
			{"RFC", sim.DesignRFC, nil},
			{"SHRF", sim.DesignSHRF, nil},
			{"LTRF(strand)", sim.DesignLTRFStrand, nil},
			{"LTRF(interval)", sim.DesignLTRF, nil},
		}, []string{
			"each series normalized to its own 1x IPC",
			"paper: SHRF ~ RFC (tolerate ~2x); LTRF(strand) ~3x; LTRF(interval) 5.3x",
		})
}
