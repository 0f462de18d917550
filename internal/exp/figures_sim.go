package exp

import (
	"fmt"

	"ltrf/internal/power"
	"ltrf/internal/sim"
	"ltrf/internal/workloads"
)

// label annotates workload names with their sensitivity class.
func label(w workloads.Workload) string {
	if w.Sensitive {
		return w.Name + " (S)"
	}
	return w.Name + " (I)"
}

// Figure3 reproduces the paper's Figure 3: IPC of an ideal 8x TFET-SRAM
// register file (no latency increase) and the real TFET-SRAM design
// (configuration #6), normalized to the 256KB baseline.
func Figure3(o Options) (*Table, error) {
	ws, err := o.evalSet()
	if err != nil {
		return nil, err
	}
	return render(o, func(eval evalFunc) (*Table, error) {
		t := &Table{
			ID:      "figure3",
			Title:   "8x register file with ideal vs. real TFET-SRAM latency (normalized IPC)",
			Headers: []string{"Workload", "Ideal TFET-SRAM", "TFET-SRAM"},
			Notes: []string{
				"paper: ideal improves register-sensitive workloads 10-95% (37% avg); real latency forfeits much of the gain",
			},
		}
		var idealS, realS, idealI, realI []float64
		var anyTrunc bool
		for _, w := range ws {
			bl, err := eval(o.point(sim.DesignBL, 1, 1.0, w.Name))
			if err != nil {
				return nil, err
			}
			ideal, err := eval(o.point(sim.DesignIdeal, 6, 1.0, w.Name))
			if err != nil {
				return nil, err
			}
			real, err := eval(o.point(sim.DesignBL, 6, 1.0, w.Name))
			if err != nil {
				return nil, err
			}
			iN, rN := ideal.IPC/bl.IPC, real.IPC/bl.IPC
			anyTrunc = anyTrunc || bl.Truncated || ideal.Truncated || real.Truncated
			t.Rows = append(t.Rows, []string{label(w),
				markIf(f2(iN), bl.Truncated || ideal.Truncated),
				markIf(f2(rN), bl.Truncated || real.Truncated)})
			if w.Sensitive {
				idealS = append(idealS, iN)
				realS = append(realS, rN)
			} else {
				idealI = append(idealI, iN)
				realI = append(realI, rN)
			}
		}
		t.Rows = append(t.Rows,
			[]string{"mean (insensitive)", f2(geomean(idealI)), f2(geomean(realI))},
			[]string{"mean (sensitive)", f2(geomean(idealS)), f2(geomean(realS))},
		)
		noteTruncation(t, anyTrunc)
		return t, nil
	})
}

// Figure4 reproduces the paper's Figure 4: read hit rates of the hardware
// register file cache [19] and the software-managed cache [20].
func Figure4(o Options) (*Table, error) {
	ws, err := o.evalSet()
	if err != nil {
		return nil, err
	}
	return render(o, func(eval evalFunc) (*Table, error) {
		t := &Table{
			ID:      "figure4",
			Title:   "Register file cache hit rates (16KB cache)",
			Headers: []string{"Workload", "HW cache (RFC)", "SW cache (SHRF)"},
			Notes:   []string{"paper: hit rates between 8% and 30%"},
		}
		var hw, sw []float64
		for _, w := range ws {
			rfc, err := eval(o.point(sim.DesignRFC, 1, 1.0, w.Name))
			if err != nil {
				return nil, err
			}
			shrf, err := eval(o.point(sim.DesignSHRF, 1, 1.0, w.Name))
			if err != nil {
				return nil, err
			}
			h, s := rfc.RF.ReadHitRate(), shrf.RF.ReadHitRate()
			hw = append(hw, h)
			sw = append(sw, s)
			t.Rows = append(t.Rows, []string{label(w), f2(h), f2(s)})
		}
		t.Rows = append(t.Rows, []string{"mean", f2(mean(hw)), f2(mean(sw))})
		return t, nil
	})
}

// Figure9 reproduces the paper's Figure 9: IPC of BL, RFC, LTRF, LTRF+, and
// Ideal with the main register file implemented as configuration #6 (a) and
// #7 (b), normalized to the baseline architecture of configuration #1.
func Figure9(o Options) (*Table, error) {
	ws, err := o.evalSet()
	if err != nil {
		return nil, err
	}
	designs := []sim.Design{sim.DesignBL, sim.DesignRFC, sim.DesignLTRF, sim.DesignLTRFPlus, sim.DesignIdeal}

	// The config-#1 baseline is asked once per workload and panel; the
	// memo shares it across the panels and with Figures 3 and 10.
	return render(o, func(eval evalFunc) (*Table, error) {
		t := &Table{
			ID:    "figure9",
			Title: "Normalized IPC with 8x register files (configs #6 and #7)",
			Headers: []string{"Workload", "cfg",
				"BL", "RFC", "LTRF", "LTRF+", "Ideal"},
			Notes: []string{
				"normalized to BL on configuration #1 (+16KB, §5)",
				"paper (cfg #6): LTRF +32% avg, within 5% of Ideal; (cfg #7): LTRF +28%, LTRF+ +31%",
			},
		}
		var anyTrunc bool
		for _, cfgIdx := range []int{6, 7} {
			sums := map[sim.Design][]float64{}
			for _, w := range ws {
				bl1, err := eval(o.point(sim.DesignBL, 1, 1.0, w.Name))
				if err != nil {
					return nil, err
				}
				row := []string{label(w), fmt.Sprintf("#%d", cfgIdx)}
				for _, d := range designs {
					res, err := eval(o.point(d, cfgIdx, 1.0, w.Name))
					if err != nil {
						return nil, err
					}
					n := res.IPC / bl1.IPC
					sums[d] = append(sums[d], n)
					trunc := bl1.Truncated || res.Truncated
					anyTrunc = anyTrunc || trunc
					row = append(row, markIf(f2(n), trunc))
				}
				t.Rows = append(t.Rows, row)
			}
			avg := []string{"geomean", fmt.Sprintf("#%d", cfgIdx)}
			for _, d := range designs {
				avg = append(avg, f2(geomean(sums[d])))
			}
			t.Rows = append(t.Rows, avg)
		}
		noteTruncation(t, anyTrunc)
		return t, nil
	})
}

// Figure10 reproduces the paper's Figure 10: register file power of RFC,
// LTRF, and LTRF+ with the main register file as configuration #7 (DWM),
// normalized to the baseline architecture of configuration #1.
func Figure10(o Options) (*Table, error) {
	ws, err := o.evalSet()
	if err != nil {
		return nil, err
	}
	designs := []sim.Design{sim.DesignRFC, sim.DesignLTRF, sim.DesignLTRFPlus}

	return render(o, func(eval evalFunc) (*Table, error) {
		t := &Table{
			ID:      "figure10",
			Title:   "Register file power on configuration #7 (normalized to baseline)",
			Headers: []string{"Workload", "RFC", "LTRF", "LTRF+"},
			Notes: []string{
				"paper averages: RFC 0.649 (-35.1%), LTRF 0.646 (-35.4%), LTRF+ 0.539 (-46.1%)",
			},
		}
		sums := map[sim.Design][]float64{}
		for _, w := range ws {
			bl1, err := eval(o.point(sim.DesignBL, 1, 1.0, w.Name))
			if err != nil {
				return nil, err
			}
			basePower := power.NewModel(bl1.Config.Tech, false).Compute(bl1.Cycles, bl1.RF).Total() / float64(bl1.Cycles)
			row := []string{label(w)}
			for _, d := range designs {
				res, err := eval(o.point(d, 7, 1.0, w.Name))
				if err != nil {
					return nil, err
				}
				p := power.NewModel(res.Config.Tech, true).Compute(res.Cycles, res.RF).Total() / float64(res.Cycles)
				n := p / basePower
				sums[d] = append(sums[d], n)
				row = append(row, f2(n))
			}
			t.Rows = append(t.Rows, row)
		}
		avg := []string{"mean"}
		for _, d := range designs {
			avg = append(avg, f2(mean(sums[d])))
		}
		t.Rows = append(t.Rows, avg)
		return t, nil
	})
}
