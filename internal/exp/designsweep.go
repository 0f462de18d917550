package exp

import (
	"fmt"

	"ltrf/internal/sim"
)

// designEDPs scores one simulation under both energy accounts: the RF-only
// energy-delay product (the design's own structures, Figure 10's scope) and
// the chip-level EDP (RF + L1/L2/DRAM/shared-memory/SM pipelines). Both go
// through the design's registry energy hooks at the run's technology point.
// The two disagree exactly when a design trades non-RF cost for RF savings —
// which is what the dual-column sweep is built to expose.
func designEDPs(res *sim.Result) (rfEDP, chipEDP float64, err error) {
	rf, err := res.RFEnergy()
	if err != nil {
		return 0, 0, err
	}
	chip, err := res.ChipEnergy()
	if err != nil {
		return 0, 0, err
	}
	return rf.EDP(res.Cycles), chip.EDP(res.Cycles), nil
}

// DesignSweep renders the energy-delay frontier of the open design
// registry: every registered register-file design — the paper's seven
// comparison points plus any plugin — simulated across the Figure 11-14
// latency grid on the configuration-#1 technology, scored by energy-delay
// product under BOTH energy accounts. One row per latency multiplier and,
// per design, an RF-only EDP column and a chip-level EDP column (each
// normalized to BL at 1x under the SAME account on the same workload,
// geomean over the evaluation set, lower is better). Two closing columns
// name the frontier design under each account; rows where they differ are
// the designs the RF-only yardstick mis-ranks. Columns are enumerated from
// the registry (Options.Designs restricts them), so registering a design is
// all it takes to appear — and to be ranked.
func DesignSweep(o Options) (*Table, error) {
	ws, err := o.evalSet()
	if err != nil {
		return nil, err
	}
	names, err := o.designSet()
	if err != nil {
		return nil, err
	}
	return render(o, func(eval evalFunc) (*Table, error) {
		// The BL@1x baseline EDPs are per workload, shared by every cell.
		baseRF := make(map[string]float64, len(ws))
		baseChip := make(map[string]float64, len(ws))
		for _, w := range ws {
			base, err := eval(o.point(sim.DesignBL, 1, 1.0, w.Name))
			if err != nil {
				return nil, err
			}
			rf, chip, err := designEDPs(base)
			if err != nil {
				return nil, err
			}
			baseRF[w.Name] = rf
			baseChip[w.Name] = chip
		}

		headers := []string{"Latency"}
		for _, n := range names {
			headers = append(headers, n, n+"(chip)")
		}
		headers = append(headers, "best(rf)", "best(chip)")

		t := &Table{
			ID:      "designsweep",
			Title:   "Design sweep: RF-only vs chip-level EDP of every registered design vs. latency (config #1)",
			Headers: headers,
			Notes: []string{
				"cells: energy-delay product relative to BL at 1x under the same account on the same workload (geomean over workloads; lower is better)",
				"<design> scores register-file energy only; <design>(chip) adds L1/L2/DRAM, shared memory, and SM pipelines (power.ChipBreakdown)",
				"best(rf)/best(chip): the lowest-EDP design under each account — rows where they differ are designs the RF-only yardstick mis-ranks",
				"columns enumerated from the regfile design registry; energy through each descriptor's hooks (power.NewModelFor / NewChipModelFor)",
			},
		}

		var anyTrunc bool
		for _, x := range sweepGrid {
			row := []string{fmt.Sprintf("%.0fx", x)}
			bestRF, bestRFVal := "", 0.0
			bestChip, bestChipVal := "", 0.0
			for _, n := range names {
				var relRF, relChip []float64
				var trunc bool
				for _, w := range ws {
					res, err := eval(o.point(sim.Design(n), 1, x, w.Name))
					if err != nil {
						return nil, err
					}
					rf, chip, err := designEDPs(res)
					if err != nil {
						return nil, err
					}
					if base := baseRF[w.Name]; base > 0 {
						relRF = append(relRF, rf/base)
					}
					if base := baseChip[w.Name]; base > 0 {
						relChip = append(relChip, chip/base)
					}
					trunc = trunc || res.Truncated
				}
				anyTrunc = anyTrunc || trunc
				gmRF, gmChip := geomean(relRF), geomean(relChip)
				row = append(row, markIf(f2(gmRF), trunc), markIf(f2(gmChip), trunc))
				if bestRF == "" || gmRF < bestRFVal {
					bestRF, bestRFVal = n, gmRF
				}
				if bestChip == "" || gmChip < bestChipVal {
					bestChip, bestChipVal = n, gmChip
				}
			}
			row = append(row, bestRF, bestChip)
			t.Rows = append(t.Rows, row)
		}
		noteTruncation(t, anyTrunc)
		return t, nil
	})
}
