package exp

import (
	"fmt"

	"ltrf/internal/core"
	"ltrf/internal/power"
	"ltrf/internal/regfile"
	"ltrf/internal/sim"
	"ltrf/internal/workloads"
)

// Figure2 reproduces the paper's Figure 2: capacity of on-chip memory
// components across NVIDIA GPU generations 2010-2016. These are published
// product specifications (whitepapers cited in the paper), encoded as data.
func Figure2(o Options) (*Table, error) {
	type gen struct {
		name                   string
		l1SharedMB, l2MB, rfMB float64
	}
	gens := []gen{
		// GF110: 16 SMs x (64KB L1+shared, 128KB RF), 768KB L2.
		{"Fermi (2010)", 1.00, 0.75, 2.00},
		// GK110: 15 SMX x (64KB L1+shared, 256KB RF), 1.5MB L2.
		{"Kepler (2012)", 0.94, 1.50, 3.75},
		// GM200: 24 SMM x (96KB shared + 48KB L1, 256KB RF), 3MB L2.
		{"Maxwell (2014)", 3.38, 3.00, 6.00},
		// GP100: 56 SMs x (64KB shared + 24KB L1, 256KB RF), 4MB L2
		// ("more than 60% of the on-chip storage ... 14.3MB").
		{"Pascal (2016)", 4.81, 4.00, 14.00},
	}
	t := &Table{
		ID:      "figure2",
		Title:   "On-chip memory capacity across GPU generations (MB)",
		Headers: []string{"Generation", "L1D+Shared", "L2", "RegisterFile", "RF share"},
		Notes:   []string{"published product specifications; paper highlights Pascal's RF at >60% of on-chip storage (14.3MB)"},
	}
	for _, g := range gens {
		total := g.l1SharedMB + g.l2MB + g.rfMB
		t.Rows = append(t.Rows, []string{
			g.name, f2(g.l1SharedMB), f2(g.l2MB), f2(g.rfMB),
			fmt.Sprintf("%.0f%%", 100*g.rfMB/total),
		})
	}
	return t, nil
}

// Overheads reproduces the §4.3 overhead analysis: PREFETCH code size under
// both encodings, WCB storage, LTRF area, and LTRF power on the baseline
// technology.
func Overheads(o Options) (*Table, error) {
	// Code size across the full suite: allocation and interval formation
	// come from the engine's compile cache, measured in parallel.
	eng := o.engine()
	wsAll := workloads.PaperSuite()
	embs := make([]float64, len(wsAll))
	exps := make([]float64, len(wsAll))
	err := parallelEach(o, len(wsAll), func(i int) error {
		_, part, err := eng.Intervals(wsAll[i].Name, workloads.UnrollMaxwell, 255, 16)
		if err != nil {
			return err
		}
		embs[i], exps[i] = core.CodeSizeOverhead(part)
		return nil
	})
	if err != nil {
		return nil, err
	}

	// WCB storage (§4.3): 64 warps x 256 architectural registers.
	wcbBits := 64 * regfile.WCBStorageBits(256)

	// Power on the baseline technology with LTRF structures: run one
	// representative workload under BL and LTRF at config #1.
	return render(o, func(eval evalFunc) (*Table, error) {
		blRes, err := eval(o.point(sim.DesignBL, 1, 1.0, "sgemm"))
		if err != nil {
			return nil, err
		}
		ltrfRes, err := eval(o.point(sim.DesignLTRF, 1, 1.0, "sgemm"))
		if err != nil {
			return nil, err
		}
		blP := power.NewModel(blRes.Config.Tech, false).Compute(blRes.Cycles, blRes.RF)
		ltrfP := power.NewModel(ltrfRes.Config.Tech, true).Compute(ltrfRes.Cycles, ltrfRes.RF)
		powerDelta := ltrfP.Total()/float64(ltrfRes.Cycles)/(blP.Total()/float64(blRes.Cycles)) - 1

		t := &Table{
			ID:      "overheads",
			Title:   "LTRF overheads (§4.3)",
			Headers: []string{"Overhead", "Measured", "Paper"},
		}
		t.Rows = append(t.Rows,
			[]string{"Code size, embedded marker bit", fmt.Sprintf("%.1f%%", 100*mean(embs)), "7%"},
			[]string{"Code size, explicit prefetch instr", fmt.Sprintf("%.1f%%", 100*mean(exps)), "9%"},
			[]string{"WCB storage per SM", fmt.Sprintf("%d bits", wcbBits), "114880 bits"},
			[]string{"Area vs baseline RF", fmt.Sprintf("+%.0f%%", 100*power.AreaOverheadX()), "+16%"},
			[]string{"Power vs baseline RF (cfg #1, sgemm)", fmt.Sprintf("%+.0f%%", 100*powerDelta), "-23%"},
		)
		return t, nil
	})
}
