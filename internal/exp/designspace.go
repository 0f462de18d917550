package exp

import (
	"ltrf/internal/power"
	"ltrf/internal/regfile"
	"ltrf/internal/sim"
)

// designSpaceTech is the technology point of the design-space comparison:
// configuration #6 (8x TFET-SRAM), the paper's headline capacity/latency
// trade-off.
const designSpaceTech = 6

// DesignSpace compares every register-file design in the open registry —
// the paper's seven comparison points plus any registered plugin (comp,
// regdem, and whatever a future one-file PR adds) — on the evaluation
// workloads at configuration #6. Columns are enumerated from the registry
// (Options.Designs restricts them), not from a hard-coded list: registering
// a design is all it takes to appear here. Rows are normalized IPC against
// BL on configuration #1; the footer adds the geomean and the mean relative
// register-file power, computed through each descriptor's energy hook
// (power.NewModelFor).
func DesignSpace(o Options) (*Table, error) {
	ws, err := o.evalSet()
	if err != nil {
		return nil, err
	}
	names, err := o.designSet()
	if err != nil {
		return nil, err
	}
	return render(o, func(eval evalFunc) (*Table, error) {
		t := &Table{
			ID:      "designspace",
			Title:   "Design space: normalized IPC of every registered design (config #6)",
			Headers: append([]string{"Workload"}, names...),
			Notes: []string{
				"IPC normalized to BL on configuration #1 (+16KB, §5); columns enumerated from the regfile design registry",
				"power row: mean RF power relative to the BL/#1 baseline, via each descriptor's energy hook",
			},
		}
		ipcs := make(map[string][]float64, len(names))
		pows := make(map[string][]float64, len(names))
		var anyTrunc bool
		for _, w := range ws {
			bl1, err := eval(o.point(sim.DesignBL, 1, 1.0, w.Name))
			if err != nil {
				return nil, err
			}
			blPower := power.NewModel(bl1.Config.Tech, false).Compute(bl1.Cycles, bl1.RF).Total() / float64(bl1.Cycles)
			row := []string{label(w)}
			for _, n := range names {
				res, err := eval(o.point(sim.Design(n), designSpaceTech, 1.0, w.Name))
				if err != nil {
					return nil, err
				}
				norm := res.IPC / bl1.IPC
				ipcs[n] = append(ipcs[n], norm)
				trunc := bl1.Truncated || res.Truncated
				anyTrunc = anyTrunc || trunc
				row = append(row, markIf(f2(norm), trunc))

				desc, err := regfile.Lookup(n)
				if err != nil {
					return nil, err
				}
				p := power.NewModelFor(desc, res.Config.Tech).Compute(res.Cycles, res.RF).Total() / float64(res.Cycles)
				pows[n] = append(pows[n], p/blPower)
			}
			t.Rows = append(t.Rows, row)
		}

		gm := []string{"geomean IPC"}
		pw := []string{"mean RF power"}
		for _, n := range names {
			gm = append(gm, f2(geomean(ipcs[n])))
			pw = append(pw, f2(mean(pows[n])))
		}
		t.Rows = append(t.Rows, gm, pw)
		noteTruncation(t, anyTrunc)
		return t, nil
	})
}
