package exp

import (
	"fmt"

	"ltrf/internal/sim"
	"ltrf/internal/workloads"
)

// pipePairs resolves the family pairs the sweep covers. Options.Workloads
// restricts it to pairs with a named member (so a caller asking for
// "smempipe" sweeps that family without also paying for the others); when
// the restriction names no family member at all — e.g. the smoke suite's
// generic paper-workload subset — the sweep falls back to every pair, since
// a pair-structured experiment cannot run on unpaired workloads.
func pipePairs(o Options) []workloads.Pair {
	all := workloads.Pairs()
	if len(o.Workloads) == 0 {
		return all
	}
	named := map[string]bool{}
	for _, n := range o.Workloads {
		named[n] = true
	}
	var out []workloads.Pair
	for _, p := range all {
		if named[p.Pipelined.Name] || named[p.Naive.Name] {
			out = append(out, p)
		}
	}
	if len(out) == 0 {
		return all
	}
	return out
}

// pipeSchedulers are the scheduler-sensitivity rows appended under the
// latency grid: the PR 4 warp-reshuffle finding as an experiment axis. Both
// run at the 6x grid point (high latency, where scheduling matters most),
// so the two-level rows above double as their control.
var pipeSchedulers = []sim.Scheduler{sim.SchedStatic, sim.SchedFlat}

// pipeCPI evaluates one point and returns its cycles-per-instruction plus
// the truncation flag. CPI rather than raw cycles: the family pairs retire
// identical per-warp work, so the CPI ratio equals the cycle ratio whenever
// both runs complete their budget, and it remains an equal-work comparison
// when the MaxCycles stop fires first (where a raw cycle ratio would
// silently degenerate to comparing equal hard stops).
func pipeCPI(eval evalFunc, p Point) (float64, bool, error) {
	res, err := eval(p)
	if err != nil {
		return 0, false, err
	}
	if res.Instrs == 0 {
		return 0, true, fmt.Errorf("exp: pipesweep point %s/%s retired nothing", p.Design, p.Workload)
	}
	return float64(res.Cycles) / float64(res.Instrs), res.Truncated, nil
}

// PipeSweep renders the software-pipelined family's latency-tolerance
// contrast: for every registered design (Options.Designs restricts) and
// every latency multiplier of the Figure 11-14 grid, the cycle cost of each
// pipelined kernel relative to its naive counterpart of identical work —
// then the same contrast under the static and flat scheduler variants at
// the 6x point. Cells below 1 mean software pipelining pays off under that
// design at that latency; the closing best(pipe)/best(naive) columns rank
// the designs separately on the pipelined and the naive members, and the
// flip note counts the (design, design) orderings the two rankings
// disagree on — the family exists to make that number non-zero.
func PipeSweep(o Options) (*Table, error) {
	pairs := pipePairs(o)
	names, err := o.designSet()
	if err != nil {
		return nil, err
	}
	type rowSpec struct {
		label string
		latX  float64
		sched sim.Scheduler
	}
	var rows []rowSpec
	for _, x := range sweepGrid {
		rows = append(rows, rowSpec{fmt.Sprintf("%.0fx", x), x, ""})
	}
	for _, s := range pipeSchedulers {
		rows = append(rows, rowSpec{fmt.Sprintf("6x/%s", s), 6, s})
	}

	point := func(d sim.Design, latX float64, wl string, sched sim.Scheduler) Point {
		p := o.point(d, 1, latX, wl)
		p.Scheduler = sched
		return p
	}

	return render(o, func(eval evalFunc) (*Table, error) {
		// Per-member BL@1x CPI: the normalizer that makes design scores
		// comparable across families in the ranking columns.
		baseCPI := map[string]float64{}
		for _, pair := range pairs {
			for _, m := range []workloads.Workload{pair.Pipelined, pair.Naive} {
				cpi, _, err := pipeCPI(eval, point(sim.DesignBL, 1.0, m.Name, ""))
				if err != nil {
					return nil, err
				}
				baseCPI[m.Name] = cpi
			}
		}

		headers := []string{"Latency"}
		headers = append(headers, names...)
		headers = append(headers, "best(pipe)", "best(naive)")

		t := &Table{
			ID:      "pipesweep",
			Title:   "Pipelined vs naive: equal-work cycle ratio of each family pair across designs, latency, and schedulers",
			Headers: headers,
			Notes: []string{
				"cells: CPI(pipelined)/CPI(naive) under the same design at the row's latency (geomean over family pairs; <1 = software pipelining wins)",
				"pairs retire identical per-warp instruction-class counts (workloads calibration suite), so the ratio isolates latency hiding",
				"Nx/static and Nx/flat rows rerun the 6x point under sim.SchedStatic / sim.SchedFlat (the PR 4 scheduler-sensitivity axis)",
				"best(pipe)/best(naive): lowest geomean CPI relative to BL at 1x on the same member — computed separately on the pipelined and naive members",
			},
		}

		var anyTrunc bool
		flips := 0
		for _, r := range rows {
			row := []string{r.label}
			scoreP := make([]float64, len(names))
			scoreN := make([]float64, len(names))
			for i, n := range names {
				var ratios, relP, relN []float64
				var trunc bool
				for _, pair := range pairs {
					pc, pt, err := pipeCPI(eval, point(sim.Design(n), r.latX, pair.Pipelined.Name, r.sched))
					if err != nil {
						return nil, err
					}
					nc, nt, err := pipeCPI(eval, point(sim.Design(n), r.latX, pair.Naive.Name, r.sched))
					if err != nil {
						return nil, err
					}
					ratios = append(ratios, pc/nc)
					relP = append(relP, pc/baseCPI[pair.Pipelined.Name])
					relN = append(relN, nc/baseCPI[pair.Naive.Name])
					trunc = trunc || pt || nt
				}
				anyTrunc = anyTrunc || trunc
				row = append(row, markIf(f2(geomean(ratios)), trunc))
				scoreP[i] = geomean(relP)
				scoreN[i] = geomean(relN)
			}
			bestP, bestN := 0, 0
			for i := range names {
				if scoreP[i] < scoreP[bestP] {
					bestP = i
				}
				if scoreN[i] < scoreN[bestN] {
					bestN = i
				}
			}
			// A flip is a design pair the two rankings order oppositely (strict
			// on both sides, so ties never count).
			for i := range names {
				for j := i + 1; j < len(names); j++ {
					if (scoreP[i] < scoreP[j] && scoreN[i] > scoreN[j]) ||
						(scoreP[i] > scoreP[j] && scoreN[i] < scoreN[j]) {
						flips++
					}
				}
			}
			row = append(row, names[bestP], names[bestN])
			t.Rows = append(t.Rows, row)
		}
		t.Notes = append(t.Notes, fmt.Sprintf("design-ranking flips between the pipelined and naive orderings: %d design pairs across %d rows", flips, len(rows)))
		noteTruncation(t, anyTrunc)
		return t, nil
	})
}
