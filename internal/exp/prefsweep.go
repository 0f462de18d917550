package exp

import (
	"fmt"
	"math"

	"ltrf/internal/memsys"
	"ltrf/internal/sim"
)

// prefGrid is the latency-multiplier axis of the prefetcher sweep: a subset
// of the Figure 11-14 grid dense enough to show the trend (prefetching pays
// where latency hurts) at half the simulation cost of the full grid.
var prefGrid = []float64{1, 2, 4, 6}

// prefVariants are the prefetcher rows swept under every latency point. The
// CTA-aware variant runs with 4 resident CTAs per SM so the cross-warp
// tables have real CTA structure to exploit (and pay the per-CTA
// shared-memory occupancy split that comes with it).
var prefVariants = []struct {
	label string
	mode  memsys.PrefetchMode
	ctas  int
}{
	{"off", memsys.PrefetchOff, 0},
	{"stride", memsys.PrefetchStride, 0},
	{"cta", memsys.PrefetchCTA, 4},
}

// prefEval evaluates one point and returns its CPI, the memory-event view
// (the prefetch counters), and the truncation flag.
func prefEval(eval evalFunc, p Point) (float64, memsys.Events, bool, error) {
	res, err := eval(p)
	if err != nil {
		return 0, memsys.Events{}, false, err
	}
	if res.Instrs == 0 {
		return 0, memsys.Events{}, true, fmt.Errorf("exp: prefsweep point %s/%s retired nothing", p.Design, p.Workload)
	}
	return float64(res.Cycles) / float64(res.Instrs), res.Stats.Mem.Events, res.Truncated, nil
}

// PrefSweep renders the hardware-prefetcher contrast on the software-
// pipelined family: for every registered design, every latency point of
// prefGrid, and every prefetcher variant (off / per-warp stride RPT /
// CTA-aware), the equal-work CPI ratio of each pipelined kernel against its
// naive counterpart — plus the prefetcher's own accuracy and coverage. The
// family is the right probe because its members differ ONLY in software
// latency hiding: a prefetcher that hides the same latency in hardware
// should close the gap the naive member pays, so cells drift toward 1
// relative to the off row. The closing note counts exactly those points —
// the quantity the acceptance gate asserts is non-zero.
func PrefSweep(o Options) (*Table, error) {
	pairs := pipePairs(o)
	names, err := o.designSet()
	if err != nil {
		return nil, err
	}
	point := func(d sim.Design, latX float64, wl string, v int) Point {
		p := o.point(d, 1, latX, wl)
		p.Prefetch = string(prefVariants[v].mode)
		p.CTAs = prefVariants[v].ctas
		return p
	}

	return render(o, func(eval evalFunc) (*Table, error) {
		headers := []string{"Latency/pref"}
		headers = append(headers, names...)
		headers = append(headers, "acc", "cov")

		t := &Table{
			ID:      "prefsweep",
			Title:   "Hardware prefetching vs software pipelining: equal-work CPI ratio of each family pair with the prefetcher off, per-warp stride, and CTA-aware",
			Headers: headers,
			Notes: []string{
				"cells: CPI(pipelined)/CPI(naive) under the same design, latency, and prefetcher (geomean over family pairs; <1 = software pipelining wins)",
				"rows ending /stride run the PC-indexed RPT stride prefetcher; /cta layers the CTA-aware distance tables on it with 4 resident CTAs per SM",
				"acc: useful/issued prefetches; cov: useful/(useful+L2 demand misses) — both aggregated over the row's designs and family members",
				"prefetch fills are real DRAM bursts, so issued-but-unused lines still cost chip energy (see the chip energy model)",
			},
		}

		var anyTrunc bool
		// offRatio[design][pair] at each latency: the control the narrowing
		// count compares against.
		narrowed, total := 0, 0
		for _, x := range prefGrid {
			offRatio := map[string]map[string]float64{}
			for v, variant := range prefVariants {
				row := []string{fmt.Sprintf("%.0fx/%s", x, variant.label)}
				var issued, useful, misses int64
				for _, n := range names {
					var ratios []float64
					var trunc bool
					for _, pair := range pairs {
						pc, pev, pt, err := prefEval(eval, point(sim.Design(n), x, pair.Pipelined.Name, v))
						if err != nil {
							return nil, err
						}
						nc, nev, nt, err := prefEval(eval, point(sim.Design(n), x, pair.Naive.Name, v))
						if err != nil {
							return nil, err
						}
						ratio := pc / nc
						ratios = append(ratios, ratio)
						trunc = trunc || pt || nt
						issued += pev.PrefIssued + nev.PrefIssued
						useful += pev.PrefUseful + nev.PrefUseful
						misses += pev.L2Misses + nev.L2Misses
						if v == 0 {
							if offRatio[n] == nil {
								offRatio[n] = map[string]float64{}
							}
							offRatio[n][pair.Family] = ratio
						} else {
							total++
							if off := offRatio[n][pair.Family]; math.Abs(ratio-1) < math.Abs(off-1) {
								narrowed++
							}
						}
					}
					anyTrunc = anyTrunc || trunc
					row = append(row, markIf(f2(geomean(ratios)), trunc))
				}
				acc, cov := "-", "-"
				if issued > 0 {
					acc = f2(float64(useful) / float64(issued))
					cov = f2(float64(useful) / float64(useful+misses))
				}
				row = append(row, acc, cov)
				t.Rows = append(t.Rows, row)
			}
		}
		t.Notes = append(t.Notes, fmt.Sprintf("prefetching narrows the pipelined-vs-naive gap at %d of %d (design, pair, latency, prefetcher) points", narrowed, total))
		noteTruncation(t, anyTrunc)
		return t, nil
	})
}
