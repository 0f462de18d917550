package exp

import (
	"fmt"

	"ltrf/internal/core"
	"ltrf/internal/isa"
	"ltrf/internal/memtech"
	"ltrf/internal/workloads"
)

// Table1 reproduces the paper's Table 1: the average and maximum register
// file capacity the 35 workloads need to reach maximum TLP on Fermi-like
// (128KB baseline, 64-register cap, 1536 threads/SM, older compiler) and
// Maxwell-like (256KB, 256-register cap, 2048 threads/SM, unrolling
// compiler) configurations.
func Table1(o Options) (*Table, error) {
	type gpu struct {
		name       string
		baselineKB int
		regCap     int
		threads    int
		unroll     int
	}
	gpus := []gpu{
		{"Fermi (128KB)", 128, 64, 1536, workloads.UnrollFermi},
		{"Maxwell (256KB)", 256, 256, 2048, workloads.UnrollMaxwell},
	}
	t := &Table{
		ID:      "table1",
		Title:   "Register file capacity required to maximize TLP (35 workloads)",
		Headers: []string{"GPU (baseline RF)", "avg required", "max required"},
		Notes: []string{
			"required KB = min(register pressure, arch cap) x max threads x 4B",
			"paper: Fermi avg 184KB (1.4x) max 324KB (2.5x); Maxwell avg 588KB (2.3x) max 1504KB (5.9x)",
		},
	}
	eng := o.engine()
	for _, g := range gpus {
		all := workloads.PaperSuite()
		pressures := make([]int, len(all))
		err := parallelEach(o, len(all), func(i int) error {
			p, err := eng.Pressure(all[i].Name, g.unroll)
			if err != nil {
				return fmt.Errorf("table1: %s: %w", all[i].Name, err)
			}
			pressures[i] = p
			return nil
		})
		if err != nil {
			return nil, err
		}
		var sum, max float64
		for _, p := range pressures {
			if p > g.regCap {
				p = g.regCap
			}
			kb := float64(p*g.threads*4) / 1024
			sum += kb
			if kb > max {
				max = kb
			}
		}
		avg := sum / float64(len(all))
		t.Rows = append(t.Rows, []string{
			g.name,
			fmt.Sprintf("%.0fKB (%.1fx)", avg, avg/float64(g.baselineKB)),
			fmt.Sprintf("%.0fKB (%.1fx)", max, max/float64(g.baselineKB)),
		})
	}
	return t, nil
}

// Table2 reproduces the paper's Table 2: the seven register-file design
// points with capacity, area, power, and latency relative to configuration
// #1, plus this model's queueing-inclusive effective latency measurement.
func Table2(o Options) (*Table, error) {
	t := &Table{
		ID:      "table2",
		Title:   "Register file design points, normalized to configuration #1",
		Headers: []string{"Config", "Cell", "Banks", "BankKB", "Network", "Cap", "Area", "Power", "Cap/Area", "Cap/Power", "Latency", "EffLat(q)"},
		Notes: []string{
			"Latency = CACTI/NVSim-substitute timing inputs; EffLat(q) adds measured bank-conflict queueing at 1.0 reqs/cycle",
			"paper latency column: 1x 1.25x 1.5x 1.6x 2.8x 5.3x 6.3x",
		},
	}
	eng := o.engine()
	lat := make([]float64, len(memtech.Table2)) // queueing-inclusive latency per config
	err := parallelEach(o, len(lat), func(i int) (err error) {
		lat[i], err = eng.queueingLatency(i + 1)
		return err
	})
	if err != nil {
		return nil, err
	}
	for i := 1; i <= len(memtech.Table2); i++ {
		p := memtech.MustConfig(i)
		m := p.Metrics()
		eff := 0.0 // memtech.EffectiveLatencyX(p, 1.0), from the memoized runs
		if lat[0] != 0 {
			eff = lat[i-1] / lat[0]
		}
		t.Rows = append(t.Rows, []string{
			p.Name, p.Cell.String(),
			fmt.Sprintf("%d", p.Banks), fmt.Sprintf("%d", p.BankKB), p.Network.String(),
			f2(m.CapacityX), f2(m.AreaX), f2(m.PowerX),
			f2(m.CapPerAreaX), f1(m.CapPerPowerX),
			f2(m.LatencyX), f2(eff),
		})
	}
	return t, nil
}

// table2Traffic is the operand-request rate, in requests per cycle, of
// Table 2's queueing measurement.
const table2Traffic = 1.0

// queueingLatency is memtech.QueueingLatency of Table 2 config cfg at
// table2Traffic, run once per engine.
func (e *Engine) queueingLatency(cfg int) (float64, error) {
	return e.queueing.get(cfg, func() (float64, error) {
		p, err := memtech.Config(cfg)
		if err != nil {
			return 0, err
		}
		return memtech.QueueingLatency(p, table2Traffic), nil
	})
}

// traceKernel replays a kernel's dynamic instruction stream for one
// representative warp: counted loops use trip counts, probabilistic
// branches a deterministic RNG — the same semantics as the simulator's
// walker.
func traceKernel(p *isa.Program, maxInstrs int, seed uint64) []int {
	var out []int
	iter := make([]int32, len(p.Instrs))
	rng := seed*0x9E3779B97F4A7C15 + 0xDEADBEEF | 1
	rand01 := func() float64 {
		rng ^= rng >> 12
		rng ^= rng << 25
		rng ^= rng >> 27
		return float64((rng*0x2545F4914F6CDD1D)>>11) / float64(1<<53)
	}
	pc := 0
	for len(out) < maxInstrs {
		out = append(out, pc)
		in := &p.Instrs[pc]
		switch in.Op {
		case isa.OpBra:
			pc = in.Target
		case isa.OpBraCond:
			if in.Trip > 0 {
				iter[pc]++
				if int(iter[pc]) < in.Trip {
					pc = in.Target
				} else {
					iter[pc] = 0
					pc++
				}
			} else if rand01() < in.TakenProb {
				pc = in.Target
			} else {
				pc++
			}
		case isa.OpExit:
			return out
		default:
			pc++
		}
	}
	return out
}

// dynamicIntervalLengths splits a dynamic trace at register-interval
// boundaries, returning the run lengths (dynamic instructions per PREFETCH)
// and the trace index where each run starts.
func dynamicIntervalLengths(part *core.Partition, trace []int) (lengths, starts []int) {
	cur := -1
	run := 0
	for i, pc := range trace {
		if id := part.UnitID(pc); id != cur {
			if run > 0 {
				lengths = append(lengths, run)
			}
			starts = append(starts, i)
			cur = id
			run = 0
		}
		run++
	}
	if run > 0 {
		lengths = append(lengths, run)
	}
	return lengths, starts
}

// optimalIntervalLengths computes, for each real-interval start position in
// the trace, the maximal run of consecutive dynamic instructions whose
// distinct register set stays within n — the paper's "optimal
// register-interval length" (§6.5: "the number of consecutive dynamic
// instructions in a kernel's execution trace that consume at most the
// maximum number of allowed registers"). Measuring the maximal window at
// every real boundary makes optimal a true per-run upper bound: the real
// interval starting there is itself such a window.
func optimalIntervalLengths(p *isa.Program, trace []int, starts []int, n int) []int {
	lengths := make([]int, 0, len(starts))
	for _, s := range starts {
		distinct := map[isa.Reg]bool{}
		run := 0
		for i := s; i < len(trace); i++ {
			regs := p.Instrs[trace[i]].Regs()
			added := 0
			for _, r := range regs {
				if !distinct[r] {
					added++
				}
			}
			if len(distinct)+added > n {
				break
			}
			for _, r := range regs {
				distinct[r] = true
			}
			run++
		}
		if run > 0 {
			lengths = append(lengths, run)
		}
	}
	return lengths
}

// Table4 reproduces the paper's Table 4: average, minimum, and maximum
// dynamic lengths of real register-intervals vs. the optimal upper bound,
// across the 35 workloads.
func Table4(o Options) (*Table, error) {
	traceLen := 4000
	if o.Quick {
		traceLen = 1500
	}
	type agg struct {
		realAvgs, optAvgs []float64
		realMin, realMax  int
		optMin, optMax    int
	}
	newAgg := func() *agg { return &agg{realMin: 1 << 30, optMin: 1 << 30} }
	add := func(a *agg, rAvg, oAvg float64) {
		a.realAvgs = append(a.realAvgs, rAvg)
		a.optAvgs = append(a.optAvgs, oAvg)
		if v := int(rAvg); v < a.realMin {
			a.realMin = v
		}
		if v := int(rAvg); v > a.realMax {
			a.realMax = v
		}
		if v := int(oAvg); v < a.optMin {
			a.optMin = v
		}
		if v := int(oAvg); v > a.optMax {
			a.optMax = v
		}
	}

	// Per-workload measurement is independent: analyze in parallel into
	// index-addressed slots, then aggregate serially in suite order so the
	// statistics are identical at any parallelism.
	wsAll := workloads.PaperSuite()
	eng := o.engine()
	ms := make([]intervalMeasure, len(wsAll))
	err := parallelEach(o, len(wsAll), func(i int) (err error) {
		ms[i], err = eng.measureIntervals(wsAll[i].Name, traceLen)
		return err
	})
	if err != nil {
		return nil, err
	}

	all := newAgg()
	multi := newAgg() // workloads whose kernels span several intervals
	for _, m := range ms {
		if !m.ok {
			continue
		}
		add(all, m.rAvg, m.oAvg)
		if m.multi {
			add(multi, m.rAvg, m.oAvg)
		}
	}
	t := &Table{
		ID:      "table4",
		Title:   "Register-interval dynamic lengths across 35 workloads (N=16)",
		Headers: []string{"Register-Interval Length", "Average", "Minimum", "Maximum"},
		Notes: []string{
			"per-workload average lengths; min/max over workloads (paper: real 31.2/7/45, optimal 34.7/9/53)",
			"multi-interval rows restrict to kernels spanning >=4 intervals, the register-rich regime the paper's suite sits in;",
			"small kernels whose whole loop nest fits one interval (one PREFETCH total) dominate the unrestricted average",
			fmt.Sprintf("real/optimal ratio (multi-interval) = %.0f%% (paper: 89%%)", 100*mean(multi.realAvgs)/mean(multi.optAvgs)),
		},
	}
	t.Rows = append(t.Rows,
		[]string{"Real (multi-interval)", f1(mean(multi.realAvgs)), fmt.Sprintf("%d", multi.realMin), fmt.Sprintf("%d", multi.realMax)},
		[]string{"Optimal (multi-interval)", f1(mean(multi.optAvgs)), fmt.Sprintf("%d", multi.optMin), fmt.Sprintf("%d", multi.optMax)},
		[]string{"Real (all 35)", f1(mean(all.realAvgs)), fmt.Sprintf("%d", all.realMin), fmt.Sprintf("%d", all.realMax)},
		[]string{"Optimal (all 35)", f1(mean(all.optAvgs)), fmt.Sprintf("%d", all.optMin), fmt.Sprintf("%d", all.optMax)},
	)
	return t, nil
}

// table4Regs is Table 4's register budget per interval (the paper's N).
const table4Regs = 16

type intervalKey struct {
	workload string
	traceLen int
}

// intervalMeasure is one workload's Table 4 measurement: the mean real and
// optimal interval lengths over a traceLen-instruction trace (ok is false
// when the trace has no interval to measure), and whether the kernel spans
// several intervals.
type intervalMeasure struct {
	ok         bool
	rAvg, oAvg float64
	multi      bool
}

// measureIntervals measures one workload for Table 4, once per engine.
func (e *Engine) measureIntervals(workload string, traceLen int) (intervalMeasure, error) {
	return e.intervals.get(intervalKey{workload, traceLen}, func() (intervalMeasure, error) {
		prog, part, err := e.Intervals(workload, workloads.UnrollMaxwell, 255, table4Regs)
		if err != nil {
			return intervalMeasure{}, fmt.Errorf("table4: %s: %w", workload, err)
		}
		trace := traceKernel(prog, traceLen, 7)
		real, starts := dynamicIntervalLengths(part, trace)
		opt := optimalIntervalLengths(prog, trace, starts, table4Regs)
		if len(real) == 0 || len(opt) == 0 {
			return intervalMeasure{}, nil
		}
		return intervalMeasure{
			ok:    true,
			rAvg:  meanInts(real),
			oAvg:  meanInts(opt),
			multi: part.NumUnits() >= 4,
		}, nil
	})
}

func meanInts(vs []int) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := 0
	for _, v := range vs {
		s += v
	}
	return float64(s) / float64(len(vs))
}
