// Command ltrf-sim runs one workload on the simulated GPU under a chosen
// register-file design and prints the outcome, including both energy
// accounts: the register-file-only breakdown (Figure 10's scope) and the
// chip-level one (RF + L1/L2/DRAM + shared memory + SM pipelines), whose
// EDP is the honest figure of merit for designs that trade memory-system
// or pipeline cost for RF savings.
//
// Usage:
//
//	ltrf-sim -workload sgemm -design LTRF -latency 6.3
//	ltrf-sim -workload btree -design RFC -tech 7
//	ltrf-sim -workload regpipe -design LTRF -latency 6.3 -sched static
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"

	"ltrf"
)

// resolveDesign matches a -design argument against the design registry
// (case-insensitive via DesignByName), with the historical "LTRFstrand"
// spelling kept as an alias. The error for an unknown design lists every
// registered name.
func resolveDesign(s string) (ltrf.Design, error) {
	if strings.EqualFold(s, "LTRFstrand") {
		return ltrf.LTRFStrand, nil
	}
	return ltrf.DesignByName(s)
}

func main() {
	var (
		workload = flag.String("workload", "sgemm", "workload name (see -list)")
		design   = flag.String("design", "LTRF", "registered design name (BL | RFC | SHRF | LTRF | LTRF+ | LTRF(strand) | Ideal | comp | regdem | ...)")
		tech     = flag.Int("tech", 1, "Table 2 main register file config (1..7)")
		latency  = flag.Float64("latency", 1.0, "main RF latency multiplier (0 = 1x)")
		warps    = flag.Int("active", 0, "active warps (0 = Table 3 default of 8)")
		n        = flag.Int("n", 0, "registers per register-interval (0 = default 16)")
		instrs   = flag.Int64("instrs", 0, "dynamic instruction budget (0 = default)")
		sched    = flag.String("sched", "", "warp scheduler: twolevel (default) | static | flat")
		prefetch = flag.String("prefetch", "", "hardware prefetcher: off (default) | stride | cta")
		ctas     = flag.Int("ctas", 0, "resident CTAs per SM (0 = one CTA; splits warps, barriers, and the shared-memory budget)")
		timeout  = flag.Duration("timeout", 0, "abort the simulation after this duration (0 = none); Ctrl-C aborts too")
		list     = flag.Bool("list", false, "list workloads")
	)
	flag.Parse()

	if *list {
		for _, w := range ltrf.Workloads() {
			class := "insensitive"
			if w.Sensitive {
				class = "sensitive"
			}
			extra := ""
			if w.Eval {
				extra += " [eval]"
			}
			if w.Family != "" {
				role := "naive"
				if w.Pipelined {
					role = "pipelined"
				}
				extra += fmt.Sprintf(" [family:%s %s]", w.Family, role)
			}
			fmt.Printf("%-14s %-9s %s%s\n", w.Name, w.Suite, class, extra)
		}
		return
	}

	d, err := resolveDesign(*design)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ltrf-sim:", err)
		os.Exit(2)
	}
	w, err := ltrf.WorkloadByName(*workload)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ltrf-sim:", err)
		os.Exit(2)
	}
	// The facade reads TechConfig 0 as "the default config", which the
	// header would then misreport as "tech #0".
	if _, err := ltrf.Tech(*tech); err != nil {
		fmt.Fprintf(os.Stderr, "ltrf-sim: -tech %d: %v\n", *tech, err)
		os.Exit(2)
	}
	// SIGINT/SIGTERM and -timeout both cancel the simulation through the
	// simulator's context plumbing — it stops inside the advance loop
	// instead of running to completion and being discarded.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}
	res, err := ltrf.SimulateContext(ctx, ltrf.SimOptions{
		Design: d, TechConfig: *tech, LatencyX: *latency,
		ActiveWarps: *warps, IntervalRegs: *n, MaxInstrs: *instrs,
		Scheduler: ltrf.Scheduler(*sched),
		Prefetch:  *prefetch,
		CTAsPerSM: *ctas,
	}, w.Build(3))
	if err != nil {
		fmt.Fprintln(os.Stderr, "ltrf-sim:", err)
		os.Exit(1)
	}

	fmt.Printf("workload        %s (%s)\n", w.Name, w.Suite)
	fmt.Printf("design          %s, tech #%d, latency %.2fx\n", res.Design, *tech, res.Config.LatencyX)
	fmt.Printf("warps           %d resident (%d regs/thread, demand %d, spilled %d)\n",
		res.Warps, res.RegsPerThread, res.Demand, res.SpilledRegs)
	fmt.Printf("IPC             %.3f (%d instrs / %d cycles)\n", res.IPC, res.Instrs, res.Cycles)
	fmt.Printf("prefetch        %d ops, %d regs, %d stall cycles, %d units\n",
		res.RF.Prefetches, res.RF.PrefetchRegs, res.PrefetchStallCycles, res.PrefetchUnits)
	fmt.Printf("main RF         %d reads, %d writes\n", res.RF.MainReads, res.RF.MainWrites)
	fmt.Printf("cache           %.1f%% read hit rate, %d writebacks\n",
		100*res.RF.ReadHitRate(), res.RF.WritebackRegs)
	fmt.Printf("scheduler       %d activations, %d deactivations\n", res.Activations, res.Deactivations)
	fmt.Printf("memory          L1 %.1f%%, L2 %.1f%%, DRAM row hit %.1f%%\n",
		100*res.Mem.L1HitRate, 100*res.Mem.L2HitRate, 100*res.Mem.DRAMRowHit)
	if res.Mem.PrefIssued > 0 || res.Mem.PrefDropped > 0 {
		fmt.Printf("hw prefetch     %d issued (%d useful, %d late, %d unused), %d dropped\n",
			res.Mem.PrefIssued, res.Mem.PrefUseful, res.Mem.PrefLate, res.Mem.PrefUnused, res.Mem.PrefDropped)
	}

	rf, err := ltrf.RFEnergy(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ltrf-sim:", err)
		os.Exit(1)
	}
	chip, err := ltrf.ChipEnergy(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ltrf-sim:", err)
		os.Exit(1)
	}
	fmt.Printf("RF energy       %.3g (EDP %.3g)\n", rf.Total(), rf.EDP(res.Cycles))
	fmt.Printf("chip energy     %.3g (EDP %.3g; RF %.0f%%, memsys %.0f%%, SM %.0f%%)\n",
		chip.Total(), chip.EDP(res.Cycles),
		100*chip.RF.Total()/chip.Total(),
		100*chip.MemsysTotal()/chip.Total(),
		100*chip.SMTotal()/chip.Total())

	// Truncation (the cycle cap fired before the instruction budget) makes
	// every number above a lower bound over less work than requested — exit
	// distinctly so scripts never mistake a starved run for a full sample.
	if res.Truncated {
		fmt.Fprintf(os.Stderr, "ltrf-sim: WARNING: truncated run — cycle cap %d fired at %d/%d instrs; stats cover less work than requested\n",
			res.Config.MaxCycles, res.Instrs, res.Config.MaxInstrs)
		os.Exit(3)
	}
}
