package ltrf_test

import (
	"fmt"
	"log"
	"os"

	"ltrf"
)

// quickstartKernel builds a tiled kernel: the outer loop streams data in,
// the inner loop does register-blocked FMAs on a working set that fits one
// register-interval.
func quickstartKernel() *ltrf.Program {
	b := ltrf.NewKernel("quickstart")
	r := b.RegN(12)
	for i, reg := range r {
		b.IMovImm(reg, int64(i))
	}
	b.Loop(8, func() {
		b.LdGlobal(r[0], r[1], ltrf.MemAccess{Pattern: ltrf.Coalesced, Region: 0, FootprintB: 2 << 20})
		b.Loop(8, func() {
			b.FFMA(r[4], r[0], r[10], r[4])
			b.FFMA(r[5], r[0], r[11], r[5])
			b.FFMA(r[6], r[4], r[5], r[6])
			b.FAdd(r[7], r[6], r[7])
		})
		b.StGlobal(r[1], r[7], ltrf.MemAccess{Pattern: ltrf.Coalesced, Region: 1, FootprintB: 2 << 20})
		b.IAddImm(r[1], r[1], 4)
	})
	return b.MustBuild()
}

// Compile the quickstart kernel with the LTRF register-interval pass, then
// compare the baseline register file against LTRF when the main register
// file is 6.3x slower (the DWM design point of the paper's Table 2).
func ExampleSimulate() {
	kernel := quickstartKernel()

	// Compile: register allocation + register-interval formation.
	compiled, err := ltrf.Compile(kernel, ltrf.CompileOptions{})
	if err != nil {
		log.Fatal(err)
	}
	sum := compiled.Intervals.Summary()
	fmt.Printf("kernel %q: %d instrs, demand %d regs/thread\n",
		kernel.Name, kernel.NumInstrs(), compiled.Demand)
	fmt.Printf("register-intervals: %d (mean %.1f instrs, mean working set %.1f regs)\n",
		sum.Units, sum.MeanStatic, sum.MeanWorkingSet)

	// Simulate under the conventional register file and under LTRF with a
	// 6.3x slower main register file.
	for _, run := range []struct {
		name string
		opts ltrf.SimOptions
	}{
		{"BL   @1.0x", ltrf.SimOptions{Design: ltrf.BL, LatencyX: 1.0}},
		{"BL   @6.3x", ltrf.SimOptions{Design: ltrf.BL, LatencyX: 6.3}},
		{"LTRF @6.3x", ltrf.SimOptions{Design: ltrf.LTRF, LatencyX: 6.3}},
	} {
		res, err := ltrf.Simulate(run.opts, kernel)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%s  IPC %.3f  (main RF accesses: %d)\n",
			run.name, res.IPC, res.RF.MainAccesses())
	}
	fmt.Println("\nLTRF holds its IPC on the slow register file because every operand")
	fmt.Println("read hits the register cache; only batched PREFETCHes touch the main RF.")
	// Output:
	// kernel "quickstart": 28 instrs, demand 11 regs/thread
	// register-intervals: 1 (mean 28.0 instrs, mean working set 11.0 regs)
	// BL   @1.0x  IPC 0.973  (main RF accesses: 88896)
	// BL   @6.3x  IPC 0.327  (main RF accesses: 88896)
	// LTRF @6.3x  IPC 1.322  (main RF accesses: 11008)
	//
	// LTRF holds its IPC on the slow register file because every operand
	// read hits the register cache; only batched PREFETCHes touch the main RF.
}

// Reproduce the paper's Figure 6 walkthrough: a nested loop whose inner
// loop becomes its own register-interval in pass 1 and is merged into the
// outer loop's interval by pass 2, contrasted with strand formation.
func ExampleCompile() {
	// Figure 6's CFG: block A (outer loop) containing blocks B,C (inner
	// loop).
	b := ltrf.NewKernel("figure6")
	r := b.RegN(4)
	b.IMovImm(r[0], 0)
	b.Loop(3, func() { // A
		b.IAdd(r[1], r[0], r[0])
		b.Loop(4, func() { // B, C
			b.IMul(r[2], r[1], r[1])
			b.IAdd(r[3], r[2], r[0])
		})
	})
	kernel := b.MustBuild()
	fmt.Print(kernel.String())

	for _, n := range []int{16, 4} {
		c, err := ltrf.Compile(kernel, ltrf.CompileOptions{IntervalRegs: n})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("\nN = %d registers per interval:\n", n)
		fmt.Printf("  register-intervals: %d\n", c.Intervals.NumUnits())
		for _, u := range c.Intervals.Units {
			fmt.Printf("    %v  working set %v\n", u, u.WorkingSet)
		}
		fmt.Printf("  strands: %d (strands end at every backward branch)\n", c.Strands.NumUnits())
	}

	fmt.Println("\nWith an ample budget the whole nested loop reduces to ONE register-")
	fmt.Println("interval (one PREFETCH per kernel); with a tight budget the loops split,")
	fmt.Println("which is exactly the degradation Figure 12's 8-register curve shows.")
	// Output:
	// .kernel figure6  // 13 instrs, 8 regs
	//    0: imov.imm R0, #0
	//    1: imov.imm R4, #0
	//    2: iadd R1, R0, R0
	//    3: imov.imm R6, #0
	//    4: imul R2, R1, R1
	//    5: iadd R3, R2, R0
	//    6: iadd.imm R6, R6
	//    7: setp.imm R7, R6
	//    8: bra.cond R7, @4 trip=4
	//    9: iadd.imm R4, R4
	//   10: setp.imm R5, R4
	//   11: bra.cond R5, @2 trip=3
	//   12: exit
	//
	// N = 16 registers per interval:
	//   register-intervals: 1
	//     unit0{entry=0 ws=6 instrs=[0,2) [2,4) [4,9) [9,12) [12,13)}  working set {0, 1, 2, 3, 4, 5}
	//   strands: 7 (strands end at every backward branch)
	//
	// N = 4 registers per interval:
	//   register-intervals: 4
	//     unit0{entry=0 ws=2 instrs=[0,2)}  working set {0, 1}
	//     unit1{entry=2 ws=3 instrs=[2,4)}  working set {0, 2, 3}
	//     unit2{entry=4 ws=4 instrs=[4,6)}  working set {0, 2, 4, 5}
	//     unit3{entry=6 ws=4 instrs=[6,9) [9,12) [12,13)}  working set {1, 2, 3, 4}
	//   strands: 8 (strands end at every backward branch)
	//
	// With an ample budget the whole nested loop reduces to ONE register-
	// interval (one PREFETCH per kernel); with a tight budget the loops split,
	// which is exactly the degradation Figure 12's 8-register curve shows.
}

// Rank every registered design by energy-delay product as the main
// register file slows down, under both energy accounts: register-file-only
// EDP and the chip-level EDP that adds L1/L2/DRAM, shared-memory and
// SM-pipeline energy. A design that wins RF energy by stalling the memory
// system looks good under the first account and loses under the second;
// rows where the two frontiers disagree are exactly those mis-rankings.
//
// The example first shows the kernel-dependent capacity hooks at work:
// comp's occupancy gain follows the kernel's measured compressibility
// coverage, and regdem's follows the spill set that fits next to the
// workload's own shared-memory usage (none on shared-memory-heavy kernels,
// where the design falls back to the baseline partitioning). It then runs
// the designsweep experiment (`ltrf-experiments -run designsweep`) over a
// small workload subset and reads both frontiers off the rendered table.
func ExampleDesignCapacityX() {
	// One compute-heavy, one shared-memory-heavy, one streaming workload:
	// enough to see the capacity hooks disagree per kernel.
	names := []string{"sgemm", "pathfinder", "vectoradd"}

	fmt.Println("kernel-dependent capacity scales (config #1, Table 3 system):")
	fmt.Printf("%-12s %8s %8s\n", "workload", "comp", "regdem")
	for _, wn := range names {
		w, err := ltrf.WorkloadByName(wn)
		if err != nil {
			log.Fatal(err)
		}
		kernel := w.Build(ltrf.UnrollMaxwell) // the unroll the designsweep table uses
		comp, err := ltrf.DesignCapacityX(ltrf.Design("comp"), 1, kernel)
		if err != nil {
			log.Fatal(err)
		}
		regdem, err := ltrf.DesignCapacityX(ltrf.Design("regdem"), 1, kernel)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-12s %7.2fx %7.2fx\n", wn, comp, regdem)
	}

	fmt.Println("\nenergy-delay frontier across the latency sweep:")
	t, err := ltrf.RunExperiment("designsweep", ltrf.ExperimentOptions{
		Quick:     true,
		Workloads: names,
	})
	if err != nil {
		log.Fatal(err)
	}
	t.Fprint(os.Stdout)

	// The two frontiers are the last two columns of each row: RF-only and
	// chip-level. Disagreements are the designs the RF-only yardstick
	// mis-ranks.
	fmt.Println()
	for _, row := range t.Rows {
		bestRF, bestChip := row[len(row)-2], row[len(row)-1]
		verdict := "the accounts agree"
		if bestRF != bestChip {
			verdict = "the RF-only account mis-ranks the frontier"
		}
		fmt.Printf("at %-3s lowest RF-EDP: %-12s lowest chip-EDP: %-12s (%s)\n",
			row[0], bestRF, bestChip, verdict)
	}
	// Output:
	// kernel-dependent capacity scales (config #1, Table 3 system):
	// workload         comp   regdem
	// sgemm           1.05x    1.15x
	// pathfinder      1.20x    1.00x
	// vectoradd       1.29x    1.00x
	//
	// energy-delay frontier across the latency sweep:
	// == designsweep: Design sweep: RF-only vs chip-level EDP of every registered design vs. latency (config #1) ==
	// Latency  BL    BL(chip)  Ideal  Ideal(chip)  LTRF  LTRF(chip)  LTRF(strand)  LTRF(strand)(chip)  LTRF+  LTRF+(chip)  RFC   RFC(chip)  SHRF  SHRF(chip)  comp  comp(chip)  regdem  regdem(chip)  best(rf)  best(chip)
	// 1x       1.00  1.00      1.00   1.00         0.59  0.61        0.65          0.66                0.58   0.60         0.84  0.84       0.71  0.72        0.91  0.93        1.02    1.03          LTRF+     LTRF+
	// 2x       1.43  1.42      1.00   1.00         0.59  0.61        0.65          0.66                0.58   0.60         1.23  1.20       0.99  1.00        1.26  1.27        1.45    1.45          LTRF+     LTRF+
	// 3x       2.08  2.05      1.00   1.00         0.60  0.61        0.66          0.67                0.58   0.60         1.71  1.67       1.37  1.36        1.76  1.77        2.09    2.07          LTRF+     LTRF+
	// 4x       2.95  2.90      1.00   1.00         0.61  0.62        0.70          0.71                0.59   0.61         2.34  2.26       1.81  1.79        2.50  2.49        2.93    2.89          LTRF+     LTRF+
	// 5x       4.09  4.00      1.00   1.00         0.62  0.64        0.72          0.73                0.60   0.62         3.09  2.96       2.34  2.29        3.31  3.28        4.04    3.96          LTRF+     LTRF+
	// 6x       5.43  5.30      1.00   1.00         0.63  0.64        0.76          0.77                0.61   0.63         3.96  3.77       2.92  2.84        4.42  4.36        5.33    5.21          LTRF+     LTRF+
	// 7x       7.01  6.83      1.00   1.00         0.64  0.65        0.80          0.80                0.62   0.64         4.99  4.73       3.55  3.44        5.53  5.45        6.88    6.70          LTRF+     LTRF+
	// 8x       8.75  8.51      1.00   1.00         0.66  0.67        0.84          0.84                0.63   0.65         6.21  5.87       4.25  4.09        7.14  7.00        8.58    8.35          LTRF+     LTRF+
	// note: cells: energy-delay product relative to BL at 1x under the same account on the same workload (geomean over workloads; lower is better)
	// note: <design> scores register-file energy only; <design>(chip) adds L1/L2/DRAM, shared memory, and SM pipelines (power.ChipBreakdown)
	// note: best(rf)/best(chip): the lowest-EDP design under each account — rows where they differ are designs the RF-only yardstick mis-ranks
	// note: columns enumerated from the regfile design registry; energy through each descriptor's hooks (power.NewModelFor / NewChipModelFor)
	//
	// at 1x  lowest RF-EDP: LTRF+        lowest chip-EDP: LTRF+        (the accounts agree)
	// at 2x  lowest RF-EDP: LTRF+        lowest chip-EDP: LTRF+        (the accounts agree)
	// at 3x  lowest RF-EDP: LTRF+        lowest chip-EDP: LTRF+        (the accounts agree)
	// at 4x  lowest RF-EDP: LTRF+        lowest chip-EDP: LTRF+        (the accounts agree)
	// at 5x  lowest RF-EDP: LTRF+        lowest chip-EDP: LTRF+        (the accounts agree)
	// at 6x  lowest RF-EDP: LTRF+        lowest chip-EDP: LTRF+        (the accounts agree)
	// at 7x  lowest RF-EDP: LTRF+        lowest chip-EDP: LTRF+        (the accounts agree)
	// at 8x  lowest RF-EDP: LTRF+        lowest chip-EDP: LTRF+        (the accounts agree)
}

// Regenerate the shape of the paper's Figure 14 for one workload:
// normalized IPC of the competing register-file designs as the main
// register file slows from 1x to 8x, each series normalized to its own 1x
// IPC. LTRF with register-intervals stays near 1.0 across the sweep, the
// latency tolerance that lets the paper adopt 8x-capacity DWM/TFET files.
func ExampleRunExperiment_latencySweep() {
	t, err := ltrf.RunExperiment("figure14", ltrf.ExperimentOptions{
		Quick:     true,
		Workloads: []string{"sgemm"},
	})
	if err != nil {
		log.Fatal(err)
	}
	t.Fprint(os.Stdout)
	// Output:
	// == figure14: LTRF vs. software-managed register caching under latency ==
	// Latency  BL    RFC   SHRF  LTRF(strand)  LTRF(interval)
	// 1x       1.00  1.00  1.00  1.00          1.00
	// 2x       0.79  0.77  0.68  1.00          1.00
	// 3x       0.62  0.61  0.51  1.00          1.00
	// 4x       0.49  0.50  0.40  0.97          0.98
	// 5x       0.41  0.41  0.33  0.97          0.98
	// 6x       0.35  0.36  0.28  0.96          0.97
	// 7x       0.30  0.31  0.25  0.94          0.95
	// 8x       0.27  0.28  0.22  0.92          0.93
	// note: each series normalized to its own 1x IPC
	// note: paper: SHRF ~ RFC (tolerate ~2x); LTRF(strand) ~3x; LTRF(interval) 5.3x
}

// Compare every register-file design in the open registry, the paper's
// seven comparison points plus the comp (static data compression) and
// regdem (shared-memory register demotion) plugins, on one
// register-sensitive workload at the 8x TFET-SRAM technology point
// (config #6), normalized to the baseline register file on config #1. The
// designspace experiment renders one column per registered name, so a
// design added with the internal registry shows up here unnamed.
func ExampleDesigns() {
	t, err := ltrf.RunExperiment("designspace", ltrf.ExperimentOptions{
		Quick:     true,
		Workloads: []string{"sgemm"},
		Designs:   ltrf.Designs(),
	})
	if err != nil {
		log.Fatal(err)
	}
	t.Fprint(os.Stdout)
	// Output:
	// == designspace: Design space: normalized IPC of every registered design (config #6) ==
	// Workload       BL    Ideal  LTRF  LTRF(strand)  LTRF+  RFC   SHRF  comp  regdem
	// sgemm (S)      1.16  1.70   1.78  1.75          1.88   1.25  1.31  1.21  1.16
	// geomean IPC    1.16  1.70   1.78  1.75          1.88   1.25  1.31  1.21  1.16
	// mean RF power  0.87  1.03   1.47  1.46          1.10   0.95  0.98  0.86  0.86
	// note: IPC normalized to BL on configuration #1 (+16KB, §5); columns enumerated from the regfile design registry
	// note: power row: mean RF power relative to the BL/#1 baseline, via each descriptor's energy hook
}

// Regenerate the paper's Table 1: how much register file capacity the
// workloads need for maximum thread-level parallelism, against the
// Fermi and Maxwell baseline register files. Workloads needing more than
// the baseline are the register-sensitive set: an 8x register file (Table 2
// configs #6/#7) restores their occupancy, if the added latency is hidden,
// which is what LTRF is for.
func ExampleRunExperiment() {
	t, err := ltrf.RunExperiment("table1", ltrf.ExperimentOptions{Quick: true})
	if err != nil {
		log.Fatal(err)
	}
	t.Fprint(os.Stdout)
	// Output:
	// == table1: Register file capacity required to maximize TLP (35 workloads) ==
	// GPU (baseline RF)  avg required  max required
	// Fermi (128KB)      169KB (1.3x)  372KB (2.9x)
	// Maxwell (256KB)    568KB (2.2x)  1328KB (5.2x)
	// note: required KB = min(register pressure, arch cap) x max threads x 4B
	// note: paper: Fermi avg 184KB (1.4x) max 324KB (2.5x); Maxwell avg 588KB (2.3x) max 1504KB (5.9x)
}
