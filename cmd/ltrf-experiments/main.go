// Command ltrf-experiments regenerates the tables and figures of the LTRF
// paper's evaluation.
//
// Usage:
//
//	ltrf-experiments -list
//	ltrf-experiments -run figure9
//	ltrf-experiments -run designspace -design LTRF,comp,regdem
//	ltrf-experiments -all [-quick] [-parallel 8] [-workloads sgemm,stencil,btree]
//
// Experiments declare their simulation points up front and evaluate them on
// a worker pool (-parallel, default GOMAXPROCS) with results memoized
// across the whole invocation; tables are rendered serially from the memo,
// so output is byte-identical at any parallelism.
//
// The designsweep experiment scores every registered design under BOTH
// energy accounts — register-file-only EDP and chip-level EDP (RF +
// L1/L2/DRAM + shared memory + SM pipelines) — with a best-design column
// for each; rows where the two best columns differ are designs the RF-only
// yardstick mis-ranks.
//
// The pipesweep experiment contrasts each software-pipelined workload with
// its naive counterpart of identical work across every registered design,
// the latency grid, and the scheduler variants (static/flat rows at 6x);
// its flip note counts the design orderings that disagree between the two
// kernel styles:
//
//	ltrf-experiments -run pipesweep -quick
//	ltrf-experiments -run pipesweep -workloads smempipe
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"strings"
	"syscall"
	"time"

	"ltrf"
)

// main delegates to realMain so deferred cleanup — notably flushing the
// pprof profiles — runs on EVERY exit path, including errors: os.Exit
// skips defers, so it must only happen out here, after realMain's defers
// have finished.
func main() {
	os.Exit(realMain())
}

func realMain() int {
	var (
		list       = flag.Bool("list", false, "list available experiments")
		run        = flag.String("run", "", "run one experiment by id (e.g. figure9)")
		all        = flag.Bool("all", false, "run every experiment")
		quick      = flag.Bool("quick", false, "reduced instruction budgets (faster, noisier)")
		parallel   = flag.Int("parallel", 0, "concurrent simulations (0 = GOMAXPROCS)")
		subset     = flag.String("workloads", "", "comma-separated workload subset for simulation experiments")
		designs    = flag.String("design", "", "comma-separated design subset for registry-driven experiments like designspace (default: every registered design)")
		cpuProfile = flag.String("cpuprofile", "", "write a pprof CPU profile of the run to this file")
		memProfile = flag.String("memprofile", "", "write a pprof allocation profile at exit to this file")
		storeDir   = flag.String("store", "", "persist results in a crash-safe store at this directory (reused across runs; corrupt entries are quarantined and recomputed)")
	)
	flag.Parse()

	// Profiling hooks so perf work on the simulator and the experiment
	// engine can attach pprof evidence without patching the binary:
	//
	//	ltrf-experiments -all -quick -cpuprofile cpu.out -memprofile mem.out
	//	go tool pprof cpu.out
	//
	// A failing run still yields valid (partial) profiles — often the
	// interesting case when debugging a hang or a slow error path.
	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "ltrf-experiments:", err)
			return 1
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "ltrf-experiments:", err)
			return 1
		}
		defer pprof.StopCPUProfile()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				fmt.Fprintln(os.Stderr, "ltrf-experiments:", err)
				return
			}
			defer f.Close()
			runtime.GC() // materialize up-to-date allocation statistics
			if err := pprof.Lookup("allocs").WriteTo(f, 0); err != nil {
				fmt.Fprintln(os.Stderr, "ltrf-experiments:", err)
			}
		}()
	}

	// SIGINT/SIGTERM cancel the in-flight sweep through the engine's
	// context plumbing: workers stop dispatching, in-flight simulations
	// stop inside the advance loop, and the deferred pprof flushes above
	// still run — an interrupted profile is often the interesting one.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	o := ltrf.ExperimentOptions{Ctx: ctx, Quick: *quick, Parallelism: *parallel}
	if *subset != "" {
		o.Workloads = strings.Split(*subset, ",")
	}
	if *designs != "" {
		o.Designs = strings.Split(*designs, ",")
	}
	// A private engine (persistent when -store is set) rather than the
	// process-wide default, so point failures can be counted and surfaced
	// as a non-zero exit after rendering.
	if *storeDir != "" {
		eng, err := ltrf.NewPersistentExperimentEngine(*storeDir)
		if err != nil {
			fmt.Fprintln(os.Stderr, "ltrf-experiments:", err)
			return 1
		}
		o.Engine = eng
	} else {
		o.Engine = ltrf.NewExperimentEngine()
	}

	// checkFailures turns silently-memoized point errors into a visible
	// non-zero exit once the tables (with their error cells) have rendered.
	checkFailures := func() int {
		if n := o.Engine.Failures(); n > 0 {
			fmt.Fprintf(os.Stderr, "ltrf-experiments: %d point(s) failed; first: %v\n", n, o.Engine.FirstError())
			return 1
		}
		return 0
	}

	switch {
	case *list:
		for _, s := range ltrf.Experiments() {
			fmt.Printf("%-10s %s\n", s.ID, s.Title)
		}
	case *run != "":
		start := time.Now()
		t, err := ltrf.RunExperiment(*run, o)
		if err != nil {
			fmt.Fprintln(os.Stderr, "ltrf-experiments:", err)
			if ctx.Err() != nil {
				return 130 // interrupted
			}
			return 1
		}
		t.Fprint(os.Stdout)
		fmt.Printf("(%s)\n", time.Since(start).Round(time.Millisecond))
		return checkFailures()
	case *all:
		start := time.Now()
		if err := ltrf.RunAllExperiments(os.Stdout, o); err != nil {
			fmt.Fprintln(os.Stderr, "ltrf-experiments:", err)
			if ctx.Err() != nil {
				return 130 // interrupted
			}
			return 1
		}
		fmt.Printf("(total %s)\n", time.Since(start).Round(time.Millisecond))
		return checkFailures()
	default:
		flag.Usage()
		return 2
	}
	return 0
}
