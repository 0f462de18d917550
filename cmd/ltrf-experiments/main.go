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
// Experiments evaluate the simulation points their tables need on a worker
// pool (-parallel, default GOMAXPROCS) with results memoized across the
// whole invocation; tables are rendered serially from the memo, so output
// is byte-identical at any parallelism.
//
// Misused flags exit 2 with the usage message before anything runs: more
// than one of -list, -run and -all, a negative -parallel, or a -workloads
// or -design name that does not resolve.
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
	"io"
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
	os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr))
}

func realMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("ltrf-experiments", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		list       = fs.Bool("list", false, "list available experiments")
		run        = fs.String("run", "", "run one experiment by id (e.g. figure9)")
		all        = fs.Bool("all", false, "run every experiment")
		quick      = fs.Bool("quick", false, "reduced instruction budgets (faster, noisier)")
		parallel   = fs.Int("parallel", 0, "concurrent simulations (0 = GOMAXPROCS)")
		subset     = fs.String("workloads", "", "comma-separated workload subset for simulation experiments")
		designs    = fs.String("design", "", "comma-separated design subset for registry-driven experiments like designspace (default: every registered design)")
		cpuProfile = fs.String("cpuprofile", "", "write a pprof CPU profile of the run to this file")
		memProfile = fs.String("memprofile", "", "write a pprof allocation profile at exit to this file")
		storeDir   = fs.String("store", "", "persist results in a crash-safe store at this directory (reused across runs; corrupt entries are quarantined and recomputed)")
	)
	if err := fs.Parse(args); err != nil {
		if err == flag.ErrHelp {
			return 0
		}
		return 2
	}
	o := ltrf.ExperimentOptions{Quick: *quick, Parallelism: *parallel}
	if *subset != "" {
		o.Workloads = strings.Split(*subset, ",")
	}
	if *designs != "" {
		o.Designs = strings.Split(*designs, ",")
	}
	// Misuse is rejected before anything runs: exit 2 with the usage
	// message, as for a flag that does not parse.
	if err := checkFlags(*list, *run != "", *all, o, fs.Args()); err != nil {
		fmt.Fprintln(stderr, "ltrf-experiments:", err)
		fs.Usage()
		return 2
	}

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
			fmt.Fprintln(stderr, "ltrf-experiments:", err)
			return 1
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(stderr, "ltrf-experiments:", err)
			return 1
		}
		defer pprof.StopCPUProfile()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				fmt.Fprintln(stderr, "ltrf-experiments:", err)
				return
			}
			defer f.Close()
			runtime.GC() // materialize up-to-date allocation statistics
			if err := pprof.Lookup("allocs").WriteTo(f, 0); err != nil {
				fmt.Fprintln(stderr, "ltrf-experiments:", err)
			}
		}()
	}

	// SIGINT/SIGTERM cancel the in-flight sweep through the engine's
	// context plumbing: workers stop dispatching, in-flight simulations
	// stop inside the advance loop, and the deferred pprof flushes above
	// still run — an interrupted profile is often the interesting one.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	o.Ctx = ctx
	// A private engine (persistent when -store is set) rather than the
	// process-wide default, so point failures can be counted and surfaced
	// as a non-zero exit after rendering.
	if *storeDir != "" {
		eng, err := ltrf.NewPersistentExperimentEngine(*storeDir)
		if err != nil {
			fmt.Fprintln(stderr, "ltrf-experiments:", err)
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
			fmt.Fprintf(stderr, "ltrf-experiments: %d point(s) failed; first: %v\n", n, o.Engine.FirstError())
			return 1
		}
		return 0
	}

	switch {
	case *list:
		for _, s := range ltrf.Experiments() {
			fmt.Fprintf(stdout, "%-10s %s\n", s.ID, s.Title)
		}
	case *run != "":
		start := time.Now()
		t, err := ltrf.RunExperiment(*run, o)
		if err != nil {
			fmt.Fprintln(stderr, "ltrf-experiments:", err)
			if ctx.Err() != nil {
				return 130 // interrupted
			}
			return 1
		}
		t.Fprint(stdout)
		fmt.Fprintf(stdout, "(%s)\n", time.Since(start).Round(time.Millisecond))
		return checkFailures()
	case *all:
		start := time.Now()
		if err := ltrf.RunAllExperiments(stdout, o); err != nil {
			fmt.Fprintln(stderr, "ltrf-experiments:", err)
			if ctx.Err() != nil {
				return 130 // interrupted
			}
			return 1
		}
		fmt.Fprintf(stdout, "(total %s)\n", time.Since(start).Round(time.Millisecond))
		return checkFailures()
	default:
		fs.Usage()
		return 2
	}
	return 0
}

// checkFlags rejects flag combinations and values that would otherwise be
// silently reinterpreted: more than one of -list, -run and -all, a negative
// -parallel, a -workloads or -design name that does not resolve (for every
// experiment, static ones included, which ignore both lists), and
// arguments after the flags.
func checkFlags(list, run, all bool, o ltrf.ExperimentOptions, rest []string) error {
	modes := 0
	for _, set := range []bool{list, run, all} {
		if set {
			modes++
		}
	}
	if modes > 1 {
		return fmt.Errorf("-list, -run and -all exclude each other")
	}
	if o.Parallelism < 0 {
		return fmt.Errorf("-parallel %d: must be 0 (GOMAXPROCS) or positive", o.Parallelism)
	}
	for _, w := range o.Workloads {
		if _, err := ltrf.WorkloadByName(w); err != nil {
			return fmt.Errorf("-workloads: %w", err)
		}
	}
	for _, d := range o.Designs {
		if _, err := ltrf.DesignByName(d); err != nil {
			return fmt.Errorf("-design: %w", err)
		}
	}
	if len(rest) > 0 {
		return fmt.Errorf("unexpected arguments %q", rest)
	}
	return nil
}
