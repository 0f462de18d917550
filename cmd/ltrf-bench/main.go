// Command ltrf-bench runs the repository's core performance benchmarks and
// records the results machine-readably, so every perf-focused PR can append
// a data point and the project accumulates a perf trajectory instead of
// anecdotes scattered through commit messages.
//
// Usage:
//
//	ltrf-bench                            # print the run as JSON
//	ltrf-bench -label "PR 5" -out BENCH_PR5.json
//	ltrf-bench -label "nightly" -out BENCH_PR5.json -append
//
// The output file (schema "ltrf-bench/1") holds a list of runs; each run
// carries a label, the Go version, an optional note, and one entry per
// benchmark with ns/op, allocations, and — for simulator benchmarks —
// simulated instructions per second. -append adds a run to an existing
// file, preserving earlier data points; without it the file is replaced
// with a single-run document.
//
// The benchmark set spans the regimes that matter for the simulator:
//
//   - sim_lat2:            LTRF at baseline tech, 2x latency (PR 1's
//     BenchmarkSimulatorThroughput point)
//   - sim_tech7_hi:        LTRF at the DWM design point, 6.3x latency — a
//     high-latency configuration where the event-driven clock's dead-span
//     skipping dominates
//   - sim_bl_tech7_hi:     BL (no prefetching) at the same point: warps
//     stall on every slow main-RF read, the regime with the most dead
//     cycles (the ≥3x acceptance point of PR 5)
//   - sim_bl_tech1_low:    BL at the baseline technology point, 1x latency —
//     the low-latency regime where few cycles are dead and the issue scan
//     itself dominates (the ≥1.5x acceptance point of PR 7's indexed
//     ready-warp scan)
//   - exp_quick:           the experiment engine end to end (table1 +
//     figure11 on a two-workload subset, quick budgets)
//   - compile:             the compiler pipeline on the largest kernel
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"testing"

	"ltrf"
)

// BenchFile is the top-level document of -out (schema "ltrf-bench/1").
type BenchFile struct {
	Schema string `json:"schema"`
	Runs   []Run  `json:"runs"`
}

// Run is one invocation's results.
type Run struct {
	Label      string  `json:"label"`
	GoVersion  string  `json:"go"`
	Note       string  `json:"note,omitempty"`
	Benchmarks []Bench `json:"benchmarks"`
}

// Bench is one benchmark's measurement.
type Bench struct {
	Name         string  `json:"name"`
	NsPerOp      float64 `json:"ns_per_op"`
	AllocsPerOp  int64   `json:"allocs_per_op"`
	BytesPerOp   int64   `json:"bytes_per_op"`
	InstrsPerSec float64 `json:"instrs_per_sec,omitempty"`
}

// simBench measures one simulation configuration, reporting simulated
// instructions per second alongside the go-bench numbers. The kernel is
// compiled once through a SimCache before the timed region, so the number
// is the simulator's and not the compiler's (the `compile` entry measures
// that pipeline on its own).
func simBench(name, workload string, o ltrf.SimOptions) func() (Bench, error) {
	return func() (Bench, error) {
		w, err := ltrf.WorkloadByName(workload)
		if err != nil {
			return Bench{}, err
		}
		kernel := w.Build(3)
		if o.MaxInstrs == 0 {
			o.MaxInstrs = 30000
		}
		cache := ltrf.NewSimCache()
		ctx := context.Background()
		if _, err := ltrf.SimulateCached(ctx, cache, o, kernel); err != nil {
			return Bench{}, err
		}
		var instrs int64
		r := testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			instrs = 0
			for i := 0; i < b.N; i++ {
				res, err := ltrf.SimulateCached(ctx, cache, o, kernel)
				if err != nil {
					b.Fatal(err)
				}
				instrs += res.Instrs
			}
		})
		ns := float64(r.T.Nanoseconds()) / float64(r.N)
		return Bench{
			Name:         name,
			NsPerOp:      ns,
			AllocsPerOp:  r.AllocsPerOp(),
			BytesPerOp:   r.AllocedBytesPerOp(),
			InstrsPerSec: float64(instrs) / r.T.Seconds(),
		}, nil
	}
}

// expBench measures the experiment engine end to end on quick budgets,
// with a fresh engine per iteration so the process-wide memo cannot turn
// later iterations into cache hits.
func expBench(name string, ids []string) func() (Bench, error) {
	return func() (Bench, error) {
		r := testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				o := ltrf.ExperimentOptions{
					Quick:     true,
					Workloads: []string{"btree", "sgemm"},
					Engine:    ltrf.NewExperimentEngine(),
				}
				for _, id := range ids {
					if _, err := ltrf.RunExperiment(id, o); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
		return Bench{
			Name:        name,
			NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
			AllocsPerOp: r.AllocsPerOp(),
			BytesPerOp:  r.AllocedBytesPerOp(),
		}, nil
	}
}

// compileBench measures the compiler pipeline on the largest kernel.
func compileBench(name string) func() (Bench, error) {
	return func() (Bench, error) {
		w, err := ltrf.WorkloadByName("sgemm")
		if err != nil {
			return Bench{}, err
		}
		kernel := w.Build(3)
		r := testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := ltrf.Compile(kernel, ltrf.CompileOptions{}); err != nil {
					b.Fatal(err)
				}
			}
		})
		return Bench{
			Name:        name,
			NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
			AllocsPerOp: r.AllocsPerOp(),
			BytesPerOp:  r.AllocedBytesPerOp(),
		}, nil
	}
}

func main() {
	var (
		out      = flag.String("out", "", "write/append the run to this JSON file (default: print to stdout)")
		label    = flag.String("label", "", "label for this run (e.g. the PR number or a commit hash)")
		note     = flag.String("note", "", "free-form note stored with the run")
		doAppend = flag.Bool("append", false, "append to -out instead of replacing it")
	)
	flag.Parse()

	benches := []struct {
		name string
		fn   func() (Bench, error)
	}{
		{"sim_lat2", simBench("sim_lat2", "hotspot", ltrf.SimOptions{Design: ltrf.LTRF, LatencyX: 2})},
		{"sim_tech7_hi", simBench("sim_tech7_hi", "hotspot", ltrf.SimOptions{Design: ltrf.LTRF, TechConfig: 7, LatencyX: 6.3})},
		{"sim_bl_tech7_hi", simBench("sim_bl_tech7_hi", "sgemm", ltrf.SimOptions{Design: ltrf.BL, TechConfig: 7, LatencyX: 6.3})},
		{"sim_bl_tech1_low", simBench("sim_bl_tech1_low", "sgemm", ltrf.SimOptions{Design: ltrf.BL, TechConfig: 1, LatencyX: 1.0})},
		{"exp_quick", expBench("exp_quick", []string{"table1", "figure11"})},
		{"compile", compileBench("compile")},
	}

	run := Run{Label: *label, GoVersion: runtime.Version(), Note: *note}
	for _, b := range benches {
		res, err := b.fn()
		if err != nil {
			fmt.Fprintf(os.Stderr, "ltrf-bench: %s: %v\n", b.name, err)
			os.Exit(1)
		}
		run.Benchmarks = append(run.Benchmarks, res)
		if res.InstrsPerSec > 0 {
			fmt.Fprintf(os.Stderr, "%-28s %12.0f ns/op %10.0f instrs/s %8d allocs/op\n",
				res.Name, res.NsPerOp, res.InstrsPerSec, res.AllocsPerOp)
		} else {
			fmt.Fprintf(os.Stderr, "%-28s %12.0f ns/op %8d allocs/op\n",
				res.Name, res.NsPerOp, res.AllocsPerOp)
		}
	}

	doc := BenchFile{Schema: "ltrf-bench/1"}
	if *doAppend && *out != "" {
		if data, err := os.ReadFile(*out); err == nil {
			if err := json.Unmarshal(data, &doc); err != nil {
				fmt.Fprintf(os.Stderr, "ltrf-bench: %s exists but is not a ltrf-bench file: %v\n", *out, err)
				os.Exit(1)
			}
		}
	}
	doc.Runs = append(doc.Runs, run)

	data, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "ltrf-bench:", err)
		os.Exit(1)
	}
	data = append(data, '\n')
	if *out == "" {
		os.Stdout.Write(data)
		return
	}
	if err := os.WriteFile(*out, data, 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "ltrf-bench:", err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "wrote %s (%d runs)\n", *out, len(doc.Runs))
}
