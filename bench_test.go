// Benchmark harness: one sub-benchmark per registered experiment (each
// regenerates the artifact's data in quick mode), LTRF's interval-budget and
// strand ablations, the register-file designs, the compiler and raw speed.
//
// Run everything with:
//
//	go test -bench=. -benchmem
//
// The per-experiment numbers these benches print are quick-mode
// approximations; use `go run ./cmd/ltrf-experiments -all` for the full-
// budget runs.
package ltrf_test

import (
	"context"
	"testing"

	"ltrf"
)

// BenchmarkExperiments regenerates every registered table and figure in
// quick mode on a representative workload pair (one register-sensitive,
// one insensitive), one sub-benchmark per experiment id. Each iteration
// runs on a fresh engine, so every iteration simulates its points instead
// of reading the previous iteration's memo.
func BenchmarkExperiments(b *testing.B) {
	for _, s := range ltrf.Experiments() {
		b.Run(s.ID, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				o := ltrf.ExperimentOptions{
					Quick:     true,
					Workloads: []string{"btree", "sgemm"},
					Engine:    ltrf.NewExperimentEngine(),
				}
				if _, err := ltrf.RunExperiment(s.ID, o); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func benchSim(b *testing.B, o ltrf.SimOptions, workload string) {
	b.Helper()
	w, err := ltrf.WorkloadByName(workload)
	if err != nil {
		b.Fatal(err)
	}
	kernel := w.Build(3)
	o.MaxInstrs = 15000
	var lastIPC float64
	for i := 0; i < b.N; i++ {
		res, err := ltrf.Simulate(o, kernel)
		if err != nil {
			b.Fatal(err)
		}
		lastIPC = res.IPC
	}
	b.ReportMetric(lastIPC, "IPC")
}

// BenchmarkAblations measures LTRF at 6.3x on sgemm under each Figure 12
// interval budget (N = 16 is the default) and with §6.6 strand prefetch.
func BenchmarkAblations(b *testing.B) {
	for _, a := range []struct {
		name string
		o    ltrf.SimOptions
	}{
		{"IntervalBudget8", ltrf.SimOptions{Design: ltrf.LTRF, IntervalRegs: 8}},
		{"IntervalBudget16", ltrf.SimOptions{Design: ltrf.LTRF, IntervalRegs: 16}},
		{"IntervalBudget32", ltrf.SimOptions{Design: ltrf.LTRF, IntervalRegs: 32}},
		{"StrandPrefetch", ltrf.SimOptions{Design: ltrf.LTRFStrand}},
	} {
		b.Run(a.name, func(b *testing.B) {
			a.o.LatencyX = 6.3
			benchSim(b, a.o, "sgemm")
		})
	}
}

// BenchmarkDesigns measures every register-file design on one kernel at the
// DWM latency point — the core comparison of the paper in microbenchmark
// form.
func BenchmarkDesigns(b *testing.B) {
	for _, d := range []struct {
		name   string
		design ltrf.Design
	}{
		{"BL", ltrf.BL}, {"RFC", ltrf.RFC}, {"SHRF", ltrf.SHRF},
		{"LTRF", ltrf.LTRF}, {"LTRFPlus", ltrf.LTRFPlus}, {"Ideal", ltrf.Ideal},
	} {
		b.Run(d.name, func(b *testing.B) {
			benchSim(b, ltrf.SimOptions{Design: d.design, LatencyX: 6.3}, "stencil")
		})
	}
}

// BenchmarkCompile measures the compiler pipeline (allocation + interval
// formation + strand formation + instrumentation) on the largest kernel.
func BenchmarkCompile(b *testing.B) {
	w, err := ltrf.WorkloadByName("sgemm")
	if err != nil {
		b.Fatal(err)
	}
	kernel := w.Build(3)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ltrf.Compile(kernel, ltrf.CompileOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSimulatorThroughput measures raw simulation speed in dynamic
// instructions per second.
func BenchmarkSimulatorThroughput(b *testing.B) {
	benchThroughput(b, ltrf.SimOptions{Design: ltrf.LTRF, LatencyX: 2, MaxInstrs: 30000}, "hotspot")
}

// BenchmarkSimulatorThroughputHighLatency measures the regime the
// event-driven clock targets: a non-prefetching register file at the DWM
// design point (Table 2 config #7) with a 6.3x latency multiplier, where
// warps stall for hundreds of cycles on every slow main-RF read and most
// simulated cycles are dead. PR 5's fast-forward core is >=3x faster here
// than the cycle-ticking loop it replaced (see the repository README's
// event-driven core section).
func BenchmarkSimulatorThroughputHighLatency(b *testing.B) {
	benchThroughput(b, ltrf.SimOptions{Design: ltrf.BL, TechConfig: 7, LatencyX: 6.3, MaxInstrs: 30000}, "sgemm")
}

// BenchmarkSimulatorThroughputLowLatency measures the opposite regime from
// the high-latency points: BL at the baseline technology (Table 2 config #1)
// with no latency multiplier, where almost every cycle has SOME warp
// issuing, so the event-driven clock finds few dead spans to skip and the
// per-pass issue scan itself dominates. This is the point the indexed
// ready-warp scan (PR 7) targets: a pass costs O(issued + events), not
// O(active warps).
func BenchmarkSimulatorThroughputLowLatency(b *testing.B) {
	benchThroughput(b, ltrf.SimOptions{Design: ltrf.BL, TechConfig: 1, LatencyX: 1.0, MaxInstrs: 30000}, "sgemm")
}

// benchThroughput measures simulation throughput with the kernel compiled
// once through a SimCache, so the number is the simulator's and not the
// compiler's (BenchmarkCompile measures that pipeline on its own).
func benchThroughput(b *testing.B, o ltrf.SimOptions, workload string) {
	b.Helper()
	w, err := ltrf.WorkloadByName(workload)
	if err != nil {
		b.Fatal(err)
	}
	kernel := w.Build(3)
	cache := ltrf.NewSimCache()
	ctx := context.Background()
	if _, err := ltrf.SimulateCached(ctx, cache, o, kernel); err != nil {
		b.Fatal(err)
	}
	var instrs int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := ltrf.SimulateCached(ctx, cache, o, kernel)
		if err != nil {
			b.Fatal(err)
		}
		instrs += res.Instrs
	}
	b.ReportMetric(float64(instrs)/b.Elapsed().Seconds(), "instrs/s")
}
