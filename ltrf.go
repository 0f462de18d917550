// Package ltrf is a from-scratch reproduction of "LTRF: Enabling
// High-Capacity Register Files for GPUs via Hardware/Software Cooperative
// Register Prefetching" (Sadrosadati et al., ASPLOS 2018).
//
// The package exposes the complete stack as a library:
//
//   - a PTX-like kernel IR with a structured-control-flow builder
//     (NewKernel),
//   - the paper's compiler passes: liveness-driven register allocation and
//     the two-pass register-interval formation algorithm with PREFETCH
//     planning (Compile),
//   - a cycle-level GPU timing simulator with a Maxwell-like SM, two-level
//     warp scheduling, operand collectors, the full memory hierarchy, and an
//     open registry of register-file designs: the paper's comparison points
//     BL, RFC, SHRF, LTRF, LTRF+, LTRF(strand), Ideal plus the comp
//     (static data compression) and regdem (shared-memory demotion)
//     plugins from related work (Simulate, Designs),
//   - the Table 2 register-file technology model (Tech),
//   - the 35-workload synthetic benchmark suite plus the software-pipelined
//     workload family — register-prefetch and double-buffered shared-memory
//     GEMMs, each paired with a naive counterpart of identical work
//     (Workloads, PaperWorkloads, EvalWorkloads, WorkloadPairs),
//   - and one experiment driver per table/figure of the paper's evaluation
//     (Experiments, RunExperiment).
//
// Quickstart:
//
//	b := ltrf.NewKernel("saxpy")
//	... build the kernel ...
//	compiled, _ := ltrf.Compile(b.MustBuild(), ltrf.CompileOptions{})
//	res, _ := ltrf.Simulate(ltrf.SimOptions{Design: ltrf.LTRF, LatencyX: 6.3}, compiled.Virtual)
//	fmt.Println(res.IPC)
package ltrf

import (
	"context"
	"fmt"
	"io"

	"ltrf/internal/core"
	"ltrf/internal/exp"
	"ltrf/internal/isa"
	"ltrf/internal/memsys"
	"ltrf/internal/memtech"
	"ltrf/internal/power"
	"ltrf/internal/regalloc"
	"ltrf/internal/regfile"
	"ltrf/internal/sim"
	"ltrf/internal/store"
	"ltrf/internal/workloads"
)

// Re-exported kernel-construction types.
type (
	// Builder constructs kernels with structured control flow.
	Builder = isa.Builder
	// Program is a kernel's instruction sequence.
	Program = isa.Program
	// Reg is a register identifier.
	Reg = isa.Reg
	// MemAccess describes a memory instruction's address behavior.
	MemAccess = isa.MemAccess
)

// Memory access patterns for kernel construction.
const (
	Coalesced = isa.PatCoalesced
	Strided   = isa.PatStrided
	Random    = isa.PatRandom
)

// NewKernel returns a builder for a kernel with the given name.
func NewKernel(name string) *Builder { return isa.NewBuilder(name) }

// Design identifies a register-file design by its name in the open design
// registry (internal/regfile). The exported constants cover the paper's
// seven comparison points; any other registered design is addressable by
// name, e.g. ltrf.Design("comp") — Designs lists them all.
type Design = sim.Design

// The compared register-file designs (§5 Comparison Points).
const (
	BL         = sim.DesignBL
	RFC        = sim.DesignRFC
	SHRF       = sim.DesignSHRF
	LTRF       = sim.DesignLTRF
	LTRFPlus   = sim.DesignLTRFPlus
	LTRFStrand = sim.DesignLTRFStrand
	Ideal      = sim.DesignIdeal
)

// Scheduler names a warp-scheduler variant for SimOptions.Scheduler.
type Scheduler = sim.Scheduler

// The warp-scheduler variants: the paper's two-level scheduler (default),
// the static variant that never swaps a warp out on operand latency, and
// the flat ablation with every resident warp schedulable.
const (
	TwoLevel        = sim.SchedTwoLevel
	StaticScheduler = sim.SchedStatic
	FlatScheduler   = sim.SchedFlat
)

// Designs returns the names of every registered register-file design in
// sorted order: the seven paper comparison points plus registry plugins
// (comp, regdem, and any design an embedding program registers).
func Designs() []string { return regfile.Names() }

// DesignByName resolves a design name against the registry
// (case-insensitively) and returns the canonical Design; the error for an
// unknown name lists every registered design.
func DesignByName(name string) (Design, error) {
	d, err := regfile.Lookup(name)
	if err != nil {
		return "", err
	}
	return Design(d.Name), nil
}

// DesignCapacityX evaluates a design's KERNEL-DEPENDENT effective-capacity
// scale for the occupancy decision under the Table 3 system at the given
// technology config (0 = configuration #1): 1.0 for designs without a
// capacity hook; comp returns the gain its measured compressibility
// coverage earns on this kernel; regdem the gain of the spill set that fits
// the shared memory the kernel's own usage leaves free.
func DesignCapacityX(design Design, techConfig int, kernel *Program) (float64, error) {
	c := sim.DefaultConfig(design)
	if techConfig != 0 {
		t, err := memtech.Config(techConfig)
		if err != nil {
			return 0, err
		}
		c.Tech = t
	}
	if _, err := c.Design.Descriptor(); err != nil {
		return 0, err
	}
	demand, err := regalloc.Pressure(kernel)
	if err != nil {
		return 0, err
	}
	return c.CapacityScale(demand, kernel), nil
}

// Tech returns the Table 2 register-file design point with 1-based index
// 1..7 (configuration #1 is the SRAM baseline, #6 TFET, #7 DWM).
func Tech(config int) (memtech.Params, error) { return memtech.Config(config) }

// RFBreakdown decomposes register-file-only energy — the Figure 10 scope.
type RFBreakdown = power.Breakdown

// ChipBreakdown decomposes chip-level energy: the RF breakdown plus
// dynamic + leakage terms for the L1/L2 caches, DRAM, the shared-memory
// scratchpad, and the SM pipelines. Its EDP never falls below the RF-only
// EDP on the same run.
type ChipBreakdown = power.ChipBreakdown

// ChipConfig is the chip-energy constant surface (per-event dynamic
// energies, per-cycle leakage); the zero value selects the calibrated
// defaults. Set SimOptions.Chip to re-calibrate components.
type ChipConfig = power.ChipConfig

// RFEnergy computes a simulation's register-file-only energy breakdown
// through the design's registry energy hooks.
func RFEnergy(res *SimResult) (RFBreakdown, error) { return res.RFEnergy() }

// ChipEnergy computes a simulation's chip-level energy breakdown — the
// honest yardstick for designs that buy RF savings with memory-system or
// pipeline cost. The designsweep experiment ranks designs under both this
// and the RF-only account.
func ChipEnergy(res *SimResult) (ChipBreakdown, error) { return res.ChipEnergy() }

// CompileOptions configure kernel compilation.
type CompileOptions struct {
	// RegisterBudget is the per-thread architectural register cap
	// (maxregcount); 0 means "whatever the kernel needs", up to 255.
	RegisterBudget int
	// IntervalRegs is the register-interval working-set budget N
	// (default 16, Table 3).
	IntervalRegs int
}

// Compiled is the result of Compile.
type Compiled struct {
	// Virtual is the input kernel (virtual registers).
	Virtual *Program
	// Allocated is the register-allocated kernel.
	Allocated *Program
	// Demand is the per-thread register count the compiler needs without
	// a cap (the Table 1 quantity).
	Demand int
	// Spilled counts registers spilled to local memory under the budget.
	Spilled int
	// Intervals is the register-interval partition with PREFETCH
	// working sets (the paper's Algorithms 1 and 2).
	Intervals *core.Partition
	// Strands is the strand partition used by the SHRF baseline and the
	// LTRF-strand ablation (§6.6).
	Strands *core.Partition
	// Instrumented is the kernel with explicit PREFETCH operations
	// inserted (for inspection and code-size accounting, §4.3).
	Instrumented *Program
}

// Compile runs the paper's compiler pipeline on a kernel: register
// allocation, liveness/dead-operand analysis, and prefetch-subgraph
// formation for both schemes.
func Compile(kernel *Program, o CompileOptions) (*Compiled, error) {
	if o.IntervalRegs == 0 {
		o.IntervalRegs = 16
	}
	demand, err := regalloc.Pressure(kernel)
	if err != nil {
		return nil, err
	}
	budget := o.RegisterBudget
	if budget == 0 {
		budget = demand
		if budget > isa.MaxArchRegs-1 {
			budget = isa.MaxArchRegs - 1
		}
		if budget < 8 {
			budget = 8
		}
	}
	prog, st, err := regalloc.Allocate(kernel, budget)
	if err != nil {
		return nil, err
	}
	ivls, err := core.FormRegisterIntervals(prog, o.IntervalRegs)
	if err != nil {
		return nil, err
	}
	strands, err := core.FormStrands(prog, o.IntervalRegs)
	if err != nil {
		return nil, err
	}
	return &Compiled{
		Virtual:      kernel,
		Allocated:    prog,
		Demand:       demand,
		Spilled:      st.SpilledRegs,
		Intervals:    ivls,
		Strands:      strands,
		Instrumented: core.InstrumentProgram(ivls),
	}, nil
}

// SimOptions configure a simulation.
type SimOptions struct {
	// Design selects the register-file design by registered name (default
	// BL). Use the exported constants or any name from Designs().
	Design Design
	// TechConfig selects the Table 2 main-RF design point (default 1).
	TechConfig int
	// LatencyX scales the main register file access latency (default 1).
	LatencyX float64
	// ActiveWarps, IntervalRegs, MaxWarps override Table 3 defaults when
	// non-zero.
	ActiveWarps  int
	IntervalRegs int
	MaxWarps     int
	// Scheduler selects the warp-scheduler variant (default TwoLevel). Use
	// the exported constants or sim's Scheduler names.
	Scheduler Scheduler
	// Prefetch selects the hardware prefetcher: "" or "off" (default),
	// "stride" (PC-indexed reference-prediction-table stride prefetcher), or
	// "cta" (the CTA-aware distance tables layered on the stride RPT).
	// Prefetch fills are real DRAM bursts and cost chip energy whether or
	// not the lines are used.
	Prefetch string
	// CTAsPerSM splits the SM's resident warps into this many CTAs (thread
	// blocks): per-CTA barriers, per-CTA shared-memory budgets, and the
	// CTA-aware prefetcher's stream key. 0 or 1 = one CTA (the default).
	CTAsPerSM int
	// MaxInstrs bounds the simulation (default 200k dynamic instructions).
	MaxInstrs int64
	// Chip re-calibrates the chip-level energy account ChipEnergy scores
	// results with (zero fields keep the defaults). Accounting only — it
	// never changes timing.
	Chip ChipConfig
}

// SimResult is a simulation outcome.
type SimResult = sim.Result

// GPUResult is a multi-SM simulation outcome.
type GPUResult = sim.GPUResult

// config derives the sim.Config for the options — the one place SimOptions
// are applied, shared by Simulate and SimulateGPU so their handling cannot
// drift.
func (o SimOptions) config() (sim.Config, error) {
	c := sim.DefaultConfig(o.Design)
	if o.TechConfig != 0 {
		t, err := memtech.Config(o.TechConfig)
		if err != nil {
			return sim.Config{}, err
		}
		c.Tech = t
	}
	if o.LatencyX != 0 {
		c.LatencyX = o.LatencyX
	}
	if o.ActiveWarps != 0 {
		c.ActiveWarps = o.ActiveWarps
	}
	if o.IntervalRegs != 0 {
		c.RegsPerInterval = o.IntervalRegs
	}
	if o.MaxWarps != 0 {
		c.MaxWarps = o.MaxWarps
	}
	c.Scheduler = o.Scheduler
	c.Mem.Prefetch.Mode = memsys.PrefetchMode(o.Prefetch)
	c.CTAsPerSM = o.CTAsPerSM
	if o.MaxInstrs != 0 {
		if err := c.SetBudget(o.MaxInstrs); err != nil {
			return sim.Config{}, err
		}
	}
	c.Chip = o.Chip
	return c, nil
}

// Simulate runs a kernel (virtual or allocated registers) on the simulated
// GPU under the selected register-file design.
func Simulate(o SimOptions, kernel *Program) (*SimResult, error) {
	return SimulateContext(context.Background(), o, kernel)
}

// SimulateContext is Simulate under a cancellation context: the simulator's
// advance loop polls ctx.Done() on a coarse cadence and returns ctx.Err()
// when it fires, so deadlines and interrupts stop simulations instead of
// leaking them. An uncancelled run is byte-identical to Simulate.
func SimulateContext(ctx context.Context, o SimOptions, kernel *Program) (*SimResult, error) {
	return SimulateCached(ctx, nil, o, kernel)
}

// SimCache memoizes the compiler pipeline (register allocation, dead-bit
// annotation, prefetch-partition formation) across simulations, so sweeps
// that re-simulate one kernel under many timing configurations compile it
// once per (kernel, register cap) instead of once per point. Entries are
// keyed by kernel pointer identity: reuse the same *Program across calls.
// Safe for concurrent use; the simulated results are identical with or
// without a cache.
type SimCache = sim.CompileCache

// NewSimCache returns an empty compile cache for SimulateCached.
func NewSimCache() *SimCache { return sim.NewCompileCache() }

// SimulateCached is SimulateContext with a compile cache: use it when
// simulating the same kernel repeatedly (sweeps, servers, benchmarks) to
// keep compilation out of the per-run cost.
func SimulateCached(ctx context.Context, cache *SimCache, o SimOptions, kernel *Program) (*SimResult, error) {
	c, err := o.config()
	if err != nil {
		return nil, err
	}
	return sim.RunWithCacheCtx(ctx, c, kernel, cache)
}

// SimulateGPU runs a kernel on numSMs streaming multiprocessors stepped in
// lockstep with a shared LLC and DRAM (Table 3's chip has 24). The per-SM
// experiments in internal/exp simulate one SM; use this entry point to study
// chip-level contention.
func SimulateGPU(o SimOptions, numSMs int, kernel *Program) (*GPUResult, error) {
	c, err := o.config()
	if err != nil {
		return nil, err
	}
	return sim.RunGPUCtx(context.Background(), c, numSMs, kernel)
}

// Compiler-era unroll factors for Workload.Build (Table 1): the Fermi-era
// compiler barely unrolls, the Maxwell-era one unrolls aggressively. The
// experiment drivers build every kernel at UnrollMaxwell.
const (
	UnrollFermi   = workloads.UnrollFermi
	UnrollMaxwell = workloads.UnrollMaxwell
)

// Workload is a synthetic benchmark kernel.
type Workload = workloads.Workload

// WorkloadPair is a software-pipelined workload and its naive counterpart
// of identical arithmetic work.
type WorkloadPair = workloads.Pair

// Workloads returns the full benchmark registry: the paper's 35-kernel
// suite (§5) plus the software-pipelined family pairs.
func Workloads() []Workload { return workloads.All() }

// PaperWorkloads returns the paper's 35-kernel suite (§5) alone — the
// population Tables 1 and 4 and the overheads figure describe.
func PaperWorkloads() []Workload { return workloads.PaperSuite() }

// EvalWorkloads returns the paper's 14-workload evaluation subset.
func EvalWorkloads() []Workload { return workloads.EvalSet() }

// WorkloadByName looks up one workload.
func WorkloadByName(name string) (Workload, error) { return workloads.ByName(name) }

// WorkloadFamilies lists the software-pipelined families (the pipesweep
// experiment's population).
func WorkloadFamilies() []string { return workloads.Families() }

// WorkloadPairs returns every pipelined/naive pair in declaration order.
func WorkloadPairs() []WorkloadPair { return workloads.Pairs() }

// WorkloadFamilyPair resolves one family's pair by name.
func WorkloadFamilyPair(family string) (WorkloadPair, error) { return workloads.FamilyPair(family) }

// Experiment is a regenerable paper artifact (table or figure).
type Experiment = exp.Spec

// ExperimentTable is a rendered experiment result.
type ExperimentTable = exp.Table

// ExperimentOptions control experiment cost and concurrency: Parallelism
// bounds the number of concurrently simulated points (0 = GOMAXPROCS), and
// Engine selects the memo cache (nil = a shared process-wide engine).
// Tables are rendered serially from memoized results, so output is
// byte-identical at any parallelism.
type ExperimentOptions = exp.Options

// ExperimentEngine memoizes simulation points and compiled kernels across
// experiments and evaluates declared point sets on a bounded worker pool.
type ExperimentEngine = exp.Engine

// NewExperimentEngine returns an engine with its own (empty) caches, for
// callers who want to isolate or bound the memo instead of sharing the
// process-wide one.
func NewExperimentEngine() *ExperimentEngine { return exp.NewEngine() }

// NewPersistentExperimentEngine returns an engine whose results additionally
// persist in a crash-safe content-addressed store rooted at dir: entries
// survive process restarts and are served without re-simulation, writes are
// atomic, and corrupt entries are quarantined and recomputed. The store's
// entry addresses fold in the result-schema version, so a binary with a
// different schema misses cleanly instead of decoding stale bytes.
func NewPersistentExperimentEngine(dir string) (*ExperimentEngine, error) {
	s, err := store.Open(dir, store.Options{Version: exp.StoreVersion()})
	if err != nil {
		return nil, err
	}
	return exp.NewEngineWithStore(s), nil
}

// Experiments lists every table/figure driver in paper order.
func Experiments() []Experiment { return exp.Registry() }

// RunExperiment regenerates one paper artifact by id (e.g. "figure9").
func RunExperiment(id string, o ExperimentOptions) (*ExperimentTable, error) {
	s, err := exp.ByID(id)
	if err != nil {
		return nil, err
	}
	return s.Run(o)
}

// RunAllExperiments regenerates every artifact, writing rendered tables to
// w. All experiments share o's engine (the process-wide one when o.Engine
// is nil), so points common to several figures — e.g. the config-#1 BL
// baseline of Figures 3, 9, and 10, or the latency sweeps Figures 11 and
// 14 share — are simulated once for the whole batch.
func RunAllExperiments(w io.Writer, o ExperimentOptions) error {
	for _, s := range exp.Registry() {
		t, err := s.Run(o)
		if err != nil {
			return fmt.Errorf("%s: %w", s.ID, err)
		}
		t.Fprint(w)
		fmt.Fprintln(w)
	}
	return nil
}
