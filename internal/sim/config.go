// Package sim is the cycle-level GPU timing simulator: a Maxwell-like
// streaming multiprocessor (Table 3) with a two-level warp scheduler
// [19, 53], scoreboarded in-order warps, operand collection through a
// pluggable register-file subsystem (internal/regfile), and the memory
// hierarchy of internal/memsys.
//
// Execution is timing-directed: warps walk the kernel's control-flow graph
// with deterministic branch outcomes (trip counts and seeded probabilistic
// branches) and generated memory address streams; data values are not
// computed.
package sim

import (
	"fmt"
	"math"

	"ltrf/internal/isa"
	"ltrf/internal/memsys"
	"ltrf/internal/memtech"
	"ltrf/internal/power"
	"ltrf/internal/regfile"
)

// Design selects the register-file design under evaluation by its name in
// the regfile design registry. The constants below name the paper's seven
// comparison points (§5 plus the LTRF-strand ablation of §6.6); any further
// registered design — including the comp and regdem plugins, and designs
// registered by embedding callers — is addressable the same way, e.g.
// Design("comp"). Behavior predicates and construction live on the design's
// regfile.Descriptor; this package holds no per-design switches.
type Design string

const (
	// DesignBL is the conventional non-cached register file. For fairness
	// its capacity is augmented by the 16KB the other designs spend on the
	// register file cache (§5).
	DesignBL Design = "BL"
	// DesignRFC is the hardware register file cache of [19].
	DesignRFC Design = "RFC"
	// DesignSHRF is the software-managed hierarchical RF of [20] (strands).
	DesignSHRF Design = "SHRF"
	// DesignLTRF prefetches register-interval working sets (the paper).
	DesignLTRF Design = "LTRF"
	// DesignLTRFPlus adds operand-liveness awareness (§3.2).
	DesignLTRFPlus Design = "LTRF+"
	// DesignLTRFStrand is LTRF prefetching at strand granularity (§6.6).
	DesignLTRFStrand Design = "LTRF(strand)"
	// DesignIdeal has 8x capacity at baseline latency (upper bound).
	DesignIdeal Design = "Ideal"
)

// Name returns the design's registry name; the zero value selects the BL
// baseline so a zero Config keeps its historical default.
func (d Design) Name() string {
	if d == "" {
		return string(DesignBL)
	}
	return string(d)
}

func (d Design) String() string { return d.Name() }

// Scheduler names a warp-scheduler variant. The PR 4 warp-reshuffle study
// showed cycle counts are sensitive to WHICH warps the two-level scheduler
// keeps active; this axis turns that footnote into a first-class experiment
// dimension (pipesweep's scheduler-sensitivity rows).
type Scheduler string

const (
	// SchedTwoLevel is the paper's two-level scheduler (§4): an active set
	// of ActiveWarps warps, with long-latency operands deactivating a warp
	// so a pending one can take its slot.
	SchedTwoLevel Scheduler = "twolevel"
	// SchedStatic keeps the two-level active/pending split but never
	// deactivates on long-latency operands: a slot is recycled only when
	// its warp finishes or parks at a barrier. This is the
	// latency-intolerant extreme — a warp stuck on a slow register fetch
	// pins its slot — so kernels that hide latency in software (the
	// pipelined family) lose the least under it.
	SchedStatic Scheduler = "static"
	// SchedFlat makes every resident warp schedulable (no active subset):
	// the flat-scheduler ablation.
	SchedFlat Scheduler = "flat"
)

// SchedulerMode resolves the configured scheduler: the Scheduler field when
// set, else SchedTwoLevel.
func (c *Config) SchedulerMode() Scheduler {
	if c.Scheduler == "" {
		return SchedTwoLevel
	}
	return c.Scheduler
}

// Descriptor resolves the design in the regfile registry; the error for an
// unknown design lists every registered name.
func (d Design) Descriptor() (regfile.Descriptor, error) {
	return regfile.Lookup(d.Name())
}

// Config assembles one simulation's parameters.
type Config struct {
	Design Design

	// Tech is the main register file design point (Table 2); LatencyX
	// scales its access latency for the sweep figures (11-14).
	Tech     memtech.Params
	LatencyX float64

	// CapacityKB overrides the main RF capacity used for warp occupancy;
	// 0 means Tech.CapacityKB(). BL and Ideal automatically gain the
	// CacheKB the cached designs spend on the register cache (§5).
	CapacityKB int
	// CacheKB is the register file cache size (Table 3: 16KB).
	CacheKB int

	MaxWarps    int // resident warp contexts per SM (Table 3: 64)
	ActiveWarps int // two-level scheduler active set (Table 3: 8)
	// CTAsPerSM is the number of thread blocks resident per SM (0 or 1 =
	// one CTA, the historical behavior). With several CTAs the resident
	// warps are split contiguously into CTA groups: barriers synchronize
	// within a CTA only, each CTA instantiates the kernel's shared-memory
	// footprint, and SharedFreeBytes (and through it the CapacityX
	// occupancy hooks) sees the per-CTA budget SizeB/CTAsPerSM.
	CTAsPerSM       int
	RegsPerInterval int // register budget N per prefetch unit (Table 3: 16)
	IssueWidth      int // instructions issued per SM cycle
	Collectors      int // operand collector units; an instruction holds one
	// from issue until its operands are read, so slow register reads
	// throttle issue SM-wide (Figures 1 and 5)

	ALULat int // dependent-use latency of ALU ops
	SFULat int // special function unit latency

	Mem memsys.HierarchyConfig

	// Chip holds the chip-level energy constants Result.ChipEnergy scores
	// runs with (L1/L2/DRAM/shared/SM-pipeline dynamic + leakage). The zero
	// value selects power.DefaultChipConfig via Normalized; explicit fields
	// re-calibrate one component at a time. Purely an accounting surface —
	// it never affects timing.
	Chip power.ChipConfig

	MaxCycles int64 // hard stop
	MaxInstrs int64 // dynamic instruction budget

	// DeactivateThreshold: an operand that will not be ready for at least
	// this many cycles marks the warp as blocked on a long-latency
	// operation, triggering two-level descheduling.
	DeactivateThreshold int64

	// WideXbar uses a full-bandwidth (1 cycle/register) prefetch crossbar
	// instead of the 4x-narrower one of §4.2 (ablation).
	WideXbar bool
	// Scheduler selects the warp-scheduler variant for the PR 4
	// reshuffle-sensitivity axis. Empty means SchedTwoLevel (the paper's
	// scheduler). See SchedulerMode.
	Scheduler Scheduler

	Seed uint64

	// reference selects the reference stack: the one-cycle-per-pass clock
	// instead of the event-driven fast-forward that jumps the dead spans in
	// which no warp can issue, and the linear issue scan that examines
	// every active warp each pass instead of the indexed ready-ring scan
	// (ring.go). The two stacks produce IDENTICAL results — every Stats
	// field — so only this package's equivalence, differential and fuzz
	// tests set it, as the oracle the production stack is held to.
	reference bool
}

// DefaultConfig returns the Table 3 system for a design at baseline
// technology (configuration #1) and latency 1x.
func DefaultConfig(d Design) Config {
	return Config{
		Design:              d,
		Tech:                memtech.MustConfig(1),
		LatencyX:            1.0,
		CacheKB:             16,
		MaxWarps:            64,
		ActiveWarps:         8,
		RegsPerInterval:     16,
		IssueWidth:          2,
		Collectors:          8,
		ALULat:              6,
		SFULat:              20,
		Mem:                 memsys.DefaultHierarchy(),
		MaxCycles:           600_000,
		MaxInstrs:           200_000,
		DeactivateThreshold: 60,
		Seed:                0x1234,
	}
}

// cyclesPerInstr is the hard cycle stop a budgeted run gets per
// instruction, and maxBudget the largest budget whose derived cycle stop
// fits in an int64.
const (
	cyclesPerInstr = 12
	maxBudget      = math.MaxInt64 / cyclesPerInstr
)

// SetBudget sets the dynamic-instruction budget and derives the hard cycle
// stop from it (12 cycles per instruction). A budget outside
// [1, math.MaxInt64/12] is an error and leaves the configuration unchanged.
func (c *Config) SetBudget(instrs int64) error {
	if instrs < 1 || instrs > maxBudget {
		return fmt.Errorf("sim: budget %d outside [1, %d]", instrs, int64(maxBudget))
	}
	c.MaxInstrs = instrs
	c.MaxCycles = instrs * cyclesPerInstr
	return nil
}

// BaseCapacityKB returns the main RF capacity BEFORE design scaling: the
// CapacityKB override (or the technology point's capacity) plus the
// non-cached designs' fairness adjustment (+CacheKB, §5), resolved from the
// design's registry descriptor. An unknown design contributes no
// adjustment; Validate surfaces it as an error.
func (c *Config) BaseCapacityKB() int {
	kb := c.CapacityKB
	if kb == 0 {
		kb = c.Tech.CapacityKB()
	}
	desc, err := c.Design.Descriptor()
	if err != nil {
		return kb
	}
	if !desc.IsCached {
		kb += c.CacheKB
	}
	return kb
}

// CTAs resolves CTAsPerSM: 0 means the historical single CTA.
func (c *Config) CTAs() int {
	if c.CTAsPerSM <= 1 {
		return 1
	}
	return c.CTAsPerSM
}

// SharedFreeBytes returns the shared-memory capacity left for register-file
// scratchpads after the kernel's own footprint — the budget
// capacity-scaling hooks (regdem) size their spill partitions against. With
// several CTAs per SM the scratchpad is split into per-CTA budgets
// (SizeB/CTAs) and each CTA pays the kernel footprint out of its own, so
// the hooks see the per-CTA headroom — at CTAsPerSM<=1 this is exactly the
// historical whole-scratchpad computation.
func (c *Config) SharedFreeBytes(kernel *isa.Program) int {
	sh := c.Mem.Shared.Normalized(c.Mem.SharedCycles)
	budget := sh.SizeB / c.CTAs()
	used := memsys.WorkloadSharedBytes(kernel)
	if used > budget {
		used = budget
	}
	return budget - used
}

// ResolveOccupancy makes the maxregcount-style occupancy decision for a
// kernel with unconstrained register demand `demand` under this
// configuration's design: the base capacity is scaled through the design
// descriptor's kernel-dependent CapacityX hook (comp's compressibility
// coverage, regdem's shared-memory-bounded demotion plan), then Occupancy
// resolves the per-thread register cap and resident warp count. It returns
// the effective capacity in KB alongside, for reporting. A hook returning a
// non-positive or non-finite scale is treated as 1.0.
func (c *Config) ResolveOccupancy(demand int, kernel *isa.Program) (regCap, warps, capKB int, err error) {
	if _, err := c.Design.Descriptor(); err != nil {
		return 0, 0, 0, err
	}
	capB := int(float64(c.BaseCapacityKB()*1024)*c.CapacityScale(demand, kernel) + 0.5)
	regCap, warps = Occupancy(demand, capB, c.MaxWarps, c.ActiveWarps)
	return regCap, warps, (capB + 512) / 1024, nil
}

// CapacityScale evaluates the design's kernel-dependent CapacityX hook for
// a kernel with the given register demand: 1.0 for designs without a hook,
// for unknown designs, and for hooks returning a non-positive or non-finite
// scale.
func (c *Config) CapacityScale(demand int, kernel *isa.Program) float64 {
	desc, err := c.Design.Descriptor()
	if err != nil || desc.CapacityX == nil {
		return 1
	}
	capX := desc.CapacityX(regfile.CapacityContext{
		Prog:        kernel,
		Demand:      demand,
		BaseCapB:    c.BaseCapacityKB() * 1024,
		MaxWarps:    c.MaxWarps,
		MinWarps:    c.ActiveWarps,
		SharedFreeB: c.SharedFreeBytes(kernel),
		Occupancy: func(d, capB int) (int, int) {
			return Occupancy(d, capB, c.MaxWarps, c.ActiveWarps)
		},
	})
	if capX <= 0 || math.IsNaN(capX) || math.IsInf(capX, 0) {
		return 1
	}
	return capX
}

// Validate checks the configuration for consistency.
func (c *Config) Validate() error {
	if _, err := c.Design.Descriptor(); err != nil {
		return fmt.Errorf("sim: %w", err)
	}
	// The register file scales the technology's main-RF latencies by
	// LatencyX; the result must be a cycle count it can simulate.
	if err := regfile.FromTech(c.Tech, c.LatencyX, c.RegsPerInterval).ValidateLatency(); err != nil {
		return fmt.Errorf("sim: %w", err)
	}
	if c.CapacityKB < 0 || c.CacheKB < 0 {
		return fmt.Errorf("sim: capacities must be non-negative (CapacityKB %d, CacheKB %d)", c.CapacityKB, c.CacheKB)
	}
	if c.MaxWarps < 1 || c.ActiveWarps < 1 {
		return fmt.Errorf("sim: warp counts must be positive (%d/%d)", c.MaxWarps, c.ActiveWarps)
	}
	// Occupancy caps registers per thread to reach ActiveWarps resident
	// warps, so an active set no SM can hold would silently shrink the
	// kernel's registers instead of failing.
	if c.ActiveWarps > c.MaxWarps {
		return fmt.Errorf("sim: ActiveWarps %d exceeds MaxWarps %d", c.ActiveWarps, c.MaxWarps)
	}
	if c.CTAsPerSM < 0 {
		return fmt.Errorf("sim: CTAsPerSM %d must be non-negative", c.CTAsPerSM)
	}
	if c.CTAsPerSM > c.MaxWarps {
		return fmt.Errorf("sim: CTAsPerSM %d exceeds MaxWarps %d (a CTA needs at least one warp)", c.CTAsPerSM, c.MaxWarps)
	}
	if err := c.Mem.Prefetch.Validate(); err != nil {
		return fmt.Errorf("sim: %w", err)
	}
	// A prefetch unit's working set is a set of architectural registers,
	// so a larger budget means nothing — and it sizes per-warp register
	// state, so an unbounded one exhausts memory before the run starts.
	if c.RegsPerInterval < 4 || c.RegsPerInterval > isa.MaxArchRegs {
		return fmt.Errorf("sim: RegsPerInterval %d outside [4, %d]", c.RegsPerInterval, isa.MaxArchRegs)
	}
	if c.IssueWidth < 1 {
		return fmt.Errorf("sim: IssueWidth must be >= 1")
	}
	if c.Collectors < 1 {
		return fmt.Errorf("sim: Collectors must be >= 1")
	}
	if c.MaxCycles < 1 || c.MaxInstrs < 1 {
		return fmt.Errorf("sim: budgets must be positive")
	}
	switch c.Scheduler {
	case "", SchedTwoLevel, SchedStatic, SchedFlat:
	default:
		return fmt.Errorf("sim: unknown scheduler %q (known: %s, %s, %s)", c.Scheduler, SchedTwoLevel, SchedStatic, SchedFlat)
	}
	if err := c.Chip.Validate(); err != nil {
		return fmt.Errorf("sim: %w", err)
	}
	return nil
}
