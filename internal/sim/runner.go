package sim

import (
	"context"

	"ltrf/internal/core"
	"ltrf/internal/isa"
	"ltrf/internal/memsys"
	"ltrf/internal/power"
	"ltrf/internal/regfile"
)

// Result is the outcome of Run.
type Result struct {
	Stats
	Design   Design
	Config   Config
	Kernel   string
	Demand   int // unconstrained per-thread register demand
	Capacity int // effective main RF capacity in KB
}

// RFEnergy computes the register-file-only energy breakdown of this run
// through the design's registry energy hooks at the configuration's
// technology point — the quantity Figure 10 and the RF-EDP columns score.
func (r *Result) RFEnergy() (power.Breakdown, error) {
	desc, err := r.Design.Descriptor()
	if err != nil {
		return power.Breakdown{}, err
	}
	return power.NewModelFor(desc, r.Config.Tech).Compute(r.Cycles, r.RF), nil
}

// ChipEnergy computes the chip-level energy breakdown of this run: the RF
// breakdown plus L1/L2/DRAM/shared-memory/SM-pipeline components from the
// simulator's event counters, under the configuration's Chip constants.
// Chip EDP is never below RF EDP on the same run, so a design can only lose
// ground here — the honest yardstick for designs that buy RF savings with
// memory-system or pipeline cost.
func (r *Result) ChipEnergy() (power.ChipBreakdown, error) {
	desc, err := r.Design.Descriptor()
	if err != nil {
		return power.ChipBreakdown{}, err
	}
	m := power.NewChipModelFor(desc, r.Config.Tech, r.Config.Chip)
	return m.Compute(r.Stats.ChipEvents(), r.RF), nil
}

// bytesPerWarpReg is the storage of one warp-register: 32 threads x 4 bytes.
const bytesPerWarpReg = 128

// Occupancy computes the maxregcount-style occupancy decision for a kernel
// with unconstrained register demand `demand` on a register file of capB
// bytes: the per-thread register cap and the resident warp count. When the
// natural demand would leave fewer than minWarps resident, the register
// count is capped (forcing spills) to restore occupancy, mirroring how CUDA
// programmers use -maxregcount (§2.1).
func Occupancy(demand, capB, maxWarps, minWarps int) (regCap, warps int) {
	regCap = demand
	if regCap > isa.MaxArchRegs {
		regCap = isa.MaxArchRegs
	}
	if regCap < 8 {
		regCap = 8
	}
	warps = capB / (regCap * bytesPerWarpReg)
	if warps < minWarps {
		// Cap registers to reach minWarps occupancy.
		regCap = capB / (minWarps * bytesPerWarpReg)
		if regCap > isa.MaxArchRegs {
			regCap = isa.MaxArchRegs
		}
		if regCap < 8 {
			regCap = 8
		}
		warps = capB / (regCap * bytesPerWarpReg)
	}
	if warps > maxWarps {
		warps = maxWarps
	}
	if warps < 1 {
		warps = 1
	}
	return regCap, warps
}

// buildSubsystem constructs the register-file design under test by
// resolving the Config's design in the regfile registry: the descriptor's
// Timing hook may remap the (tech, latency) pair (Ideal pins the baseline
// point), and its constructor receives the compiled kernel, partition, the
// SM's shared-memory scratchpad, and the resident warp count, so designs
// can derive per-register metadata and reserve spill space from the real
// memory system.
func buildSubsystem(c *Config, prog *isa.Program, part *core.Partition, shared *memsys.SharedMem, warps int) (regfile.Subsystem, error) {
	desc, err := c.Design.Descriptor()
	if err != nil {
		return nil, err
	}
	tech, latX := c.Tech, c.LatencyX
	if desc.Timing != nil {
		tech, latX = desc.Timing(tech, latX)
	}
	rfCfg := regfile.FromTech(tech, latX, c.RegsPerInterval)
	if c.WideXbar {
		rfCfg.XbarCyclesPerReg = 1
	}
	if err := rfCfg.Validate(); err != nil {
		return nil, err
	}
	return regfile.Build(desc.Name, regfile.BuildContext{
		Config:    rfCfg,
		Prog:      prog,
		Part:      part,
		Seed:      c.Seed,
		SharedMem: shared,
		Warps:     warps,
	})
}

// Run simulates one kernel under one configuration and returns the result.
// The kernel may use virtual registers; Run performs the maxregcount-style
// allocation for the configuration's register file capacity.
func Run(c Config, virtual *isa.Program) (*Result, error) {
	return RunWithCacheCtx(context.Background(), c, virtual, nil)
}

// RunCtx is Run under a cancellation context: the advance loop polls
// ctx.Done() every cancelCheckMask+1 passes and returns ctx.Err() (wrapped
// with the cycle/instruction position) when it fires. An uncancelled RunCtx
// is byte-identical to Run — the poll reads no simulation state.
func RunCtx(ctx context.Context, c Config, virtual *isa.Program) (*Result, error) {
	return RunWithCacheCtx(ctx, c, virtual, nil)
}

// RunWithCache is Run with a compile cache: the kernel's allocation and
// partition formation are memoized in cc (when non-nil) so that sweeps
// re-simulating the same kernel under many timing configurations compile it
// once. The simulation itself is unaffected — results are identical to Run.
func RunWithCache(c Config, virtual *isa.Program, cc *CompileCache) (*Result, error) {
	return RunWithCacheCtx(context.Background(), c, virtual, cc)
}

// RunWithCacheCtx is RunWithCache under a cancellation context (see RunCtx).
func RunWithCacheCtx(ctx context.Context, c Config, virtual *isa.Program, cc *CompileCache) (*Result, error) {
	if err := c.Validate(); err != nil {
		return nil, err
	}
	info, err := cc.Compile(&c, virtual)
	if err != nil {
		return nil, err
	}

	// The memory system exists before the register subsystem: designs that
	// spill into shared memory (regdem) reserve their scratchpad from the
	// hierarchy's occupancy-tracked shared memory, AFTER the workload's own
	// footprint is recorded — so the reservation can fail and the design
	// falls back, exactly as the occupancy hook predicted.
	mem := memsys.NewHierarchy(c.Mem)
	// Each resident CTA instantiates the kernel's shared-memory footprint
	// (the per-CTA budget split is resolved in Config.SharedFreeBytes).
	mem.Shared.SetWorkloadBytes(memsys.WorkloadSharedBytes(virtual) * c.CTAs())

	rf, err := buildSubsystem(&c, info.Prog, info.Part, mem.Shared, info.Warps)
	if err != nil {
		return nil, err
	}

	warps := info.Warps
	sm := newSM(&c, info.Prog, info.Part, rf, mem, warps, 0)
	sm.attachContext(ctx)
	st, err := sm.run()
	if err != nil {
		mem.Release()
		return nil, err
	}
	st.Warps = warps
	st.RegsPerThread = info.Prog.RegCount()
	st.SpilledRegs = info.Spills
	// finalize (inside run) has copied every memory-system statistic into
	// st, so the hierarchy's cache storage can be recycled for the next
	// simulation.
	mem.Release()

	return &Result{
		Stats:    st,
		Design:   c.Design,
		Config:   c,
		Kernel:   virtual.Name,
		Demand:   info.Demand,
		Capacity: info.CapacityKB,
	}, nil
}
