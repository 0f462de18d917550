package sim

import (
	"context"

	"ltrf/internal/core"
	"ltrf/internal/isa"
	"ltrf/internal/memsys"
	"ltrf/internal/power"
	"ltrf/internal/regfile"
)

// Result is the outcome of RunWithCacheCtx.
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

// launch is one kernel launch's simulated hardware: the SMs and the L2 and
// DRAM they share. A single-SM run is a launch of one.
type launch struct {
	info CompileInfo
	sms  []*SM
	l2   *memsys.Cache
	dram *memsys.DRAM
}

// newLaunch is the one setup every simulation goes through. It validates
// the configuration, compiles the kernel through cc (nil compiles without
// memoizing), and builds one L2, one DRAM and nSMs SMs on them, each with
// its private L1 and shared-memory scratchpad and its own register
// subsystem. Each SM runs the same kernel on a distinct slice of the grid:
// warp identities are offset per SM so memory streams differ, exactly like
// a grid-strided launch. ctx arms each SM's cancellation poll.
func newLaunch(ctx context.Context, c *Config, virtual *isa.Program, cc *CompileCache, nSMs int) (*launch, error) {
	if err := c.Validate(); err != nil {
		return nil, err
	}
	info, err := cc.Compile(c, virtual)
	if err != nil {
		return nil, err
	}
	l := &launch{
		info: info,
		sms:  make([]*SM, 0, nSMs),
		l2:   memsys.MustNewCache(c.Mem.L2),
		dram: memsys.NewDRAM(c.Mem.DRAM),
	}
	for i := 0; i < nSMs; i++ {
		// The memory system exists before the register subsystem: designs
		// that spill into shared memory (regdem) reserve their scratchpad
		// from the SM's occupancy-tracked shared memory, AFTER the
		// workload's own footprint is recorded — so the reservation can
		// fail and the design falls back, exactly as the occupancy hook
		// predicted. Each resident CTA instantiates the kernel's
		// shared-memory footprint (the per-CTA budget split is resolved in
		// Config.SharedFreeBytes).
		mem := memsys.NewShared(c.Mem, l.l2, l.dram)
		mem.Shared.SetWorkloadBytes(memsys.WorkloadSharedBytes(virtual) * c.CTAs())
		rf, err := buildSubsystem(c, info.Prog, info.Part, mem.Shared, info.Warps)
		if err != nil {
			mem.Release()
			l.release()
			return nil, err
		}
		sm := newSM(c, &l.info, rf, mem, i*info.Warps)
		sm.attachContext(ctx)
		l.sms = append(l.sms, sm)
	}
	return l, nil
}

// release recycles the cache storage of every SM's private L1 and of the
// shared L2. Runners call it once every statistic is captured.
func (l *launch) release() {
	for _, sm := range l.sms {
		sm.mem.Release()
	}
	l.l2.Release()
}

// RunWithCacheCtx simulates one kernel on one SM under one configuration.
// The kernel may use virtual registers: the run performs the
// maxregcount-style allocation for the configuration's register file
// capacity. The compile cache cc (nil for none) memoizes allocation and
// partition formation, so sweeps re-simulating one kernel under many timing
// configurations compile it once; the results are identical either way.
//
// The advance loop polls ctx.Done() every cancelCheckMask+1 passes and
// returns ctx.Err(), wrapped with the cycle and instruction position, when
// it fires. The poll reads no simulation state, so an uncancelled run is
// identical to one under context.Background().
func RunWithCacheCtx(ctx context.Context, c Config, virtual *isa.Program, cc *CompileCache) (*Result, error) {
	l, err := newLaunch(ctx, &c, virtual, cc, 1)
	if err != nil {
		return nil, err
	}
	defer l.release()
	sm := l.sms[0]
	if err := sm.run(); err != nil {
		return nil, err
	}
	return &Result{
		Stats:    sm.finalize(),
		Design:   c.Design,
		Config:   c,
		Kernel:   virtual.Name,
		Demand:   l.info.Demand,
		Capacity: l.info.CapacityKB,
	}, nil
}
