package sim

import (
	"sync"
	"sync/atomic"

	"ltrf/internal/cfg"
	"ltrf/internal/core"
	"ltrf/internal/isa"
	"ltrf/internal/liveness"
	"ltrf/internal/regalloc"
)

// CompileCache memoizes the compiler pipeline so that repeated simulations
// of the same kernel pay for register allocation once per (kernel, regCap)
// and partition formation once per (allocated kernel, scheme, N), instead of
// once per simulated point. It is safe for concurrent use: each distinct
// piece of work runs exactly once (singleflight) and every other caller
// blocks until it is done.
//
// Entries are keyed by *isa.Program identity, so callers must reuse the same
// program pointer across runs to hit the cache (internal/exp memoizes built
// workloads for exactly this reason). Cached programs and partitions are
// shared by concurrent simulations and therefore must not be mutated after
// compilation; the simulator only reads them.
//
// A nil *CompileCache is valid and means "no memoization": every method
// computes its result directly.
type CompileCache struct {
	pressure onceMap[*isa.Program, int]
	allocs   onceMap[allocKey, allocation]
	parts    onceMap[partKey, *core.Partition]

	compiles atomic.Int64 // allocation pipelines actually executed (misses)
}

// Compiles reports how many allocation pipelines (allocateAnnotated: the
// expensive register-allocation + CFG + liveness step) this cache has
// actually executed — i.e. (kernel, regCap) misses. Sweep schedulers are
// tested against it: a batched multi-kernel sweep must compile each
// distinct (kernel, regCap) at most once.
func (cc *CompileCache) Compiles() int64 {
	if cc == nil {
		return 0
	}
	return cc.compiles.Load()
}

// NewCompileCache returns an empty compile cache.
func NewCompileCache() *CompileCache { return &CompileCache{} }

// onceMap computes one value per key exactly once (singleflight): the first
// caller for a key runs the computation, and every other caller for that
// key blocks until it is done and shares its outcome, error included. The
// zero value is ready to use.
type onceMap[K comparable, V any] struct {
	mu sync.Mutex
	m  map[K]*onceEntry[V]
}

type onceEntry[V any] struct {
	once sync.Once
	v    V
	err  error
}

// do returns the outcome of compute for key k, running compute only if no
// caller has run it for k before.
func (om *onceMap[K, V]) do(k K, compute func() (V, error)) (V, error) {
	om.mu.Lock()
	e, ok := om.m[k]
	if !ok {
		if om.m == nil {
			om.m = map[K]*onceEntry[V]{}
		}
		e = &onceEntry[V]{}
		om.m[k] = e
	}
	om.mu.Unlock()
	e.once.Do(func() { e.v, e.err = compute() })
	return e.v, e.err
}

type allocKey struct {
	virtual *isa.Program
	regCap  int
}

// allocation is an allocated kernel and the registers its cap spilled.
type allocation struct {
	prog   *isa.Program
	spills int
}

type partKey struct {
	prog    *isa.Program
	strands bool
	n       int
}

// Pressure returns the unconstrained per-thread register demand of a
// virtual-register kernel (regalloc.Pressure), memoized per program.
func (cc *CompileCache) Pressure(virtual *isa.Program) (int, error) {
	if cc == nil {
		return regalloc.Pressure(virtual)
	}
	return cc.pressure.do(virtual, func() (int, error) { return regalloc.Pressure(virtual) })
}

// Allocate register-allocates a kernel under the given cap and annotates
// dead-operand bits, memoized per (program, regCap). The returned program is
// shared: callers must treat it as immutable.
func (cc *CompileCache) Allocate(virtual *isa.Program, regCap int) (*isa.Program, int, error) {
	if cc == nil {
		return allocateAnnotated(virtual, regCap)
	}
	a, err := cc.allocs.do(allocKey{virtual, regCap}, func() (allocation, error) {
		cc.compiles.Add(1)
		prog, spills, err := allocateAnnotated(virtual, regCap)
		return allocation{prog, spills}, err
	})
	return a.prog, a.spills, err
}

// Partition forms the prefetch partition (register-intervals or strands)
// for an allocated kernel, memoized per (program, scheme, N). The returned
// partition is shared: callers must treat it as immutable.
func (cc *CompileCache) Partition(prog *isa.Program, strands bool, n int) (*core.Partition, error) {
	if cc == nil {
		return formPartition(prog, strands, n)
	}
	return cc.parts.do(partKey{prog, strands, n}, func() (*core.Partition, error) {
		return formPartition(prog, strands, n)
	})
}

// CompileInfo is the outcome of the compiler pipeline for one
// configuration: the allocated kernel, its prefetch partition (nil unless
// the design needs units), and the occupancy decision that shaped the
// allocation.
type CompileInfo struct {
	Prog   *isa.Program
	Part   *core.Partition
	Demand int // unconstrained per-thread register demand
	RegCap int // per-thread register cap the occupancy decision imposed
	Warps  int // resident warps the capacity allows
	Spills int // registers spilled by the cap
	// CapacityKB is the effective occupancy capacity after the design's
	// kernel-dependent CapacityX scaling.
	CapacityKB int
}

// Compile lowers a (possibly virtual-register) kernel for a configuration:
// register allocation under the occupancy-derived cap, dead-bit annotation,
// and prefetch-unit formation where the design requires it. A nil cache
// compiles without memoizing.
//
// Occupancy is driven by the registers the compiler actually allocates
// (linear-scan pressure), not the tighter max-live bound: allocating at
// max-live would inject spill code even with no capacity cap.
//
// The occupancy decision is recomputed per configuration (it is cheap, and
// its design CapacityX hook depends on capacity knobs and the kernel),
// while pressure analysis, allocation, and partition formation are
// memoized.
func (cc *CompileCache) Compile(c *Config, virtual *isa.Program) (CompileInfo, error) {
	desc, err := c.Design.Descriptor()
	if err != nil {
		return CompileInfo{}, err
	}
	demand, err := cc.Pressure(virtual)
	if err != nil {
		return CompileInfo{}, err
	}
	regCap, warps, capKB, err := c.ResolveOccupancy(demand, virtual)
	if err != nil {
		return CompileInfo{}, err
	}

	prog, spills, err := cc.Allocate(virtual, regCap)
	if err != nil {
		return CompileInfo{}, err
	}

	var part *core.Partition
	if desc.NeedsUnits {
		part, err = cc.Partition(prog, desc.UsesStrands, c.RegsPerInterval)
		if err != nil {
			return CompileInfo{}, err
		}
	}
	return CompileInfo{
		Prog: prog, Part: part,
		Demand: demand, RegCap: regCap, Warps: warps, Spills: spills,
		CapacityKB: capKB,
	}, nil
}

// allocateAnnotated is the uncached allocation + dead-bit annotation step.
func allocateAnnotated(virtual *isa.Program, regCap int) (*isa.Program, int, error) {
	prog, st, err := regalloc.Allocate(virtual, regCap)
	if err != nil {
		return nil, 0, err
	}
	g, err := cfg.Build(prog)
	if err != nil {
		return nil, 0, err
	}
	liveness.Analyze(g).AnnotateDeadBits()
	return prog, st.SpilledRegs, nil
}

// formPartition is the uncached prefetch-partition formation step.
func formPartition(prog *isa.Program, strands bool, n int) (*core.Partition, error) {
	if strands {
		return core.FormStrands(prog, n)
	}
	return core.FormRegisterIntervals(prog, n)
}
