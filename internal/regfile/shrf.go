package regfile

import (
	"math/bits"

	"ltrf/internal/bitvec"
	"ltrf/internal/isa"
)

func init() {
	Register(Descriptor{
		Name:        "SHRF",
		IsCached:    true,
		NeedsUnits:  true,
		UsesStrands: true,
		New:         func(ctx BuildContext) (Subsystem, error) { return NewSHRF(ctx.Config), nil },
	})
}

// SHRF is the software-managed hierarchical register file of Gebhart et al.
// [20]: the compiler allocates register-cache space over strands and emits
// explicit movement operations. Its goal is energy (fewer background
// write-backs/reloads thanks to compile-time liveness), not latency
// tolerance — demand reads that miss still expose the main-RF latency, so it
// "performs similarly to RFC and can tolerate latencies by up to 2x" (§6.6).
type SHRF struct {
	cached
}

// NewSHRF builds the software-managed hierarchy. It consumes a strand
// partition (core.FormStrands) via OnUnitEnter.
func NewSHRF(cfg Config) *SHRF {
	return &SHRF{cached: newCached(cfg)}
}

func (c *SHRF) Name() string { return "SHRF" }

// ReadOperands hits the cache for resident registers; misses are the
// compiler's RF.LD movement operations, which read the main RF inline
// (exposed latency) and install into the allocated slot.
func (c *SHRF) ReadOperands(now int64, w *WarpRegs, srcs []isa.Reg) int64 {
	start := now + operandOverhead(&c.cfg, len(srcs))
	done := start
	for _, r := range srcs {
		c.st.CacheReads++
		var t int64
		if w.Present.Test(int(r)) {
			c.st.CacheReadHits++
			t = c.readCacheReg(start, w.CacheBank(r))
		} else {
			t = c.readMainReg(start, w.ID, r)
			c.installReg(start, w, r)
		}
		if t > done {
			done = t
		}
	}
	return done
}

// WriteResult installs the destination into the strand's allocated space.
// Writes are buffered: the return value is the write latency.
func (c *SHRF) WriteResult(now int64, w *WarpRegs, dst isa.Reg) int64 {
	c.st.CacheWrites++
	c.installReg(now, w, dst)
	w.Dirty.Set(int(dst))
	return int64(c.cfg.CacheCycles)
}

// OnUnitEnter begins a new strand: registers outside the strand's working
// set are evicted, written back only when dirty AND still live (the
// compile-time liveness that lets SHRF cut background register traffic).
// There is no prefetch — the warp continues immediately.
func (c *SHRF) OnUnitEnter(now int64, w *WarpRegs, unitID int, ws bitvec.Vector) int64 {
	if unitID == w.CurUnit {
		return now
	}
	c.st.Prefetches++ // counts strand-boundary movement operations
	for wi, word := range w.Present.Diff(ws) {
		for word != 0 {
			r := isa.Reg(wi<<6 | bits.TrailingZeros64(word))
			word &= word - 1
			c.evict(now, w, r, true)
		}
	}
	w.WS = ws
	w.CurUnit = unitID
	return now
}

// OnActivate refills nothing: strand movement code reloads on demand.
func (c *SHRF) OnActivate(now int64, w *WarpRegs) int64 { return now }

// OnDeactivate writes back only dirty live registers and releases the
// partition.
func (c *SHRF) OnDeactivate(now int64, w *WarpRegs) int64 {
	return c.flush(now, w, w.Dirty.Intersect(w.Live))
}
