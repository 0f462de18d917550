package regfile

import (
	"math/bits"

	"ltrf/internal/bitvec"
	"ltrf/internal/isa"
)

func init() {
	Register(Descriptor{
		Name:       "LTRF",
		IsCached:   true,
		NeedsUnits: true,
		New:        func(ctx BuildContext) (Subsystem, error) { return NewLTRF(ctx.Config, false), nil },
	})
	Register(Descriptor{
		Name:       "LTRF+",
		IsCached:   true,
		NeedsUnits: true,
		New:        func(ctx BuildContext) (Subsystem, error) { return NewLTRF(ctx.Config, true), nil },
	})
	// The §6.6 ablation: the LTRF hardware prefetching at strand granularity
	// (the partition scheme is the only difference from LTRF).
	Register(Descriptor{
		Name:        "LTRF(strand)",
		IsCached:    true,
		NeedsUnits:  true,
		UsesStrands: true,
		New:         func(ctx BuildContext) (Subsystem, error) { return NewLTRF(ctx.Config, false), nil },
	})
}

// LTRF is the paper's latency-tolerant register file: a software PREFETCH
// at every prefetch-unit entry moves the unit's register working set from
// the main RF into the warp's register-cache partition, so all in-unit
// accesses hit the fast cache while other warps hide the prefetch latency
// (§3). With Plus=true it is LTRF+, which consults the runtime liveness
// bit-vector to skip dead registers on prefetch, write-back, and
// reactivation (§3.2).
type LTRF struct {
	cached
	plus bool
}

// NewLTRF builds LTRF (plus=false) or LTRF+ (plus=true).
func NewLTRF(cfg Config, plus bool) *LTRF {
	return &LTRF{cached: newCached(cfg), plus: plus}
}

func (c *LTRF) Name() string {
	if c.plus {
		return "LTRF+"
	}
	return "LTRF"
}

// ReadOperands: every source is guaranteed resident by the PREFETCH
// contract, so reads see only WCB + cache-bank latency. A read of a
// non-resident register (possible only for registers never written, e.g.
// uninitialized reads) falls back to the main RF and is counted.
func (c *LTRF) ReadOperands(now int64, w *WarpRegs, srcs []isa.Reg) int64 {
	start := now + operandOverhead(&c.cfg, len(srcs))
	done := start
	for _, r := range srcs {
		c.st.CacheReads++
		var t int64
		if w.Present.Test(int(r)) {
			c.st.CacheReadHits++
			t = c.readCacheReg(start, w.CacheBank(r))
		} else {
			c.st.FallbackReads++
			t = c.readMainReg(start, w.ID, r)
			c.installReg(start, w, r)
		}
		if t > done {
			done = t
		}
	}
	return done
}

// WriteResult writes into the register cache; the slot was allocated by the
// PREFETCH (dead registers get a slot without data, §3.2). Writes are
// buffered: the return value is the write latency.
func (c *LTRF) WriteResult(now int64, w *WarpRegs, dst isa.Reg) int64 {
	c.st.CacheWrites++
	if !w.Present.Test(int(dst)) {
		c.installReg(now, w, dst)
	}
	w.Dirty.Set(int(dst))
	return int64(c.cfg.CacheCycles)
}

// OnUnitEnter executes the PREFETCH operation (§4.2): stream the new
// working set's missing registers from the main RF banks through the narrow
// crossbar, making room lazily with FIFO eviction of registers outside the
// working set (dirty — for LTRF+ only live — victims are written back).
// Registers of earlier units stay resident while space allows, so re-entry
// into a recently executed unit fetches little. The warp stalls until its
// last register arrives; other active warps keep issuing, which is the
// latency overlap at the heart of LTRF.
//
// The victims are picked in one forward walk of the allocation order.
// Each eviction takes the oldest resident register outside the working
// set; every register this PREFETCH allocates is inside it, so after one
// eviction the next victim is the first unprotected register after the
// last one, and a single cursor finds them all. A cursor that runs off
// the end means a working set larger than the partition: the FIFO head
// goes, protected or not.
func (c *LTRF) OnUnitEnter(now int64, w *WarpRegs, unitID int, ws bitvec.Vector) int64 {
	if unitID == w.CurUnit {
		return now
	}
	c.st.Prefetches++

	done := now
	cursor := w.head
	for wi, word := range ws.Diff(w.Present) {
		for word != 0 {
			i := wi<<6 | bits.TrailingZeros64(word)
			word &= word - 1
			if w.FreeSlots() == 0 {
				for cursor != -1 && ws.Test(int(cursor)) {
					cursor = w.order.next[cursor]
				}
				victim := cursor
				if victim == -1 {
					victim = w.head
				} else {
					cursor = w.order.next[cursor]
				}
				if victim != -1 {
					c.evict(now, w, isa.Reg(victim), c.plus)
				}
			}
			r := isa.Reg(i)
			w.allocate(r)
			if c.plus && !w.Live.Test(i) {
				// Dead register: allocate space only; its first access
				// will be a write (§3.2).
				continue
			}
			c.st.PrefetchRegs++
			if t := c.fetchReg(now, w.ID, r); t > done {
				done = t
			}
		}
	}

	w.WS = ws
	w.CurUnit = unitID
	return done
}

// OnActivate re-fetches the working set of the interrupted unit from the
// main RF (§4.2 Warp Stall: "it must refetch all its specified registers in
// its working-set bit-vector that are still live"). Residency is tested
// per register as the walk goes, because a FIFO eviction for an earlier
// register may take a later one.
func (c *LTRF) OnActivate(now int64, w *WarpRegs) int64 {
	if w.CurUnit == -1 {
		return now // never entered a unit: first PREFETCH will load it
	}
	c.st.Activations++
	done := now
	for wi, word := range w.WS {
		for word != 0 {
			i := wi<<6 | bits.TrailingZeros64(word)
			word &= word - 1
			if w.Present.Test(i) {
				continue
			}
			if w.FreeSlots() == 0 {
				c.evictFor(now, w)
			}
			r := isa.Reg(i)
			w.allocate(r)
			if c.plus && !w.Live.Test(i) {
				continue
			}
			c.st.ActivationRegs++
			if t := c.fetchReg(now, w.ID, r); t > done {
				done = t
			}
		}
	}
	return done
}

// OnDeactivate writes the warp's registers back to the main RF and releases
// its partition: the dirty resident set for basic LTRF, only dirty live
// registers for LTRF+ (§3.2). Clean registers are skipped in both variants:
// their main-RF copy is still valid (they arrived via PREFETCH and were
// never overwritten), so writing them back would move data the main RF
// already holds.
func (c *LTRF) OnDeactivate(now int64, w *WarpRegs) int64 {
	wb := w.Present.Intersect(w.Dirty)
	if c.plus {
		wb = wb.Intersect(w.Live)
	}
	return c.flush(now, w, wb)
}
