package regfile

// The per-register bookkeeping that the word-level paths of LTRF, LTRF+,
// SHRF and RFC replaced, kept as their oracle. refWarp keeps allocation
// order in a slice that release searches and shifts, PREFETCH rescans that
// slice for every victim, every bit-vector walk calls a closure, and RFC
// tags its shared cache with a map. FuzzPrefetchEquivalence drives these
// and the production designs through the same calls and requires the same
// state after each one.

import (
	"ltrf/internal/bitvec"
	"ltrf/internal/isa"
)

// refWarp is the per-warp state of the reference designs.
type refWarp struct {
	ID int

	Present bitvec.Vector
	Dirty   bitvec.Vector
	Live    bitvec.Vector
	WS      bitvec.Vector
	CurUnit int

	addrTable [isa.MaxArchRegs]int16
	freeBanks []int16
	freeHead  int
	freeLen   int
	// fifo records allocation order for FIFO replacement.
	fifo []isa.Reg
}

func newRefWarp(id, cacheBanks int) *refWarp {
	w := &refWarp{ID: id, CurUnit: -1, freeBanks: make([]int16, cacheBanks), freeLen: cacheBanks}
	for i := range w.addrTable {
		w.addrTable[i] = -1
	}
	for i := range w.freeBanks {
		w.freeBanks[i] = int16(i)
	}
	return w
}

func (w *refWarp) allocate(r isa.Reg) bool {
	if w.addrTable[r] != -1 {
		return true
	}
	if w.freeLen == 0 {
		return false
	}
	bank := w.freeBanks[w.freeHead]
	w.freeHead++
	if w.freeHead == len(w.freeBanks) {
		w.freeHead = 0
	}
	w.freeLen--
	w.addrTable[r] = bank
	w.Present.Set(int(r))
	w.fifo = append(w.fifo, r)
	return true
}

func (w *refWarp) release(r isa.Reg) {
	bank := w.addrTable[r]
	if bank == -1 {
		return
	}
	w.addrTable[r] = -1
	w.Present.Clear(int(r))
	w.Dirty.Clear(int(r))
	tail := w.freeHead + w.freeLen
	if tail >= len(w.freeBanks) {
		tail -= len(w.freeBanks)
	}
	w.freeBanks[tail] = bank
	w.freeLen++
	for i, fr := range w.fifo {
		if fr == r {
			w.fifo = append(w.fifo[:i], w.fifo[i+1:]...)
			break
		}
	}
}

func (w *refWarp) fifoVictim() isa.Reg {
	if len(w.fifo) == 0 {
		return isa.RegNone
	}
	return w.fifo[0]
}

// refSubsystem is the Subsystem surface of a reference design.
type refSubsystem interface {
	ReadOperands(now int64, w *refWarp, srcs []isa.Reg) int64
	WriteResult(now int64, w *refWarp, dst isa.Reg) int64
	OnUnitEnter(now int64, w *refWarp, unitID int, ws bitvec.Vector) int64
	OnActivate(now int64, w *refWarp) int64
	OnDeactivate(now int64, w *refWarp) int64
	shared() *cached
}

// refCached holds the reference replacement and flush helpers over the
// production banks and crossbar.
type refCached struct{ cached }

func (c *refCached) shared() *cached { return &c.cached }

func (c *refCached) evictFor(now int64, w *refWarp) {
	victim := w.fifoVictim()
	if victim == isa.RegNone {
		return
	}
	if w.Dirty.Test(int(victim)) {
		c.writebackReg(now, w.ID, victim)
	}
	w.release(victim)
}

func (c *refCached) evictForAvoiding(now int64, w *refWarp, protect bitvec.Vector, plusLive bool) {
	victim := isa.RegNone
	for _, r := range w.fifo {
		if !protect.Test(int(r)) {
			victim = r
			break
		}
	}
	if victim == isa.RegNone {
		victim = w.fifoVictim()
	}
	if victim == isa.RegNone {
		return
	}
	if w.Dirty.Test(int(victim)) && (!plusLive || w.Live.Test(int(victim))) {
		c.writebackReg(now, w.ID, victim)
	}
	w.release(victim)
}

func (c *refCached) installReg(now int64, w *refWarp, r isa.Reg) {
	if w.Present.Test(int(r)) {
		return
	}
	if w.freeLen == 0 {
		c.evictFor(now, w)
	}
	w.allocate(r)
}

func (c *refCached) flush(now int64, w *refWarp, writeBack bitvec.Vector) int64 {
	done := now
	resident := w.Present
	resident.ForEach(func(i int) {
		r := isa.Reg(i)
		if writeBack.Test(i) {
			if t := c.writebackReg(now, w.ID, r); t > done {
				done = t
			}
		}
		w.release(r)
	})
	return done
}

// refLTRF is the reference LTRF (plus=false) and LTRF+ (plus=true).
type refLTRF struct {
	refCached
	plus bool
}

func (c *refLTRF) ReadOperands(now int64, w *refWarp, srcs []isa.Reg) int64 {
	start := now + operandOverhead(&c.cfg, len(srcs))
	done := start
	for _, r := range srcs {
		c.st.CacheReads++
		var t int64
		if w.Present.Test(int(r)) {
			c.st.CacheReadHits++
			t = c.readCacheReg(start, int(w.addrTable[r]))
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

func (c *refLTRF) WriteResult(now int64, w *refWarp, dst isa.Reg) int64 {
	c.st.CacheWrites++
	if !w.Present.Test(int(dst)) {
		c.installReg(now, w, dst)
	}
	w.Dirty.Set(int(dst))
	return int64(c.cfg.CacheCycles)
}

func (c *refLTRF) OnUnitEnter(now int64, w *refWarp, unitID int, ws bitvec.Vector) int64 {
	if unitID == w.CurUnit {
		return now
	}
	c.st.Prefetches++

	done := now
	ws.Diff(w.Present).ForEach(func(i int) {
		r := isa.Reg(i)
		if w.freeLen == 0 {
			c.evictForAvoiding(now, w, ws, c.plus)
		}
		w.allocate(r)
		if c.plus && !w.Live.Test(i) {
			return
		}
		c.st.PrefetchRegs++
		if t := c.fetchReg(now, w.ID, r); t > done {
			done = t
		}
	})

	w.WS = ws
	w.CurUnit = unitID
	return done
}

func (c *refLTRF) OnActivate(now int64, w *refWarp) int64 {
	if w.CurUnit == -1 {
		return now
	}
	c.st.Activations++
	done := now
	w.WS.ForEach(func(i int) {
		r := isa.Reg(i)
		if w.Present.Test(i) {
			return
		}
		if w.freeLen == 0 {
			c.evictFor(now, w)
		}
		w.allocate(r)
		if c.plus && !w.Live.Test(i) {
			return
		}
		c.st.ActivationRegs++
		if t := c.fetchReg(now, w.ID, r); t > done {
			done = t
		}
	})
	return done
}

func (c *refLTRF) OnDeactivate(now int64, w *refWarp) int64 {
	wb := w.Present.Intersect(w.Dirty)
	if c.plus {
		wb = wb.Intersect(w.Live)
	}
	return c.flush(now, w, wb)
}

// refSHRF is the reference SHRF.
type refSHRF struct{ refCached }

func (c *refSHRF) ReadOperands(now int64, w *refWarp, srcs []isa.Reg) int64 {
	start := now + operandOverhead(&c.cfg, len(srcs))
	done := start
	for _, r := range srcs {
		c.st.CacheReads++
		var t int64
		if w.Present.Test(int(r)) {
			c.st.CacheReadHits++
			t = c.readCacheReg(start, int(w.addrTable[r]))
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

func (c *refSHRF) WriteResult(now int64, w *refWarp, dst isa.Reg) int64 {
	c.st.CacheWrites++
	c.installReg(now, w, dst)
	w.Dirty.Set(int(dst))
	return int64(c.cfg.CacheCycles)
}

func (c *refSHRF) OnUnitEnter(now int64, w *refWarp, unitID int, ws bitvec.Vector) int64 {
	if unitID == w.CurUnit {
		return now
	}
	c.st.Prefetches++
	evict := w.Present.Diff(ws)
	evict.ForEach(func(i int) {
		r := isa.Reg(i)
		if w.Dirty.Test(i) && w.Live.Test(i) {
			c.writebackReg(now, w.ID, r)
		}
		w.release(r)
	})
	w.WS = ws
	w.CurUnit = unitID
	return now
}

func (c *refSHRF) OnActivate(now int64, w *refWarp) int64 { return now }

func (c *refSHRF) OnDeactivate(now int64, w *refWarp) int64 {
	return c.flush(now, w, w.Dirty.Intersect(w.Live))
}

// refRFC is the reference RFC: a FIFO slice of (warp, reg) keys that
// shifts on every eviction, and a map for presence.
type refRFC struct {
	refCached
	slots   int
	fifo    []refRFCEntry
	present map[refRFCKey]bool
}

type refRFCKey struct {
	warp int
	reg  isa.Reg
}

type refRFCEntry struct {
	key refRFCKey
	wr  *refWarp
}

func newRefRFC(cfg Config) *refRFC {
	slots := cfg.SharedCacheRegs
	if slots < 1 {
		slots = cfg.CacheBanks * 8
	}
	return &refRFC{
		refCached: refCached{newCached(cfg)},
		slots:     slots,
		present:   make(map[refRFCKey]bool, slots),
	}
}

func (c *refRFC) install(now int64, w *refWarp, r isa.Reg) {
	key := refRFCKey{w.ID, r}
	if c.present[key] {
		return
	}
	if len(c.fifo) >= c.slots {
		victim := c.fifo[0]
		c.fifo = c.fifo[1:]
		delete(c.present, victim.key)
		if victim.wr.Dirty.Test(int(victim.key.reg)) {
			c.writebackReg(now, victim.wr.ID, victim.key.reg)
		}
		victim.wr.Present.Clear(int(victim.key.reg))
		victim.wr.Dirty.Clear(int(victim.key.reg))
	}
	c.fifo = append(c.fifo, refRFCEntry{key, w})
	c.present[key] = true
	w.Present.Set(int(r))
}

func (c *refRFC) ReadOperands(now int64, w *refWarp, srcs []isa.Reg) int64 {
	start := now + operandOverhead(&c.cfg, len(srcs))
	done := start
	for _, r := range srcs {
		c.st.CacheReads++
		var t int64
		if c.present[refRFCKey{w.ID, r}] {
			c.st.CacheReadHits++
			c.st.WCBAccesses++
			t = c.cache.Access(start+int64(c.cfg.WCBCycles), (int(r)+w.ID*5)%c.cfg.CacheBanks)
		} else {
			t = c.readMainReg(start, w.ID, r)
		}
		if t > done {
			done = t
		}
	}
	return done
}

func (c *refRFC) WriteResult(now int64, w *refWarp, dst isa.Reg) int64 {
	c.st.CacheWrites++
	c.install(now, w, dst)
	w.Dirty.Set(int(dst))
	return int64(c.cfg.CacheCycles)
}

func (c *refRFC) OnUnitEnter(now int64, w *refWarp, unitID int, ws bitvec.Vector) int64 {
	w.CurUnit = unitID
	return now
}

func (c *refRFC) OnActivate(now int64, w *refWarp) int64 { return now }

func (c *refRFC) OnDeactivate(now int64, w *refWarp) int64 {
	done := now
	kept := c.fifo[:0]
	for _, e := range c.fifo {
		if e.key.warp != w.ID {
			kept = append(kept, e)
			continue
		}
		delete(c.present, e.key)
		if w.Dirty.Test(int(e.key.reg)) {
			if t := c.writebackReg(now, w.ID, e.key.reg); t > done {
				done = t
			}
		}
		w.Present.Clear(int(e.key.reg))
		w.Dirty.Clear(int(e.key.reg))
	}
	c.fifo = kept
	return done
}
