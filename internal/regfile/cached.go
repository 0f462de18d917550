package regfile

import (
	"math/bits"

	"ltrf/internal/bitvec"
	"ltrf/internal/isa"
)

// cached bundles the structures shared by every register-file-cache design:
// the main RF banks, the register cache banks, and the narrow crossbar that
// moves registers between the two levels (§4.2 Interconnect).
//
// The narrow crossbar has 1/4 the baseline bandwidth (4 register lanes
// instead of 16) and a 4-cycle traversal latency instead of 1; it is
// pipelined, so a lane accepts a new register every cycle (§4.2: "the
// narrower crossbar would exhibit a traversal latency 4x larger ... and far
// larger latency when the crossbar is saturated and queuing effects become
// dominant" — the lane BankSet produces exactly those queueing effects).
type cached struct {
	cfg       Config
	main      *BankSet
	cache     *BankSet
	xbar      *BankSet // per-lane pipelined occupancy (1 cycle per register)
	xbarLat   int64    // traversal latency added after the lane slot
	xbarLanes int
	net       int64
	st        Stats
}

func newCached(cfg Config) cached {
	lanes := 16 / cfg.XbarCyclesPerReg // narrow: 4 lanes; wide ablation: 16
	if lanes < 1 {
		lanes = 1
	}
	return cached{
		cfg:       cfg,
		main:      NewBankSet(cfg.Banks, cfg.MainBankInitiation(), cfg.MainBankCycles()),
		cache:     NewBankSet(cfg.CacheBanks, 1, cfg.CacheCycles),
		xbar:      NewBankSet(lanes, 1, cfg.XbarCyclesPerReg),
		xbarLat:   int64(cfg.XbarCyclesPerReg),
		xbarLanes: lanes,
		net:       int64(cfg.MainNetCycles()),
	}
}

func (c *cached) Stats() *Stats  { return &c.st }
func (c *cached) Config() Config { return c.cfg }

// readCacheReg reads a resident register from its cache bank after the WCB
// address-table lookup.
func (c *cached) readCacheReg(now int64, bank int) int64 {
	c.st.WCBAccesses++
	if bank < 0 {
		bank = 0
	}
	return c.cache.Access(now+int64(c.cfg.WCBCycles), bank)
}

// readMainReg reads a register from the main RF (exposed latency).
func (c *cached) readMainReg(now int64, warp int, r isa.Reg) int64 {
	c.st.MainReads++
	return c.main.Access(now, mainBank(c.cfg.Banks, warp, int(r))) + c.net
}

// fetchReg moves one register main RF -> cache over the narrow crossbar
// (PREFETCH data path) and returns its arrival time. Both the bank read
// port and the crossbar lane are reserved at request time (the transfer is
// store-and-forward buffered), so resource timestamps stay monotone and a
// queued crossbar cannot ratchet bank reservations into the future.
func (c *cached) fetchReg(now int64, warp int, r isa.Reg) int64 {
	c.st.MainReads++
	bank := mainBank(c.cfg.Banks, warp, int(r))
	bankDone := c.main.Access(now, bank)
	laneDone := c.xbar.Access(now, bank%c.xbarLanes)
	if bankDone > laneDone {
		return bankDone
	}
	return laneDone
}

// writebackReg moves one register cache -> main RF over the crossbar.
// Register file banks have a separate write port fed from the crossbar's
// buffer, so write-backs occupy crossbar bandwidth but never block the
// read path.
func (c *cached) writebackReg(now int64, warp int, r isa.Reg) int64 {
	c.st.MainWrites++
	c.st.WritebackRegs++
	bank := mainBank(c.cfg.Banks, warp, int(r))
	return c.xbar.Access(now, bank%c.xbarLanes) + c.main.initiation
}

// evict releases victim's cache slot, writing it back first when it is
// dirty — and, with liveOnly (LTRF+, SHRF), still live. The slot is
// reusable at once; the write-back drains in the background.
func (c *cached) evict(now int64, w *WarpRegs, victim isa.Reg, liveOnly bool) {
	if w.Dirty.Test(int(victim)) && (!liveOnly || w.Live.Test(int(victim))) {
		c.writebackReg(now, w.ID, victim)
	}
	w.release(victim)
}

// evictFor frees one cache slot using FIFO replacement.
func (c *cached) evictFor(now int64, w *WarpRegs) {
	if victim := w.fifoVictim(); victim != isa.RegNone {
		c.evict(now, w, victim, false)
	}
}

// installReg allocates a slot for r (evicting if needed).
func (c *cached) installReg(now int64, w *WarpRegs, r isa.Reg) {
	if w.Present.Test(int(r)) {
		return
	}
	if w.FreeSlots() == 0 {
		c.evictFor(now, w)
	}
	w.allocate(r)
}

// flush writes back the resident registers selected by writeBack, in
// ascending register order, then releases the whole partition; it returns
// the last write-back completion time.
func (c *cached) flush(now int64, w *WarpRegs, writeBack bitvec.Vector) int64 {
	done := now
	for wi, word := range w.Present.Intersect(writeBack) {
		for word != 0 {
			r := isa.Reg(wi<<6 | bits.TrailingZeros64(word))
			word &= word - 1
			if t := c.writebackReg(now, w.ID, r); t > done {
				done = t
			}
		}
	}
	w.releaseAll()
	return done
}
