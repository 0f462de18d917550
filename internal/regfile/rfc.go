package regfile

import (
	"ltrf/internal/bitvec"
	"ltrf/internal/isa"
)

func init() {
	Register(Descriptor{
		Name:     "RFC",
		IsCached: true,
		New:      func(ctx BuildContext) (Subsystem, error) { return NewRFC(ctx.Config), nil },
	})
}

// rfcEntry is one warp-register resident in the shared cache.
type rfcEntry struct {
	w   *WarpRegs
	reg isa.Reg
}

// RFC is the hardware register-file cache of Gebhart et al. [19] as the
// paper evaluates it (§2.3): a conventional SHARED cache over the active
// warps' registers with FIFO replacement, allocating on result writes and
// read misses, with no prefetching. Its hit rate is low for the three
// reasons §2.3 lists — warps displace each other's registers, renamed
// temporaries have little temporal locality, and there is no spatial
// locality to exploit — so read misses expose the full main-RF latency,
// capping its latency tolerance around 2x (§6.3).
//
// The cache's tags are each warp's Present vector: a warp-register is
// resident exactly while its bit is set. Replacement order is a ring of
// slots entries, allocated once, oldest at head; deactivation compacts it
// in place. WarpRegs.Reset clears a finished warp's Present but leaves its
// entries in the ring until they age out, which is harmless because a
// finished warp never reads the cache again.
type RFC struct {
	cached
	ring    []rfcEntry
	head, n int
}

// NewRFC builds the [19]-style shared hardware register cache.
func NewRFC(cfg Config) *RFC {
	slots := cfg.SharedCacheRegs
	if slots < 1 {
		slots = cfg.CacheBanks * 8
	}
	return &RFC{cached: newCached(cfg), ring: make([]rfcEntry, slots)}
}

func (c *RFC) Name() string { return "RFC" }

// has reports whether (warp, reg) is resident in the shared cache.
func (c *RFC) has(w *WarpRegs, r isa.Reg) bool { return w.Present.Test(int(r)) }

// install inserts (warp, reg), evicting the FIFO victim if the cache is
// full; a dirty victim is written back to the main RF.
func (c *RFC) install(now int64, w *WarpRegs, r isa.Reg) {
	if c.has(w, r) {
		return
	}
	if c.n == len(c.ring) {
		v := c.ring[c.head]
		if c.head++; c.head == len(c.ring) {
			c.head = 0
		}
		c.n--
		if v.w.Dirty.Test(int(v.reg)) {
			c.writebackReg(now, v.w.ID, v.reg)
		}
		v.w.Present.Clear(int(v.reg))
		v.w.Dirty.Clear(int(v.reg))
	}
	tail := c.head + c.n
	if tail >= len(c.ring) {
		tail -= len(c.ring)
	}
	c.ring[tail] = rfcEntry{w, r}
	c.n++
	w.Present.Set(int(r))
}

// cacheBankOf spreads shared-cache accesses over the cache banks.
func (c *RFC) cacheBankOf(w *WarpRegs, r isa.Reg) int {
	return (int(r) + w.ID*5) % c.cfg.CacheBanks
}

// ReadOperands serves each source from the shared register cache when
// resident; misses read the main RF with exposed latency. Read misses do
// not allocate: [19]'s RFC captures the temporal locality of freshly
// produced RESULTS ("registers house temporary values"), so registers that
// are only read — loop invariants, base pointers, coefficients — never
// enter the cache and miss every time. This is a key contributor to the
// low hit rates of Figure 4.
func (c *RFC) ReadOperands(now int64, w *WarpRegs, srcs []isa.Reg) int64 {
	start := now + operandOverhead(&c.cfg, len(srcs))
	done := start
	for _, r := range srcs {
		c.st.CacheReads++
		var t int64
		if c.has(w, r) {
			c.st.CacheReadHits++
			c.st.WCBAccesses++
			t = c.cache.Access(start+int64(c.cfg.WCBCycles), c.cacheBankOf(w, r))
		} else {
			t = c.readMainReg(start, w.ID, r)
		}
		if t > done {
			done = t
		}
	}
	return done
}

// WriteResult allocates a shared-cache slot for the destination
// (write-allocate) and marks it dirty; the return value is the write
// latency.
func (c *RFC) WriteResult(now int64, w *WarpRegs, dst isa.Reg) int64 {
	c.st.CacheWrites++
	c.install(now, w, dst)
	w.Dirty.Set(int(dst))
	return int64(c.cfg.CacheCycles)
}

// OnUnitEnter is a no-op: RFC has no software prefetch.
func (c *RFC) OnUnitEnter(now int64, w *WarpRegs, unitID int, ws bitvec.Vector) int64 {
	w.CurUnit = unitID
	return now
}

// OnActivate performs no refill: the cache refills on demand.
func (c *RFC) OnActivate(now int64, w *WarpRegs) int64 { return now }

// OnDeactivate flushes the warp's entries: dirty registers are written back
// in FIFO order and the slots are freed for other warps; the other warps'
// entries close up in place, keeping their order.
func (c *RFC) OnDeactivate(now int64, w *WarpRegs) int64 {
	done := now
	from, to := c.head, c.head
	kept := 0
	for k := 0; k < c.n; k++ {
		e := c.ring[from]
		if from++; from == len(c.ring) {
			from = 0
		}
		if e.w != w {
			c.ring[to] = e
			if to++; to == len(c.ring) {
				to = 0
			}
			kept++
			continue
		}
		if w.Dirty.Test(int(e.reg)) {
			if t := c.writebackReg(now, w.ID, e.reg); t > done {
				done = t
			}
		}
		w.Present.Clear(int(e.reg))
		w.Dirty.Clear(int(e.reg))
	}
	c.n = kept
	return done
}
