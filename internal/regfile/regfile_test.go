package regfile

import (
	"math"
	"strings"
	"testing"
	"testing/quick"

	"ltrf/internal/bitvec"
	"ltrf/internal/isa"
)

func testConfig(latX float64) Config {
	cfg := Baseline(latX, DefaultCacheBanks)
	return cfg
}

func TestConfigLatencyScaling(t *testing.T) {
	c1 := testConfig(1)
	if c1.MainAccessCycles() != 4 {
		t.Errorf("baseline access = %d cycles, want 4 (3 bank + 1 net)", c1.MainAccessCycles())
	}
	c6 := testConfig(6.3)
	if got := c6.MainAccessCycles(); got < 24 || got > 27 {
		t.Errorf("6.3x access = %d cycles, want ~25", got)
	}
	if err := c1.Validate(); err != nil {
		t.Error(err)
	}
	if err := (Config{}).Validate(); err == nil {
		t.Error("zero config must be invalid")
	}
	// A multiplier that is not finite, or whose main-RF cycles overflow
	// an int, would round to a garbage latency and be clamped to 1 cycle.
	for _, x := range []float64{0, -1, math.NaN(), math.Inf(1), 1e300, 1e10} {
		if err := testConfig(x).Validate(); err == nil || !strings.Contains(err.Error(), "LatencyX") {
			t.Errorf("LatencyX %v: Validate = %v, want an error naming LatencyX", x, err)
		}
	}
	if err := testConfig(1e8).Validate(); err != nil {
		t.Errorf("LatencyX 1e8 (3e8-cycle banks) must stay valid: %v", err)
	}
}

func TestBankSetConflicts(t *testing.T) {
	b := NewBankSet(2, 3, 3)
	d1 := b.Access(0, 0)
	if d1 != 3 {
		t.Errorf("first access done at %d, want 3", d1)
	}
	d2 := b.Access(0, 0) // same bank, same cycle: conflict
	if d2 != 6 {
		t.Errorf("conflicting access done at %d, want 6", d2)
	}
	d3 := b.Access(0, 1) // other bank: parallel
	if d3 != 3 {
		t.Errorf("parallel access done at %d, want 3", d3)
	}
	if b.Conflicts != 1 {
		t.Errorf("conflicts = %d, want 1", b.Conflicts)
	}
}

func TestBankSetPipelined(t *testing.T) {
	// Initiation 2, latency 10: back-to-back accesses to one bank pipeline
	// at the initiation interval while each sees the full latency.
	b := NewBankSet(1, 2, 10)
	if d := b.Access(0, 0); d != 10 {
		t.Errorf("first access done at %d, want 10", d)
	}
	if d := b.Access(0, 0); d != 12 {
		t.Errorf("pipelined access done at %d, want 12", d)
	}
}

func TestWarpRegsAllocateRelease(t *testing.T) {
	w := NewWarpRegs(0, 4)
	regs := []isa.Reg{10, 20, 30, 40}
	for _, r := range regs {
		if !w.allocate(r) {
			t.Fatalf("allocate(%v) failed with free slots", r)
		}
	}
	if w.FreeSlots() != 0 {
		t.Errorf("free slots = %d, want 0", w.FreeSlots())
	}
	if w.allocate(50) {
		t.Error("allocation must fail when partition is full")
	}
	// Banks must be distinct (one register per cache bank, Figure 5).
	seen := map[int]bool{}
	for _, r := range regs {
		b := w.CacheBank(r)
		if b < 0 || seen[b] {
			t.Errorf("register %v bank %d invalid or duplicated", r, b)
		}
		seen[b] = true
	}
	// FIFO victim is the first allocated.
	if v := w.fifoVictim(); v != 10 {
		t.Errorf("fifo victim = %v, want R10", v)
	}
	w.release(10)
	if w.FreeSlots() != 1 || w.Present.Test(10) {
		t.Error("release must free the slot and clear presence")
	}
	if !w.allocate(50) {
		t.Error("allocation must succeed after release")
	}
}

func TestWCBStorageCostMatchesPaper(t *testing.T) {
	// §4.3: 64 warps x (256x5 + 3 + 256 + 256) = 114,880 bits per SM.
	perWarp := WCBStorageBits(256)
	if perWarp != 256*5+3+256+256 {
		t.Fatalf("per-warp WCB bits = %d", perWarp)
	}
	if total := 64 * perWarp; total != 114880 {
		t.Errorf("SM WCB storage = %d bits, want 114880", total)
	}
}

func TestBLReadLatency(t *testing.T) {
	bl := NewBL(testConfig(1))
	w := NewWarpRegs(0, DefaultCacheBanks)
	done := bl.ReadOperands(100, w, []isa.Reg{1, 2})
	// Two different banks in parallel: bank(3) + net(1).
	if done != 104 {
		t.Errorf("BL 2-operand read at %d, want 104", done)
	}
	if bl.Stats().MainReads != 2 {
		t.Errorf("MainReads = %d, want 2", bl.Stats().MainReads)
	}
}

func TestBLScalesWithLatencyMultiplier(t *testing.T) {
	bl1 := NewBL(testConfig(1))
	bl4 := NewBL(testConfig(4))
	w := NewWarpRegs(0, DefaultCacheBanks)
	d1 := bl1.ReadOperands(0, w, []isa.Reg{5})
	d4 := bl4.ReadOperands(0, w, []isa.Reg{5})
	if d4 < 3*d1 {
		t.Errorf("4x config read %d should be ~4x the 1x read %d", d4, d1)
	}
}

func TestIdealIgnoresMultiplier(t *testing.T) {
	id := NewIdeal(testConfig(6.3))
	w := NewWarpRegs(0, DefaultCacheBanks)
	done := id.ReadOperands(0, w, []isa.Reg{1})
	if done != 4 {
		t.Errorf("Ideal read = %d cycles, want 4 (baseline)", done)
	}
	if id.Name() != "Ideal" {
		t.Errorf("name = %s", id.Name())
	}
}

func TestRFCHitAfterWrite(t *testing.T) {
	rfc := NewRFC(testConfig(6.3))
	w := NewWarpRegs(0, DefaultCacheBanks)
	rfc.WriteResult(10, w, 7)
	done := rfc.ReadOperands(20, w, []isa.Reg{7})
	// WCB(1) + cache(1) = fast hit.
	if done > 23 {
		t.Errorf("cached read done at %d, want <= 23", done)
	}
	if rfc.Stats().CacheReadHits != 1 {
		t.Errorf("hits = %d, want 1", rfc.Stats().CacheReadHits)
	}
}

func TestRFCMissExposesMainLatencyAndDoesNotAllocate(t *testing.T) {
	rfc := NewRFC(testConfig(6.3))
	w := NewWarpRegs(0, DefaultCacheBanks)
	done := rfc.ReadOperands(0, w, []isa.Reg{9})
	if done < int64(rfc.Config().MainAccessCycles()) {
		t.Errorf("miss done at %d, must expose main latency %d", done, rfc.Config().MainAccessCycles())
	}
	if rfc.Stats().CacheReadHits != 0 || rfc.Stats().MainReads != 1 {
		t.Errorf("stats = %+v", rfc.Stats())
	}
	// Read misses do not allocate: read-only registers never enter RFC.
	if w.Present.Test(9) {
		t.Error("read miss must not install the register (write-allocate only)")
	}
}

func TestRFCSharedFIFOEvictionWritesBackDirty(t *testing.T) {
	cfg := testConfig(1)
	cfg.SharedCacheRegs = 2
	rfc := NewRFC(cfg)
	w := NewWarpRegs(0, DefaultCacheBanks)
	rfc.WriteResult(0, w, 1) // dirty
	rfc.WriteResult(0, w, 2)
	rfc.WriteResult(0, w, 3) // evicts R1, dirty -> writeback
	if w.Present.Test(1) {
		t.Error("R1 must be evicted")
	}
	if rfc.Stats().WritebackRegs != 1 || rfc.Stats().MainWrites != 1 {
		t.Errorf("stats = %+v", rfc.Stats())
	}
}

func TestRFCWarpsDisplaceEachOther(t *testing.T) {
	// §2.3 reason 1: the RFC is shared, so one warp's writes evict another
	// warp's registers.
	cfg := testConfig(1)
	cfg.SharedCacheRegs = 4
	rfc := NewRFC(cfg)
	w0 := NewWarpRegs(0, DefaultCacheBanks)
	w1 := NewWarpRegs(1, DefaultCacheBanks)
	for r := isa.Reg(0); r < 4; r++ {
		rfc.WriteResult(0, w0, r)
	}
	for r := isa.Reg(0); r < 4; r++ {
		rfc.WriteResult(10, w1, r)
	}
	if w0.Present.Count() != 0 {
		t.Errorf("warp 0 should be fully displaced, still has %d regs", w0.Present.Count())
	}
	if w1.Present.Count() != 4 {
		t.Errorf("warp 1 should hold the cache, has %d", w1.Present.Count())
	}
}

func TestRFCDeactivateFlushes(t *testing.T) {
	rfc := NewRFC(testConfig(1))
	w := NewWarpRegs(0, DefaultCacheBanks)
	rfc.WriteResult(0, w, 1)
	rfc.WriteResult(0, w, 2)
	rfc.OnDeactivate(10, w)
	if !w.Present.IsEmpty() {
		t.Error("deactivation must flush the partition")
	}
	if rfc.Stats().WritebackRegs != 2 {
		t.Errorf("writebacks = %d, want 2", rfc.Stats().WritebackRegs)
	}
}

func TestLTRFPrefetchMakesReadsHit(t *testing.T) {
	ltrf := NewLTRF(testConfig(6.3), false)
	w := NewWarpRegs(0, DefaultCacheBanks)
	ws := bitvec.New(1, 2, 3, 4)
	ready := ltrf.OnUnitEnter(0, w, 0, ws)
	if ready <= 0 {
		t.Error("prefetch must take time")
	}
	done := ltrf.ReadOperands(ready, w, []isa.Reg{1, 2})
	if done-ready > 3 {
		t.Errorf("post-prefetch read took %d cycles, want <= 3 (WCB+cache)", done-ready)
	}
	st := ltrf.Stats()
	if st.Prefetches != 1 || st.PrefetchRegs != 4 {
		t.Errorf("stats = %+v", st)
	}
	if st.CacheReadHits != 2 || st.FallbackReads != 0 {
		t.Errorf("reads must all hit: %+v", st)
	}
}

func TestLTRFPrefetchLatencyGrowsWithMainLatency(t *testing.T) {
	w1 := NewWarpRegs(0, DefaultCacheBanks)
	w2 := NewWarpRegs(0, DefaultCacheBanks)
	ws := bitvec.New(1, 2, 3, 4, 5, 6, 7, 8)
	fast := NewLTRF(testConfig(1), false).OnUnitEnter(0, w1, 0, ws)
	slow := NewLTRF(testConfig(6.3), false).OnUnitEnter(0, w2, 0, ws)
	if slow <= fast {
		t.Errorf("slow main RF must lengthen prefetch: %d vs %d", slow, fast)
	}
}

func TestLTRFSameUnitNoPrefetch(t *testing.T) {
	ltrf := NewLTRF(testConfig(1), false)
	w := NewWarpRegs(0, DefaultCacheBanks)
	ws := bitvec.New(1, 2)
	ltrf.OnUnitEnter(0, w, 3, ws)
	if got := ltrf.OnUnitEnter(100, w, 3, ws); got != 100 {
		t.Errorf("re-entering the same unit must be free, got %d", got)
	}
	if ltrf.Stats().Prefetches != 1 {
		t.Errorf("prefetches = %d, want 1", ltrf.Stats().Prefetches)
	}
}

func TestLTRFDeactivateWritesBackDirty(t *testing.T) {
	ltrf := NewLTRF(testConfig(1), false)
	w := NewWarpRegs(0, DefaultCacheBanks)
	ltrf.OnUnitEnter(0, w, 0, bitvec.New(1, 2, 3))
	// R1, R2 modified since the prefetch; R3 still matches its main-RF
	// copy and is dropped without a write-back.
	w.Dirty.Set(1)
	w.Dirty.Set(2)
	ltrf.OnDeactivate(50, w)
	if ltrf.Stats().WritebackRegs != 2 {
		t.Errorf("writebacks = %d, want 2 (dirty only)", ltrf.Stats().WritebackRegs)
	}
	if !w.Present.IsEmpty() {
		t.Error("partition must be released")
	}
}

func TestLTRFPlusSkipsDeadRegisters(t *testing.T) {
	plus := NewLTRF(testConfig(1), true)
	w := NewWarpRegs(0, DefaultCacheBanks)
	w.Live.Set(1) // only R1 is live; R2, R3 dead
	plus.OnUnitEnter(0, w, 0, bitvec.New(1, 2, 3))
	if plus.Stats().PrefetchRegs != 1 {
		t.Errorf("LTRF+ must fetch only live registers: %+v", plus.Stats())
	}
	// Dead registers still get slots (first access will be a write).
	if !w.Present.Test(2) || !w.Present.Test(3) {
		t.Error("dead registers must be allocated space")
	}
	// Deactivation writes back only dirty live registers: R1 (dirty+live)
	// is written back, R2 (dirty but dead) and R3 (clean) are dropped.
	w.Dirty.Set(1)
	w.Dirty.Set(2)
	plus.OnDeactivate(10, w)
	if plus.Stats().WritebackRegs != 1 {
		t.Errorf("LTRF+ deactivation writebacks = %d, want 1 (dirty+live only)", plus.Stats().WritebackRegs)
	}
}

func TestLTRFActivationRefetch(t *testing.T) {
	ltrf := NewLTRF(testConfig(1), false)
	w := NewWarpRegs(0, DefaultCacheBanks)
	ltrf.OnUnitEnter(0, w, 0, bitvec.New(1, 2, 3))
	ltrf.OnDeactivate(10, w)
	ready := ltrf.OnActivate(20, w)
	if ready <= 20 {
		t.Error("activation refetch must take time")
	}
	if ltrf.Stats().ActivationRegs != 3 {
		t.Errorf("activation regs = %d, want 3", ltrf.Stats().ActivationRegs)
	}
	if !w.Present.Test(1) || !w.Present.Test(2) || !w.Present.Test(3) {
		t.Error("working set must be resident after activation")
	}
}

func TestSHRFMovementAtStrandBoundary(t *testing.T) {
	shrf := NewSHRF(testConfig(1))
	w := NewWarpRegs(0, DefaultCacheBanks)
	// Strand 0 writes R1 (dirty+live), R2 (dirty, dead).
	shrf.WriteResult(0, w, 1)
	shrf.WriteResult(0, w, 2)
	w.Live.Set(1)
	// Strand 1 uses only R3: R1 written back (dirty+live), R2 dropped.
	stall := shrf.OnUnitEnter(10, w, 1, bitvec.New(3))
	if stall != 10 {
		t.Errorf("SHRF strand entry must not stall the warp, got %d", stall)
	}
	if shrf.Stats().WritebackRegs != 1 {
		t.Errorf("writebacks = %d, want 1 (dirty+live only)", shrf.Stats().WritebackRegs)
	}
	if w.Present.Test(1) || w.Present.Test(2) {
		t.Error("old strand registers must be evicted")
	}
}

func TestOperandPortOverhead(t *testing.T) {
	cfg := testConfig(1)
	if operandOverhead(&cfg, 2) != 0 {
		t.Error("2 operands fit the 2 WCB ports")
	}
	if operandOverhead(&cfg, 3) != 1 {
		t.Error("3 operands need an extra cycle")
	}
}

// Property: for any sequence of writes/reads, RFC presence never exceeds the
// partition size and reads after writes always hit.
func TestQuickRFCInvariants(t *testing.T) {
	f := func(ops []uint8) bool {
		cfg := testConfig(2)
		cfg.SharedCacheRegs = 8
		rfc := NewRFC(cfg)
		w := NewWarpRegs(1, DefaultCacheBanks)
		now := int64(0)
		lastWritten := isa.RegNone
		for _, op := range ops {
			r := isa.Reg(op % 32)
			now += 2
			if op%3 == 0 {
				rfc.WriteResult(now, w, r)
				lastWritten = r
			} else {
				rfc.ReadOperands(now, w, []isa.Reg{r})
			}
			// Shared cache occupancy never exceeds its slot count.
			if rfc.n > 8 || w.Present.Count() > 8 {
				return false
			}
			if lastWritten != isa.RegNone && op%3 == 0 && !w.Present.Test(int(lastWritten)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// Property: after any OnUnitEnter, the working set is fully resident under
// basic LTRF and the partition never overflows.
func TestQuickLTRFWorkingSetResident(t *testing.T) {
	f := func(sets [][]uint8) bool {
		ltrf := NewLTRF(testConfig(3), false)
		w := NewWarpRegs(2, DefaultCacheBanks)
		now := int64(0)
		for ui, set := range sets {
			if len(set) == 0 {
				continue
			}
			var ws bitvec.Vector
			for _, b := range set {
				ws.Set(int(b) % 64)
				if ws.Count() == DefaultCacheBanks {
					break
				}
			}
			now = ltrf.OnUnitEnter(now, w, ui, ws)
			if !w.Present.Contains(ws) {
				return false
			}
			if w.Present.Count() > DefaultCacheBanks {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

// TestLTRFOnUnitEnterAllocationFree guards the PREFETCH path: entering a
// prefetch unit — fetching its working set, evicting around it — allocates
// nothing, for LTRF and LTRF+, while a warp alternates between two
// overlapping working sets that overflow its cache partition together.
func TestLTRFOnUnitEnterAllocationFree(t *testing.T) {
	a := bitvec.New(0, 1, 2, 3, 4, 5, 6, 7, 8, 9)
	b := bitvec.New(6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17)
	for _, plus := range []bool{false, true} {
		ltrf := NewLTRF(testConfig(2), plus)
		w := NewWarpRegs(0, DefaultCacheBanks)
		w.Live = bitvec.New(0, 2, 4, 6, 8, 10, 12, 14, 16)
		now, unit := int64(0), 0
		allocs := testing.AllocsPerRun(200, func() {
			ws := a
			if unit%2 == 1 {
				ws = b
			}
			now = ltrf.OnUnitEnter(now, w, unit, ws) + 1
			unit++
		})
		if allocs != 0 {
			t.Errorf("plus=%v: OnUnitEnter allocates %.1f per call, want 0", plus, allocs)
		}
		if ltrf.Stats().Prefetches < 200 {
			t.Fatalf("plus=%v: %d prefetches; the guard exercised nothing", plus, ltrf.Stats().Prefetches)
		}
	}
}

// TestLTRFActivationAllocationFree guards the deactivation flush and the
// reactivation refetch: a warp that enters a unit, writes results, is
// deactivated and comes back allocates nothing, for LTRF and LTRF+.
func TestLTRFActivationAllocationFree(t *testing.T) {
	ws := bitvec.New(0, 1, 2, 3, 4, 5, 6, 7, 70, 71, 130, 200)
	for _, plus := range []bool{false, true} {
		ltrf := NewLTRF(testConfig(2), plus)
		w := NewWarpRegs(0, DefaultCacheBanks)
		w.Live = bitvec.New(0, 2, 4, 6, 70, 130)
		now := ltrf.OnUnitEnter(0, w, 0, ws)
		allocs := testing.AllocsPerRun(200, func() {
			ltrf.WriteResult(now, w, 2)
			ltrf.WriteResult(now, w, 70)
			now = ltrf.OnDeactivate(now, w) + 1
			now = ltrf.OnActivate(now, w) + 1
		})
		if allocs != 0 {
			t.Errorf("plus=%v: deactivate/activate allocates %.1f per cycle, want 0", plus, allocs)
		}
		if ltrf.Stats().Activations < 200 || ltrf.Stats().WritebackRegs < 200 {
			t.Fatalf("plus=%v: %+v; the guard exercised nothing", plus, *ltrf.Stats())
		}
	}
}

// TestRFCAllocationFree guards the shared cache's replacement ring: result
// writes that evict around a full cache, and deactivations that compact
// it, allocate nothing.
func TestRFCAllocationFree(t *testing.T) {
	rfc := NewRFC(testConfig(2))
	a, b := NewWarpRegs(0, DefaultCacheBanks), NewWarpRegs(1, DefaultCacheBanks)
	now := int64(0)
	allocs := testing.AllocsPerRun(100, func() {
		for r := isa.Reg(0); r < 100; r++ {
			rfc.WriteResult(now, a, r)
			rfc.WriteResult(now, b, r+100)
			now++
		}
		now = rfc.OnDeactivate(now, a) + 1
	})
	if allocs != 0 {
		t.Errorf("RFC install/deactivate allocates %.1f per round, want 0", allocs)
	}
	if rfc.Stats().WritebackRegs < 100*100 {
		t.Fatalf("%d write-backs; the guard exercised no evictions", rfc.Stats().WritebackRegs)
	}
}
