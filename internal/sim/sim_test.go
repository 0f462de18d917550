package sim

import (
	"context"
	"math"
	"testing"

	"ltrf/internal/isa"
)

// streamKernel is a memory-bound streaming kernel: per iteration it loads,
// does a few FMAs, and stores — the shape of vectorAdd/saxpy-like workloads.
func streamKernel(regs int, iters int) *isa.Program {
	b := isa.NewBuilder("stream")
	r := b.RegN(regs)
	for i := 0; i < regs; i++ {
		b.IMovImm(r[i], int64(i))
	}
	b.Loop(iters, func() {
		b.LdGlobal(r[0], r[1], isa.MemAccess{Pattern: isa.PatCoalesced, Region: 0, FootprintB: 8 << 20})
		b.FFMA(r[2], r[0], r[3], r[4])
		b.FFMA(r[5], r[2], r[6], r[7])
		b.FAdd(r[2], r[2], r[5])
		b.StGlobal(r[1], r[2], isa.MemAccess{Pattern: isa.PatCoalesced, Region: 1, FootprintB: 8 << 20})
		b.IAddImm(r[1], r[1], 4)
	})
	return b.MustBuild()
}

// tiledKernel is the GEMM/stencil shape: the outer loop loads a tile, the
// inner loop computes on a working set that fits one register-interval.
func tiledKernel(outer, inner int) *isa.Program {
	b := isa.NewBuilder("tiled")
	r := b.RegN(12)
	for i := 0; i < 12; i++ {
		b.IMovImm(r[i], int64(i))
	}
	b.Loop(outer, func() {
		b.LdGlobal(r[0], r[1], isa.MemAccess{Pattern: isa.PatCoalesced, Region: 0, FootprintB: 2 << 20})
		b.LdGlobal(r[2], r[3], isa.MemAccess{Pattern: isa.PatCoalesced, Region: 1, FootprintB: 2 << 20})
		b.Loop(inner, func() {
			// r[10], r[11] are loop-invariant coefficients: read-only
			// registers that a write-allocate register cache never holds
			// but a PREFETCH pins for the whole interval.
			b.FFMA(r[4], r[0], r[10], r[4])
			b.FFMA(r[5], r[2], r[11], r[5])
			b.FFMA(r[6], r[4], r[5], r[6])
			b.FFMA(r[7], r[5], r[10], r[7])
			b.FMul(r[8], r[6], r[7])
			b.FAdd(r[9], r[8], r[9])
		})
		b.StGlobal(r[1], r[9], isa.MemAccess{Pattern: isa.PatCoalesced, Region: 2, FootprintB: 2 << 20})
		b.IAddImm(r[1], r[1], 4)
	})
	return b.MustBuild()
}

// rotatingKernel cycles through nPhases inner loops, each with its own
// 10-register working set, all values staying live across phases. The total
// footprint exceeds the 16-entry register-cache partition, so demand caches
// (RFC) thrash at phase boundaries while LTRF prefetches each phase once.
func rotatingKernel(nPhases, outer, inner int) *isa.Program {
	b := isa.NewBuilder("rotating")
	nRegs := nPhases * 10
	r := b.RegN(nRegs)
	for i := 0; i < nRegs; i++ {
		b.IMovImm(r[i], int64(i))
	}
	b.Loop(outer, func() {
		for ph := 0; ph < nPhases; ph++ {
			base := ph * 10
			b.LdGlobal(r[base], r[base+1], isa.MemAccess{Pattern: isa.PatCoalesced, Region: uint8(ph), FootprintB: 1 << 20})
			b.Loop(inner, func() {
				b.FFMA(r[base+2], r[base], r[base+3], r[base+2])
				b.FFMA(r[base+4], r[base+2], r[base+5], r[base+4])
				b.FFMA(r[base+6], r[base+4], r[base+7], r[base+6])
				b.FAdd(r[base+8], r[base+6], r[base+9])
			})
		}
		// Combine phases so every phase's registers stay live.
		acc := r[0]
		for ph := 1; ph < nPhases; ph++ {
			b.FAdd(acc, acc, r[ph*10+8])
		}
		b.StGlobal(r[1], acc, isa.MemAccess{Pattern: isa.PatCoalesced, Region: 7, FootprintB: 1 << 20})
	})
	return b.MustBuild()
}

// hungryKernel has high live register pressure (regs registers carried
// around a loop with loads), the shape of register-sensitive workloads.
func hungryKernel(regs, iters int) *isa.Program {
	b := isa.NewBuilder("hungry")
	r := b.RegN(regs)
	for i := 0; i < regs; i++ {
		b.IMovImm(r[i], int64(i))
	}
	b.Loop(iters, func() {
		b.LdGlobal(r[0], r[1], isa.MemAccess{Pattern: isa.PatCoalesced, Region: 0, FootprintB: 4 << 20})
		for i := 2; i < regs; i++ {
			b.FFMA(r[i], r[i-1], r[i-2], r[i])
		}
		b.StGlobal(r[1], r[regs-1], isa.MemAccess{Pattern: isa.PatCoalesced, Region: 1, FootprintB: 4 << 20})
	})
	return b.MustBuild()
}

func run(t *testing.T, c Config, p *isa.Program) *Result {
	t.Helper()
	res, err := RunWithCacheCtx(context.Background(), c, p, nil)
	if err != nil {
		t.Fatalf("RunWithCacheCtx(%v, %s): %v", c.Design, p.Name, err)
	}
	return res
}

func cfgAt(d Design, latX float64) Config {
	c := DefaultConfig(d)
	c.LatencyX = latX
	c.MaxInstrs = 60_000
	c.MaxCycles = 400_000
	return c
}

func TestRunCompletesAndIsDeterministic(t *testing.T) {
	p := tiledKernel(6, 6)
	for _, d := range []Design{DesignBL, DesignRFC, DesignSHRF, DesignLTRF, DesignLTRFPlus, DesignLTRFStrand, DesignIdeal} {
		r1 := run(t, cfgAt(d, 2.0), p)
		r2 := run(t, cfgAt(d, 2.0), p)
		if r1.IPC <= 0 {
			t.Errorf("%v: IPC = %v, want > 0", d, r1.IPC)
		}
		if r1.IPC != r2.IPC || r1.Cycles != r2.Cycles {
			t.Errorf("%v: nondeterministic (%v/%v vs %v/%v)", d, r1.IPC, r1.Cycles, r2.IPC, r2.Cycles)
		}
		if !r1.Finished && r1.Instrs < 1000 {
			t.Errorf("%v: made little progress: %+v", d, r1.Stats)
		}
	}
}

func TestBLDegradesWithLatency(t *testing.T) {
	p := tiledKernel(8, 8)
	fast := run(t, cfgAt(DesignBL, 1.0), p)
	slow := run(t, cfgAt(DesignBL, 6.3), p)
	if slow.IPC >= fast.IPC*0.75 {
		t.Errorf("BL at 6.3x (%.3f) should clearly lose to 1x (%.3f)", slow.IPC, fast.IPC)
	}
}

func TestLTRFToleratesLatency(t *testing.T) {
	// The headline property (§6.3): LTRF keeps most of its performance as
	// the main RF slows down ~5x.
	p := tiledKernel(8, 8)
	fast := run(t, cfgAt(DesignLTRF, 1.0), p)
	slow := run(t, cfgAt(DesignLTRF, 5.0), p)
	if slow.IPC < fast.IPC*0.85 {
		t.Errorf("LTRF at 5x (%.3f) should stay within ~15%% of 1x (%.3f)", slow.IPC, fast.IPC)
	}
}

func TestLTRFBeatsRFCAtHighLatency(t *testing.T) {
	// On kernels whose register footprint exceeds the cache partition,
	// RFC's demand misses expose the slow main RF while LTRF prefetches.
	p := rotatingKernel(3, 8, 6)
	ltrf := run(t, cfgAt(DesignLTRF, 6.3), p)
	rfc := run(t, cfgAt(DesignRFC, 6.3), p)
	if ltrf.IPC <= rfc.IPC*1.05 {
		t.Errorf("LTRF (%.3f) must beat RFC (%.3f) on a 6.3x-slow main RF", ltrf.IPC, rfc.IPC)
	}
	// And RFC's hit rate must suffer from the working-set rotation.
	if hr := rfc.RF.ReadHitRate(); hr > 0.75 {
		t.Errorf("RFC hit rate %.3f too high for a rotating working set", hr)
	}
}

func TestLTRFPlusAtLeastLTRF(t *testing.T) {
	p := tiledKernel(8, 8)
	ltrf := run(t, cfgAt(DesignLTRF, 6.3), p)
	plus := run(t, cfgAt(DesignLTRFPlus, 6.3), p)
	if plus.IPC < ltrf.IPC*0.95 {
		t.Errorf("LTRF+ (%.3f) should be at least LTRF (%.3f)", plus.IPC, ltrf.IPC)
	}
	// And it must move fewer registers main<->cache.
	plusMoves := plus.RF.PrefetchRegs + plus.RF.ActivationRegs + plus.RF.WritebackRegs
	ltrfMoves := ltrf.RF.PrefetchRegs + ltrf.RF.ActivationRegs + ltrf.RF.WritebackRegs
	if plusMoves >= ltrfMoves {
		t.Errorf("LTRF+ moved %d regs, LTRF %d — liveness must reduce traffic", plusMoves, ltrfMoves)
	}
}

func TestRegisterIntervalsBeatStrands(t *testing.T) {
	// §6.6: LTRF with register-intervals tolerates more latency than LTRF
	// with strands (strands prefetch far more often).
	p := tiledKernel(8, 8)
	ivl := run(t, cfgAt(DesignLTRF, 6.3), p)
	str := run(t, cfgAt(DesignLTRFStrand, 6.3), p)
	if ivl.IPC <= str.IPC {
		t.Errorf("LTRF(interval) %.3f must beat LTRF(strand) %.3f at 6.3x", ivl.IPC, str.IPC)
	}
	if str.RF.Prefetches <= ivl.RF.Prefetches {
		t.Errorf("strands must prefetch more often: %d vs %d", str.RF.Prefetches, ivl.RF.Prefetches)
	}
}

func TestSHRFToleratesLessThanLTRF(t *testing.T) {
	// §6.6: SHRF behaves like RFC under latency, well below LTRF.
	p := tiledKernel(8, 8)
	shrf := run(t, cfgAt(DesignSHRF, 6.3), p)
	ltrf := run(t, cfgAt(DesignLTRF, 6.3), p)
	if shrf.IPC >= ltrf.IPC {
		t.Errorf("SHRF (%.3f) must degrade more than LTRF (%.3f) at 6.3x", shrf.IPC, ltrf.IPC)
	}
}

func TestLTRFReducesMainRFAccesses(t *testing.T) {
	// §4.2: "LTRF reduces the number of accesses to the main register
	// file by 4x-6x".
	p := tiledKernel(8, 8)
	bl := run(t, cfgAt(DesignBL, 1.0), p)
	ltrf := run(t, cfgAt(DesignLTRF, 1.0), p)
	blAcc := float64(bl.RF.MainAccesses()) / float64(bl.Instrs)
	ltrfAcc := float64(ltrf.RF.MainAccesses()) / float64(ltrf.Instrs)
	ratio := blAcc / ltrfAcc
	if ratio < 3.0 {
		t.Errorf("main RF access reduction = %.2fx, want >= 3x (paper: 4-6x)", ratio)
	}
}

func TestRFCHitRateInPaperBand(t *testing.T) {
	// Figure 4: RFC hit rates are low (8-30%) on workloads whose register
	// footprint exceeds and rotates through the cache partition.
	p := rotatingKernel(3, 8, 6)
	rfc := run(t, cfgAt(DesignRFC, 1.0), p)
	hr := rfc.RF.ReadHitRate()
	if hr < 0.02 || hr > 0.70 {
		t.Errorf("RFC hit rate %.3f outside plausible band", hr)
	}
}

func TestIdealUpperBound(t *testing.T) {
	p := rotatingKernel(3, 8, 6)
	ideal := run(t, cfgAt(DesignIdeal, 6.3), p)
	for _, d := range []Design{DesignBL, DesignRFC} {
		r := run(t, cfgAt(d, 6.3), p)
		if r.IPC > ideal.IPC*1.10 {
			t.Errorf("%v (%.3f) should not beat Ideal (%.3f) at 6.3x", d, r.IPC, ideal.IPC)
		}
	}
}

func TestOccupancyPolicy(t *testing.T) {
	// demand 64 regs, 256KB -> 32 warps; 2MB -> 64 warps (capped).
	regCap, warps := Occupancy(64, 256<<10, 64, 8)
	if regCap != 64 || warps != 32 {
		t.Errorf("256KB/64regs: cap=%d warps=%d, want 64/32", regCap, warps)
	}
	regCap, warps = Occupancy(64, 2<<20, 64, 8)
	if regCap != 64 || warps != 64 {
		t.Errorf("2MB/64regs: cap=%d warps=%d, want 64/64", regCap, warps)
	}
	// Huge demand on small RF: maxregcount kicks in for 8-warp occupancy.
	regCap, warps = Occupancy(200, 128<<10, 64, 8)
	if warps != 8 {
		t.Errorf("128KB/200regs: warps=%d, want 8 (maxregcount)", warps)
	}
	if regCap >= 200 {
		t.Errorf("128KB/200regs: regCap=%d should be capped below demand", regCap)
	}
}

func TestCapacityRaisesTLPForRegisterHungryKernels(t *testing.T) {
	p := hungryKernel(72, 12)
	small := cfgAt(DesignLTRF, 1.0)
	small.CapacityKB = 256
	big := cfgAt(DesignLTRF, 1.0)
	big.CapacityKB = 2048
	rs := run(t, small, p)
	rb := run(t, big, p)
	if rb.Warps <= rs.Warps {
		t.Errorf("8x capacity should raise resident warps: %d -> %d", rs.Warps, rb.Warps)
	}
}

func TestMemoryBoundKernelBenefitsFromMoreWarps(t *testing.T) {
	// With a long-latency-bound kernel and high register pressure, more
	// capacity -> more resident warps -> higher IPC: the TLP effect
	// underlying register sensitivity (Figure 3).
	p := hungryKernel(72, 12)
	small := cfgAt(DesignIdeal, 1.0)
	small.CapacityKB = 128
	big := cfgAt(DesignIdeal, 1.0)
	big.CapacityKB = 2048
	rs := run(t, small, p)
	rb := run(t, big, p)
	if rb.Warps <= rs.Warps {
		t.Fatalf("warps: %d -> %d", rs.Warps, rb.Warps)
	}
	if rb.IPC <= rs.IPC {
		t.Errorf("more warps should raise IPC on memory-bound kernel: %.3f (w=%d) -> %.3f (w=%d)",
			rs.IPC, rs.Warps, rb.IPC, rb.Warps)
	}
}

func TestPrefetchStallsAccounted(t *testing.T) {
	p := tiledKernel(8, 8)
	r := run(t, cfgAt(DesignLTRF, 6.3), p)
	if r.RF.Prefetches == 0 || r.PrefetchStallCycles == 0 {
		t.Errorf("LTRF must prefetch and account stalls: %+v", r.RF)
	}
}

func TestTwoLevelSchedulerSwapsWarps(t *testing.T) {
	p := streamKernel(12, 40)
	r := run(t, cfgAt(DesignLTRF, 2.0), p)
	if r.Deactivations == 0 {
		t.Error("memory-bound kernel must trigger warp deactivations")
	}
	if r.Activations == 0 {
		t.Error("activations must be counted")
	}
}

func TestBarrierRelease(t *testing.T) {
	b := isa.NewBuilder("barrier")
	r := b.RegN(4)
	b.IMovImm(r[0], 0)
	b.Loop(4, func() {
		b.LdGlobal(r[1], r[0], isa.MemAccess{Pattern: isa.PatCoalesced, Region: 0, FootprintB: 1 << 20})
		b.Bar()
		b.FAdd(r[2], r[1], r[1])
	})
	p := b.MustBuild()
	res := run(t, cfgAt(DesignLTRF, 1.0), p)
	if !res.Finished {
		t.Fatalf("barrier kernel must finish: %+v", res.Stats)
	}
	if res.BarrierReleases == 0 {
		t.Error("barrier releases must be counted")
	}
}

func TestFlatSchedulerAblation(t *testing.T) {
	// Disabling two-level scheduling must change behavior (fewer swaps).
	p := streamKernel(12, 20)
	two := run(t, cfgAt(DesignLTRF, 2.0), p)
	c := cfgAt(DesignLTRF, 2.0)
	c.Scheduler = SchedFlat
	flat := run(t, c, p)
	if flat.Deactivations != 0 {
		t.Errorf("flat scheduler must not deactivate warps, got %d", flat.Deactivations)
	}
	if two.Deactivations == 0 {
		t.Error("two-level scheduler should deactivate warps on this kernel")
	}
}

func TestWideXbarAblation(t *testing.T) {
	// A full-width prefetch crossbar should not be slower than the narrow
	// one.
	p := tiledKernel(8, 8)
	narrow := run(t, cfgAt(DesignLTRF, 6.3), p)
	c := cfgAt(DesignLTRF, 6.3)
	c.WideXbar = true
	wide := run(t, c, p)
	if wide.IPC < narrow.IPC*0.98 {
		t.Errorf("wide crossbar (%.3f) should be >= narrow (%.3f)", wide.IPC, narrow.IPC)
	}
}

func TestConfigValidation(t *testing.T) {
	c := DefaultConfig(DesignLTRF)
	c.LatencyX = 0
	if _, err := RunWithCacheCtx(context.Background(), c, streamKernel(8, 4), nil); err == nil {
		t.Error("zero latency multiplier must be rejected")
	}
	c = DefaultConfig(DesignLTRF)
	c.RegsPerInterval = 2
	if _, err := RunWithCacheCtx(context.Background(), c, streamKernel(8, 4), nil); err == nil {
		t.Error("tiny interval budget must be rejected")
	}
	c.RegsPerInterval = isa.MaxArchRegs + 1
	if err := c.Validate(); err == nil {
		t.Error("interval budget above the architectural register count must be rejected")
	}
	c = DefaultConfig(DesignLTRF)
	c.ActiveWarps = c.MaxWarps + 1
	if err := c.Validate(); err == nil {
		t.Error("an active set larger than MaxWarps must be rejected")
	}
	c.ActiveWarps = c.MaxWarps
	if err := c.Validate(); err != nil {
		t.Errorf("an active set of exactly MaxWarps must be accepted: %v", err)
	}
	c = DefaultConfig(DesignLTRF)
	for _, n := range []int64{0, -5, math.MaxInt64/12 + 1, math.MaxInt64} {
		if err := c.SetBudget(n); err == nil {
			t.Errorf("SetBudget(%d) must be rejected", n)
		}
	}
	if c.MaxInstrs != DefaultConfig(DesignLTRF).MaxInstrs {
		t.Error("a rejected SetBudget must leave the configuration unchanged")
	}
	if err := c.SetBudget(math.MaxInt64 / 12); err != nil || c.MaxCycles != c.MaxInstrs*12 {
		t.Errorf("SetBudget(MaxInt64/12): err %v, MaxCycles %d, want 12x MaxInstrs", err, c.MaxCycles)
	}
}

func TestRunGPUMultiSM(t *testing.T) {
	p := tiledKernel(4, 4)
	c := cfgAt(DesignLTRF, 2.0)
	c.MaxInstrs = 8000
	res, err := RunGPUCtx(context.Background(), c, 4, p)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.PerSM) != 4 {
		t.Fatalf("PerSM = %d, want 4", len(res.PerSM))
	}
	for i, st := range res.PerSM {
		if st.IPC <= 0 {
			t.Errorf("SM %d IPC = %v", i, st.IPC)
		}
	}
	if res.TotalIPC <= res.PerSM[0].IPC {
		t.Error("chip IPC must exceed one SM's")
	}
	// Shared L2 must have been exercised by all SMs.
	if res.L2HitRate < 0 || res.L2HitRate > 1 {
		t.Errorf("L2 hit rate %v out of range", res.L2HitRate)
	}
	// Determinism across runs.
	res2, err := RunGPUCtx(context.Background(), c, 4, p)
	if err != nil {
		t.Fatal(err)
	}
	if res2.TotalIPC != res.TotalIPC {
		t.Errorf("multi-SM run nondeterministic: %v vs %v", res.TotalIPC, res2.TotalIPC)
	}
}

func TestRunGPUSharedMemoryContention(t *testing.T) {
	// More SMs sharing the DRAM must not raise a single SM's IPC; usually
	// contention lowers it.
	p := streamKernel(12, 20)
	c := cfgAt(DesignBL, 1.0)
	c.MaxInstrs = 8000
	one, err := RunGPUCtx(context.Background(), c, 1, p)
	if err != nil {
		t.Fatal(err)
	}
	eight, err := RunGPUCtx(context.Background(), c, 8, p)
	if err != nil {
		t.Fatal(err)
	}
	if eight.PerSM[0].IPC > one.PerSM[0].IPC*1.15 {
		t.Errorf("per-SM IPC should not improve under shared-DRAM contention: %v -> %v",
			one.PerSM[0].IPC, eight.PerSM[0].IPC)
	}
}
