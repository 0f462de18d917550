package sim

// Correctness suite for the indexed issue scan's readyRing (ring.go). The
// end-to-end equivalence against the linear scan lives in
// equivalence_test.go (the cross-product sets the unexported
// Config.reference hook for the reference run) and
// FuzzIndexedScanEquivalence below; this file checks the
// ring's own membership invariant differentially against a direct model,
// under the exact operation mix the SM performs: mid-scan parks (wheel and
// heap), clock advances of every span, activations appending positions,
// compactions shifting them, and due-heap pops.

import (
	"context"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"ltrf/internal/isa"
	"ltrf/internal/memtech"
)

// TestReadyRingMatchesReferenceScan drives a readyRing through seeded
// random schedules of the SM's ring operations while tracking every warp's
// wake cycle directly, and asserts after each step that (a) a position is
// armed iff its warp's wake cycle has arrived — what the issue scan
// consumes — and (b) minAt equals the minimum future wake cycle — what the
// event-driven clock consumes. Warps only ever leave the set from the
// armed state (in the SM, deactivation/barrier/finish happen at a visit),
// which is the invariant that keeps heap entries from going stale; the
// compaction op mirrors that.
func TestReadyRingMatchesReferenceScan(t *testing.T) {
	rng := rand.New(rand.NewSource(0xB1D5))
	for trial := 0; trial < 40; trial++ {
		const maxWarps = 96 // two mask words: exercises the multi-word paths
		var r readyRing
		r.init(maxWarps)
		now := int64(0)
		wakes := make(map[int32]int64) // wid -> wake cycle
		var order []int32              // wids by active position
		nextWid := int32(0)

		posOf := func(wid int32) int {
			for p, w := range order {
				if w == wid {
					return p
				}
			}
			t.Fatalf("trial %d: wid %d not in active order", trial, wid)
			return -1
		}
		check := func(op int) {
			for pos, wid := range order {
				got := r.armed[pos>>6]&(1<<(pos&63)) != 0
				want := wakes[wid] <= now
				if got != want {
					t.Fatalf("trial %d op %d (now=%d): pos %d (wid %d, wake %d): armed=%v, want %v",
						trial, op, now, pos, wid, wakes[wid], got, want)
				}
			}
			min := int64(math.MaxInt64)
			for _, wid := range order {
				if w := wakes[wid]; w > now && w < min {
					min = w
				}
			}
			if got := r.minAt(now); got != min {
				t.Fatalf("trial %d op %d (now=%d): minAt=%d, reference %d", trial, op, now, got, min)
			}
		}

		// Seed a few armed warps, as refill does on the first pass.
		for i := 0; i < 8; i++ {
			r.set(len(order))
			wakes[nextWid] = now
			order = append(order, nextWid)
			nextWid++
		}

		for op := 0; op < 300; op++ {
			switch c := rng.Intn(10); {
			case c < 4: // mid-scan park of an armed warp (block or issue)
				var armed []int
				for pos, wid := range order {
					if wakes[wid] <= now {
						armed = append(armed, pos)
					}
				}
				if len(armed) == 0 {
					break
				}
				pos := armed[rng.Intn(len(armed))]
				wid := order[pos]
				at := now + 1 + int64(rng.Intn(90)) // spans the wheel horizon
				wakes[wid] = at
				r.clear(pos)
				r.park(at, now, pos, wid)
			case c < 7: // advance the clock (merge due buckets, pop due heap)
				old := now
				now += 1 + int64(rng.Intn(80))
				r.merge(old, now)
				for r.due(now) {
					wid := r.pop()
					wakes[wid] = now
					r.set(posOf(wid))
				}
			case c < 8: // activation: append a position, armed or parked
				if len(order) == maxWarps {
					break
				}
				pos := len(order)
				wid := nextWid
				nextWid++
				if rng.Intn(2) == 0 {
					wakes[wid] = now
					r.set(pos)
				} else {
					at := now + 1 + int64(rng.Intn(90))
					wakes[wid] = at
					r.park(at, now, pos, wid)
				}
				order = append(order, wid)
			default: // compaction: drop random ARMED positions, rebuild
				drop := map[int32]bool{}
				for _, wid := range order {
					if wakes[wid] <= now && rng.Intn(4) == 0 {
						drop[wid] = true
					}
				}
				if len(drop) == 0 {
					break
				}
				// Mirror removeActiveIndexed: zero the masks, re-derive each
				// kept warp's membership from its wake cycle at its new
				// position; heap entries (wid-keyed) survive untouched.
				for i := range r.armed {
					r.armed[i] = 0
				}
				for i := range r.buckets {
					r.buckets[i] = 0
				}
				r.occupied = 0
				out := order[:0]
				for _, wid := range order {
					if drop[wid] {
						delete(wakes, wid)
						continue
					}
					pos := len(out)
					if w := wakes[wid]; w <= now {
						r.set(pos)
					} else if w-now <= ringBuckets {
						b := int(w & (ringBuckets - 1))
						r.buckets[b*r.words+pos>>6] |= 1 << (pos & 63)
						r.occupied |= 1 << b
					}
					out = append(out, wid)
				}
				order = out
			}
			check(op)
		}
	}
}

// TestReadyRingAllocationFree guards the ring's steady-state operations —
// park (wheel and heap), merge, due-heap pops, arm/clear, minAt — against
// heap allocations: everything must live in the arrays init preallocates.
func TestReadyRingAllocationFree(t *testing.T) {
	var r readyRing
	r.init(64)
	now := int64(0)
	allocs := testing.AllocsPerRun(100, func() {
		// Park every position: even ones inside the wheel horizon, odd ones
		// beyond it (heap).
		for pos := 0; pos < 64; pos++ {
			at := now + 2 + int64(pos&1)*ringBuckets + int64(pos)
			r.park(at, now, pos, int32(pos))
		}
		// Advance until everything has woken, then disarm for the next run.
		for r.occupied != 0 || len(r.heap) > 0 {
			old := now
			now += 32
			r.merge(old, now)
			for r.due(now) {
				r.set(int(r.pop()) & 63)
			}
		}
		for pos := 0; pos < 64; pos++ {
			r.clear(pos)
		}
		if r.minAt(now) != math.MaxInt64 {
			t.Fatal("ring not drained")
		}
	})
	if allocs != 0 {
		t.Errorf("readyRing operations allocate %.2f times per run, want 0", allocs)
	}
}

// barrierKernel interleaves loads, compute, and barrier synchronizations —
// the kernel shape that drives park/unpark, activation/deactivation, AND
// barrier release events through the ready ring in one schedule.
func barrierKernel(outer, inner int) *isa.Program {
	b := isa.NewBuilder("barrier")
	r := b.RegN(8)
	for i := range r {
		b.IMovImm(r[i], int64(i))
	}
	b.Loop(outer, func() {
		b.LdGlobal(r[0], r[1], isa.MemAccess{Pattern: isa.PatCoalesced, Region: 0, FootprintB: 4 << 20})
		b.Loop(inner, func() {
			b.FFMA(r[2], r[0], r[3], r[2])
			b.FAdd(r[4], r[2], r[5])
		})
		b.Bar()
		b.StGlobal(r[1], r[4], isa.MemAccess{Pattern: isa.PatCoalesced, Region: 1, FootprintB: 4 << 20})
		b.IAddImm(r[1], r[1], 4)
	})
	return b.MustBuild()
}

// regPrefetchKernel is the fuzz-sized register double-buffering shape of
// the workloads family (regpipe): loads of the next tile target the idle
// buffer while FMAs drain the other, so parked loads wake in bursts a full
// compute phase after issue — a scoreboard schedule none of the single-
// buffered kernels produce.
func regPrefetchKernel(trips, tile int) *isa.Program {
	b := isa.NewBuilder("regprefetch")
	ptr := b.Reg()
	b.IMovImm(ptr, 0)
	acc := b.RegN(4)
	for _, a := range acc {
		b.IMovImm(a, 1)
	}
	bufA, bufB := b.RegN(tile), b.RegN(tile)
	for _, r := range bufA {
		b.IMovImm(r, 2)
	}
	b.Loop(trips, func() {
		for _, bufs := range [2][2][]isa.Reg{{bufB, bufA}, {bufA, bufB}} {
			for i, r := range bufs[0] {
				b.LdGlobal(r, ptr, isa.MemAccess{Pattern: isa.PatCoalesced, Region: uint8(i % 4), FootprintB: 4 << 20})
			}
			for i, r := range bufs[1] {
				b.FFMA(acc[i%4], r, acc[(i+1)%4], acc[i%4])
			}
		}
		b.IAddImm(ptr, ptr, 4)
	})
	return b.MustBuild()
}

// smemDoubleBufKernel is the fuzz-sized shared-memory double-buffering
// shape (smempipe): global loads stage into registers while compute reads
// the resident shared tile, with barrier-fenced drains into the alternate
// shared region — barrier releases interleaved with long-latency parks.
func smemDoubleBufKernel(trips, tile int) *isa.Program {
	b := isa.NewBuilder("smemdoublebuf")
	ptr, sptr := b.Reg(), b.Reg()
	b.IMovImm(ptr, 0)
	b.IMovImm(sptr, 0)
	acc := b.RegN(2)
	for _, a := range acc {
		b.IMovImm(a, 1)
	}
	g := b.RegN(tile)
	for _, r := range g {
		b.IMovImm(r, 2)
	}
	smem := func(region uint8) isa.MemAccess {
		return isa.MemAccess{Pattern: isa.PatCoalesced, Region: region, FootprintB: 8 << 10}
	}
	b.Loop(trips, func() {
		for phase := uint8(0); phase < 2; phase++ {
			cur, next := 1+phase, 2-phase
			for i, r := range g {
				b.LdGlobal(r, ptr, isa.MemAccess{Pattern: isa.PatCoalesced, Region: uint8(i % 4), FootprintB: 4 << 20})
			}
			for range g {
				b.LdShared(acc[0], sptr, smem(cur))
				b.FFMA(acc[1], acc[0], acc[1], acc[1])
			}
			b.Bar()
			for _, r := range g {
				b.StShared(sptr, r, smem(next))
			}
			b.Bar()
		}
		b.IAddImm(ptr, ptr, 4)
	})
	return b.MustBuild()
}

// FuzzIndexedScanEquivalence fuzzes simulator configurations and kernel
// shapes and asserts the indexed issue scan (plus the event-driven clock)
// produces Stats deeply equal to the reference stack (Config.reference) —
// the linear scan ticking one cycle at a time. The kernel set spans the event
// schedules the ring must replay exactly: pure compute (collector
// starvation), streaming loads (scoreboard parks, two-level
// deactivation/activation), tiled loops (mixed), barriers (park/unpark
// plus barrier releases), and the double-buffered family shapes
// (burst-waking prefetch scoreboards; barrier-fenced staging).
func FuzzIndexedScanEquivalence(f *testing.F) {
	f.Add(0, 1, 1.0, 8, 3000, 0, 50, 4)   // BL, baseline tech: the PR 7 perf point
	f.Add(3, 7, 6.3, 8, 3000, 1, 100, 6)  // LTRF at DWM, streaming: deactivation-heavy
	f.Add(1, 4, 2.0, 4, 2500, 2, 12, 8)   // RFC, tiled, small active set
	f.Add(0, 2, 1.5, 6, 2000, 3, 8, 10)   // BL with barriers
	f.Add(4, 7, 6.3, 2, 1500, 3, 5, 3)    // LTRFPlus, barriers, tiny active set
	f.Add(5, 1, 1.0, 16, 2000, 0, 200, 0) // Ideal, compute-bound, wide active set
	f.Add(3, 7, 6.3, 2, 3000, 4, 40, 6)   // LTRF at DWM, register double buffering
	f.Add(0, 6, 4.0, 4, 2500, 5, 33, 5)   // BL at TFET, smem double buffering

	designs := []Design{DesignBL, DesignRFC, DesignSHRF, DesignLTRF, DesignLTRFPlus, DesignIdeal}
	f.Fuzz(func(t *testing.T, design, tech int, latX float64, activeWarps, budget, kernel, kp1, kp2 int) {
		if latX < 1 || latX > 16 || math.IsNaN(latX) {
			t.Skip()
		}
		d := designs[((design%len(designs))+len(designs))%len(designs)]
		c := DefaultConfig(d)
		c.Tech = memtech.MustConfig(((tech%7)+7)%7 + 1)
		c.LatencyX = latX
		c.ActiveWarps = ((activeWarps%16)+16)%16 + 1
		c.MaxInstrs = int64(((budget%4000)+4000)%4000 + 500)
		c.MaxCycles = c.MaxInstrs * 12
		if err := c.Validate(); err != nil {
			t.Skip()
		}
		p1 := ((kp1%200)+200)%200 + 5
		p2 := ((kp2%12)+12)%12 + 2
		var prog *isa.Program
		switch ((kernel % 6) + 6) % 6 {
		case 0:
			prog = aluKernel(p1)
		case 1:
			prog = streamKernel(8, p1)
		case 2:
			prog = tiledKernel(p1/4+2, p2)
		case 3:
			prog = barrierKernel(p1/8+2, p2)
		case 4:
			prog = regPrefetchKernel(p1/8+2, p2)
		default:
			prog = smemDoubleBufKernel(p1/16+2, p2)
		}

		c.reference = false
		ff, err := RunWithCacheCtx(context.Background(), c, prog, nil)
		if err != nil {
			t.Skip() // config rejected by a deeper layer: nothing to compare
		}
		c.reference = true
		ca, err := RunWithCacheCtx(context.Background(), c, prog, nil)
		if err != nil {
			t.Fatalf("reference run failed where indexed run succeeded: %v", err)
		}
		if !reflect.DeepEqual(ff.Stats, ca.Stats) {
			t.Errorf("indexed scan diverges from linear reference:\n  indexed: %+v\n  linear:  %+v",
				ff.Stats, ca.Stats)
		}
	})
}
