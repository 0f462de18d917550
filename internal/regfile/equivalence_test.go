package regfile

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"ltrf/internal/bitvec"
	"ltrf/internal/isa"
)

// equivalenceDesigns are the designs whose bookkeeping has a reference
// twin in reference_test.go.
var equivalenceDesigns = []string{"LTRF", "LTRF+", "SHRF", "RFC"}

// newEquivalencePair builds one design and its reference over the same
// configuration.
func newEquivalencePair(design string, cfg Config) (Subsystem, refSubsystem) {
	switch design {
	case "LTRF", "LTRF+":
		plus := design == "LTRF+"
		return NewLTRF(cfg, plus), &refLTRF{refCached{newCached(cfg)}, plus}
	case "SHRF":
		return NewSHRF(cfg), &refSHRF{refCached{newCached(cfg)}}
	default:
		return NewRFC(cfg), newRefRFC(cfg)
	}
}

// sharedOf returns the banks, crossbar and counters of a production design.
func sharedOf(s Subsystem) *cached {
	switch d := s.(type) {
	case *LTRF:
		return &d.cached
	case *SHRF:
		return &d.cached
	case *RFC:
		return &d.cached
	}
	panic(fmt.Sprintf("no shared state for %T", s))
}

// equivalenceReg decodes a byte into a register spread over all four
// words of a bit-vector: 24 registers per word, so the word loops see
// boundaries and sparse words.
func equivalenceReg(b byte) isa.Reg {
	return isa.Reg(int(b&0x3f)%24 + 64*int(b>>6))
}

// checkPrefetchEquivalence decodes ops into a sequence of subsystem calls
// on three warps, applies it to a production design and to its reference,
// and fails at the first call after which they disagree: on the returned
// time, the counters, the bank and crossbar reservations, or any warp's
// residency, dirtiness, address table, unused queue or replacement order.
//
// Eviction order is covered by the address tables and unused queues. A
// PREFETCH or refetch evicts only when the unused queue is empty, so the
// k-th victim's bank is the bank the next allocated register gets; a flush
// or strand eviction appends its banks to the queue in release order. RFC's
// ring is compared entry by entry with the reference FIFO.
func checkPrefetchEquivalence(t *testing.T, design string, banks, slots uint8, ops []byte) {
	t.Helper()
	latXs := []float64{1, 2, 4, 6.3}
	cfg := Baseline(latXs[slots>>6], int(banks%20)+1)
	cfg.SharedCacheRegs = int(slots%40) + 1
	got, want := newEquivalencePair(design, cfg)

	ids := []int{0, 1, 5}
	gw := make([]*WarpRegs, len(ids))
	rw := make([]*refWarp, len(ids))
	for i, id := range ids {
		gw[i] = NewWarpRegs(id, cfg.CacheBanks)
		rw[i] = newRefWarp(id, cfg.CacheBanks)
	}

	now := int64(0)
	next := func() byte {
		if len(ops) == 0 {
			return 0
		}
		b := ops[0]
		ops = ops[1:]
		return b
	}
	for step := 0; len(ops) > 0; step++ {
		op := next()
		k := int(op>>3) % len(ids)
		g, r := gw[k], rw[k]
		now += int64(op >> 6)
		var call string
		var tg, tr int64
		switch op % 8 {
		case 0:
			unit := int(next() % 5)
			var ws bitvec.Vector
			for n := int(next()) % (cfg.CacheBanks + 4); n > 0; n-- {
				ws.Set(int(equivalenceReg(next())))
			}
			call = fmt.Sprintf("OnUnitEnter(w%d, unit %d, %v)", g.ID, unit, ws)
			tg, tr = got.OnUnitEnter(now, g, unit, ws), want.OnUnitEnter(now, r, unit, ws)
		case 1:
			srcs := make([]isa.Reg, int(op>>5)%3+1)
			for i := range srcs {
				srcs[i] = equivalenceReg(next())
			}
			call = fmt.Sprintf("ReadOperands(w%d, %v)", g.ID, srcs)
			tg, tr = got.ReadOperands(now, g, srcs), want.ReadOperands(now, r, srcs)
		case 2:
			dst := equivalenceReg(next())
			call = fmt.Sprintf("WriteResult(w%d, R%d)", g.ID, dst)
			tg, tr = got.WriteResult(now, g, dst), want.WriteResult(now, r, dst)
		case 3:
			call = fmt.Sprintf("OnActivate(w%d)", g.ID)
			tg, tr = got.OnActivate(now, g), want.OnActivate(now, r)
		case 4:
			call = fmt.Sprintf("OnDeactivate(w%d)", g.ID)
			tg, tr = got.OnDeactivate(now, g), want.OnDeactivate(now, r)
		case 5:
			// The simulator sets liveness on result writes and clears it
			// on dead operands (LTRF+'s and SHRF's write-back filter).
			reg := int(equivalenceReg(next()))
			call = fmt.Sprintf("toggle Live R%d of w%d", reg, g.ID)
			if g.Live.Test(reg) {
				g.Live.Clear(reg)
				r.Live.Clear(reg)
			} else {
				g.Live.Set(reg)
				r.Live.Set(reg)
			}
		case 6:
			// A finished warp's bookkeeping is reset. RFC leaves a finished
			// warp's entries to age out of its ring, which only matches the
			// reference while the warp never runs again, so RFC skips this.
			if design == "RFC" {
				continue
			}
			call = fmt.Sprintf("Reset(w%d)", g.ID)
			g.Reset(cfg.CacheBanks)
			*r = *newRefWarp(r.ID, cfg.CacheBanks)
		default:
			now += int64(next())
			continue
		}
		if tg != tr {
			t.Fatalf("%s step %d %s @%d: returned %d, reference %d", design, step, call, now, tg, tr)
		}
		if err := compareEquivalence(got, want, gw, rw); err != nil {
			t.Fatalf("%s step %d %s @%d: %v", design, step, call, now, err)
		}
	}
}

// compareEquivalence reports the first difference between a production
// design's state and its reference's.
func compareEquivalence(got Subsystem, want refSubsystem, gw []*WarpRegs, rw []*refWarp) error {
	gc, rc := sharedOf(got), want.shared()
	if gc.st != rc.st {
		return fmt.Errorf("stats %+v, reference %+v", gc.st, rc.st)
	}
	for _, b := range []struct {
		name string
		g, r *BankSet
	}{{"main banks", gc.main, rc.main}, {"cache banks", gc.cache, rc.cache}, {"crossbar", gc.xbar, rc.xbar}} {
		if !reflect.DeepEqual(b.g, b.r) {
			return fmt.Errorf("%s %+v, reference %+v", b.name, *b.g, *b.r)
		}
	}
	for i, g := range gw {
		r := rw[i]
		if g.Present != r.Present || g.Dirty != r.Dirty || g.Live != r.Live || g.WS != r.WS || g.CurUnit != r.CurUnit {
			return fmt.Errorf("w%d present %v dirty %v live %v ws %v unit %d, reference %v %v %v %v %d",
				g.ID, g.Present, g.Dirty, g.Live, g.WS, g.CurUnit, r.Present, r.Dirty, r.Live, r.WS, r.CurUnit)
		}
		if g.addrTable != r.addrTable {
			return fmt.Errorf("w%d address table differs from the reference", g.ID)
		}
		if gq, rq := freeQueue(g.freeBanks, g.freeHead, g.freeLen), freeQueue(r.freeBanks, r.freeHead, r.freeLen); !reflect.DeepEqual(gq, rq) {
			return fmt.Errorf("w%d unused queue %v, reference %v", g.ID, gq, rq)
		}
		var order []isa.Reg
		for x := g.head; x != -1; x = g.order.next[x] {
			order = append(order, isa.Reg(x))
			if len(order) > isa.MaxArchRegs {
				return fmt.Errorf("w%d allocation order does not end", g.ID)
			}
		}
		if len(order) > 0 && g.tail != int16(order[len(order)-1]) {
			return fmt.Errorf("w%d tail R%d is not the last of %v", g.ID, g.tail, order)
		}
		if !reflect.DeepEqual(order, r.fifo) && (len(order) != 0 || len(r.fifo) != 0) {
			return fmt.Errorf("w%d allocation order %v, reference %v", g.ID, order, r.fifo)
		}
	}
	if rfc, ok := got.(*RFC); ok {
		ref := want.(*refRFC)
		if rfc.n != len(ref.fifo) {
			return fmt.Errorf("RFC holds %d entries, reference %d", rfc.n, len(ref.fifo))
		}
		for k, e := range ref.fifo {
			g := rfc.ring[(rfc.head+k)%len(rfc.ring)]
			if g.w.ID != e.key.warp || g.reg != e.key.reg {
				return fmt.Errorf("RFC entry %d is w%d R%d, reference w%d R%d", k, g.w.ID, g.reg, e.key.warp, e.key.reg)
			}
		}
		if len(ref.present) != rfc.n {
			return fmt.Errorf("reference RFC tags %d entries but its FIFO holds %d", len(ref.present), rfc.n)
		}
	}
	return nil
}

func freeQueue(ring []int16, head, n int) []int16 {
	q := make([]int16, n)
	for i := range q {
		q[i] = ring[(head+i)%len(ring)]
	}
	return q
}

// FuzzPrefetchEquivalence compares the word-level bookkeeping of LTRF,
// LTRF+, SHRF and RFC with the per-register reference call by call, on
// arbitrary sequences of PREFETCHes, operand reads, result writes,
// activations, deactivations, liveness changes and warp resets.
func FuzzPrefetchEquivalence(f *testing.F) {
	f.Add(uint8(0), uint8(3), uint8(8), []byte{0, 1, 6, 1, 2, 3, 4, 5, 6, 2, 9, 0, 2, 5, 4, 5, 6, 7, 8, 4, 3})
	f.Add(uint8(1), uint8(15), uint8(70), []byte{5, 1, 5, 3, 0, 0, 19, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 64, 65, 66, 2, 4, 11, 40})
	f.Add(uint8(2), uint8(7), uint8(140), []byte{2, 3, 2, 200, 0, 1, 4, 3, 200, 9, 10, 5, 3, 0, 2, 5, 3, 9, 64, 128, 4, 1, 2})
	f.Add(uint8(3), uint8(2), uint8(5), []byte{2, 1, 10, 2, 2, 66, 2, 3, 2, 4, 2, 9, 1, 2, 1, 4, 2, 8, 12, 4})
	f.Fuzz(func(t *testing.T, design, banks, slots uint8, ops []byte) {
		if len(ops) > 4096 {
			t.Skip()
		}
		checkPrefetchEquivalence(t, equivalenceDesigns[int(design)%len(equivalenceDesigns)], banks, slots, ops)
	})
}

// TestPrefetchEquivalence runs the differential check on seeded random
// call sequences whose registers come from a small pool, so working sets
// overlap and partitions overflow often.
func TestPrefetchEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for _, design := range equivalenceDesigns {
		for i := 0; i < 150; i++ {
			ops := make([]byte, 64+rng.Intn(400))
			for j := range ops {
				ops[j] = byte(rng.Intn(12) | rng.Intn(4)<<6 | rng.Intn(2)<<4)
			}
			checkPrefetchEquivalence(t, design, uint8(rng.Intn(256)), uint8(rng.Intn(256)), ops)
		}
	}
}
