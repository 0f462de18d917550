package regfile

import (
	"math/bits"

	"ltrf/internal/bitvec"
	"ltrf/internal/isa"
)

// WarpRegs is the per-warp register bookkeeping shared by all cached
// designs. It models the Warp Control Block of Figure 7 (register cache
// address table + working-set bit-vector + liveness bit-vector) and the
// per-warp address allocation unit of Figure 8: the unused queue is a ring
// of free cache banks, and the occupied queue is an intrusive doubly linked
// list of the resident registers in allocation order, indexed by register
// number. FIFO replacement reads its victim at the list head, allocation
// links at the tail, and releasing any register unlinks it in O(1).
type WarpRegs struct {
	ID int

	// Present is the working-set/valid bit-vector: registers currently
	// resident in the register-file cache.
	Present bitvec.Vector
	// Dirty marks resident registers modified since they were fetched.
	Dirty bitvec.Vector
	// Live is the runtime liveness bit-vector of LTRF+ (§3.2): cleared at
	// warp start, set on register writes, cleared by dead-operand bits.
	Live bitvec.Vector
	// WS is the working-set bit-vector of the current prefetch unit, used
	// to re-fetch after reactivation in the middle of a unit (§4.2 Warp
	// Stall).
	WS bitvec.Vector

	// CurUnit is the prefetch unit the warp is executing (-1 before the
	// first PREFETCH).
	CurUnit int

	// addrTable is the register cache address table: architectural
	// register -> cache bank, or -1 when not resident.
	addrTable [isa.MaxArchRegs]int16
	// freeBanks is the unused queue of the address allocation unit: a ring
	// buffer (at most cacheBanks entries are ever free), so the dequeue/
	// enqueue cycle of allocate/release never reallocates.
	freeBanks []int16
	freeHead  int
	freeLen   int
	// order links the resident registers in allocation order, head the
	// oldest and tail the newest; -1 ends the list. Its 1 KiB is allocated
	// by the warp's first allocation, so a warp of a design that never
	// caches a register carries none.
	order      *regOrder
	head, tail int16
}

// regOrder is the allocation-order list's links, indexed by register
// number. Entries of non-resident registers are stale and never read.
type regOrder struct {
	next, prev [isa.MaxArchRegs]int16
}

// NewWarpRegs creates the bookkeeping for one warp with a cache partition of
// cacheBanks registers.
func NewWarpRegs(id, cacheBanks int) *WarpRegs {
	w := &WarpRegs{ID: id}
	for i := range w.addrTable {
		w.addrTable[i] = -1
	}
	w.Reset(cacheBanks)
	return w
}

// Reset clears all state and re-fills the unused queue (kernel relaunch).
func (w *WarpRegs) Reset(cacheBanks int) {
	// Only resident registers hold an address-table entry.
	for wi, word := range w.Present {
		for word != 0 {
			w.addrTable[wi<<6|bits.TrailingZeros64(word)] = -1
			word &= word - 1
		}
	}
	w.Present = bitvec.Vector{}
	w.Dirty = bitvec.Vector{}
	w.Live = bitvec.Vector{}
	w.WS = bitvec.Vector{}
	w.CurUnit = -1
	if cap(w.freeBanks) < cacheBanks {
		w.freeBanks = make([]int16, cacheBanks)
	} else {
		w.freeBanks = w.freeBanks[:cacheBanks]
	}
	for i := 0; i < cacheBanks; i++ {
		w.freeBanks[i] = int16(i)
	}
	w.freeHead = 0
	w.freeLen = cacheBanks
	w.head, w.tail = -1, -1
}

// CacheBank returns the cache bank holding register r, or -1.
func (w *WarpRegs) CacheBank(r isa.Reg) int { return int(w.addrTable[r]) }

// FreeSlots returns the number of unallocated cache banks.
func (w *WarpRegs) FreeSlots() int { return w.freeLen }

// allocate assigns a free cache bank to register r (Figure 8: dequeue the
// unused queue, enqueue the occupied queue). Returns false when the
// partition is full.
func (w *WarpRegs) allocate(r isa.Reg) bool {
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
	o := w.order
	if o == nil {
		o = new(regOrder)
		w.order = o
	}
	ri := int16(r)
	o.prev[r], o.next[r] = w.tail, -1
	if w.tail == -1 {
		w.head = ri
	} else {
		o.next[w.tail] = ri
	}
	w.tail = ri
	return true
}

// release frees register r's cache bank back to the unused queue and
// unlinks r from the allocation order.
func (w *WarpRegs) release(r isa.Reg) {
	bank := w.addrTable[r]
	if bank == -1 {
		return
	}
	w.addrTable[r] = -1
	w.Present.Clear(int(r))
	w.Dirty.Clear(int(r))
	w.pushFree(bank)
	o := w.order
	p, n := o.prev[r], o.next[r]
	if p == -1 {
		w.head = n
	} else {
		o.next[p] = n
	}
	if n == -1 {
		w.tail = p
	} else {
		o.prev[n] = p
	}
}

// releaseAll frees every resident register, returning the cache banks to
// the unused queue in ascending register order — the order per-register
// release of the resident set would — and empties the allocation order.
func (w *WarpRegs) releaseAll() {
	for wi, word := range w.Present {
		for word != 0 {
			r := wi<<6 | bits.TrailingZeros64(word)
			word &= word - 1
			w.pushFree(w.addrTable[r])
			w.addrTable[r] = -1
		}
	}
	w.Dirty = w.Dirty.Diff(w.Present)
	w.Present = bitvec.Vector{}
	w.head, w.tail = -1, -1
}

// pushFree enqueues bank at the tail of the unused queue.
func (w *WarpRegs) pushFree(bank int16) {
	tail := w.freeHead + w.freeLen
	if tail >= len(w.freeBanks) {
		tail -= len(w.freeBanks)
	}
	w.freeBanks[tail] = bank
	w.freeLen++
}

// fifoVictim returns the oldest resident register (FIFO replacement) or
// RegNone when empty.
func (w *WarpRegs) fifoVictim() isa.Reg {
	if w.head == -1 {
		return isa.RegNone
	}
	return isa.Reg(w.head)
}

// WCBStorageBits returns the per-warp WCB storage cost in bits for the
// given architectural register count (§4.3 Storage Cost): a 5-bit address
// table entry per register (4-bit bank number for 16 cache banks + valid),
// a 3-bit warp-offset address, and the 256-bit working-set and liveness
// bit-vectors.
func WCBStorageBits(archRegs int) int {
	return archRegs*5 + 3 + 256 + 256
}
