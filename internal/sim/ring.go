package sim

// The indexed "next issuable warp" structure. PR 5 made the CLOCK
// event-driven (idle passes jump to the next wakeup), but every non-idle
// pass still rescanned the whole active set round-robin, so low-latency
// configurations — where almost every active warp is blocked on a
// scoreboard arrival, a busy operand collector, or a stall, and one or two
// issue per cycle — paid O(active warps) of pointer-chasing per pass to
// find them. readyRing makes the SCAN event-driven too: it tracks, per
// active-slot position, whether the warp there can plausibly act this
// pass, and the issue scan walks only those positions. A pass costs
// O(issued + events) instead of O(active warps).
//
// The index is three structures, chosen so the per-event cost is a couple
// of word operations rather than a heap traversal:
//
//   - armed: a bitmask over active positions the scan must examine;
//   - a 64-bucket wake wheel: a warp that cannot act before a cycle at
//     most ringBuckets ahead (the overwhelmingly common case at low
//     latency: ALU chains, L1 hits, collector drain, its own next cycle
//     after issuing) sets one bit in the bucket its wake cycle maps to,
//     and advancing the clock ORs due buckets back into armed — no
//     per-warp work at all on the wake path;
//   - a (wake cycle, warp) min-heap for the rare far parks (cache misses
//     past the wheel horizon, long prefetch stalls), popped into armed as
//     their cycles arrive.
//
// The index is updated on exactly the events the PR 5 machinery already
// observes, so no new information is needed: scoreboard arrival, stall
// expiry, and collector free times are known when the warp blocks (park
// into wheel/heap); issue makes the warp re-examinable at cycle+1 (wheel,
// offset 1); activation arms or parks the warp at its freshly-appended
// position; deactivation/barrier/finish drop the position (compaction
// rebuild). Warps whose only obstacle is the deactivation predicate's
// pool check stay armed and are re-examined every pass, so no pool event
// is missed.
//
// Pick order is preserved EXACTLY: positions index the same active slice
// the linear scan walks, the scan starts at the same rr%n rotation and
// wraps the same way, and a skipped position is precisely one the linear
// scan would have examined and skipped without any state change (proven
// case-by-case in visitActive, differentially by
// TestReadyRingMatchesReferenceScan and FuzzIndexedScanEquivalence, and
// end-to-end by the equivalence cross-product against the linear-scan
// reference that the unexported Config.reference hook selects). Both scans
// share one per-warp decision (SM.decide); the index only decides which
// warps to visit.
//
// The event-driven clock also needs nextWake (its jump target) to be exact
// after an idle pass: parked warps contribute their wake time through the
// wheel/heap minima instead of a per-pass wakeAt, and warps that stay armed
// while blocked (watch verdicts) contribute theirs on every visit.

import (
	"math"
	"math/bits"
)

// ringBuckets is the wake wheel's horizon in cycles (power of two). Parks
// further out than this go to the heap. 64 covers the short-block regime
// the wheel exists for — ALU/SFU chains, L1 hits, collector drain — and
// makes the bucket-occupancy set a single word.
const ringBuckets = 64

// ringWake is one far-parked active warp: at is the cycle it must be
// re-examined, wid the warp's SM-local index (stable across compaction —
// the warp's current position is read from Warp.slot at pop time).
type ringWake struct {
	at  int64
	wid int32
}

// readyRing indexes the active scheduling set by issuability. All storage
// is preallocated for the resident warp count — steady-state operations
// never allocate (TestReadyRingAllocationFree).
//
// Membership invariant (for warps in the active set): a warp with
// Warp.wake <= cycle has its position's bit in armed; one with
// wake in (cycle, cycle+ringBuckets] has it in bucket wake%ringBuckets;
// one with wake beyond that has a heap entry and no bit anywhere.
// Compaction relies on this to rebuild the masks from Warp.wake alone.
type readyRing struct {
	armed []uint64

	// buckets holds ringBuckets masks of `words` words each (bucket b at
	// [b*words, (b+1)*words)); occupied bit b is set iff bucket b is
	// non-empty. Every resident wake cycle lies in (cycle, cycle+64], so a
	// bucket holds at most one distinct wake cycle and merging is exact.
	buckets  []uint64
	occupied uint64
	words    int

	heap []ringWake
}

// init sizes the ring for n resident warps (the active set can never
// exceed the resident count, and a warp parks at most once per blocking
// episode).
func (r *readyRing) init(n int) {
	r.words = (n + 63) >> 6
	r.armed = make([]uint64, r.words)
	r.buckets = make([]uint64, ringBuckets*r.words)
	r.heap = make([]ringWake, 0, n)
}

func (r *readyRing) set(pos int)   { r.armed[pos>>6] |= 1 << (pos & 63) }
func (r *readyRing) clear(pos int) { r.armed[pos>>6] &^= 1 << (pos & 63) }

// nextArmed returns the lowest armed position in [from, to), or -1. The
// issue scan uses it to jump directly between examinable warps.
func (r *readyRing) nextArmed(from, to int) int {
	if from >= to {
		return -1
	}
	wi := from >> 6
	word := r.armed[wi] &^ (1<<(from&63) - 1)
	for {
		if word != 0 {
			pos := wi<<6 + bits.TrailingZeros64(word)
			if pos >= to {
				return -1
			}
			return pos
		}
		wi++
		if wi<<6 >= to {
			return -1
		}
		word = r.armed[wi]
	}
}

// park records that the warp at position pos cannot act before cycle `at`:
// one bit in the wake wheel when `at` is within the horizon, a heap entry
// otherwise. The caller has already cleared the armed bit (or never set
// it) and stored `at` in Warp.wake.
func (r *readyRing) park(at, now int64, pos int, wid int32) {
	if at-now <= ringBuckets {
		b := int(at & (ringBuckets - 1))
		r.buckets[b*r.words+pos>>6] |= 1 << (pos & 63)
		r.occupied |= 1 << b
		return
	}
	r.heap = append(r.heap, ringWake{at: at, wid: wid})
	i := len(r.heap) - 1
	for i > 0 {
		p := (i - 1) / 2
		if r.heap[p].at <= r.heap[i].at {
			break
		}
		r.heap[p], r.heap[i] = r.heap[i], r.heap[p]
		i = p
	}
}

// merge ORs every bucket whose wake cycle lies in (old, now] back into
// armed — the whole wake path for wheel-parked warps, with no per-warp
// work. Each occupied bucket b holds the unique pending wake cycle
// congruent to b, old+1+((b-(old+1)) mod ringBuckets); it is due iff that
// value is at most `now`.
func (r *readyRing) merge(old, now int64) {
	if r.occupied == 0 {
		return
	}
	steps := now - old
	if steps == 1 {
		// Non-idle advance (the common case): exactly one bucket is due.
		if b := int((old + 1) & (ringBuckets - 1)); r.occupied&(1<<b) != 0 {
			r.mergeBucket(b)
			r.occupied &^= 1 << b
		}
		return
	}
	if steps >= ringBuckets {
		// Everything resident is due: wake cycles never exceed old+64.
		for occ := r.occupied; occ != 0; occ &= occ - 1 {
			r.mergeBucket(bits.TrailingZeros64(occ))
		}
		r.occupied = 0
		return
	}
	for occ := r.occupied; occ != 0; occ &= occ - 1 {
		b := bits.TrailingZeros64(occ)
		if (int64(b)-(old+1))&(ringBuckets-1) < steps {
			r.mergeBucket(b)
			r.occupied &^= 1 << b
		}
	}
}

func (r *readyRing) mergeBucket(b int) {
	base := b * r.words
	for i := 0; i < r.words; i++ {
		r.armed[i] |= r.buckets[base+i]
		r.buckets[base+i] = 0
	}
}

// minAt returns the earliest cycle any parked warp wakes (wheel or heap),
// or MaxInt64 when nothing is parked — the index's contribution to the
// pass's nextWake. O(1): the wheel minimum falls out of rotating the
// occupancy word so bucket offsets count from cycle+1.
func (r *readyRing) minAt(now int64) int64 {
	t := int64(math.MaxInt64)
	if r.occupied != 0 {
		rot := bits.RotateLeft64(r.occupied, -int((now+1)&(ringBuckets-1)))
		t = now + 1 + int64(bits.TrailingZeros64(rot))
	}
	if len(r.heap) > 0 && r.heap[0].at < t {
		t = r.heap[0].at
	}
	return t
}

// due reports whether some heap-parked warp's wake cycle has arrived.
func (r *readyRing) due(now int64) bool {
	return len(r.heap) > 0 && r.heap[0].at <= now
}

// pop removes and returns the warp with the earliest heap wake cycle. Pop
// order among equal wake cycles is irrelevant: popping only sets armed
// bits, and the scan visits positions in rotation order regardless.
func (r *readyRing) pop() int32 {
	wid := r.heap[0].wid
	n := len(r.heap) - 1
	r.heap[0] = r.heap[n]
	r.heap = r.heap[:n]
	i := 0
	for {
		l := 2*i + 1
		if l >= n {
			break
		}
		m := l
		if rc := l + 1; rc < n && r.heap[rc].at < r.heap[l].at {
			m = rc
		}
		if r.heap[i].at <= r.heap[m].at {
			break
		}
		r.heap[i], r.heap[m] = r.heap[m], r.heap[i]
		i = m
	}
	return wid
}

// --- SM-side ring maintenance -------------------------------------------

// ringWakeDue re-arms every heap-parked warp whose wake cycle has arrived;
// runs at the top of each pass, so a warp parked until cycle t is examined
// by the pass at t — the same pass on which the linear scan's readyAt
// guard would have let it through. (Wheel-parked warps are re-armed by
// merge when the clock advances, before this runs.)
func (sm *SM) ringWakeDue() {
	for sm.ring.due(sm.cycle) {
		w := sm.warps[sm.ring.pop()]
		w.wake = sm.cycle
		sm.ring.set(int(w.slot))
	}
}

// ringParkScan parks the warp at position pos until cycle `at`, mid-scan:
// the wheel/heap entry carries the wake time into later passes' nextWake,
// and wakeAt(at) adds it to THIS pass's (the scan read the index minimum
// before this entry existed).
func (sm *SM) ringParkScan(w *Warp, pos int, at int64) {
	w.wake = at
	sm.ring.clear(pos)
	sm.ring.park(at, sm.cycle, pos, int32(w.local))
	sm.wakeAt(at)
}

// removeActiveIndexed is removeActive plus the mask rebuild: compaction
// shifts positions down, so armed and wheel masks are re-derived from each
// kept warp's wake cycle at its new position (see the membership
// invariant on readyRing). Heap entries are position-independent (they
// carry the warp index) and survive untouched.
func (sm *SM) removeActiveIndexed() {
	r := &sm.ring
	for i := 0; i < r.words; i++ {
		r.armed[i] = 0
	}
	for occ := r.occupied; occ != 0; occ &= occ - 1 {
		base := bits.TrailingZeros64(occ) * r.words
		for i := 0; i < r.words; i++ {
			r.buckets[base+i] = 0
		}
	}
	r.occupied = 0

	now := sm.cycle
	out := sm.active[:0]
	for _, wid := range sm.active {
		w := sm.warps[wid]
		if w.state != stateActive {
			continue
		}
		pos := len(out)
		w.slot = int32(pos)
		if w.wake <= now {
			r.set(pos)
		} else if w.wake-now <= ringBuckets {
			b := int(w.wake & (ringBuckets - 1))
			r.buckets[b*r.words+pos>>6] |= 1 << (pos & 63)
			r.occupied |= 1 << b
		}
		// else: far-parked; its heap entry carries the warp index.
		out = append(out, wid)
	}
	sm.active = out
}

// issueCycleIndexed is the indexed issue scan: identical arbitration to
// issueCycleScan (greedy-then-oldest round-robin from rr%n, wrapping, up
// to IssueWidth issues), but it walks only armed positions. Blocked warps
// were parked with their wake cycles when they blocked, so the passes
// between block and wake never touch them — visitActive proves each
// skipped visit would have been a no-op.
func (sm *SM) issueCycleIndexed() int {
	sm.collMin = 0
	sm.nextWake = sm.ring.minAt(sm.cycle)
	n := len(sm.active)
	if n == 0 {
		return 0
	}
	issued, removed := 0, 0
	now := sm.cycle
	width := sm.cfg.IssueWidth

	// Two segments replace the wrapping modulo walk: [start, n), then
	// [0, start). During the scan armed bits are only CLEARED, and only at
	// the visited position, so a snapshot of the mask taken at segment
	// start stays exact for every unvisited position — which is what lets
	// the single-word fast path iterate a copied word.
	//
	// rr < n on entry (every epilogue and rotation keeps it in range and
	// refill only grows the set), so the linear scan's rr%n is a no-op; the
	// branch keeps the defensive reduction without paying an integer
	// division per pass.
	start := sm.rr
	if start >= n {
		start %= n
	}
	if sm.ring.words == 1 {
		// One mask word (up to 64 active slots — every default
		// configuration): split the word at the rotation point and
		// iterate set bits directly.
		word := sm.ring.armed[0]
		for m := word &^ (1<<start - 1); m != 0 && issued < width; m &= m - 1 {
			di, dr := sm.visitActive(bits.TrailingZeros64(m), now)
			issued += di
			removed += dr
		}
		for m := word & (1<<start - 1); m != 0 && issued < width; m &= m - 1 {
			di, dr := sm.visitActive(bits.TrailingZeros64(m), now)
			issued += di
			removed += dr
		}
	} else {
		lo, hi := start, n
		for seg := 0; seg < 2 && issued < width; seg++ {
			for pos := sm.ring.nextArmed(lo, hi); pos != -1; pos = sm.ring.nextArmed(pos+1, hi) {
				di, dr := sm.visitActive(pos, now)
				issued += di
				removed += dr
				if issued >= width {
					break
				}
			}
			lo, hi = 0, start
		}
	}

	if removed > 0 {
		sm.removeActive()
	}
	// Same greedy-then-oldest epilogue as the linear scan, with the modulos
	// needed only when compaction shrank the set; otherwise rr < n already,
	// so the advance is a compare-and-wrap.
	if n2 := len(sm.active); n2 == 0 {
		sm.rr = 0
	} else if removed > 0 {
		if issued == 0 {
			sm.rr = (sm.rr + 1) % n2
		} else {
			sm.rr = sm.rr % n2
		}
	} else if issued == 0 {
		sm.rr++
		if sm.rr == n2 {
			sm.rr = 0
		}
	}
	return issued
}

// visitActive examines the warp at active position pos — the indexed
// equivalent of one iteration of the linear scan's loop body, returning
// (issued delta, removed delta). decide makes the same decision the linear
// scan makes; visitActive only turns its verdict into ring transitions, so
// that the passes the index skips are provably the passes on which the
// linear scan would have re-derived the same block and skipped the warp:
//
//   - vWait (prefetch or activation stall, permanent scoreboard refusal,
//     collector starvation): the wake cycle is fixed — a stall's by
//     construction, a refusal's because the warp's own scoreboard only
//     changes when it issues, and a collector's because free times only
//     move later while anyone starves — so park until it;
//   - vWatch: the inactive pool can change on any non-idle pass (another
//     warp deactivating), an event the index cannot see, so the warp STAYS
//     ARMED and is re-examined every pass, exactly like the linear scan;
//   - vLeave / vDeactivate: drop the position;
//   - vIssue: re-examinable at cycle+1 (wheel offset 1), or later after
//     the lookahead below.
func (sm *SM) visitActive(pos int, now int64) (issued, removed int) {
	w := sm.warps[sm.active[pos]]
	if w.state != stateActive {
		// Unreachable by invariant (bits are cleared when a warp leaves
		// the active state); mirror the linear scan's skip defensively.
		sm.ring.clear(pos)
		return 0, 0
	}
	switch v, at := sm.decide(w, now); v {
	case vWait:
		sm.ringParkScan(w, pos, at)
		return 0, 0
	case vWatch:
		sm.wakeAt(at)
		return 0, 0
	case vLeave:
		sm.ring.clear(pos)
		return 1, 1
	case vDeactivate:
		sm.ring.clear(pos)
		return 0, 1
	}

	// Issued: readyAt is now cycle+1. The warp's NEXT instruction's
	// scoreboard verdict is already decided — its own registers cannot
	// change until it issues again — so evaluate it here and, when the
	// verdict is a permanent refusal, park straight to the arrival and
	// skip the intermediate visit at cycle+1 outright. The skipped visit
	// is provably the one that would have re-derived this verdict and
	// parked anyway; its wakeAt contribution only matters on idle passes,
	// where the wheel/heap minima supply the same value. Instructions at a
	// prefetch-unit boundary and watch verdicts (whose pool test must read
	// the pool at cycle+1) fall back to a normal visit.
	wake := now + 1
	if sm.part == nil || sm.part.UnitID(w.pc) == w.Regs.CurUnit {
		if ready, watch := sm.scoreboard(w, wake); !watch {
			w.sbOK = true
			if ready > wake {
				w.readyAt = ready
				wake = ready
			}
		}
	}
	w.wake = wake
	sm.ring.clear(pos)
	sm.ring.park(wake, now, pos, int32(w.local))
	return 1, 0
}
