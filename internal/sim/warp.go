package sim

import (
	"ltrf/internal/isa"
	"ltrf/internal/regfile"
)

// warpState enumerates a warp's scheduling state.
type warpState uint8

const (
	stateActive warpState = iota
	stateInactive
	stateBarrier
	stateFinished
)

// Warp is one resident warp context. ID is the global warp identity (used
// for memory address generation and bank mapping); local is the warp's
// index within its SM's warps slice (used by the scheduler queues).
type Warp struct {
	ID    int
	local int
	cta   int32 // CTA (thread block) the warp belongs to within its SM
	Regs  *regfile.WarpRegs

	pc           int
	state        warpState
	readyAt      int64 // earliest cycle the warp may issue (prefetch stalls etc.)
	blockedUntil int64 // for inactive warps: when the blocking operand arrives

	regReady []int64 // scoreboard: per-register availability
	loadDest []bool  // register was produced by an in-flight load
	counts   []int32 // per-slot dynamic counters (memory iterations, trip counts)

	rng     uint64
	retired int64

	// Indexed-scan bookkeeping (ring.go; maintained only when the SM runs
	// the indexed issue scan, and placed last so the linear reference
	// scan's hot fields keep their cache layout): slot is the warp's
	// current position in the active slice, wake the cycle at which the
	// warp next needs to be examined — the key that decides, via the
	// readyRing membership invariant, whether its position is armed,
	// wheel-parked, or heap-parked.
	slot int32
	wake int64
	// sbOK records that the warp's scoreboard is known satisfied for the
	// current pc from cycle `wake` on: set when a scoreboard evaluation
	// passes (or blocks with a fixed arrival the warp is parked until),
	// cleared whenever the warp issues (its own writes and pc advance are
	// the only things that change its scoreboard). Lets SM.decide skip
	// re-evaluating the scoreboard on wake — the evaluation it would run
	// there is provably the one already done.
	sbOK bool
}

// initWarp initializes a warp context in place. The scoreboard and counter
// slices are handed in by the SM, which carves them out of per-SM backing
// arrays: one allocation per array instead of several per warp, and
// contexts that the issue scan walks every pass sit contiguously in memory.
func initWarp(w *Warp, id int, regReady []int64, loadDest []bool, counts []int32, cacheBanks int, seed uint64) {
	*w = Warp{
		ID:       id,
		Regs:     regfile.NewWarpRegs(id, cacheBanks),
		regReady: regReady,
		loadDest: loadDest,
		counts:   counts,
		rng:      seed*0x9E3779B97F4A7C15 + 0xDEADBEEF | 1,
		state:    stateInactive,
	}
}

// rand01 returns a deterministic pseudo-random float in [0,1).
func (w *Warp) rand01() float64 {
	w.rng ^= w.rng >> 12
	w.rng ^= w.rng << 25
	w.rng ^= w.rng >> 27
	return float64((w.rng*0x2545F4914F6CDD1D)>>11) / float64(1<<53)
}

// advance moves the warp's PC past the instruction at pc, resolving
// branches: counted loop branches use their per-slot trip counters,
// probabilistic branches the warp's deterministic RNG.
func (w *Warp) advance(in *isa.Instr, m *instrMeta) {
	switch in.Op {
	case isa.OpBra:
		w.pc = in.Target
	case isa.OpBraCond:
		if in.Trip > 0 {
			w.counts[m.slot]++
			if int(w.counts[m.slot]) < in.Trip {
				w.pc = in.Target
			} else {
				w.counts[m.slot] = 0
				w.pc++
			}
		} else if w.rand01() < in.TakenProb {
			w.pc = in.Target
		} else {
			w.pc++
		}
	case isa.OpExit:
		w.state = stateFinished
	default:
		w.pc++
	}
}

// updateLiveness applies the compile-time dead-operand bits and the
// write-makes-live rule to the warp's runtime liveness bit-vector (§3.2).
func (w *Warp) updateLiveness(m *instrMeta) {
	for s := 0; s < int(m.nsrc); s++ {
		if m.dead[s] {
			w.Regs.Live.Clear(int(m.srcs[s]))
		}
	}
	if m.writes {
		w.Regs.Live.Set(int(m.dst))
	}
}
