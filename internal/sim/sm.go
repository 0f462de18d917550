package sim

import (
	"context"
	"fmt"

	"ltrf/internal/core"
	"ltrf/internal/isa"
	"ltrf/internal/memsys"
	"ltrf/internal/power"
	"ltrf/internal/regfile"
)

// MemStats carries the memory-system outcome of one simulation: the hit
// rates the figures report plus the raw event counters the chip-level
// energy model consumes, embedded straight from memsys so a counter added
// to the hierarchy is automatically carried here (no field-by-field copy
// to forget). The counts obey the hierarchy's conservation laws (every L1
// miss is an L2 access, every L2 miss a DRAM burst, every DRAM row miss an
// activate) — asserted by the chip-energy property suite.
type MemStats struct {
	L1HitRate  float64
	L2HitRate  float64
	DRAMRowHit float64

	memsys.Events
}

// Stats is the outcome of one simulation.
type Stats struct {
	Cycles int64
	Instrs int64 // dynamic instructions retired (PREFETCH pseudo-ops excluded)
	IPC    float64

	// IdleCycles counts cycles in which the SM did nothing at all: no warp
	// issued, activated, deactivated, or entered a prefetch stall — the dead
	// spans the event-driven clock fast-forwards across. It accumulates
	// identically under fast-forward and the one-cycle reference clock (the
	// equivalence property asserts it), and Cycles always includes it, so
	// per-cycle quantities (IPC, chip leakage) are mode-independent.
	IdleCycles int64

	Activations         int64 // warp activations (two-level scheduler)
	Deactivations       int64
	PrefetchStallCycles int64 // cycles warps spent stalled on PREFETCH
	BarrierReleases     int64

	// OperandReads / ResultWrites count the register operands the SM asked
	// the register subsystem to read and the results it asked it to write.
	// They are the simulator's side of the stats-conservation contract: every
	// design's Subsystem counters must account for exactly this demand (see
	// the property-based conformance suite).
	OperandReads int64
	ResultWrites int64

	// Retired-instruction class counters: every retired instruction lands in
	// exactly one (ALUOps + SFUOps + MemOps + CtrlOps == Instrs), feeding the
	// chip model's SM-pipeline energy terms.
	ALUOps  int64
	SFUOps  int64
	MemOps  int64
	CtrlOps int64 // control flow, barriers, and NOPs

	RF  regfile.Stats // register subsystem counters (copied at end)
	Mem MemStats

	Warps         int // resident warps the capacity allowed
	RegsPerThread int // architectural registers per thread after allocation
	SpilledRegs   int // registers spilled by maxregcount-style allocation
	PrefetchUnits int // units in the partition (0 when not applicable)
	Finished      bool

	// Truncated reports that the hard cycle stop (MaxCycles) fired before
	// the run either finished its warps or reached the requested
	// dynamic-instruction budget. Exhausting MaxInstrs is the NORMAL exit
	// for budget-sampled experiment runs and does not set this; the cycle
	// cap firing first means the run progressed at under MaxInstrs/MaxCycles
	// IPC and its statistics cover less work than the caller asked for —
	// serving layers must surface it instead of treating the stats as a
	// full-budget sample (it is identical under both clock modes; the
	// equivalence property covers it).
	Truncated bool
}

// ChipEvents bridges the simulator's counters to the chip-level energy
// model: everything power.ChipModel.Compute needs beyond the register
// subsystem's own Stats.
func (s *Stats) ChipEvents() power.ChipEvents {
	return power.ChipEvents{
		Cycles:             s.Cycles,
		Instrs:             s.Instrs,
		ALUOps:             s.ALUOps,
		SFUOps:             s.SFUOps,
		MemOps:             s.MemOps,
		L1Accesses:         s.Mem.L1Accesses,
		L2Accesses:         s.Mem.L2Accesses,
		DRAMAccesses:       s.Mem.DRAMAccesses,
		DRAMActivates:      s.Mem.DRAMActivates,
		SharedWideAccesses: s.Mem.SharedWideAccesses,
		ConstAccesses:      s.Mem.ConstAccesses,
	}
}

// SM is one streaming multiprocessor executing a kernel to completion.
type SM struct {
	cfg  *Config
	prog *isa.Program
	meta []instrMeta     // per-instruction issue-loop digest (see meta.go)
	part *core.Partition // nil unless the design needs prefetch units
	rf   regfile.Subsystem
	mem  *memsys.Hierarchy

	warps     []*Warp
	active    []int     // warp IDs in the active scheduling set
	wake      wakeQueue // inactive pool, indexed by wakeup time + FIFO order
	activeCap int
	finished  int // warps in stateFinished (avoids an O(warps) scan per cycle)

	cycle  int64
	instrs int64
	rr     int

	// nextWake is the earliest future cycle at which any currently-blocked
	// active warp can make progress, maintained by the indexed scan
	// (readyAt stalls, scoreboard arrival times, collector frees). After an
	// idle pass it is exact — nothing can happen before it — and becomes the
	// event-driven clock's jump target (nextEventCycle).
	nextWake int64
	// collMin memoizes nextCollectorFree for one pass (0 = not computed;
	// the true minimum is always a future cycle > 0 when it is needed).
	collMin int64

	// collectors[i] is the cycle collector unit i frees up. An issuing
	// instruction with register sources claims the first free collector
	// and holds it until its operand reads complete.
	collectors []int64

	// indexed selects the indexed issue scan (ring.go): passes walk only
	// warps that can plausibly act instead of the whole active set. It is
	// pinned off — along with the event-driven clock — by the unexported
	// Config.reference hook, which keeps the linear scan (issueCycleScan)
	// as the reference the equivalence and differential suites compare
	// against.
	indexed bool
	ring    readyRing

	// deactOn caches the scheduler-mode decision for the hot issue paths:
	// long-latency operands deactivate warps only under the two-level mode
	// (SchedTwoLevel) and only when an inactive pool exists. SchedStatic
	// keeps the split but never swaps on latency; SchedFlat has no pool.
	deactOn bool

	// cancel is the simulation's cancellation signal (ctx.Done() of the
	// run's context; nil when that context can never be cancelled). The run
	// loop, or the lockstep loop through SM 0, polls it every
	// cancelCheckMask+1 passes — coarse-grained on purpose, so the
	// uncancelled hot path costs one nil check per pass and the simulated
	// results stay byte-identical whether or not a context is attached. ctx
	// carries the matching context for the error.
	cancel <-chan struct{}
	ctx    context.Context
	passes int64

	// Per-CTA barrier bookkeeping: resident warps are split contiguously
	// into CTA groups of wpc warps (the last group may be smaller), and a
	// barrier synchronizes only within its CTA. With one CTA (the default)
	// this degenerates to the historical SM-wide barrier.
	wpc        int     // warps per CTA
	ctaBarrier []int32 // warps in stateBarrier, per CTA
	ctaFin     []int32 // warps in stateFinished, per CTA

	st Stats

	spills int // registers the kernel's allocation spilled (for Stats)
}

// cancelCheckMask throttles the cancellation poll to one channel select per
// 1024 issue passes: a pass costs well under a microsecond, so cancellation
// is observed within roughly a millisecond of wall clock while the poll
// stays invisible in profiles.
const cancelCheckMask = 1024 - 1

// attachContext arms the SM's cancellation signal. Background-like contexts
// (Done() == nil) leave the SM in the zero, check-free configuration.
func (sm *SM) attachContext(ctx context.Context) {
	if ctx == nil {
		return
	}
	if done := ctx.Done(); done != nil {
		sm.cancel = done
		sm.ctx = ctx
	}
}

// cancelled polls the cancellation signal (rate-limited by
// cancelCheckMask). It never fires for SMs without an attached context.
func (sm *SM) cancelled() bool {
	if sm.cancel == nil {
		return false
	}
	sm.passes++
	if sm.passes&cancelCheckMask != 0 {
		return false
	}
	select {
	case <-sm.cancel:
		return true
	default:
		return false
	}
}

// cancelErr builds the error a cancelled run returns; errors.Is sees the
// underlying context.Canceled / context.DeadlineExceeded.
func (sm *SM) cancelErr() error {
	return fmt.Errorf("sim: run cancelled at cycle %d (%d instrs retired): %w",
		sm.cycle, sm.instrs, sm.ctx.Err())
}

// newSM wires an SM together for a compiled kernel. The info.Warps
// resident warps all start inactive and ready. warpIDBase offsets global
// warp identities so that SMs of a multi-SM GPU generate distinct memory
// address streams (grid-style work distribution).
func newSM(cfg *Config, info *CompileInfo, rf regfile.Subsystem, mem *memsys.Hierarchy, warpIDBase int) *SM {
	prog, nWarps := info.Prog, info.Warps
	meta, slots := buildInstrMeta(prog)
	// Table 3: the two-level scheduler [19, 53] runs for every design,
	// including the BL baseline. SchedFlat makes all resident warps
	// schedulable; SchedStatic keeps the active/pending split but never
	// swaps on latency (deactOn).
	activeCap := cfg.ActiveWarps
	if cfg.SchedulerMode() == SchedFlat || activeCap > nWarps {
		activeCap = nWarps
	}
	sm := &SM{
		cfg: cfg, prog: prog, meta: meta, part: info.Part, rf: rf, mem: mem,
		spills:     info.Spills,
		activeCap:  activeCap,
		collectors: make([]int64, cfg.Collectors),
		indexed:    !cfg.reference,
		deactOn:    cfg.SchedulerMode() == SchedTwoLevel && activeCap < nWarps,
	}
	nregs := prog.RegCount()
	if nregs == 0 {
		nregs = 1
	}
	// Contiguous CTA split: warp local index i belongs to CTA i/wpc. The
	// configured CTA count is clamped to the resident warp count (occupancy
	// may resolve fewer warps than CTAs were asked for).
	ctas := cfg.CTAs()
	if ctas > nWarps {
		ctas = nWarps
	}
	sm.wpc = (nWarps + ctas - 1) / ctas
	nCTAs := (nWarps + sm.wpc - 1) / sm.wpc
	sm.ctaBarrier = make([]int32, nCTAs)
	sm.ctaFin = make([]int32, nCTAs)
	sm.wake.init(nWarps)
	sm.ring.init(nWarps)
	// Contiguous warp contexts and pooled scoreboard arrays: the issue scan
	// dereferences warp state every pass, and quick experiment sweeps build
	// thousands of short-lived SMs, so both locality and allocation count
	// matter here. The dynamic-counter arrays are slot-compacted (one entry
	// per memory instruction or counted branch, not per instruction).
	warpBuf := make([]Warp, nWarps)
	regReadyBuf := make([]int64, nWarps*nregs)
	loadDestBuf := make([]bool, nWarps*nregs)
	countBuf := make([]int32, nWarps*slots)
	sm.warps = make([]*Warp, nWarps)
	for i := 0; i < nWarps; i++ {
		w := &warpBuf[i]
		initWarp(w, warpIDBase+i,
			regReadyBuf[i*nregs:(i+1)*nregs],
			loadDestBuf[i*nregs:(i+1)*nregs],
			countBuf[i*slots:(i+1)*slots],
			cfg.RegsPerInterval, cfg.Seed+uint64(warpIDBase+i))
		w.local = i
		w.cta = int32(i / sm.wpc)
		sm.warps[i] = w
		sm.wake.push(i, 0)
	}
	return sm
}

// run executes the kernel until all warps finish, a budget is exhausted or
// the attached context is cancelled; finalize then reads the statistics.
// The clock is event-driven: whenever an issue pass turns out idle, the SM
// jumps straight to the next cycle at which anything can change instead of
// ticking through the dead span one cycle at a time — with observably
// identical results (see pass/nextEventCycle/advanceTo for why, and the
// equivalence property suite for proof). The unexported Config.reference
// hook pins the one-cycle-per-pass reference clock.
func (sm *SM) run() error {
	fastForward := !sm.cfg.reference
	for sm.runnable() {
		if sm.cancelled() {
			return sm.cancelErr()
		}
		idle := sm.pass()
		next := sm.cycle + 1
		if idle && fastForward {
			next = sm.nextEventCycle()
		}
		sm.advanceTo(next, idle)
	}
	return nil
}

// runnable reports whether the SM can still make progress: budgets not
// exhausted and at least one warp unfinished.
func (sm *SM) runnable() bool {
	return sm.cycle < sm.cfg.MaxCycles && sm.instrs < sm.cfg.MaxInstrs && !sm.allFinished()
}

// pass runs one issue pass (active-set refill + issue scan) at the current
// cycle and reports whether it was idle: nothing issued, activated,
// deactivated, or prefetch-stalled. State changes only through those four
// actions, and on an idle pass each of them is monotone in the clock —
// blocked warps' wakeup times are fixed, the deactivation predicate can
// only relax (the gap to the threshold shrinks, the candidate pool is
// untouched), refill saw either a full active set or an empty pool, barrier
// releases are triggered by issues, and the memory system is purely
// latency-based — so re-running the pass at any cycle before
// nextEventCycle() is provably a no-op too. That is the invariant that
// makes clock-jumping byte-identical.
func (sm *SM) pass() (idle bool) {
	if sm.indexed {
		// Re-arm every parked warp whose wake cycle has arrived, so the
		// indexed scan examines it on exactly the pass the linear scan's
		// per-pass re-derivation would have let it through.
		sm.ringWakeDue()
	}
	acts, deacts, stalls := sm.st.Activations, sm.st.Deactivations, sm.st.PrefetchStallCycles
	sm.refillActive()
	issued := sm.issueCycle()
	return issued == 0 && acts == sm.st.Activations &&
		deacts == sm.st.Deactivations && stalls == sm.st.PrefetchStallCycles
}

// nextEventCycle returns the earliest future cycle at which an issue pass
// can differ from the idle pass that just ran. It is derived from the
// structures the pass already maintains in O(1) per warp: nextWake (the min
// over blocked active warps' readyAt stalls, scoreboard arrival times, and
// collector frees). Inactive warps contribute no time events — an idle
// refill either saw a full active set (pooled warps wait for a slot to
// free, which takes an issue-pass action, not a cycle) or an empty pool —
// and barrier releases happen at issue time, so the active-warp minimum is
// the whole event horizon. Clamped to MaxCycles so budget exhaustion fires
// on exactly the historical cycle.
func (sm *SM) nextEventCycle() int64 {
	t := sm.nextWake
	if t > sm.cfg.MaxCycles {
		t = sm.cfg.MaxCycles
	}
	if t <= sm.cycle {
		t = sm.cycle + 1
	}
	return t
}

// advanceTo moves the clock to cycle t. The (t - cycle - 1) skipped passes
// are accounted exactly as if they had run: each would have been idle and
// would have rotated the round-robin pointer by one (the greedy-then-oldest
// arbitration's issued==0 path), so the rotation is applied arithmetically
// and the whole idle span lands in Stats.IdleCycles.
func (sm *SM) advanceTo(t int64, idle bool) {
	if idle {
		span := t - sm.cycle
		sm.st.IdleCycles += span
		if extra := span - 1; extra > 0 && len(sm.active) > 0 {
			// rr < len(active) here (every scan epilogue keeps it in range),
			// so short spans — the common case — rotate with a compare
			// instead of two integer divisions.
			if n := len(sm.active); extra < int64(n) {
				sm.rr += int(extra)
				if sm.rr >= n {
					sm.rr -= n
				}
			} else {
				sm.rr = (sm.rr + int(extra%int64(n))) % n
			}
		}
	}
	old := sm.cycle
	sm.cycle = t
	if sm.indexed {
		// Re-arm every wheel-parked warp whose wake cycle the clock just
		// reached or passed — warps that issued on the pass that just ended
		// (wake = old+1) and short blocks expiring anywhere in (old, t].
		sm.ring.merge(old, t)
	}
}

// finalize computes the result statistics: the one finish step of every
// SM, whether it ran alone or in lockstep with others.
func (sm *SM) finalize() Stats {
	sm.st.Warps = len(sm.warps)
	sm.st.RegsPerThread = sm.prog.RegCount()
	sm.st.SpilledRegs = sm.spills
	sm.st.Cycles = sm.cycle
	sm.st.Instrs = sm.instrs
	if sm.cycle > 0 {
		sm.st.IPC = float64(sm.instrs) / float64(sm.cycle)
	}
	sm.st.RF = *sm.rf.Stats()
	sm.st.Mem.Events = sm.mem.Events()
	sm.st.Mem.L1HitRate = sm.mem.L1D.Stats.HitRate()
	sm.st.Mem.L2HitRate = sm.mem.L2.Stats.HitRate()
	sm.st.Mem.DRAMRowHit = sm.mem.DRAM.RowHitRate()
	sm.st.Finished = sm.allFinished()
	// The cycle cap firing before the instruction budget is silent
	// truncation — the stats cover less work than requested (see the field
	// comment). Both clock modes compute this identically: nextEventCycle
	// clamps to MaxCycles, so budget exhaustion lands on the same cycle.
	sm.st.Truncated = !sm.st.Finished && sm.instrs < sm.cfg.MaxInstrs
	if sm.part != nil {
		sm.st.PrefetchUnits = sm.part.NumUnits()
	}
	return sm.st
}

func (sm *SM) allFinished() bool {
	return sm.finished == len(sm.warps)
}

// refillActive fills free active slots from the inactive pool. Ready warps
// (blocking operand arrived) are preferred in FIFO order; if none is ready
// but slots would idle, the warp closest to readiness is activated eagerly
// so that its register refetch (OnActivate) overlaps the remainder of its
// memory wait — the activation-latency hiding §3.2 relies on ("inactive
// warps still maintain live state in the main register file, and thus can
// be quickly activated"). Both picks come from the wakeQueue in O(log
// warps), in exactly the order the former linear scans produced.
func (sm *SM) refillActive() {
	for len(sm.active) < sm.activeCap {
		wid := sm.wake.pick(sm.cycle)
		if wid == -1 {
			return
		}
		w := sm.warps[wid]
		w.state = stateActive
		ready := sm.rf.OnActivate(sm.cycle, w.Regs)
		if ready > w.readyAt {
			w.readyAt = ready
		}
		sm.st.Activations++
		if sm.indexed {
			w.slot = int32(len(sm.active))
			if w.readyAt > sm.cycle {
				// Activation refetch in flight: examinable at readyAt. No
				// wakeAt — refill precedes the issue scan, which re-reads
				// the index minimum into nextWake before consuming it.
				w.wake = w.readyAt
				sm.ring.park(w.readyAt, sm.cycle, int(w.slot), int32(w.local))
			} else {
				w.wake = sm.cycle
				sm.ring.set(int(w.slot))
			}
		}
		sm.active = append(sm.active, wid)
	}
}

// issueCycle issues up to IssueWidth instructions from the active warps
// under greedy-then-oldest round-robin arbitration, returning the issue
// count. Both scans visit warps in the same order and let decide make each
// warp's issue decision; they differ only in which warps they visit. The
// indexed scan (ring.go) walks only warps that can plausibly act; the
// linear scan, selected by the unexported Config.reference hook, visits
// every active warp and is the reference the equivalence suite holds both
// the clock and the index to.
func (sm *SM) issueCycle() int {
	if sm.indexed {
		return sm.issueCycleIndexed()
	}
	return sm.issueCycleScan()
}

// issueCycleScan is the linear reference scan: every active warp is
// examined round-robin until IssueWidth instructions issue, and warps that
// left the active set are compacted out at the end. It runs only under the
// one-cycle reference clock, which never reads nextWake, so blocked warps'
// wake cycles need no bookkeeping here.
func (sm *SM) issueCycleScan() int {
	sm.collMin = 0
	n := len(sm.active)
	if n == 0 {
		return 0
	}
	issued := 0
	removed := 0 // active entries whose warp left stateActive this cycle
	now := sm.cycle
	idx := sm.rr % n
	for k := 0; k < n && issued < sm.cfg.IssueWidth; k++ {
		w := sm.warps[sm.active[idx]]
		if idx++; idx == n {
			idx = 0
		}
		if w.state != stateActive {
			continue
		}
		switch v, _ := sm.decide(w, now); v {
		case vIssue:
			issued++
		case vLeave:
			issued++
			removed++
		case vDeactivate:
			removed++
		}
	}

	if removed > 0 {
		sm.removeActive()
	}
	// Greedy-then-oldest arbitration: keep priority on the current warp
	// while it issues (issued > 0 keeps rr), advance otherwise. Greedy
	// priority staggers the warps' progress through the kernel, which is
	// what lets one warp's PREFETCH overlap other warps' execution instead
	// of all warps reaching their PREFETCH in lockstep.
	if len(sm.active) == 0 {
		sm.rr = 0
	} else if issued == 0 {
		sm.rr = (sm.rr + 1) % len(sm.active)
	} else {
		sm.rr = sm.rr % len(sm.active)
	}
	return issued
}

// verdict is decide's outcome for one active warp at one issue slot.
type verdict uint8

const (
	// vWait: the warp cannot act before the returned cycle — a PREFETCH or
	// activation stall, a permanent scoreboard refusal, or a busy operand
	// collector — and nothing another warp does this pass changes that.
	vWait verdict = iota
	// vWatch: blocked on a long-latency load until the returned cycle, but
	// deactivation hinges on an earlier candidate appearing in the inactive
	// pool (another warp deactivating), so the warp must be re-examined
	// every pass until its operands arrive.
	vWatch
	// vIssue: the warp issued and stays active.
	vIssue
	// vLeave: the warp issued a barrier arrival or its last instruction and
	// left the active set.
	vLeave
	// vDeactivate: the two-level scheduler swapped the warp out; it left
	// the active set without issuing.
	vDeactivate
)

// decide makes the per-warp issue decision at cycle now and carries it
// out: at a prefetch-unit boundary the warp executes its PREFETCH (§4.2);
// on a long-latency operand the two-level scheduler deactivates it (§3.2,
// §4); otherwise it waits for its operands and an operand collector, then
// arrives at a barrier or issues. The returned cycle is the wake time of
// vWait and vWatch verdicts.
//
// sbOK skips the scoreboard on a later visit: it is set once the warp's
// scoreboard is known satisfied from its wake cycle on, and the warp's own
// scoreboard changes only when it issues. Watch warps never set it — their
// per-pass re-evaluation is load-bearing, because whether a dependency is
// still a pending load depends on the current cycle.
func (sm *SM) decide(w *Warp, now int64) (verdict, int64) {
	if w.readyAt > now {
		return vWait, w.readyAt
	}
	m := &sm.meta[w.pc]

	// PREFETCH at unit boundary.
	if sm.part != nil {
		if uid := sm.part.UnitID(w.pc); uid != w.Regs.CurUnit {
			stall := sm.rf.OnUnitEnter(now, w.Regs, uid, sm.part.Units[uid].WorkingSet)
			if stall <= now {
				stall = now + 1
			}
			sm.st.PrefetchStallCycles += stall - now
			w.readyAt = stall
			return vWait, stall
		}
	}

	// Scoreboard. A warp blocked on a load result for longer than the
	// threshold (i.e. a data-cache miss, not an L1 hit or ALU chain) is
	// descheduled by the two-level scheduler — but only when some inactive
	// warp could make use of the slot sooner, so eagerly activated warps
	// are not bounced straight back (swap churn).
	if !w.sbOK {
		ready, watch := sm.scoreboard(w, now)
		if ready > now {
			if !watch {
				// Permanent refusal: park until the arrival (readyAt), so
				// each blocking episode costs one scoreboard evaluation
				// instead of one per pass.
				w.readyAt = ready
				w.sbOK = true
				return vWait, ready
			}
			if !sm.wake.earlier(ready) {
				return vWatch, ready
			}
			w.state = stateInactive
			w.blockedUntil = ready
			sm.rf.OnDeactivate(now, w.Regs)
			sm.wake.push(w.local, ready)
			sm.st.Deactivations++
			return vDeactivate, ready
		}
		w.sbOK = true
	}

	// Structural hazard: instructions with register sources need a free
	// operand collector. collMin caches the earliest collector-free time
	// for the rest of the pass: once a warp starves, every collector is
	// busy at this cycle and claims only occupy more, so every later warp
	// with sources starves until collMin too.
	col := -1
	if m.nsrc > 0 {
		if sm.collMin != 0 {
			return vWait, sm.collMin
		}
		for i, busy := range sm.collectors {
			if busy <= now {
				col = i
				break
			}
		}
		if col == -1 {
			sm.collMin = sm.nextCollectorFree()
			return vWait, sm.collMin
		}
	}

	in := &sm.prog.Instrs[w.pc]
	w.sbOK = false
	if in.Op == isa.OpBar {
		w.advance(in, m)
		w.retired++
		sm.instrs++
		sm.st.CtrlOps++
		w.state = stateBarrier
		sm.ctaBarrier[w.cta]++
		sm.maybeReleaseBarrier(int(w.cta))
		return vLeave, now
	}

	sm.issueInstr(w, in, m, col)
	if w.state == stateFinished {
		sm.finished++
		sm.ctaFin[w.cta]++
		w.Regs.Reset(sm.cfg.RegsPerInterval)
		sm.maybeReleaseBarrier(int(w.cta))
		return vLeave, now
	}
	return vIssue, now
}

// scoreboard evaluates the warp's scoreboard for its next instruction at
// cycle t: ready is when every dependency (sources plus WAW on the
// destination) is satisfied, <= t when it is now. watch marks a block the
// two-level scheduler may resolve by deactivation: a pending load result
// ("Whenever a warp encounters a long latency operation, such as a data
// cache miss", §3.2) at least DeactivateThreshold cycles out. Any other
// block is a permanent refusal — the gap to the threshold only shrinks as
// the clock advances and a pending load dependency only clears, so the
// warp can neither issue nor deactivate before ready.
func (sm *SM) scoreboard(w *Warp, t int64) (ready int64, watch bool) {
	m := &sm.meta[w.pc]
	onLoad := false
	for s := 0; s < int(m.nsrc); s++ {
		r := m.srcs[s]
		rt := w.regReady[r]
		if rt > ready {
			ready = rt
		}
		if rt > t && w.loadDest[r] {
			onLoad = true
		}
	}
	if m.writes {
		rt := w.regReady[m.dst]
		if rt > ready {
			ready = rt
		}
		if rt > t && w.loadDest[m.dst] {
			onLoad = true
		}
	}
	return ready, ready > t && onLoad && sm.deactOn && ready-t >= sm.cfg.DeactivateThreshold
}

// wakeAt records a future cycle at which a currently-blocked warp can make
// progress; the minimum over one pass is the event-driven clock's horizon.
func (sm *SM) wakeAt(t int64) {
	if t < sm.nextWake {
		sm.nextWake = t
	}
}

// nextCollectorFree returns the earliest cycle any operand collector frees
// up; callers use it only after every collector was found busy, so every
// entry is in the future.
func (sm *SM) nextCollectorFree() int64 {
	t := sm.collectors[0]
	for _, busy := range sm.collectors[1:] {
		if busy < t {
			t = busy
		}
	}
	return t
}

// removeActive compacts the active list, dropping every warp that left
// stateActive during the current issue cycle (deactivated, at a barrier, or
// finished) while preserving the order of the remaining entries. Outside of
// issueCycle every listed warp is stateActive, so compacting by state is
// exactly equivalent to deleting the indices collected during the scan —
// without allocating an index set per call. In indexed mode the compaction
// also rebuilds the ready-ring masks, since it shifts positions down.
func (sm *SM) removeActive() {
	if sm.indexed {
		sm.removeActiveIndexed()
		return
	}
	out := sm.active[:0]
	for _, wid := range sm.active {
		if sm.warps[wid].state == stateActive {
			out = append(out, wid)
		}
	}
	sm.active = out
}

// maybeReleaseBarrier releases the CTA's barrier-waiting warps once every
// non-finished warp of that CTA has arrived. ctaBarrier tracks the CTA's
// warps in stateBarrier and ctaFin those in stateFinished, so the arrival
// check is O(1); only the actual release walks the CTA's (contiguous) warp
// range. With one CTA this is exactly the historical SM-wide barrier.
func (sm *SM) maybeReleaseBarrier(cta int) {
	if sm.ctaBarrier[cta] == 0 {
		return
	}
	lo := cta * sm.wpc
	hi := lo + sm.wpc
	if hi > len(sm.warps) {
		hi = len(sm.warps)
	}
	if int(sm.ctaBarrier[cta]+sm.ctaFin[cta]) != hi-lo {
		return
	}
	for _, w := range sm.warps[lo:hi] {
		if w.state == stateBarrier {
			w.state = stateInactive
			w.blockedUntil = sm.cycle + 1
			sm.wake.push(w.local, w.blockedUntil)
		}
	}
	sm.ctaBarrier[cta] = 0
	sm.st.BarrierReleases++
}

// issueInstr models one instruction's timing: operand collection through the
// register subsystem, execution or memory access, and result write-back.
// m is the instruction's precomputed metadata and col the operand collector
// issueCycle already claimed for it (-1 when it has no register sources and
// needs none).
func (sm *SM) issueInstr(w *Warp, in *isa.Instr, m *instrMeta, col int) {
	opReady := sm.cycle
	if m.nsrc > 0 {
		sm.st.OperandReads += int64(m.nsrc)
		opReady = sm.rf.ReadOperands(sm.cycle, w.Regs, m.srcs[:m.nsrc])
		// The instruction occupies the operand collector until all its
		// operands have been gathered.
		if col != -1 {
			sm.collectors[col] = opReady
		}
	}

	var execDone int64
	switch m.class {
	case isa.ClassALU:
		sm.st.ALUOps++
		execDone = opReady + int64(sm.cfg.ALULat)
	case isa.ClassSFU:
		sm.st.SFUOps++
		execDone = opReady + int64(sm.cfg.SFULat)
	case isa.ClassMem:
		sm.st.MemOps++
		iter := w.counts[m.slot]
		w.counts[m.slot]++
		done, _ := sm.mem.Access(opReady, in, w.ID, int(w.cta), w.pc, int64(iter))
		if m.isStore {
			execDone = opReady + 1 // stores retire via the store queue
		} else {
			execDone = done
		}
	default: // control, nop
		sm.st.CtrlOps++
		execDone = opReady + 1
	}

	if m.writes {
		// WriteResult charges resources at issue time (monotone) and
		// returns the write latency added to the execution completion.
		sm.st.ResultWrites++
		writeLat := sm.rf.WriteResult(sm.cycle, w.Regs, m.dst)
		w.regReady[m.dst] = execDone + writeLat
		w.loadDest[m.dst] = m.isLoad
	}

	w.updateLiveness(m)
	w.advance(in, m)
	w.retired++
	sm.instrs++
	w.readyAt = sm.cycle + 1
}
