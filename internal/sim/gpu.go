package sim

import (
	"context"
	"math"

	"ltrf/internal/isa"
	"ltrf/internal/power"
)

// GPUResult is the outcome of a multi-SM simulation.
type GPUResult struct {
	PerSM []Stats
	// TotalIPC is the chip-wide instruction throughput (sum of per-SM IPC
	// over the common simulated duration).
	TotalIPC float64
	Cycles   int64
	// L2HitRate and DRAMRowHit are chip-level (shared structures).
	L2HitRate  float64
	DRAMRowHit float64

	// Chip is the chip-level memory event view: SM-private structures (L1,
	// shared-memory scratchpad, constant cache, global access counts) summed
	// across SMs, shared structures (L2, DRAM) attributed exactly once. Each
	// per-SM Stats.Mem embeds the CHIP-WIDE L2/DRAM counters (the SMs share
	// those objects), so summing PerSM double-counts every shared event and
	// leakage term — use Chip (or ChipEvents) for chip-level accounting.
	Chip MemStats
}

// ChipEvents returns the chip-level energy-model inputs for the whole run:
// pipeline/op counters summed across SMs, memory events from the Chip view
// (L2/DRAM attributed once), the chip-wide cycle count, and SMInstances so
// the model charges per-SM structure leakage (L1, scratchpad, SM pipeline)
// once per SM while shared L2/DRAM background power stays per chip. It is
// the multi-SM analog of Stats.ChipEvents — feeding per-SM ChipEvents to
// the chip model and summing the breakdowns would charge the shared
// L2/DRAM dynamic energy once per SM. The register-file term of the
// resulting breakdown still prices whatever regfile.Stats the caller
// passes to ChipModel.Compute — for a whole-chip RF figure, pass per-SM
// stats and sum that one component across PerSM.
func (r *GPUResult) ChipEvents() power.ChipEvents {
	ev := power.ChipEvents{
		Cycles:             r.Cycles,
		SMInstances:        int64(len(r.PerSM)),
		L1Accesses:         r.Chip.L1Accesses,
		L2Accesses:         r.Chip.L2Accesses,
		DRAMAccesses:       r.Chip.DRAMAccesses,
		DRAMActivates:      r.Chip.DRAMActivates,
		SharedWideAccesses: r.Chip.SharedWideAccesses,
		ConstAccesses:      r.Chip.ConstAccesses,
	}
	for i := range r.PerSM {
		st := &r.PerSM[i]
		ev.Instrs += st.Instrs
		ev.ALUOps += st.ALUOps
		ev.SFUOps += st.SFUOps
		ev.MemOps += st.MemOps
	}
	return ev
}

// RunGPUCtx simulates nSMs streaming multiprocessors in lockstep, each with
// a private L1 and register file, sharing the LLC and DRAM (Table 3's system
// has 24 SMs; the per-SM experiments in internal/exp use one SM for runtime
// and note the substitution). Each SM runs the same kernel on a distinct
// slice of the grid. Setup, per-SM statistics and cancellation are those of
// RunWithCacheCtx: the lockstep loop polls ctx through SM 0 and a cancelled
// run's error names SM 0's cycle. Uncancelled runs are identical to runs
// under context.Background().
func RunGPUCtx(ctx context.Context, c Config, nSMs int, virtual *isa.Program) (*GPUResult, error) {
	if nSMs < 1 {
		nSMs = 1
	}
	l, err := newLaunch(ctx, &c, virtual, nil, nSMs)
	if err != nil {
		return nil, err
	}
	defer l.release()
	sms := l.sms

	// Lockstep: one issue pass across all SMs per iteration, so shared
	// L2/DRAM contention interleaves in time order. The event-driven clock
	// composes with lockstep by fast-forwarding to the MINIMUM next-event
	// cycle across the SMs, and only when EVERY still-runnable SM had an
	// idle pass: during such a span no SM touches the shared L2/DRAM (idle
	// passes make no memory accesses), so the interleaving — and with it
	// every cache/row-buffer outcome — is unchanged.
	fastForward := !c.reference
	passed := make([]bool, nSMs)
	idles := make([]bool, nSMs)
	for {
		if sms[0].cancelled() {
			return nil, sms[0].cancelErr()
		}
		progress := false
		allIdle := true
		minNext := int64(math.MaxInt64)
		for i, sm := range sms {
			passed[i] = sm.runnable()
			if !passed[i] {
				continue
			}
			progress = true
			idles[i] = sm.pass()
			if !idles[i] {
				allIdle = false
			} else if ne := sm.nextEventCycle(); ne < minNext {
				minNext = ne
			}
		}
		if !progress {
			break
		}
		for i, sm := range sms {
			if !passed[i] {
				continue
			}
			next := sm.cycle + 1
			if fastForward && allIdle && minNext > next {
				next = minNext
			}
			sm.advanceTo(next, idles[i])
		}
	}

	res := &GPUResult{}
	for i, sm := range sms {
		st := sm.finalize()
		res.PerSM = append(res.PerSM, st)
		res.TotalIPC += st.IPC
		if st.Cycles > res.Cycles {
			res.Cycles = st.Cycles
		}
		if i == 0 {
			res.Chip.Events = st.Mem.Events
		} else {
			res.Chip.Events.AddPrivate(st.Mem.Events)
		}
	}
	res.L2HitRate = l.l2.Stats.HitRate()
	res.DRAMRowHit = l.dram.RowHitRate()
	res.Chip.L2HitRate = res.L2HitRate
	res.Chip.DRAMRowHit = res.DRAMRowHit
	if res.Chip.L1Accesses > 0 {
		res.Chip.L1HitRate = float64(res.Chip.L1Hits) / float64(res.Chip.L1Accesses)
	}
	return res, nil
}
