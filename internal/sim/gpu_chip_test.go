package sim

// Multi-SM chip accounting: SMs share the L2 and DRAM objects, so every
// per-SM Stats.Mem carries CHIP-WIDE counts for those structures — summing
// them across SMs double-counts every shared access, activate, and leakage
// term (the ROADMAP-flagged accounting bug). GPUResult.Chip / ChipEvents
// attribute shared structures exactly once; these tests pin that contract.

import (
	"context"
	"testing"

	"ltrf/internal/power"
)

func TestGPUChipEventsAttributeSharedOnce(t *testing.T) {
	const nSMs = 3
	c := DefaultConfig(DesignLTRF)
	c.MaxInstrs = 8000
	c.MaxCycles = 8000 * 12
	res, err := RunGPUCtx(context.Background(), c, nSMs, streamKernel(10, 400))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.PerSM) != nSMs {
		t.Fatalf("got %d per-SM stats, want %d", len(res.PerSM), nSMs)
	}

	// Shared structures: every per-SM view reads the same L2/DRAM objects,
	// so their counters must be identical — and equal to the chip view's.
	for i, st := range res.PerSM {
		if st.Mem.L2Accesses != res.Chip.L2Accesses {
			t.Errorf("SM%d: L2Accesses %d != chip view %d (per-SM L2 counters are chip-wide)",
				i, st.Mem.L2Accesses, res.Chip.L2Accesses)
		}
		if st.Mem.DRAMAccesses != res.Chip.DRAMAccesses {
			t.Errorf("SM%d: DRAMAccesses %d != chip view %d", i, st.Mem.DRAMAccesses, res.Chip.DRAMAccesses)
		}
		if st.Mem.DRAMActivates != res.Chip.DRAMActivates {
			t.Errorf("SM%d: DRAMActivates %d != chip view %d", i, st.Mem.DRAMActivates, res.Chip.DRAMActivates)
		}
	}

	// Private structures: the chip view must be the SUM across SMs.
	var l1Acc, l1Hits, l1Miss, shared, instrs, alu, sfu, mem int64
	for _, st := range res.PerSM {
		l1Acc += st.Mem.L1Accesses
		l1Hits += st.Mem.L1Hits
		l1Miss += st.Mem.L1Misses
		shared += st.Mem.SharedWideAccesses
		instrs += st.Instrs
		alu += st.ALUOps
		sfu += st.SFUOps
		mem += st.MemOps
	}
	if res.Chip.L1Accesses != l1Acc || res.Chip.L1Hits != l1Hits || res.Chip.L1Misses != l1Miss {
		t.Errorf("chip L1 view %d/%d/%d != per-SM sums %d/%d/%d",
			res.Chip.L1Accesses, res.Chip.L1Hits, res.Chip.L1Misses, l1Acc, l1Hits, l1Miss)
	}
	if res.Chip.SharedWideAccesses != shared {
		t.Errorf("chip SharedWideAccesses %d != per-SM sum %d", res.Chip.SharedWideAccesses, shared)
	}
	if l1Acc == 0 || res.Chip.L2Accesses == 0 {
		t.Fatal("kernel produced no memory traffic; the attribution checks were vacuous")
	}

	// Conservation across the chip: every L1 miss of every SM enters the
	// shared L2 exactly once.
	if res.Chip.L2Accesses != l1Miss {
		t.Errorf("chip L2Accesses %d != summed L1 misses %d", res.Chip.L2Accesses, l1Miss)
	}
	// With >1 SM and real traffic, the naive sum is strictly larger — the
	// double-count the chip view exists to prevent.
	var naiveL2 int64
	for _, st := range res.PerSM {
		naiveL2 += st.Mem.L2Accesses
	}
	if naiveL2 <= res.Chip.L2Accesses {
		t.Errorf("naive per-SM L2 sum %d not > chip view %d; double-count regression check is vacuous",
			naiveL2, res.Chip.L2Accesses)
	}

	// ChipEvents: op counters summed, memory events from the chip view,
	// chip-wide cycle count.
	ev := res.ChipEvents()
	if ev.Instrs != instrs || ev.ALUOps != alu || ev.SFUOps != sfu || ev.MemOps != mem {
		t.Errorf("ChipEvents op counters %+v != per-SM sums (instrs %d alu %d sfu %d mem %d)",
			ev, instrs, alu, sfu, mem)
	}
	if ev.L2Accesses != res.Chip.L2Accesses || ev.DRAMAccesses != res.Chip.DRAMAccesses ||
		ev.L1Accesses != res.Chip.L1Accesses || ev.Cycles != res.Cycles {
		t.Errorf("ChipEvents memory/cycle view %+v inconsistent with Chip %+v / Cycles %d",
			ev, res.Chip, res.Cycles)
	}

	// The chip-level energy account built from ChipEvents must price the
	// shared L2 dynamic energy once: strictly less than the naive per-SM
	// composition on the same run.
	desc, err := c.Design.Descriptor()
	if err != nil {
		t.Fatal(err)
	}
	model := power.NewChipModelFor(desc, c.Tech, c.Chip)
	chipB := model.Compute(ev, res.PerSM[0].RF)
	var naive float64
	for i := range res.PerSM {
		b := model.Compute(res.PerSM[i].ChipEvents(), res.PerSM[i].RF)
		naive += b.L2Dynamic
	}
	if !(chipB.L2Dynamic < naive) {
		t.Errorf("chip L2 dynamic energy %v not < naive per-SM sum %v", chipB.L2Dynamic, naive)
	}

	// Per-SM structure leakage scales with the instance count (SMInstances),
	// while shared-structure background power does not.
	if ev.SMInstances != nSMs {
		t.Fatalf("SMInstances = %d, want %d", ev.SMInstances, nSMs)
	}
	single := model.Compute(res.PerSM[0].ChipEvents(), res.PerSM[0].RF)
	cyclesRatio := float64(ev.Cycles) / float64(res.PerSM[0].Cycles)
	wantL1Leak := single.L1Leakage * cyclesRatio * nSMs
	if diff := chipB.L1Leakage - wantL1Leak; diff > 1e-9 || diff < -1e-9 {
		t.Errorf("chip L1 leakage %v != %d x single-SM %v (cycle-scaled)", chipB.L1Leakage, nSMs, wantL1Leak)
	}
	wantL2Leak := single.L2Leakage * cyclesRatio
	if diff := chipB.L2Leakage - wantL2Leak; diff > 1e-9 || diff < -1e-9 {
		t.Errorf("chip L2 leakage %v must stay single-instance (%v)", chipB.L2Leakage, wantL2Leak)
	}
}

// TestGPUChipViewSingleSM pins the degenerate case: with one SM the chip
// view must equal that SM's own counters exactly.
func TestGPUChipViewSingleSM(t *testing.T) {
	c := DefaultConfig(DesignBL)
	c.MaxInstrs = 4000
	c.MaxCycles = 4000 * 12
	res, err := RunGPUCtx(context.Background(), c, 1, streamKernel(8, 200))
	if err != nil {
		t.Fatal(err)
	}
	if res.Chip.Events != res.PerSM[0].Mem.Events {
		t.Errorf("single-SM chip view %+v != SM0 events %+v", res.Chip.Events, res.PerSM[0].Mem.Events)
	}
}
