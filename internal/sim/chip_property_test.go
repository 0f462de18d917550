package sim

// Chip-level energy conservation properties: for every registered design x
// workload, the ChipBreakdown the simulator's counters feed must be
// internally consistent (Total equals the sum of its components, every term
// non-negative and finite), dominate the RF-only account (chip EDP >= RF
// EDP on the same run — the chip model can only ADD cost), and sit on top
// of event counters that reconcile with the memory hierarchy's aggregate
// stats and the SM's retirement accounting. These are the contracts the
// dual-column designsweep experiment relies on.
//
// The suite runs in the same two tiers as the design-invariants
// cross-product: a short budget by default, the full experiment budget
// across all seven memtech configs under LTRF_FULL_PROPERTY=1 (nightly CI).

import (
	"context"
	"math"
	"reflect"
	"testing"

	"ltrf/internal/memtech"
	"ltrf/internal/power"
	"ltrf/internal/regfile"
)

// chipBreakdownSum adds up every component of a ChipBreakdown by hand —
// the nested RF terms plus each chip-level float field — so the Total()
// conservation check cannot share a bug with the method under test.
func chipBreakdownSum(b power.ChipBreakdown) float64 {
	sum := b.RF.MainDynamic + b.RF.MainLeakage + b.RF.CacheDynamic +
		b.RF.CacheLeakage + b.RF.WCBDynamic + b.RF.WCBLeakage +
		b.RF.XbarDynamic + b.RF.SharedDynamic
	rv := reflect.ValueOf(b)
	for i := 0; i < rv.NumField(); i++ {
		if rv.Field(i).Kind() == reflect.Float64 {
			sum += rv.Field(i).Float()
		}
	}
	return sum
}

// checkChipBreakdownFinite asserts every float component — the chip-level
// fields and the nested RF breakdown — is non-negative and finite.
func checkChipBreakdownFinite(t *testing.T, label string, b power.ChipBreakdown) {
	t.Helper()
	checkStruct := func(prefix string, v reflect.Value) {
		tp := v.Type()
		for i := 0; i < v.NumField(); i++ {
			if v.Field(i).Kind() != reflect.Float64 {
				continue
			}
			f := v.Field(i).Float()
			if f < 0 || math.IsNaN(f) || math.IsInf(f, 0) {
				t.Errorf("%s: %s%s = %v, must be finite and non-negative", label, prefix, tp.Field(i).Name, f)
			}
		}
	}
	checkStruct("RF.", reflect.ValueOf(b.RF))
	checkStruct("", reflect.ValueOf(b))
}

// checkMemReconciliation asserts the simulator's copied memsys counters obey
// the hierarchy's conservation laws on a single-SM run: every L1 miss is
// exactly one L2 access, every L2 miss exactly one DRAM burst, every DRAM
// access at most one activate, and every memory instruction the SM retired
// is accounted for by exactly one hierarchy entry point (global load/store,
// warp-wide shared access, or constant-cache access).
func checkMemReconciliation(t *testing.T, label string, st Stats) {
	t.Helper()
	m := st.Mem
	if m.L1Misses > m.L1Accesses {
		t.Errorf("%s: L1Misses %d > L1Accesses %d", label, m.L1Misses, m.L1Accesses)
	}
	if m.L2Accesses != m.L1Misses {
		t.Errorf("%s: L2Accesses %d != L1Misses %d (every L1 miss is one L2 access)", label, m.L2Accesses, m.L1Misses)
	}
	if m.DRAMAccesses != m.L2Misses {
		t.Errorf("%s: DRAMAccesses %d != L2Misses %d (every L2 miss is one DRAM burst)", label, m.DRAMAccesses, m.L2Misses)
	}
	if m.DRAMActivates > m.DRAMAccesses {
		t.Errorf("%s: DRAMActivates %d > DRAMAccesses %d", label, m.DRAMActivates, m.DRAMAccesses)
	}
	if m.SharedWideAccesses > m.SharedAccesses {
		t.Errorf("%s: SharedWideAccesses %d > SharedAccesses %d", label, m.SharedWideAccesses, m.SharedAccesses)
	}
	if got := m.GlobalLoads + m.GlobalStores + m.SharedWideAccesses + m.ConstAccesses; got != st.MemOps {
		t.Errorf("%s: hierarchy entry points %d (loads %d + stores %d + shared %d + const %d) != MemOps %d",
			label, got, m.GlobalLoads, m.GlobalStores, m.SharedWideAccesses, m.ConstAccesses, st.MemOps)
	}
	if got := st.ALUOps + st.SFUOps + st.MemOps + st.CtrlOps; got != st.Instrs {
		t.Errorf("%s: op-class counters %d (ALU %d + SFU %d + mem %d + ctrl %d) != Instrs %d",
			label, got, st.ALUOps, st.SFUOps, st.MemOps, st.CtrlOps, st.Instrs)
	}
}

// TestChipEnergyConservation runs every registered design against every
// workload in the suite and asserts the chip-level energy account holds
// together: Total is the sum of its components, every term is finite and
// non-negative, chip EDP dominates RF EDP, and the event counters feeding
// the model reconcile with the hierarchy's aggregates.
//
// This re-simulates the scale-1 slice of the grid the invariants
// cross-product also covers — deliberately: the two suites stay
// independent (a failure here is an ENERGY-accounting defect, not an
// occupancy/conservation one, and neither loop's structure constrains the
// other), and the duplicated slice costs well under a minute of the
// nightly job's budget.
func TestChipEnergyConservation(t *testing.T) {
	cc := NewCompileCache()
	ws := propertyWorkloads(t)
	techs := propertyTechs()
	budget := propertyBudget()

	for _, name := range regfile.Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			for _, tech := range techs {
				for _, w := range ws {
					c := DefaultConfig(Design(name))
					c.Tech = memtech.MustConfig(tech)
					c.MaxInstrs = budget
					c.MaxCycles = budget * 12
					res, err := RunWithCacheCtx(context.Background(), c, w.prog, cc)
					if err != nil {
						t.Fatalf("tech#%d %s: %v", tech, w.name, err)
					}
					label := name + "/" + w.name

					rf, err := res.RFEnergy()
					if err != nil {
						t.Fatalf("%s: RFEnergy: %v", label, err)
					}
					chip, err := res.ChipEnergy()
					if err != nil {
						t.Fatalf("%s: ChipEnergy: %v", label, err)
					}

					if got, want := chip.Total(), chipBreakdownSum(chip); math.Abs(got-want) > 1e-9*math.Max(1, want) {
						t.Errorf("%s: ChipBreakdown.Total %v != component sum %v", label, got, want)
					}
					checkChipBreakdownFinite(t, label, chip)

					if rfT, chipT := rf.Total(), chip.Total(); chipT < rfT {
						t.Errorf("%s: chip energy %v < RF energy %v", label, chipT, rfT)
					}
					if rfEDP, chipEDP := rf.EDP(res.Cycles), chip.EDP(res.Cycles); chipEDP < rfEDP {
						t.Errorf("%s: chip EDP %v < RF EDP %v on the same run", label, chipEDP, rfEDP)
					}
					// The chip breakdown embeds the SAME RF account the
					// RF-only metric uses — the two rankings differ only
					// through the added components, never through a model
					// fork.
					if chip.RF != rf {
						t.Errorf("%s: ChipBreakdown.RF diverges from RFEnergy: %+v vs %+v", label, chip.RF, rf)
					}

					checkMemReconciliation(t, label, res.Stats)
				}
			}
		})
	}
}

// TestChipEnergyRespectsConfigOverride asserts sim.Config.Chip reaches the
// model: zeroing is defaulted, and inflating one constant inflates exactly
// the matching component.
func TestChipEnergyRespectsConfigOverride(t *testing.T) {
	ws := propertyWorkloads(t)
	w := ws[0]

	base := DefaultConfig(DesignBL)
	base.MaxInstrs = 1200
	base.MaxCycles = 1200 * 12
	resBase, err := RunWithCacheCtx(context.Background(), base, w.prog, nil)
	if err != nil {
		t.Fatal(err)
	}
	chipBase, err := resBase.ChipEnergy()
	if err != nil {
		t.Fatal(err)
	}

	boosted := base
	boosted.Chip.SMLeakPerCycle = power.DefaultChipConfig().SMLeakPerCycle * 10
	resBoost, err := RunWithCacheCtx(context.Background(), boosted, w.prog, nil)
	if err != nil {
		t.Fatal(err)
	}
	chipBoost, err := resBoost.ChipEnergy()
	if err != nil {
		t.Fatal(err)
	}

	if resBoost.Cycles != resBase.Cycles {
		t.Fatalf("chip-energy config changed timing: %d vs %d cycles", resBoost.Cycles, resBase.Cycles)
	}
	if got, want := chipBoost.SMLeakage, chipBase.SMLeakage*10; math.Abs(got-want) > 1e-9*want {
		t.Errorf("SMLeakage = %v after 10x override, want %v", got, want)
	}
	chipBoost.SMLeakage = chipBase.SMLeakage
	if chipBoost != chipBase {
		t.Errorf("override leaked into other components: %+v vs %+v", chipBoost, chipBase)
	}
}
