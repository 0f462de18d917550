package sim

// The event-driven clock's correctness contract: the production stack
// (event-driven clock plus indexed issue scan) and the reference stack that
// the unexported Config.reference hook selects (one-cycle clock plus linear
// scan) must produce IDENTICAL results — every Stats field, including the
// scheduler counters the clock-jumping logic touches (activations,
// deactivations, round-robin-order-dependent issue interleavings) and the
// new IdleCycles accounting. The suite sweeps the full design x memtech x
// workload cross-product (with a high-latency multiplier leg, where dead
// spans are longest and a jump bug would surface first) plus multi-SM
// lockstep, whose fast-forward additionally must not perturb shared-L2/DRAM
// interleaving.

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"ltrf/internal/isa"
	"ltrf/internal/memtech"
	"ltrf/internal/regfile"
	"ltrf/internal/workloads"
)

// runBothModes simulates one configuration under the production and
// reference stacks and fails the test unless the Stats are deeply equal. It
// returns the production result for any further checks.
func runBothModes(t *testing.T, label string, c Config, prog *isa.Program, cc *CompileCache) Stats {
	t.Helper()
	c.reference = false
	ff, err := RunWithCacheCtx(context.Background(), c, prog, cc)
	if err != nil {
		t.Fatalf("%s (fast-forward): %v", label, err)
	}
	c.reference = true
	ca, err := RunWithCacheCtx(context.Background(), c, prog, cc)
	if err != nil {
		t.Fatalf("%s (reference): %v", label, err)
	}
	if !reflect.DeepEqual(ff.Stats, ca.Stats) {
		t.Errorf("%s: fast-forward diverges from the reference:\n  ff: %+v\n  ca: %+v",
			label, ff.Stats, ca.Stats)
	}
	if ff.IdleCycles < 0 || ff.IdleCycles > ff.Cycles {
		t.Errorf("%s: IdleCycles %d outside [0, Cycles=%d]", label, ff.IdleCycles, ff.Cycles)
	}
	return ff.Stats
}

// TestFastForwardEquivalenceCrossProduct is the tentpole property: every
// registered design x the property-tier memtech configs x the workload
// suite, at both the baseline and a high (6.3x) main-RF latency multiplier,
// in both clock modes, asserting bytewise-identical Stats. Under
// LTRF_FULL_PROPERTY=1 (the nightly tier) the sweep widens to all seven
// memtech configs and the full experiment instruction budget.
func TestFastForwardEquivalenceCrossProduct(t *testing.T) {
	cc := NewCompileCache()
	ws := propertyWorkloads(t)
	techs := propertyTechs()
	budget := propertyBudget()

	for _, name := range regfile.Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			for _, tech := range techs {
				for _, latX := range []float64{1, 6.3} {
					for _, w := range ws {
						c := DefaultConfig(Design(name))
						c.Tech = memtech.MustConfig(tech)
						c.LatencyX = latX
						c.MaxInstrs = budget
						c.MaxCycles = budget * 12
						label := name + "/" + w.name
						st := runBothModes(t, label, c, w.prog, cc)
						if st.Instrs == 0 {
							t.Errorf("%s: retired no instructions; the equivalence check was vacuous", label)
						}
					}
				}
			}
		})
	}
}

// TestFastForwardEquivalenceDiagnostics covers the configuration corners
// the cross-product holds fixed: the flat and static schedulers, the
// wide-crossbar ablation, and a tight MaxCycles budget that the jump clamp
// must hit on exactly the historical cycle.
func TestFastForwardEquivalenceDiagnostics(t *testing.T) {
	cc := NewCompileCache()
	kernel := streamKernel(10, 300)

	base := DefaultConfig(DesignLTRF)
	base.MaxInstrs = 6000
	base.MaxCycles = 6000 * 12

	flatNamed := base
	flatNamed.Scheduler = SchedFlat

	static := base
	static.Scheduler = SchedStatic

	wide := base
	wide.WideXbar = true

	tight := base
	tight.MaxCycles = 700 // hard clamp mid-flight

	ideal := DefaultConfig(DesignIdeal)
	ideal.MaxInstrs = 6000
	ideal.MaxCycles = 6000 * 12

	for _, tc := range []struct {
		label string
		cfg   Config
	}{
		{"flat-scheduler-named", flatNamed},
		{"static-scheduler", static},
		{"wide-xbar", wide},
		{"tight-max-cycles", tight},
		{"ideal-flat", ideal},
	} {
		tc.cfg.reference = false
		ff, err := RunWithCacheCtx(context.Background(), tc.cfg, kernel, cc)
		if err != nil {
			t.Fatalf("%s: %v", tc.label, err)
		}
		tc.cfg.reference = true
		ca, err := RunWithCacheCtx(context.Background(), tc.cfg, kernel, cc)
		if err != nil {
			t.Fatalf("%s: %v", tc.label, err)
		}
		if !reflect.DeepEqual(ff.Stats, ca.Stats) {
			t.Errorf("%s: fast-forward diverges:\n  ff: %+v\n  ca: %+v", tc.label, ff.Stats, ca.Stats)
		}
	}
}

// TestMultiCTABarrierEquivalence pins the one ready-ring rule whose event
// the index cannot see: a watched warp — blocked on a long load, its
// deactivation waiting for an earlier candidate in the inactive pool — must
// stay armed and be re-examined every pass, because the pool can gain such
// a candidate at any time, e.g. when another CTA's barrier releases its
// warps into it. With one CTA a barrier never releases while a warp is
// watched, so the single-CTA kernels elsewhere in the suite cannot tell an
// armed watch warp from a parked one; several CTAs sharing barriers can.
func TestMultiCTABarrierEquivalence(t *testing.T) {
	cc := NewCompileCache()
	kernel := smemDoubleBufKernel(6, 5)
	for _, d := range []Design{DesignBL, DesignLTRF, DesignRFC} {
		for _, ctas := range []int{2, 4} {
			c := DefaultConfig(d)
			c.CTAsPerSM = ctas
			c.MaxInstrs = 4000
			c.MaxCycles = 4000 * 12
			st := runBothModes(t, fmt.Sprintf("%s/%d-ctas", d, ctas), c, kernel, cc)
			if st.BarrierReleases == 0 {
				t.Errorf("%s/%d CTAs: no barrier released; the check was vacuous", d, ctas)
			}
		}
	}
}

// TestFamilyFastForwardEquivalence pins the clock-equivalence contract on
// the software-pipelined family's distinctive shapes — double-buffered
// load/compute interleavings and barrier-fenced shared-memory staging,
// which exercise wake-queue and ready-ring transitions the paper suite's
// kernels do not — across every scheduler mode, at the high-latency point
// where fast-forward jumps are longest. (The family also flows through the
// full cross-product via propertyWorkloads; this leg adds the scheduler
// axis and keeps a failure attributable to a specific pair member.)
func TestFamilyFastForwardEquivalence(t *testing.T) {
	cc := NewCompileCache()
	for _, fam := range workloads.Families() {
		pair, err := workloads.FamilyPair(fam)
		if err != nil {
			t.Fatal(err)
		}
		for _, w := range []workloads.Workload{pair.Pipelined, pair.Naive} {
			prog := w.Build(workloads.UnrollMaxwell)
			for _, sched := range []Scheduler{SchedTwoLevel, SchedStatic, SchedFlat} {
				c := DefaultConfig(DesignLTRF)
				c.Scheduler = sched
				c.LatencyX = 6.3
				c.MaxInstrs = 6000
				c.MaxCycles = 6000 * 12
				st := runBothModes(t, w.Name+"/"+string(sched), c, prog, cc)
				if st.Instrs == 0 {
					t.Errorf("%s/%s: retired no instructions; equivalence vacuous", w.Name, sched)
				}
				if sched != SchedTwoLevel && st.Deactivations != 0 {
					t.Errorf("%s/%s: %d deactivations under a non-swapping scheduler", w.Name, sched, st.Deactivations)
				}
			}
		}
	}
}

// TestGPUFastForwardEquivalence asserts the multi-SM lockstep composes with
// the event-driven clock: fast-forwarding to the minimum next-event cycle
// across SMs leaves every per-SM Stats AND the shared-structure view (L2,
// DRAM — whose cache and row-buffer state depends on the cross-SM access
// interleaving) bytewise identical.
func TestGPUFastForwardEquivalence(t *testing.T) {
	for _, d := range []Design{DesignBL, DesignLTRF, DesignRFC} {
		for _, nSMs := range []int{1, 3} {
			c := DefaultConfig(d)
			c.MaxInstrs = 5000
			c.MaxCycles = 5000 * 12
			c.LatencyX = 4
			kernel := tiledKernel(30, 10)

			c.reference = false
			ff, err := RunGPUCtx(context.Background(), c, nSMs, kernel)
			if err != nil {
				t.Fatalf("%v/%dSM: %v", d, nSMs, err)
			}
			c.reference = true
			ca, err := RunGPUCtx(context.Background(), c, nSMs, kernel)
			if err != nil {
				t.Fatalf("%v/%dSM: %v", d, nSMs, err)
			}
			if !reflect.DeepEqual(ff, ca) {
				t.Errorf("%v/%dSM: GPU fast-forward diverges:\n  ff: %+v\n  ca: %+v", d, nSMs, ff, ca)
			}
			if len(ff.PerSM) > 0 && ff.PerSM[0].Instrs == 0 {
				t.Errorf("%v/%dSM: SM0 retired nothing; equivalence vacuous", d, nSMs)
			}
		}
	}
}

// TestWakeQueueMatchesReferenceScans differentially checks the heap-backed
// inactive pool against a model of the former FIFO slice and its two linear
// scans (ready pick: first queued with blockedUntil <= now; eager pick:
// minimum blockedUntil, strict `<` keeping the earliest-queued on ties),
// under a seeded random schedule of pushes, picks, and clock advances.
func TestWakeQueueMatchesReferenceScans(t *testing.T) {
	type refEntry struct {
		wid   int
		until int64
	}
	rng := rand.New(rand.NewSource(0xC0FFEE))
	for trial := 0; trial < 50; trial++ {
		var q wakeQueue
		q.init(64)
		var ref []refEntry
		now := int64(0)
		nextWid := 0

		refPick := func(now int64) int {
			picked := -1
			for qi, e := range ref {
				if e.until <= now {
					picked = qi
					break
				}
			}
			if picked == -1 {
				var best int64
				for qi, e := range ref {
					if picked == -1 || e.until < best {
						picked = qi
						best = e.until
					}
				}
			}
			if picked == -1 {
				return -1
			}
			wid := ref[picked].wid
			ref = append(ref[:picked], ref[picked+1:]...)
			return wid
		}

		for op := 0; op < 400; op++ {
			switch r := rng.Intn(10); {
			case r < 5: // push
				until := now + int64(rng.Intn(40))
				q.push(nextWid, until)
				ref = append(ref, refEntry{nextWid, until})
				nextWid++
			case r < 8: // pick
				got, want := q.pick(now), refPick(now)
				if got != want {
					t.Fatalf("trial %d op %d (now=%d): pick %d, reference scan %d", trial, op, now, got, want)
				}
			case r < 9: // earlier probe
				ready := now + 1 + int64(rng.Intn(30))
				want := false
				for _, e := range ref {
					if e.until < ready {
						want = true
						break
					}
				}
				if got := q.earlier(ready); got != want {
					t.Fatalf("trial %d op %d (now=%d): earlier(%d) = %v, reference %v", trial, op, now, ready, got, want)
				}
			default: // advance the clock
				now += int64(rng.Intn(15))
			}
		}
		if q.size() != len(ref) {
			t.Fatalf("trial %d: queue size %d, reference %d", trial, q.size(), len(ref))
		}
	}
}
