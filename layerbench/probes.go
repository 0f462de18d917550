package main

import (
	"bytes"
	"encoding/json"
	"fmt"

	"ltrf/internal/cfg"
	"ltrf/internal/core"
	"ltrf/internal/exp"
	"ltrf/internal/isa"
	"ltrf/internal/liveness"
	"ltrf/internal/memsys"
	"ltrf/internal/regalloc"
	"ltrf/internal/regfile"
	"ltrf/internal/server"
	"ltrf/internal/sim"
	"ltrf/internal/workloads"
)

// The layer probes run the same calls in every traced run. Their points are
// at tech 7 and 4x latency, where the register file is slow enough for the
// designs to differ, at the quick budget.
const (
	probeTech   = 7
	probeLatX   = 4.0
	probeBudget = 12_000
	rfDriveOps  = 100_000 // register-file calls per design and kernel
	memDriveOps = 100_000 // memory accesses per kernel and prefetch mode
	rttRounds   = 10      // warm /v1/eval round trips per probe point
	warmSweeps  = 5       // warm /v1/sweep passes over the probe points
)

func probePoint(design, workload, prefetch string) exp.Point {
	return exp.Point{
		Design: sim.Design(design), Tech: probeTech, LatencyX: probeLatX, Workload: workload,
		Unroll: workloads.UnrollMaxwell, Budget: probeBudget, Prefetch: prefetch,
	}
}

func evalNames() []string {
	var out []string
	for _, w := range workloads.EvalSet() {
		out = append(out, w.Name)
	}
	return out
}

func runProbes(tr *tracer, lt *layerTotals, rep *report, dirs *scratchDirs) error {
	ks := newKernels()
	if err := probeCompile(tr, lt, ks); err != nil {
		return err
	}
	// Reference simulations: every design and evaluation workload, with the
	// hardware prefetcher off and cta.
	for _, d := range regfile.Names() {
		for _, w := range evalNames() {
			for _, pf := range []string{"off", "cta"} {
				if _, err := ks.simulate(tr, lt, rep, pointKey(d, probeTech, probeLatX, pf, w), probePoint(d, w, pf)); err != nil {
					return err
				}
			}
			if err := driveRegfile(tr, lt, ks, d, w); err != nil {
				return err
			}
		}
	}
	for _, w := range evalNames() {
		for _, pf := range []string{"off", "cta"} {
			if err := driveMemsys(tr, lt, ks, w, pf); err != nil {
				return err
			}
		}
	}
	lt.compileKernels += ks.cc.Compiles()
	return probeService(tr, lt, rep, dirs)
}

// probeCompile runs the compile stages separately for every distinct
// (kernel, register cap) and partition the registered designs need at tech
// 1 and 7: register allocation, CFG construction, liveness with dead-bit
// annotation, and prefetch-unit formation.
func probeCompile(tr *tracer, lt *layerTotals, ks *kernels) error {
	type allocKey struct {
		workload string
		regCap   int
	}
	type partKey struct {
		allocKey
		strands bool
		n       int
	}
	allocated := map[allocKey]*isa.Program{}
	partitioned := map[partKey]bool{}
	for _, w := range evalNames() {
		virt, err := ks.virtual(tr, w)
		if err != nil {
			return err
		}
		for _, d := range regfile.Names() {
			desc, err := regfile.Lookup(d)
			if err != nil {
				return err
			}
			for _, tech := range []int{1, 7} {
				p := probePoint(d, w, "off")
				p.Tech = tech
				c, err := pointConfig(p)
				if err != nil {
					return err
				}
				demand, err := regalloc.Pressure(virt)
				if err != nil {
					return err
				}
				regCap, _, _, err := c.ResolveOccupancy(demand, virt)
				if err != nil {
					return err
				}
				ak := allocKey{w, regCap}
				key := fmt.Sprintf("%s/cap%d", w, regCap)
				prog, ok := allocated[ak]
				if !ok {
					var g *cfg.Graph
					tr.do("compile", "regalloc.Allocate", key, func() { prog, _, err = regalloc.Allocate(virt, regCap) })
					if err != nil {
						return err
					}
					tr.do("compile", "cfg.Build", key, func() { g, err = cfg.Build(prog) })
					if err != nil {
						return err
					}
					tr.do("compile", "liveness", key, func() { liveness.Analyze(g).AnnotateDeadBits() })
					allocated[ak] = prog
					lt.compileKernels++
				}
				pk := partKey{ak, desc.UsesStrands, c.RegsPerInterval}
				if !desc.NeedsUnits || partitioned[pk] {
					continue
				}
				tr.do("compile", "partition", key, func() {
					if pk.strands {
						_, err = core.FormStrands(prog, pk.n)
					} else {
						_, err = core.FormRegisterIntervals(prog, pk.n)
					}
				})
				if err != nil {
					return err
				}
				partitioned[pk] = true
			}
		}
	}
	return nil
}

// compiled compiles p's kernel through the probe cache.
func (ks *kernels) compiled(tr *tracer, p exp.Point) (sim.Config, *isa.Program, sim.CompileInfo, error) {
	c, err := pointConfig(p)
	if err != nil {
		return c, nil, sim.CompileInfo{}, err
	}
	virt, err := ks.virtual(tr, p.Workload)
	if err != nil {
		return c, nil, sim.CompileInfo{}, err
	}
	var info sim.CompileInfo
	tr.do("compile", "CompileCache.Compile", p.Workload, func() { info, err = ks.cc.Compile(&c, virt) })
	return c, virt, info, err
}

// driveRegfile builds the design's register-file subsystem as the simulator
// does and drives it over the operand/PREFETCH stream of the compiled
// kernel: every resident warp walks the instructions in program order,
// entering each prefetch unit, reading its sources and writing its result,
// with the SM's liveness updates. A second, fresh subsystem then runs the
// PREFETCH calls alone, which times the PREFETCH path by itself.
func driveRegfile(tr *tracer, lt *layerTotals, ks *kernels, design, workload string) error {
	c, virt, info, err := ks.compiled(tr, probePoint(design, workload, "off"))
	if err != nil {
		return err
	}
	desc, err := regfile.Lookup(design)
	if err != nil {
		return err
	}
	tech, latX := c.Tech, c.LatencyX
	if desc.Timing != nil {
		tech, latX = desc.Timing(tech, latX)
	}
	rfCfg := regfile.FromTech(tech, latX, c.RegsPerInterval)
	if c.WideXbar {
		rfCfg.XbarCyclesPerReg = 1
	}
	mem := memsys.NewHierarchy(c.Mem)
	defer mem.Release()
	mem.Shared.SetWorkloadBytes(memsys.WorkloadSharedBytes(virt) * c.CTAs())
	build := func() (regfile.Subsystem, []*regfile.WarpRegs, error) {
		sub, err := regfile.Build(desc.Name, regfile.BuildContext{
			Config: rfCfg, Prog: info.Prog, Part: info.Part, Seed: c.Seed,
			SharedMem: mem.Shared, Warps: info.Warps,
		})
		warps := make([]*regfile.WarpRegs, info.Warps)
		for i := range warps {
			warps[i] = regfile.NewWarpRegs(i, rfCfg.CacheBanks)
		}
		return sub, warps, err
	}
	sub, warps, err := build()
	if err != nil {
		return err
	}

	instrs := info.Prog.Instrs
	srcs := make([][]isa.Reg, len(instrs))
	dead := make([][]bool, len(instrs))
	for i := range instrs {
		in := &instrs[i]
		for s, r := range in.Src[:in.Op.NumSrcSlots()] {
			if r.Valid() {
				srcs[i] = append(srcs[i], r)
				dead[i] = append(dead[i], in.DeadAfter[s])
			}
		}
	}
	part := info.Part
	reps := max(1, rfDriveOps/(len(instrs)*len(warps)))
	key := design + "/" + workload
	var ops, prefetches int64
	d := tr.do("regfile", "drive", key, func() {
		now := int64(0)
		for _, w := range warps {
			now = max(now, sub.OnActivate(now, w))
			ops++
		}
		for r := 0; r < reps; r++ {
			for pc := range instrs {
				in := &instrs[pc]
				writes := in.Op.WritesDst() && in.Dst.Valid()
				for _, w := range warps {
					if part != nil {
						if uid := part.UnitID(pc); uid != w.CurUnit {
							sub.OnUnitEnter(now, w, uid, part.Units[uid].WorkingSet)
							ops++
						}
					}
					if len(srcs[pc]) > 0 {
						sub.ReadOperands(now, w, srcs[pc])
						ops++
					}
					if writes {
						sub.WriteResult(now, w, in.Dst)
						ops++
					}
					for s, reg := range srcs[pc] {
						if dead[pc][s] {
							w.Live.Clear(int(reg))
						}
					}
					if writes {
						w.Live.Set(int(in.Dst))
					}
				}
				now++
			}
		}
		for _, w := range warps {
			sub.OnDeactivate(now, w)
			ops++
		}
	})
	lt.rfOps += ops
	lt.rfDriveSecs += d.Seconds()
	if part == nil {
		return nil
	}
	sub, warps, err = build()
	if err != nil {
		return err
	}
	d = tr.do("regfile", "prefetch-only", key, func() {
		now := int64(0)
		for r := 0; r < reps; r++ {
			for pc := range instrs {
				uid := part.UnitID(pc)
				for _, w := range warps {
					if uid != w.CurUnit {
						sub.OnUnitEnter(now, w, uid, part.Units[uid].WorkingSet)
						prefetches++
					}
				}
				now++
			}
		}
	})
	lt.rfPrefetches += prefetches
	lt.rfPrefetchSecs += d.Seconds()
	return nil
}

// driveMemsys drives a fresh memory hierarchy over the compiled kernel's
// memory instructions: each resident warp issues them in program order,
// iteration after iteration, with the hardware prefetcher off or cta.
func driveMemsys(tr *tracer, lt *layerTotals, ks *kernels, workload, prefetch string) error {
	c, virt, info, err := ks.compiled(tr, probePoint("BL", workload, prefetch))
	if err != nil {
		return err
	}
	var memPCs []int
	for pc, in := range info.Prog.Instrs {
		if in.Op.Class() == isa.ClassMem {
			memPCs = append(memPCs, pc)
		}
	}
	if len(memPCs) == 0 {
		return nil
	}
	h := memsys.NewHierarchy(c.Mem)
	defer h.Release()
	h.Shared.SetWorkloadBytes(memsys.WorkloadSharedBytes(virt) * c.CTAs())
	iters := max(1, memDriveOps/(len(memPCs)*info.Warps))
	var n int64
	tr.do("memsys", "Access/"+prefetch, workload, func() {
		now := int64(0)
		for it := 0; it < iters; it++ {
			for w := 0; w < info.Warps; w++ {
				for _, pc := range memPCs {
					now++
					h.Access(now, &info.Prog.Instrs[pc], w, 0, pc, int64(it))
					n++
				}
			}
		}
	})
	lt.memAccesses += n
	return nil
}

// probeService evaluates the BL and LTRF probe points through a store-backed
// engine (cold, then a memo hit), through a fresh engine on that store (a
// store hit, then a memo hit), puts and gets their statistics in a store of
// its own, and sends warm /v1/eval round trips and warm /v1/sweep passes
// over them.
func probeService(tr *tracer, lt *layerTotals, rep *report, dirs *scratchDirs) error {
	var pts []exp.Point
	var keys []string
	for _, d := range []string{"BL", "LTRF"} {
		for _, w := range evalNames() {
			pts = append(pts, probePoint(d, w, "off"))
			keys = append(keys, pointKey(d, probeTech, probeLatX, "off", w))
		}
	}
	dir := dirs.next()
	st, err := openStore(dir)
	if err != nil {
		return err
	}
	cold := exp.NewEngineWithStore(st)
	results := make([]*sim.Result, len(pts))
	for i, p := range pts {
		res, d, err := evalPoint(tr, lt, "Engine.Eval cold", keys[i], cold, p)
		if err != nil {
			return err
		}
		results[i] = res
		lt.coldEvalMs = append(lt.coldEvalMs, us(d)/1e3)
		if _, d, err = evalPoint(tr, lt, "Engine.Eval memo hit", keys[i], cold, p); err != nil {
			return err
		}
		lt.memoHits++
		lt.memoHitUs = append(lt.memoHitUs, us(d))
	}
	lt.countEngine(cold)

	st2, err := openStore(dir)
	if err != nil {
		return err
	}
	warm := exp.NewEngineWithStore(st2)
	warmMemo := make([]float64, len(pts))
	storeHits := make([]float64, len(pts))
	for i, p := range pts {
		res, d, err := evalPoint(tr, lt, "Engine.Eval store hit", keys[i], warm, p)
		if err != nil {
			return err
		}
		storeHits[i] = us(d)
		rep.attempted++
		if !statsEqual(res, results[i]) {
			rep.fail("exp: %s: the store hit's stats differ from the computed result", keys[i])
		}
		if _, d, err = evalPoint(tr, lt, "Engine.Eval memo hit", keys[i], warm, p); err != nil {
			return err
		}
		lt.memoHits++
		lt.memoHitUs = append(lt.memoHitUs, us(d))
		warmMemo[i] = us(d)
	}
	lt.storeHitUs = append(lt.storeHitUs, storeHits...)

	own, err := openStore(dirs.next())
	if err != nil {
		return err
	}
	for i, res := range results {
		payload, err := json.Marshal(res.Stats)
		if err != nil {
			return err
		}
		storeRoundTrip(tr, lt, rep, own, keys[i], payload)
	}
	lt.storeRetries += st.Retries() + st2.Retries() + own.Retries()
	lt.storeQuarantined += st.Quarantined() + st2.Quarantined() + own.Quarantined()

	lb, err := startLoopback(1)
	if err != nil {
		return err
	}
	defer lb.close()
	if err := lb.mount(warm); err != nil {
		return err
	}
	var buf bytes.Buffer
	for round := 0; round < rttRounds; round++ {
		for i, p := range pts {
			sp, err := newServePoint(string(p.Design), p.Workload, p.Tech, p.LatencyX, p.Budget)
			if err != nil {
				return err
			}
			want, err := evalBody(p, results[i])
			if err != nil {
				return err
			}
			var status int
			d := tr.do("server", "POST /v1/eval", keys[i], func() { status, err = lb.post("/v1/eval", sp.body, &buf) })
			rep.attempted++
			lt.requests++
			lt.bytesOut += int64(buf.Len())
			if status == 429 || status == 503 {
				lt.shed++
			}
			if err != nil || status != 200 || !bytes.Equal(buf.Bytes(), want) {
				rep.fail("server: %s: status %d, err %v", keys[i], status, err)
				continue
			}
			lt.evalRttUs = append(lt.evalRttUs, us(d))
			lt.overheadUs = append(lt.overheadUs, us(d)-warmMemo[i])
		}
	}
	lt.countEngine(warm)

	body, err := json.Marshal(server.SweepRequest{
		Designs: []string{"BL", "LTRF"}, Workloads: evalNames(), Techs: []int{probeTech},
		LatencyXs: []float64{probeLatX}, Budget: probeBudget, Parallelism: 1,
	})
	if err != nil {
		return err
	}
	h := &sweepHarness{lb: lb, dirs: dirs}
	for i := 0; i < warmSweeps; i++ {
		var (
			wall   sample
			status int
			s      *sweepStream
		)
		tr.do("server", "POST /v1/sweep warm", "", func() { wall, status, s, err = h.pass(dir, body) })
		if err != nil {
			return err
		}
		rep.attempted++
		lt.requests++
		lt.bytesOut += int64(s.bytes)
		if status != 200 || s.summary == nil || s.summary.OK != len(pts) || s.summary.StoreHits != int64(len(pts)) {
			rep.fail("server: warm probe sweep: status %d, summary %+v", status, s.summary)
			continue
		}
		lt.recordUs = append(lt.recordUs, wall.raw*1e6/float64(len(pts))-mean(storeHits))
		lt.countEngine(h.eng)
	}
	return nil
}
