package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"path/filepath"
	"runtime"
	"time"

	"ltrf/internal/exp"
	"ltrf/internal/isa"
	"ltrf/internal/memsys"
	"ltrf/internal/memtech"
	"ltrf/internal/sim"
	"ltrf/internal/workloads"
)

// The traced run. It times, for the chosen workload:
//
//	A  the workload's work with no spans (one serial pass), before and after
//	   B; its time and the first pass's Go heap activity are the reference;
//	B  the same work, each call into a layer inside a span;
//	C  the layer probes, identical for every workload: the compile stages,
//	   reference simulations, each design's register-file subsystem and the
//	   memory hierarchy driven directly, engine evaluations, store
//	   operations and warm HTTP round trips.
//
// Everything runs serially (one worker, one client), so layer self times add
// up to wall time. trace.overhead_s is B's time minus A's mean time, and
// trace.unattributed_s is the part of A's entry-point time that B's calls
// into the layers below that entry point do not account for.
func runTraced(o options) (*report, error) {
	rep := newReport()
	tr := newTracer()
	lt := &layerTotals{}
	dirs, err := newScratchDirs(o.out)
	if err != nil {
		return nil, err
	}
	defer dirs.removeAll()

	var p workloadPass
	switch o.workload {
	case "paper":
		p = &paperPass{}
	case "sweep":
		p = &sweepPass{seed: o.seed, dirs: dirs}
	default:
		p = &servePass{seed: o.seed, dirs: dirs}
	}
	if err := p.setup(); err != nil {
		return nil, err
	}
	defer p.close()

	// The untraced time is the mean of the A passes before and after B, so
	// warming up during the run does not show as tracing overhead.
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	entryA, err := p.run(nil, &layerTotals{}, rep)
	if err != nil {
		return nil, err
	}
	untraced := time.Since(start).Seconds()
	runtime.ReadMemStats(&after)

	markB := tr.mark()
	start = time.Now()
	if _, err := p.run(tr, lt, rep); err != nil {
		return nil, err
	}
	traced := time.Since(start).Seconds()
	below := 0.0
	for layer, s := range tr.selfTimes(markB) {
		if layer != "server" {
			below += s
		}
	}

	start = time.Now()
	if _, err := p.run(nil, &layerTotals{}, rep); err != nil {
		return nil, err
	}
	untraced = (untraced + time.Since(start).Seconds()) / 2

	if err := runProbes(tr, lt, rep, dirs); err != nil {
		return nil, err
	}
	lt.report(rep, tr)
	rep.add("runtime.alloc_mb", "MiB", float64(after.TotalAlloc-before.TotalAlloc)/(1<<20))
	rep.add("runtime.mallocs", "count", float64(after.Mallocs-before.Mallocs))
	rep.add("runtime.gc_cycles", "count", float64(after.NumGC-before.NumGC))
	rep.add("runtime.gc_pause_ms", "ms", float64(after.PauseTotalNs-before.PauseTotalNs)/1e6)
	rep.add("trace.overhead_s", "s", traced-untraced)
	rep.add("trace.unattributed_s", "s", entryA-below)

	spans := filepath.Join(o.out, fmt.Sprintf("spans-%s-seed%d.jsonl", o.workload, o.seed))
	if err := tr.write(spans); err != nil {
		return nil, err
	}
	rep.meta["spans_file"] = spans
	rep.meta["spans"] = len(tr.spans)
	rep.meta["untraced_pass_s"] = untraced
	rep.meta["traced_pass_s"] = traced
	rep.meta["entry_point_s"] = entryA
	return rep, nil
}

// workloadPass is one workload's work as the traced run repeats it. run
// returns the time spent in the workload's entry point (the experiment
// drivers for paper, HTTP for sweep and serve).
type workloadPass interface {
	setup() error
	run(tr *tracer, lt *layerTotals, rep *report) (entry float64, err error)
	close()
}

// layerTotals accumulates the traced run's counts and per-operation samples.
type layerTotals struct {
	compileKernels int64

	simPoints, simInstrs, simCycles, simIdle, simPrefStall, simDeact int64
	rfPrefetchRegs, rfCacheReads, rfCacheReadHits, rfFallbackReads   int64
	memL1, memL1Hits, memL2, memL2Hits, memDRAM, memPrefIssued       int64
	memPrefUseful                                                    int64

	rfOps, rfPrefetches int64
	rfDriveSecs         float64
	rfPrefetchSecs      float64
	memAccesses         int64

	evals, memoHits, storeHits, sims int64
	coldEvalMs, memoHitUs            []float64
	storeHitUs                       []float64

	puts, gets, leases, bytesWritten int64
	putUs, getUs, leaseUs            []float64
	storeRetries, storeQuarantined   int64

	requests, bytesOut, shed int64
	evalRttUs                []float64
	// overheadUs pairs each warm /v1/eval round trip with an in-process
	// memo hit of the same point; recordUs pairs each warm sweep's time per
	// record with the mean store hit of the same points.
	overheadUs, recordUs []float64
}

// addResult adds one simulation's statistics and checks the Stats
// conservation laws on it; a violation is a failed operation.
func (lt *layerTotals) addResult(rep *report, key string, st *sim.Stats) {
	rep.attempted++
	if st.ALUOps+st.SFUOps+st.MemOps+st.CtrlOps != st.Instrs {
		rep.fail("%s: ALU %d + SFU %d + Mem %d + Ctrl %d != Instrs %d", key, st.ALUOps, st.SFUOps, st.MemOps, st.CtrlOps, st.Instrs)
	}
	if st.Mem.DRAMAccesses != st.Mem.L2Misses+st.Mem.PrefIssued {
		rep.fail("%s: DRAMAccesses %d != L2Misses %d + PrefIssued %d", key, st.Mem.DRAMAccesses, st.Mem.L2Misses, st.Mem.PrefIssued)
	}
	lt.simPoints++
	lt.simInstrs += st.Instrs
	lt.simCycles += st.Cycles
	lt.simIdle += st.IdleCycles
	lt.simPrefStall += st.PrefetchStallCycles
	lt.simDeact += st.Deactivations
	lt.rfPrefetchRegs += st.RF.PrefetchRegs
	lt.rfCacheReads += st.RF.CacheReads
	lt.rfCacheReadHits += st.RF.CacheReadHits
	lt.rfFallbackReads += st.RF.FallbackReads
	lt.memL1 += st.Mem.L1Accesses
	lt.memL1Hits += st.Mem.L1Hits
	lt.memL2 += st.Mem.L2Accesses
	lt.memL2Hits += st.Mem.L2Hits
	lt.memDRAM += st.Mem.DRAMAccesses
	lt.memPrefIssued += st.Mem.PrefIssued
	lt.memPrefUseful += st.Mem.PrefUseful
}

// countEngine adds an engine's simulation, store-hit and compile counters
// once the traced run is done with it.
func (lt *layerTotals) countEngine(e *exp.Engine) {
	lt.sims += e.Sims()
	lt.storeHits += e.StoreHits()
	lt.compileKernels += e.Compiles()
}

func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

func mean(xs []float64) float64 {
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

func ratio(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

func (lt *layerTotals) report(rep *report, tr *tracer) {
	self := tr.selfTimes(0)
	byName := map[string]float64{}
	for _, s := range tr.spans {
		byName[s.Layer+"/"+s.Name] += float64(s.End-s.Start) / 1e9
	}
	rep.add("compile.kernels", "count", float64(lt.compileKernels))
	rep.add("compile.busy_s", "s", self["compile"])
	rep.add("compile.cfg_s", "s", byName["compile/cfg.Build"])
	rep.add("compile.liveness_s", "s", byName["compile/liveness"])
	rep.add("compile.regalloc_s", "s", byName["compile/regalloc.Allocate"])
	rep.add("compile.partition_s", "s", byName["compile/partition"])

	rep.add("sim.points", "count", float64(lt.simPoints))
	rep.add("sim.instrs", "count", float64(lt.simInstrs))
	rep.add("sim.cycles", "count", float64(lt.simCycles))
	rep.add("sim.idle_cycles", "count", float64(lt.simIdle))
	rep.add("sim.prefetch_stall_cycles", "count", float64(lt.simPrefStall))
	rep.add("sim.deactivations", "count", float64(lt.simDeact))
	rep.add("sim.busy_s", "s", self["sim"])
	rep.add("sim.minstr_per_s", "Minstr/s", float64(lt.simInstrs)/self["sim"]/1e6)

	rep.add("regfile.ops", "count", float64(lt.rfOps))
	rep.add("regfile.busy_s", "s", self["regfile"])
	rep.add("regfile.ns_per_op", "ns", lt.rfDriveSecs*1e9/float64(lt.rfOps))
	rep.add("regfile.prefetch_ns", "ns", lt.rfPrefetchSecs*1e9/float64(lt.rfPrefetches))
	rep.add("regfile.prefetch_regs", "count", float64(lt.rfPrefetchRegs))
	rep.add("regfile.cache_read_hit_ratio", "ratio", ratio(lt.rfCacheReadHits, lt.rfCacheReads))
	rep.add("regfile.fallback_reads", "count", float64(lt.rfFallbackReads))

	rep.add("memsys.accesses", "count", float64(lt.memAccesses))
	rep.add("memsys.busy_s", "s", self["memsys"])
	rep.add("memsys.ns_per_access", "ns", self["memsys"]*1e9/float64(lt.memAccesses))
	rep.add("memsys.l1_hit_ratio", "ratio", ratio(lt.memL1Hits, lt.memL1))
	rep.add("memsys.l2_hit_ratio", "ratio", ratio(lt.memL2Hits, lt.memL2))
	rep.add("memsys.dram_accesses", "count", float64(lt.memDRAM))
	rep.add("memsys.pref_issued", "count", float64(lt.memPrefIssued))
	rep.add("memsys.pref_useful_ratio", "ratio", ratio(lt.memPrefUseful, lt.memPrefIssued))

	rep.add("exp.evals", "count", float64(lt.evals))
	rep.add("exp.sims", "count", float64(lt.sims))
	rep.add("exp.memo_hits", "count", float64(lt.memoHits))
	rep.add("exp.store_hits", "count", float64(lt.storeHits))
	rep.add("exp.cold_eval_ms", "ms", median(lt.coldEvalMs))
	rep.add("exp.memo_hit_us", "us", median(lt.memoHitUs))
	rep.add("exp.store_hit_us", "us", median(lt.storeHitUs))

	rep.add("store.puts", "count", float64(lt.puts))
	rep.add("store.put_us", "us", median(lt.putUs))
	rep.add("store.gets", "count", float64(lt.gets))
	rep.add("store.get_us", "us", median(lt.getUs))
	rep.add("store.bytes_written", "bytes", float64(lt.bytesWritten))
	rep.add("store.lease_acquires", "count", float64(lt.leases))
	rep.add("store.lease_us", "us", median(lt.leaseUs))
	rep.add("store.retries", "count", float64(lt.storeRetries))
	rep.add("store.quarantined", "count", float64(lt.storeQuarantined))

	rep.add("server.requests", "count", float64(lt.requests))
	rep.add("server.eval_rtt_us", "us", median(lt.evalRttUs))
	rep.add("server.overhead_us", "us", median(lt.overheadUs))
	rep.add("server.record_us", "us", median(lt.recordUs))
	rep.add("server.bytes_out", "bytes", float64(lt.bytesOut))
	rep.add("server.shed", "count", float64(lt.shed))

	for _, l := range layers {
		rep.meta["self_s."+l] = self[l]
	}
	rep.meta["eval_rtt_samples"] = len(lt.evalRttUs)
	rep.meta["memo_hit_samples"] = len(lt.memoHitUs)
	rep.meta["store_hit_samples"] = len(lt.storeHitUs)
	rep.meta["overhead_samples"] = len(lt.overheadUs)
	rep.meta["record_samples"] = len(lt.recordUs)
}

// pointConfig is the simulator configuration the engine builds for p.
func pointConfig(p exp.Point) (sim.Config, error) {
	tech, err := memtech.Config(p.Tech)
	if err != nil {
		return sim.Config{}, err
	}
	c := sim.DefaultConfig(p.Design)
	c.Tech = tech
	c.LatencyX = p.LatencyX
	c.MaxInstrs = p.Budget
	c.MaxCycles = p.Budget * 12
	if p.Prefetch != "off" {
		c.Mem.Prefetch.Mode = memsys.PrefetchMode(p.Prefetch)
	}
	return c, nil
}

// kernels builds each workload's kernel once, so every compile of it hits
// the shared compile cache by program identity, as the engine arranges.
type kernels struct {
	cc    *sim.CompileCache
	progs map[string]*isa.Program
}

func newKernels() *kernels {
	return &kernels{cc: sim.NewCompileCache(), progs: map[string]*isa.Program{}}
}

func (ks *kernels) virtual(tr *tracer, workload string) (*isa.Program, error) {
	if p, ok := ks.progs[workload]; ok {
		return p, nil
	}
	w, err := workloads.ByName(workload)
	if err != nil {
		return nil, err
	}
	var p *isa.Program
	tr.do("compile", "workloads.Build", workload, func() { p = w.Build(workloads.UnrollMaxwell) })
	ks.progs[workload] = p
	return p, nil
}

// simulate compiles p's kernel through the cache and simulates it, each in
// its own span, and adds the result to lt.
func (ks *kernels) simulate(tr *tracer, lt *layerTotals, rep *report, key string, p exp.Point) (*sim.Result, error) {
	virt, err := ks.virtual(tr, p.Workload)
	if err != nil {
		return nil, err
	}
	c, err := pointConfig(p)
	if err != nil {
		return nil, err
	}
	tr.do("compile", "CompileCache.Compile", key, func() { _, err = ks.cc.Compile(&c, virt) })
	if err != nil {
		return nil, err
	}
	var res *sim.Result
	tr.do("sim", "RunWithCacheCtx", key, func() { res, err = sim.RunWithCacheCtx(context.Background(), c, virt, ks.cc) })
	if err != nil {
		return nil, fmt.Errorf("%s: %w", key, err)
	}
	lt.addResult(rep, key, &res.Stats)
	return res, nil
}

// statsEqual reports whether two results carry identical statistics.
func statsEqual(a, b *sim.Result) bool {
	ja, erra := json.Marshal(a.Stats)
	jb, errb := json.Marshal(b.Stats)
	return erra == nil && errb == nil && bytes.Equal(ja, jb)
}

// evalPoint is one Engine.Eval inside an exp span; it returns the result and
// the call's duration.
func evalPoint(tr *tracer, lt *layerTotals, name, key string, eng *exp.Engine, p exp.Point) (*sim.Result, time.Duration, error) {
	var res *sim.Result
	var err error
	d := tr.do("exp", name, key, func() { res, err = eng.Eval(context.Background(), p) })
	lt.evals++
	return res, d, err
}
