package workloads

import (
	"fmt"
	"sort"
	"strings"

	"ltrf/internal/isa"
)

// Suite identifies the benchmark suite a workload models.
type Suite string

// Benchmark suites of §5.
const (
	CUDASDK Suite = "CUDA SDK"
	Rodinia Suite = "Rodinia"
	Parboil Suite = "Parboil"
)

// Workload is one synthetic benchmark kernel.
type Workload struct {
	Name  string
	Suite Suite
	// Sensitive marks register-sensitive workloads: kernels whose
	// achievable TLP is limited by register file capacity (§5).
	Sensitive bool
	// Eval marks membership in the paper's 14-workload evaluation subset
	// (nine register-sensitive + five register-insensitive, §5).
	Eval bool
	// Family names the software-pipelining family this workload belongs
	// to ("" for the 35 paper-suite workloads). Each family is a pair: a
	// latency-hiding pipelined kernel and a naive counterpart of identical
	// instruction-class counts (see pipeline.go).
	Family string
	// Pipelined marks the latency-hiding member of a family pair.
	Pipelined bool

	build func(unroll int) *isa.Program
}

// Compiler-era unroll factors (see package comment and Table 1).
const (
	UnrollFermi   = 1 // older nvcc: little unrolling
	UnrollMaxwell = 3 // newer nvcc: aggressive unrolling
)

// Build constructs the kernel with the given unroll factor. The returned
// program uses virtual registers; register allocation happens per
// simulation configuration (sim.CompileCache.Compile).
func (w Workload) Build(unroll int) *isa.Program {
	return w.build(unroll)
}

var all = []Workload{
	// --- Register-insensitive (15) ---
	{Name: "vectoradd", Suite: CUDASDK, Eval: true,
		build: buildStream("vectoradd", streamParams{iters: 80, fp: mb(8), pattern: isa.PatCoalesced, compute: 2})},
	{Name: "transpose", Suite: CUDASDK,
		build: buildStrided("transpose", stridedParams{iters: 50, stride: 128, fp: mb(4), compute: 1})},
	{Name: "reduction", Suite: CUDASDK,
		build: buildShared("reduction", sharedParams{iters: 20, stages: 2, fp: mb(4)})},
	{Name: "scan", Suite: CUDASDK,
		build: buildShared("scan", sharedParams{iters: 20, stages: 3, fp: mb(4)})},
	{Name: "histogram", Suite: CUDASDK,
		build: buildDivergent("histogram", divergentParams{iters: 40, fp: mb(1), branchP: 0.5, depth: 1})},
	{Name: "mergesort", Suite: CUDASDK,
		build: buildDivergent("mergesort", divergentParams{iters: 30, fp: mb(2), branchP: 0.5, depth: 2})},
	{Name: "bfs", Suite: Rodinia, Eval: true,
		build: buildDivergent("bfs", divergentParams{iters: 30, fp: mb(16), branchP: 0.3, depth: 2})},
	{Name: "btree", Suite: Rodinia, Eval: true,
		build: buildDivergent("btree", divergentParams{iters: 25, fp: mb(8), branchP: 0.5, depth: 3})},
	{Name: "kmeans", Suite: Rodinia, Eval: true,
		build: buildStream("kmeans", streamParams{iters: 60, fp: mb(4), pattern: isa.PatCoalesced, compute: 6})},
	{Name: "nn", Suite: Rodinia,
		build: buildDivergent("nn", divergentParams{iters: 40, fp: mb(4), branchP: 0.4, depth: 1})},
	{Name: "nw", Suite: Rodinia,
		build: buildShared("nw", sharedParams{iters: 16, stages: 2, fp: mb(2)})},
	{Name: "pathfinder", Suite: Rodinia, Eval: true,
		build: buildShared("pathfinder", sharedParams{iters: 20, stages: 1, fp: mb(4)})},
	{Name: "histo", Suite: Parboil,
		build: buildDivergent("histo", divergentParams{iters: 40, fp: mb(1), branchP: 0.6, depth: 1})},
	{Name: "spmv", Suite: Parboil,
		build: buildDivergent("spmv", divergentParams{iters: 40, fp: mb(8), branchP: 0.2, depth: 2})},
	{Name: "bfs-p", Suite: Parboil,
		build: buildDivergent("bfs-p", divergentParams{iters: 30, fp: mb(16), branchP: 0.3, depth: 2})},

	// --- Register-sensitive (20) ---
	{Name: "matrixmul", Suite: CUDASDK, Sensitive: true,
		build: buildTiled("matrixmul", tiledParams{phases: 3, accs: 10, coefs: 4, inner: 8, outer: 6, fp: mb(4)})},
	{Name: "blackscholes", Suite: CUDASDK, Sensitive: true,
		build: buildSFU("blackscholes", sfuParams{state: 28, iters: 10, ops: 2, fp: mb(2)})},
	{Name: "backprop", Suite: Rodinia, Sensitive: true,
		build: buildTiled("backprop", tiledParams{phases: 3, accs: 10, coefs: 4, inner: 8, outer: 6, fp: mb(4)})},
	{Name: "cfd", Suite: Rodinia, Sensitive: true,
		build: buildTiled("cfd", tiledParams{phases: 4, accs: 10, coefs: 4, inner: 6, outer: 5, fp: mb(8)})},
	{Name: "gaussian", Suite: Rodinia, Sensitive: true,
		build: buildTiled("gaussian", tiledParams{phases: 2, accs: 10, coefs: 4, inner: 8, outer: 8, fp: mb(2)})},
	{Name: "heartwall", Suite: Rodinia, Sensitive: true, Eval: true,
		build: buildTiled("heartwall", tiledParams{phases: 5, accs: 10, coefs: 4, inner: 6, outer: 5, fp: mb(4)})},
	{Name: "hotspot", Suite: Rodinia, Sensitive: true, Eval: true,
		build: buildTiled("hotspot", tiledParams{phases: 3, accs: 10, coefs: 6, inner: 8, outer: 6, fp: mb(4)})},
	{Name: "lavamd", Suite: Rodinia, Sensitive: true,
		build: buildTiled("lavamd", tiledParams{phases: 4, accs: 9, coefs: 4, inner: 6, outer: 5, fp: mb(4), sfu: 2})},
	{Name: "leukocyte", Suite: Rodinia, Sensitive: true, Eval: true,
		build: buildTiled("leukocyte", tiledParams{phases: 4, accs: 10, coefs: 4, inner: 8, outer: 5, fp: mb(4)})},
	{Name: "lud", Suite: Rodinia, Sensitive: true,
		build: buildTiled("lud", tiledParams{phases: 3, accs: 10, coefs: 4, inner: 8, outer: 6, fp: mb(2)})},
	{Name: "myocyte", Suite: Rodinia, Sensitive: true,
		build: buildSFU("myocyte", sfuParams{state: 44, iters: 6, ops: 2, fp: mb(1)})},
	{Name: "srad", Suite: Rodinia, Sensitive: true, Eval: true,
		build: buildTiled("srad", tiledParams{phases: 4, accs: 9, coefs: 4, inner: 8, outer: 6, fp: mb(4), divP: 0.3})},
	{Name: "cutcp", Suite: Parboil, Sensitive: true, Eval: true,
		build: buildTiled("cutcp", tiledParams{phases: 4, accs: 10, coefs: 4, inner: 8, outer: 5, fp: mb(4), sfu: 1})},
	{Name: "lbm", Suite: Parboil, Sensitive: true, Eval: true,
		build: buildTiled("lbm", tiledParams{phases: 5, accs: 10, coefs: 4, inner: 4, outer: 5, fp: mb(8)})},
	{Name: "mri-gridding", Suite: Parboil, Sensitive: true,
		build: buildTiled("mri-gridding", tiledParams{phases: 4, accs: 9, coefs: 4, inner: 6, outer: 5, fp: mb(4), sfu: 2})},
	{Name: "mri-q", Suite: Parboil, Sensitive: true, Eval: true,
		build: buildSFU("mri-q", sfuParams{state: 40, iters: 7, ops: 3, fp: mb(2)})},
	{Name: "sad", Suite: Parboil, Sensitive: true,
		build: buildTiled("sad", tiledParams{phases: 3, accs: 11, coefs: 4, inner: 8, outer: 6, fp: mb(4)})},
	{Name: "sgemm", Suite: Parboil, Sensitive: true, Eval: true,
		build: buildTiled("sgemm", tiledParams{phases: 4, accs: 13, coefs: 4, inner: 10, outer: 5, fp: mb(4)})},
	{Name: "stencil", Suite: Parboil, Sensitive: true, Eval: true,
		build: buildTiled("stencil", tiledParams{phases: 3, accs: 11, coefs: 6, inner: 8, outer: 6, fp: mb(4)})},
	{Name: "tpacf", Suite: Parboil, Sensitive: true,
		build: buildTiled("tpacf", tiledParams{phases: 3, accs: 10, coefs: 4, inner: 8, outer: 6, fp: mb(2), sfu: 1})},

	// --- Software-pipelined family (4): latency-hiding idioms paired
	// with naive counterparts of identical instruction-class counts
	// (pipeline.go). Not part of the paper's 35-workload suite
	// (PaperSuite) or its 14-workload evaluation subset. ---
	{Name: "regpipe", Suite: CUDASDK, Sensitive: true, Family: "regpipe", Pipelined: true,
		build: buildRegPipe("regpipe", regPipeDefaults, true)},
	{Name: "regpipe-naive", Suite: CUDASDK, Sensitive: true, Family: "regpipe",
		build: buildRegPipe("regpipe-naive", regPipeDefaults, false)},
	{Name: "smempipe", Suite: CUDASDK, Sensitive: true, Family: "smempipe", Pipelined: true,
		build: buildSmemPipe("smempipe", smemPipeDefaults, true)},
	{Name: "smempipe-naive", Suite: CUDASDK, Sensitive: true, Family: "smempipe",
		build: buildSmemPipe("smempipe-naive", smemPipeDefaults, false)},
}

// Default parameterizations of the pipelined families: sized so that a
// full kernel execution of every resident warp fits the default dynamic
// instruction budget (the calibration and metamorphic tests run both
// variants to completion) while the pipelined members' prefetch buffers
// add clearly measurable register pressure.
var (
	regPipeDefaults  = regPipeParams{tileRegs: 6, fmasPerReg: 6, accs: 8, trips: 10, fp: 512 << 10}
	smemPipeDefaults = smemPipeParams{tileRegs: 5, sharedLds: 6, fmasPerLd: 6, accs: 6, trips: 8, fp: 512 << 10, smemTileB: 12 << 10}
)

// All returns every registered workload — the 35 paper-suite kernels
// followed by the software-pipelined family pairs — in deterministic order.
func All() []Workload {
	out := make([]Workload, len(all))
	copy(out, all)
	return out
}

// PaperSuite returns the paper's 35 benchmark stand-ins (§5), excluding the
// software-pipelined family: the set Table 1, Table 4, and the overheads
// analysis aggregate over.
func PaperSuite() []Workload {
	var out []Workload
	for _, w := range all {
		if w.Family == "" {
			out = append(out, w)
		}
	}
	return out
}

// Pair is one software-pipelining family: the latency-hiding member and
// its naive counterpart of identical instruction-class counts.
type Pair struct {
	Family    string
	Pipelined Workload
	Naive     Workload
}

// Pairs returns every pipelined/naive family pair in deterministic
// (declaration) order.
func Pairs() []Pair {
	byFam := map[string]*Pair{}
	var order []string
	for _, w := range all {
		if w.Family == "" {
			continue
		}
		p, ok := byFam[w.Family]
		if !ok {
			p = &Pair{Family: w.Family}
			byFam[w.Family] = p
			order = append(order, w.Family)
		}
		if w.Pipelined {
			p.Pipelined = w
		} else {
			p.Naive = w
		}
	}
	out := make([]Pair, len(order))
	for i, f := range order {
		out[i] = *byFam[f]
	}
	return out
}

// Families returns the family names in deterministic order.
func Families() []string {
	var out []string
	for _, p := range Pairs() {
		out = append(out, p.Family)
	}
	return out
}

// FamilyPair looks a family up by name; the error for an unknown family
// lists every registered one.
func FamilyPair(family string) (Pair, error) {
	for _, p := range Pairs() {
		if p.Family == family {
			return p, nil
		}
	}
	return Pair{}, fmt.Errorf("workloads: unknown family %q (registered: %s)",
		family, strings.Join(Families(), ", "))
}

// EvalSet returns the paper's 14-workload evaluation subset, insensitive
// workloads first (matching the figures' left-to-right grouping).
func EvalSet() []Workload {
	var ins, sens []Workload
	for _, w := range all {
		if !w.Eval {
			continue
		}
		if w.Sensitive {
			sens = append(sens, w)
		} else {
			ins = append(ins, w)
		}
	}
	sort.Slice(ins, func(i, j int) bool { return ins[i].Name < ins[j].Name })
	sort.Slice(sens, func(i, j int) bool { return sens[i].Name < sens[j].Name })
	return append(ins, sens...)
}

// ByName looks a workload up.
func ByName(name string) (Workload, error) {
	for _, w := range all {
		if w.Name == name {
			return w, nil
		}
	}
	return Workload{}, fmt.Errorf("workloads: unknown workload %q (registered: %s)",
		name, strings.Join(Names(), ", "))
}

// Names returns all workload names.
func Names() []string {
	out := make([]string, len(all))
	for i, w := range all {
		out[i] = w.Name
	}
	return out
}
