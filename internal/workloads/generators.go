// Package workloads defines the 35 synthetic GPU kernels standing in for
// the paper's CUDA SDK / Rodinia / Parboil benchmark suite (§5).
//
// Each kernel is built in the repository's IR with the control-flow,
// register-pressure, memory-pattern, and compute-density characteristics of
// its namesake. The substitution preserves the evaluation: the compiler
// passes consume only CFG + register usage, the simulator only dynamic
// instruction/memory streams.
//
// Build takes an unroll factor standing in for compiler aggressiveness: the
// paper's Table 1 observes that the newer (Maxwell-era) CUDA compiler
// "employs more aggressive compiler optimization techniques (e.g., loop
// unrolling) and as such enhances register usage and TLP compared to
// Fermi". Unroll 1 models the Fermi-era compiler, unroll 2 the Maxwell-era
// one; unrolled iterations carry independent accumulators, raising register
// demand the way real unrolling does.
package workloads

import (
	"ltrf/internal/isa"
)

// mb is a byte count helper.
func mb(n int) int64 { return int64(n) << 20 }

// streamParams describes a streaming (vectorAdd/saxpy-like) kernel.
type streamParams struct {
	iters   int
	fp      int64
	pattern isa.AccessPattern
	stride  int32
	compute int // FMAs per element
}

// buildStream emits: loop { load x[u]; compute; store } with unroll
// independent element streams per iteration.
func buildStream(name string, p streamParams) func(int) *isa.Program {
	return func(unroll int) *isa.Program {
		if unroll < 1 {
			unroll = 1
		}
		b := isa.NewBuilder(name)
		ptr := b.Reg()
		coef := b.RegN(2)
		b.IMovImm(ptr, 0)
		for i, c := range coef {
			b.IMovImm(c, int64(i+3))
		}
		xs := b.RegN(unroll)
		acc := b.RegN(unroll)
		for _, a := range acc {
			b.IMovImm(a, 0)
		}
		b.Loop(p.iters, func() {
			for u := 0; u < unroll; u++ {
				b.LdGlobal(xs[u], ptr, isa.MemAccess{Pattern: p.pattern, StrideB: p.stride, Region: uint8(u % 4), FootprintB: p.fp})
			}
			for u := 0; u < unroll; u++ {
				for c := 0; c < p.compute; c++ {
					b.FFMA(acc[u], xs[u], coef[c%2], acc[u])
				}
			}
			for u := 0; u < unroll; u++ {
				b.StGlobal(ptr, acc[u], isa.MemAccess{Pattern: p.pattern, StrideB: p.stride, Region: uint8(4 + u%4), FootprintB: p.fp})
			}
			b.IAddImm(ptr, ptr, 4)
		})
		return b.MustBuild()
	}
}

// tiledParams describes a register-blocked compute kernel (sgemm, stencil,
// hotspot, ...): phases of tile loads + an inner compute loop whose working
// set fits a register-interval, with per-phase accumulators that stay live
// across the whole kernel (register pressure = phases x accumulators).
type tiledParams struct {
	phases int // independent register-blocked phases
	accs   int // accumulators per phase (scaled by unroll)
	coefs  int // loop-invariant coefficients shared by all phases
	inner  int // inner-loop trips
	outer  int // outer-loop trips
	fp     int64
	sfu    int     // SFU ops per phase (0 for none)
	divP   float64 // probability of a data-dependent branch arm (0 = none)
}

// buildTiled emits the register-blocked shape. All phase accumulators are
// combined at the end so every phase's registers remain live (demand adds
// up), while each phase's inner loop touches <= ~12 registers (fits N=16).
func buildTiled(name string, p tiledParams) func(int) *isa.Program {
	return func(unroll int) *isa.Program {
		if unroll < 1 {
			unroll = 1
		}
		b := isa.NewBuilder(name)
		nAccs := p.accs * unroll
		ptr := b.Reg()
		pred := b.Reg()
		coef := b.RegN(p.coefs)
		b.IMovImm(ptr, 0)
		for i, c := range coef {
			b.IMovImm(c, int64(i+7))
		}
		// Per-phase state.
		accs := make([][]isa.Reg, p.phases)
		for ph := range accs {
			accs[ph] = b.RegN(nAccs)
			for _, a := range accs[ph] {
				b.IMovImm(a, 1)
			}
		}
		x := b.RegN(2)
		b.Loop(p.outer, func() {
			for ph := 0; ph < p.phases; ph++ {
				a := accs[ph]
				b.LdGlobal(x[0], ptr, isa.MemAccess{Pattern: isa.PatCoalesced, Region: uint8(ph % 6), FootprintB: p.fp})
				b.LdGlobal(x[1], ptr, isa.MemAccess{Pattern: isa.PatCoalesced, Region: uint8((ph + 1) % 6), FootprintB: p.fp})
				b.Loop(p.inner, func() {
					// Inner working set: x[0..1], 2 coefs, up to ~8 accs.
					for i := 0; i < len(a) && i < 8; i++ {
						b.FFMA(a[i], x[i%2], coef[(ph+i)%p.coefs], a[i])
					}
				})
				// Touch the remaining accumulators outside the inner loop
				// (keeps them live without bloating the loop working set).
				for i := 8; i < len(a); i++ {
					b.FAdd(a[i], a[i], x[i%2])
				}
				if p.sfu > 0 {
					for s := 0; s < p.sfu; s++ {
						b.Sqrt(a[s%len(a)], a[s%len(a)])
					}
				}
				if p.divP > 0 {
					b.SetPImm(pred, a[0], 5)
					b.If(pred, p.divP, func() {
						b.FAdd(a[0], a[0], coef[0])
					})
				}
			}
			// Combine all phases so their registers stay live.
			sum := accs[0][0]
			for ph := 0; ph < p.phases; ph++ {
				for i := range accs[ph] {
					if ph == 0 && i == 0 {
						continue
					}
					b.FAdd(sum, sum, accs[ph][i])
				}
			}
			b.StGlobal(ptr, sum, isa.MemAccess{Pattern: isa.PatCoalesced, Region: 7, FootprintB: p.fp})
			b.IAddImm(ptr, ptr, 4)
		})
		return b.MustBuild()
	}
}

// divergentParams describes an irregular, pointer-chasing kernel (bfs,
// btree, nn): scattered loads, data-dependent branches, little compute.
type divergentParams struct {
	iters   int
	fp      int64
	branchP float64
	depth   int // dependent loads per iteration
}

func buildDivergent(name string, p divergentParams) func(int) *isa.Program {
	return func(unroll int) *isa.Program {
		if unroll < 1 {
			unroll = 1
		}
		b := isa.NewBuilder(name)
		node := b.RegN(unroll)
		val := b.RegN(unroll)
		pred := b.Reg()
		cnt := b.Reg()
		b.IMovImm(cnt, 0)
		for _, n := range node {
			b.IMovImm(n, 0)
		}
		b.Loop(p.iters, func() {
			for u := 0; u < unroll; u++ {
				for d := 0; d < p.depth; d++ {
					b.LdGlobal(node[u], node[u], isa.MemAccess{Pattern: isa.PatRandom, Region: uint8(d % 4), FootprintB: p.fp})
					b.IAddImm(val[u], node[u], 1)
				}
				b.SetPImm(pred, val[u], 3)
				b.IfElse(pred, p.branchP,
					func() { b.IAdd(cnt, cnt, val[u]) },
					func() { b.ISub(cnt, cnt, val[u]) },
				)
			}
		})
		b.StGlobal(cnt, cnt, isa.MemAccess{Pattern: isa.PatRandom, Region: 5, FootprintB: p.fp})
		return b.MustBuild()
	}
}

// sfuParams describes a transcendental-heavy kernel (myocyte, mri-q,
// blackscholes): chains of special-function operations on per-thread state.
type sfuParams struct {
	state int // live state registers (scaled by unroll)
	iters int
	ops   int // SFU ops per state element per iteration
	fp    int64
}

func buildSFU(name string, p sfuParams) func(int) *isa.Program {
	return func(unroll int) *isa.Program {
		if unroll < 1 {
			unroll = 1
		}
		b := isa.NewBuilder(name)
		n := p.state * unroll
		st := b.RegN(n)
		ptr := b.Reg()
		x := b.Reg()
		b.IMovImm(ptr, 0)
		for _, r := range st {
			b.IMovImm(r, 2)
		}
		b.Loop(p.iters, func() {
			b.LdGlobal(x, ptr, isa.MemAccess{Pattern: isa.PatCoalesced, Region: 0, FootprintB: p.fp})
			// Work on a sliding window of the state so the inner working
			// set stays interval-sized while all state remains live.
			for i := 0; i < n; i++ {
				switch i % 3 {
				case 0:
					b.Sin(st[i], st[i])
				case 1:
					b.Exp(st[i], st[i])
				default:
					b.Sqrt(st[i], st[i])
				}
				for o := 1; o < p.ops; o++ {
					b.FFMA(st[i], st[i], x, st[i])
				}
			}
			b.StGlobal(ptr, st[0], isa.MemAccess{Pattern: isa.PatCoalesced, Region: 1, FootprintB: p.fp})
			b.IAddImm(ptr, ptr, 4)
		})
		return b.MustBuild()
	}
}

// sharedParams describes a shared-memory cooperative kernel (reduction,
// scan, lud, nw): shared loads/stores with barrier phases.
type sharedParams struct {
	iters  int
	stages int // barrier-separated stages per iteration
	fp     int64
}

func buildShared(name string, p sharedParams) func(int) *isa.Program {
	return func(unroll int) *isa.Program {
		if unroll < 1 {
			unroll = 1
		}
		b := isa.NewBuilder(name)
		v := b.RegN(2 * unroll)
		ptr := b.Reg()
		b.IMovImm(ptr, 0)
		for _, r := range v {
			b.IMovImm(r, 1)
		}
		b.Loop(p.iters, func() {
			b.LdGlobal(v[0], ptr, isa.MemAccess{Pattern: isa.PatCoalesced, Region: 0, FootprintB: p.fp})
			b.StShared(ptr, v[0], isa.MemAccess{Pattern: isa.PatCoalesced, Region: 1, FootprintB: 48 << 10})
			for s := 0; s < p.stages; s++ {
				b.Bar()
				for u := 0; u < unroll; u++ {
					b.LdShared(v[2*u], ptr, isa.MemAccess{Pattern: isa.PatCoalesced, Region: 1, FootprintB: 48 << 10})
					b.FAdd(v[2*u+1], v[2*u+1], v[2*u])
					b.StShared(ptr, v[2*u+1], isa.MemAccess{Pattern: isa.PatCoalesced, Region: 1, FootprintB: 48 << 10})
				}
			}
			b.Bar()
			b.StGlobal(ptr, v[1], isa.MemAccess{Pattern: isa.PatCoalesced, Region: 2, FootprintB: p.fp})
			b.IAddImm(ptr, ptr, 4)
		})
		return b.MustBuild()
	}
}

// stridedParams describes column-major / transpose-like kernels with poor
// coalescing.
type stridedParams struct {
	iters   int
	stride  int32
	fp      int64
	compute int
}

func buildStrided(name string, p stridedParams) func(int) *isa.Program {
	sp := streamParams{iters: p.iters, fp: p.fp, pattern: isa.PatStrided, stride: p.stride, compute: p.compute}
	return buildStream(name, sp)
}
