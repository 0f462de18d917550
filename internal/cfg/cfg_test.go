package cfg

import (
	"testing"
	"testing/quick"

	"ltrf/internal/isa"
)

// nestedLoops builds the paper's Figure 6 shape: two nested loops
//
//	A: outer loop header/body
//	B: inner loop header
//	C: inner loop latch -> back edge to B, exit to A's latch
func nestedLoops(t testing.TB) *isa.Program {
	t.Helper()
	b := isa.NewBuilder("nested")
	r := b.RegN(4)
	b.IMovImm(r[0], 0)
	b.Loop(3, func() { // A
		b.IAdd(r[1], r[0], r[0])
		b.Loop(4, func() { // B, C
			b.IMul(r[2], r[1], r[1])
			b.IAdd(r[3], r[2], r[0])
		})
	})
	return b.MustBuild()
}

func diamond(t testing.TB) *isa.Program {
	t.Helper()
	b := isa.NewBuilder("diamond")
	r := b.RegN(3)
	b.IMovImm(r[0], 1)
	b.SetPImm(r[2], r[0], 0)
	b.IfElse(r[2], 0.5,
		func() { b.IAddImm(r[1], r[0], 1) },
		func() { b.IAddImm(r[1], r[0], 2) },
	)
	b.IAdd(r[0], r[1], r[1])
	return b.MustBuild()
}

func mustBuild(t testing.TB, p *isa.Program) *Graph {
	t.Helper()
	g, err := Build(p)
	if err != nil {
		t.Fatalf("cfg.Build(%s): %v", p.Name, err)
	}
	return g
}

func TestBuildStraightLine(t *testing.T) {
	b := isa.NewBuilder("straight")
	r := b.RegN(2)
	b.IMovImm(r[0], 1)
	b.IAdd(r[1], r[0], r[0])
	g := mustBuild(t, b.MustBuild())
	if len(g.Blocks) != 1 {
		t.Fatalf("straight-line program should be 1 block, got %d:\n%s", len(g.Blocks), g)
	}
	if len(g.Entry.Succs) != 0 {
		t.Errorf("exit block has successors: %v", g.Entry.Succs)
	}
}

func TestBuildDiamond(t *testing.T) {
	g := mustBuild(t, diamond(t))
	// entry, then, else, join
	if len(g.Blocks) != 4 {
		t.Fatalf("diamond should have 4 blocks, got %d:\n%s", len(g.Blocks), g)
	}
	if len(g.Entry.Succs) != 2 {
		t.Fatalf("entry should branch two ways, got %v", g.Entry.Succs)
	}
	join := g.Blocks[3]
	if len(join.Preds) != 2 {
		t.Errorf("join should have 2 preds, got %d", len(join.Preds))
	}
}

func TestBlockOfCoversProgram(t *testing.T) {
	p := nestedLoops(t)
	g := mustBuild(t, p)
	for i := range p.Instrs {
		b := g.BlockOf(i)
		if b == nil || i < b.Start || i >= b.End {
			t.Fatalf("BlockOf(%d) = %v, not covering", i, b)
		}
	}
	if g.BlockOf(-1) != nil || g.BlockOf(len(p.Instrs)) != nil {
		t.Error("BlockOf out of range should return nil")
	}
}

func TestReducibility(t *testing.T) {
	for _, build := range []func(testing.TB) *isa.Program{nestedLoops, diamond} {
		p := build(t)
		g := mustBuild(t, p)
		if !reducible(g) {
			t.Errorf("%s: structured program must be reducible", p.Name)
		}
	}
}

func TestIrreducibleGraphDetected(t *testing.T) {
	// Hand-build the classic irreducible triangle:
	//   B0 -> B1, B0 -> B2, B1 -> B2, B2 -> B1 (two-entry cycle)
	p := &isa.Program{Name: "irreducible", Instrs: []isa.Instr{
		{Op: isa.OpBraCond, Src: [3]isa.Reg{0, isa.RegNone, isa.RegNone}, Target: 3, TakenProb: 0.5}, // B0
		{Op: isa.OpIAddImm, Dst: 1, Src: [3]isa.Reg{1, isa.RegNone, isa.RegNone}},                    // B1
		{Op: isa.OpBra, Target: 3}, // B1 -> B2
		{Op: isa.OpIAddImm, Dst: 2, Src: [3]isa.Reg{2, isa.RegNone, isa.RegNone}},                    // B2
		{Op: isa.OpBraCond, Src: [3]isa.Reg{0, isa.RegNone, isa.RegNone}, Target: 1, TakenProb: 0.5}, // B2 -> B1 / fall to exit
		{Op: isa.OpExit},
	}}
	g := mustBuild(t, p)
	if reducible(g) {
		t.Fatalf("two-entry cycle must be irreducible:\n%s", g)
	}
}

func TestCallBoundaries(t *testing.T) {
	b := isa.NewBuilder("call")
	r := b.RegN(2)
	b.IMovImm(r[0], 1)
	b.Call(func() { b.IAddImm(r[1], r[0], 3) })
	b.IAdd(r[0], r[1], r[1])
	g := mustBuild(t, b.MustBuild())
	var boundaries int
	for _, blk := range g.Blocks {
		if blk.CallBoundary {
			boundaries++
		}
	}
	if boundaries != 2 {
		t.Fatalf("expected 2 call-boundary blocks (call body, continuation), got %d:\n%s", boundaries, g)
	}
}

// Property: for random structured programs, (1) the CFG is reducible,
// (2) every edge is symmetric (succ/pred agree), (3) RPO starts at entry and
// covers all reachable blocks exactly once.
func TestQuickStructuredCFGInvariants(t *testing.T) {
	f := func(shape []uint8) bool {
		b := isa.NewBuilder("q")
		r := b.RegN(4)
		b.IMovImm(r[0], 0)
		for i, s := range shape {
			if i > 10 {
				break
			}
			switch s % 4 {
			case 0:
				b.Loop(int(s%5)+1, func() { b.IAdd(r[1], r[0], r[0]) })
			case 1:
				b.SetPImm(r[2], r[0], 1)
				b.If(r[2], 0.5, func() { b.IAddImm(r[1], r[1], 1) })
			case 2:
				b.SetPImm(r[3], r[1], 2)
				b.IfElse(r[3], 0.5,
					func() { b.IMov(r[0], r[1]) },
					func() { b.Loop(2, func() { b.IMov(r[1], r[0]) }) })
			case 3:
				b.Call(func() { b.IAddImm(r[1], r[0], 7) })
			}
		}
		p, err := b.Build()
		if err != nil {
			return false
		}
		g, err := Build(p)
		if err != nil {
			return false
		}
		if !reducible(g) {
			return false
		}
		for _, blk := range g.Blocks {
			for _, s := range blk.Succs {
				found := false
				for _, pr := range s.Preds {
					if pr == blk {
						found = true
					}
				}
				if !found {
					return false
				}
			}
		}
		rpo := g.ReversePostorder()
		if len(rpo) == 0 || rpo[0] != g.Entry {
			return false
		}
		seen := map[int]bool{}
		for _, blk := range rpo {
			if seen[blk.ID] {
				return false
			}
			seen[blk.ID] = true
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

// reducible reports whether every retreating edge of a depth-first search
// from the entry (an edge into a block still on the search stack) is a back
// edge, one whose target dominates its source: the Hecht–Ullman
// characterisation of a reducible flow graph. Dominance is the brute-force
// reachability definition, so the check shares no code with the graph
// builder beyond the edges it inspects.
func reducible(g *Graph) bool {
	seen := make([]bool, len(g.Blocks))
	onStack := make([]bool, len(g.Blocks))
	ok := true
	var dfs func(b *Block)
	dfs = func(b *Block) {
		seen[b.ID], onStack[b.ID] = true, true
		for _, s := range b.Succs {
			if onStack[s.ID] {
				ok = ok && bruteDominates(g, s, b)
			} else if !seen[s.ID] {
				dfs(s)
			}
		}
		onStack[b.ID] = false
	}
	dfs(g.Entry)
	return ok
}

// bruteDominates: a dominates b iff b is unreachable from entry when paths
// through a are forbidden (with a==b handled reflexively).
func bruteDominates(g *Graph, a, b *Block) bool {
	if a == b {
		return reachable(g, nil, b)
	}
	if !reachable(g, nil, b) {
		return false
	}
	return !reachable(g, a, b)
}

func reachable(g *Graph, avoid, target *Block) bool {
	if g.Entry == avoid {
		return false
	}
	seen := map[int]bool{g.Entry.ID: true}
	stack := []*Block{g.Entry}
	for len(stack) > 0 {
		b := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if b == target {
			return true
		}
		for _, s := range b.Succs {
			if s == avoid || seen[s.ID] {
				continue
			}
			seen[s.ID] = true
			stack = append(stack, s)
		}
	}
	return false
}
