// Package cfg builds the control-flow graph of an isa.Program: basic blocks
// split at branches, exits and function calls, their successor and
// predecessor edges, block lookup by instruction, and the (reverse)
// postorder traversals dataflow analyses iterate in. Liveness analysis,
// register allocation and register-interval formation all work on this
// graph; interval formation (internal/core) runs its two passes directly
// over the blocks (§3.3) and starts afresh at the blocks marked as call
// boundaries.
package cfg

import (
	"fmt"
	"sort"
	"strings"

	"ltrf/internal/isa"
)

// Block is a basic block: a maximal single-entry single-exit straight-line
// instruction range [Start, End) of the program.
type Block struct {
	ID    int
	Start int // index of the first instruction
	End   int // one past the last instruction

	Succs []*Block
	Preds []*Block

	// CallBoundary marks blocks that begin with OpCall or immediately
	// follow OpRet; register-interval formation starts fresh intervals at
	// these blocks ("we also split the basic blocks at function calls",
	// §3.3).
	CallBoundary bool

	graph *Graph
}

// Len returns the number of instructions in the block.
func (b *Block) Len() int { return b.End - b.Start }

// Instrs returns the block's instruction slice (a view into the program).
func (b *Block) Instrs() []isa.Instr {
	return b.graph.Prog.Instrs[b.Start:b.End]
}

// Instr returns a pointer to the i-th instruction of the block.
func (b *Block) Instr(i int) *isa.Instr {
	return &b.graph.Prog.Instrs[b.Start+i]
}

// Terminator returns the last instruction of the block.
func (b *Block) Terminator() *isa.Instr {
	return &b.graph.Prog.Instrs[b.End-1]
}

func (b *Block) String() string {
	return fmt.Sprintf("B%d[%d:%d)", b.ID, b.Start, b.End)
}

// Graph is the control-flow graph of a program. Blocks[0] is the entry.
type Graph struct {
	Prog   *isa.Program
	Blocks []*Block
	Entry  *Block

	blockAt []int // instruction index -> block ID
}

// BlockOf returns the block containing instruction index idx.
func (g *Graph) BlockOf(idx int) *Block {
	if idx < 0 || idx >= len(g.blockAt) {
		return nil
	}
	return g.Blocks[g.blockAt[idx]]
}

// Build constructs the CFG of p. The program must validate.
func Build(p *isa.Program) (*Graph, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	n := len(p.Instrs)

	// Mark leaders.
	leader := make([]bool, n)
	leader[0] = true
	for i := range p.Instrs {
		in := &p.Instrs[i]
		switch {
		case in.Op == isa.OpBra || in.Op == isa.OpBraCond:
			leader[in.Target] = true
			if i+1 < n {
				leader[i+1] = true
			}
		case in.Op == isa.OpExit:
			if i+1 < n {
				leader[i+1] = true
			}
		case in.Op == isa.OpCall:
			leader[i] = true
		case in.Op == isa.OpRet:
			if i+1 < n {
				leader[i+1] = true
			}
		}
	}

	g := &Graph{Prog: p, blockAt: make([]int, n)}
	for i := 0; i < n; {
		j := i + 1
		for j < n && !leader[j] {
			j++
		}
		b := &Block{ID: len(g.Blocks), Start: i, End: j, graph: g}
		g.Blocks = append(g.Blocks, b)
		for k := i; k < j; k++ {
			g.blockAt[k] = b.ID
		}
		i = j
	}
	g.Entry = g.Blocks[0]

	// Edges.
	for _, b := range g.Blocks {
		t := b.Terminator()
		switch t.Op {
		case isa.OpBra:
			g.addEdge(b, g.BlockOf(t.Target))
		case isa.OpBraCond:
			g.addEdge(b, g.BlockOf(t.Target))
			if b.End < n {
				g.addEdge(b, g.Blocks[g.blockAt[b.End]])
			}
		case isa.OpExit:
			// no successors
		default:
			if b.End < n {
				g.addEdge(b, g.Blocks[g.blockAt[b.End]])
			}
		}
	}

	// Call boundaries.
	for _, b := range g.Blocks {
		first := &p.Instrs[b.Start]
		if first.Op == isa.OpCall {
			b.CallBoundary = true
		}
		if b.Start > 0 && p.Instrs[b.Start-1].Op == isa.OpRet {
			b.CallBoundary = true
		}
	}
	return g, nil
}

func (g *Graph) addEdge(from, to *Block) {
	for _, s := range from.Succs {
		if s == to {
			return
		}
	}
	from.Succs = append(from.Succs, to)
	to.Preds = append(to.Preds, from)
}

// ReversePostorder returns the blocks reachable from the entry in reverse
// postorder (the canonical order for forward dataflow problems).
func (g *Graph) ReversePostorder() []*Block {
	seen := make([]bool, len(g.Blocks))
	var post []*Block
	var dfs func(b *Block)
	dfs = func(b *Block) {
		seen[b.ID] = true
		for _, s := range b.Succs {
			if !seen[s.ID] {
				dfs(s)
			}
		}
		post = append(post, b)
	}
	dfs(g.Entry)
	for i, j := 0, len(post)-1; i < j; i, j = i+1, j-1 {
		post[i], post[j] = post[j], post[i]
	}
	return post
}

// Postorder returns reachable blocks in postorder.
func (g *Graph) Postorder() []*Block {
	rpo := g.ReversePostorder()
	for i, j := 0, len(rpo)-1; i < j; i, j = i+1, j-1 {
		rpo[i], rpo[j] = rpo[j], rpo[i]
	}
	return rpo
}

// String renders the graph structure for debugging.
func (g *Graph) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "cfg %s: %d blocks\n", g.Prog.Name, len(g.Blocks))
	for _, b := range g.Blocks {
		succs := make([]string, len(b.Succs))
		for i, s := range b.Succs {
			succs[i] = fmt.Sprintf("B%d", s.ID)
		}
		sort.Strings(succs)
		flags := ""
		if b.CallBoundary {
			flags = " call-boundary"
		}
		fmt.Fprintf(&sb, "  %s -> [%s]%s\n", b, strings.Join(succs, " "), flags)
	}
	return sb.String()
}
