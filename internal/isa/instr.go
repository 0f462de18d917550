package isa

import (
	"fmt"
	"strings"

	"ltrf/internal/bitvec"
)

// MemSpace identifies the address space of a memory instruction.
type MemSpace uint8

const (
	SpaceGlobal MemSpace = iota
	SpaceShared
	SpaceLocal
	SpaceConst
)

func (s MemSpace) String() string {
	switch s {
	case SpaceGlobal:
		return "global"
	case SpaceShared:
		return "shared"
	case SpaceLocal:
		return "local"
	case SpaceConst:
		return "const"
	}
	return "invalid"
}

// AccessPattern describes how the 32 threads of a warp spread their addresses
// for one memory instruction. The timing simulator's coalescer turns the
// pattern into memory transactions; values are never computed (timing-directed
// execution).
type AccessPattern uint8

const (
	// PatCoalesced: all threads access consecutive words in one 128B line
	// per dynamic instance; the line advances with each execution.
	PatCoalesced AccessPattern = iota
	// PatStrided: threads access addresses StrideB bytes apart, touching
	// multiple lines per instance.
	PatStrided
	// PatRandom: threads scatter uniformly over the footprint.
	PatRandom
)

func (p AccessPattern) String() string {
	switch p {
	case PatCoalesced:
		return "coalesced"
	case PatStrided:
		return "strided"
	case PatRandom:
		return "random"
	}
	return "invalid"
}

// MemAccess carries the address-generation metadata of a memory instruction.
type MemAccess struct {
	Space      MemSpace
	Pattern    AccessPattern
	Region     uint8 // logical array; separates base addresses
	StrideB    int32 // per-thread stride for PatStrided
	FootprintB int64 // working-set size of the region in bytes
}

// Instr is a single IR instruction. The zero value is a nop.
type Instr struct {
	Op  Opcode
	Dst Reg    // destination register; RegNone if the opcode writes none
	Src [3]Reg // source registers, padded with RegNone

	Imm int64 // immediate (OpIMovImm, shift amounts, ...)

	// Control flow.
	Target    int     // branch target as an instruction index
	Trip      int     // >0: counted loop-closing branch taken Trip-1 times per entry
	TakenProb float64 // probabilistic branch (used when Trip == 0)

	Mem *MemAccess // non-nil for memory opcodes

	// PF is the PREFETCH working-set bit-vector (OpPrefetch only). The
	// paper encodes it either as a 256-bit trailer after an instruction
	// with an embedded marker bit, or after an explicit instruction (§3.2).
	PF *bitvec.Vector

	// DeadAfter marks source operands whose register is dead after this
	// instruction (the "dead operand bit" of [19], used by LTRF+ §3.2).
	// Filled in by the liveness pass.
	DeadAfter [3]bool
}

// Uses returns the source registers read by the instruction, in operand
// order. Only the operand slots defined by the opcode's arity are consulted,
// so zero-valued padding in unused slots is never misread as register R0;
// RegNone in a used slot (e.g. the optional predicate of a counted branch)
// is skipped.
func (in *Instr) Uses() []Reg {
	n := opTable[in.Op].nSrc
	out := make([]Reg, 0, n)
	for _, r := range in.Src[:n] {
		if r.Valid() {
			out = append(out, r)
		}
	}
	return out
}

// Defs returns the register written by the instruction, or nil. As with
// Uses, the opcode decides whether the Dst slot is meaningful.
func (in *Instr) Defs() []Reg {
	if opTable[in.Op].hasD && in.Dst.Valid() {
		return []Reg{in.Dst}
	}
	return nil
}

// Regs returns every register the instruction touches (defs then uses).
func (in *Instr) Regs() []Reg {
	return append(in.Defs(), in.Uses()...)
}

// String renders the instruction in a PTX-like syntax.
func (in *Instr) String() string {
	var sb strings.Builder
	sb.WriteString(in.Op.Name())
	var ops []string
	for _, d := range in.Defs() {
		ops = append(ops, d.String())
	}
	for _, s := range in.Uses() {
		ops = append(ops, s.String())
	}
	switch in.Op {
	case OpIMovImm:
		ops = append(ops, fmt.Sprintf("#%d", in.Imm))
	case OpBra:
		ops = append(ops, fmt.Sprintf("@%d", in.Target))
	case OpBraCond:
		if in.Trip > 0 {
			ops = append(ops, fmt.Sprintf("@%d trip=%d", in.Target, in.Trip))
		} else {
			ops = append(ops, fmt.Sprintf("@%d p=%.2f", in.Target, in.TakenProb))
		}
	case OpPrefetch:
		if in.PF != nil {
			ops = append(ops, in.PF.String())
		}
	}
	if in.Mem != nil {
		ops = append(ops, fmt.Sprintf("[%s.%s r%d]", in.Mem.Space, in.Mem.Pattern, in.Mem.Region))
	}
	if len(ops) > 0 {
		sb.WriteByte(' ')
		sb.WriteString(strings.Join(ops, ", "))
	}
	return sb.String()
}
