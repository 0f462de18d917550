package memsys

import (
	"ltrf/internal/isa"
)

// LineB is the memory transaction granularity (128B, Table 3 line size).
const LineB = 128

// regionBase spreads logical arrays far apart in the physical address space.
func regionBase(region uint8) uint64 {
	return (uint64(region) + 1) << 32
}

// Transactions appends the 128B transaction addresses generated by one warp
// executing memory instruction metadata m for the iter-th time, and returns
// the extended slice. The count and spread depend on the access pattern:
// coalesced warps touch one line, strided warps
// touch ceil(32*stride/128) lines, random warps scatter over the footprint.
func Transactions(m *isa.MemAccess, warpID int, iter int64, buf []uint64) []uint64 {
	base := regionBase(m.Region)
	fp := m.FootprintB
	if fp < LineB {
		fp = LineB
	}
	wrap := uint64(fp) &^ (LineB - 1) // line-aligned footprint

	switch m.Pattern {
	case isa.PatCoalesced:
		// The warp streams through the region; each warp starts at its own
		// offset so warps cover disjoint portions like a grid-strided loop.
		off := (uint64(warpID)*64*LineB + uint64(iter)*LineB) % wrap
		return append(buf, base+off)

	case isa.PatStrided:
		stride := int64(m.StrideB)
		if stride <= 0 {
			stride = LineB
		}
		start := (uint64(warpID)*64*LineB + uint64(iter)*uint64(32*stride)) % wrap
		firstLine := start / LineB
		lastLine := (start + uint64(31*stride)) / LineB
		n := lastLine - firstLine + 1
		if n > 32 {
			n = 32
		}
		for i := uint64(0); i < n; i++ {
			off := ((firstLine + i) * LineB) % wrap
			buf = append(buf, base+off)
		}
		return buf

	case isa.PatRandom:
		// Divergent access: several scattered transactions per warp.
		const divergentTrans = 8
		rng := uint64(warpID)*0x9E3779B97F4A7C15 ^ uint64(iter)*0xBF58476D1CE4E5B9 ^ uint64(m.Region)<<56
		rng |= 1
		for i := 0; i < divergentTrans; i++ {
			rng ^= rng >> 12
			rng ^= rng << 25
			rng ^= rng >> 27
			off := (rng * 0x2545F4914F6CDD1D) % wrap
			off &^= LineB - 1
			buf = append(buf, base+off)
		}
		return buf
	}
	return append(buf, base)
}
