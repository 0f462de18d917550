// Package bitvec implements the fixed-capacity bit vectors used throughout
// LTRF: PREFETCH working-set vectors, liveness vectors, and valid-bit vectors
// are all 256-bit vectors indexed by architectural register number (§3.2,
// Figure 7 of the paper).
package bitvec

import (
	"fmt"
	"math/bits"
	"strings"
)

// Words is the number of 64-bit words backing a Vector.
const Words = 4

// Bits is the capacity of a Vector in bits. It equals the maximum number of
// architectural registers the CUDA compiler can allocate to a thread (256),
// which the paper uses as the PREFETCH bit-vector width.
const Bits = Words * 64

// Vector is a fixed 256-bit vector. The zero value is the empty vector.
// Vector is a value type: assignment copies, == compares contents.
type Vector [Words]uint64

// New returns a vector with the given bit positions set.
func New(positions ...int) Vector {
	var v Vector
	for _, p := range positions {
		v.Set(p)
	}
	return v
}

// Set sets bit i. It panics if i is out of range. The word index's own
// bounds check is the range check, which keeps Set, Clear and Test small
// enough to inline into the simulator's per-operand paths.
func (v *Vector) Set(i int) {
	v[i>>6] |= 1 << uint(i&63)
}

// Clear clears bit i. It panics if i is out of range.
func (v *Vector) Clear(i int) {
	v[i>>6] &^= 1 << uint(i&63)
}

// Test reports whether bit i is set. It panics if i is out of range.
func (v Vector) Test(i int) bool {
	return v[i>>6]&(1<<uint(i&63)) != 0
}

// Count returns the number of set bits (the register working-set size).
func (v Vector) Count() int {
	n := 0
	for _, w := range v {
		n += bits.OnesCount64(w)
	}
	return n
}

// IsEmpty reports whether no bits are set.
func (v Vector) IsEmpty() bool {
	return v == Vector{}
}

// Union returns v | o.
func (v Vector) Union(o Vector) Vector {
	var r Vector
	for i := range v {
		r[i] = v[i] | o[i]
	}
	return r
}

// Intersect returns v & o.
func (v Vector) Intersect(o Vector) Vector {
	var r Vector
	for i := range v {
		r[i] = v[i] & o[i]
	}
	return r
}

// Diff returns v &^ o (bits in v that are not in o).
func (v Vector) Diff(o Vector) Vector {
	var r Vector
	for i := range v {
		r[i] = v[i] &^ o[i]
	}
	return r
}

// Contains reports whether every bit of o is also set in v.
func (v Vector) Contains(o Vector) bool {
	for i := range v {
		if o[i]&^v[i] != 0 {
			return false
		}
	}
	return true
}

// Overlaps reports whether v and o share any set bit.
func (v Vector) Overlaps(o Vector) bool {
	for i := range v {
		if v[i]&o[i] != 0 {
			return true
		}
	}
	return false
}

// Bit positions in ascending order.
func (v Vector) Bits() []int {
	out := make([]int, 0, v.Count())
	for wi, w := range v {
		for w != 0 {
			b := bits.TrailingZeros64(w)
			out = append(out, wi*64+b)
			w &^= 1 << uint(b)
		}
	}
	return out
}

// ForEach calls fn for each set bit in ascending order.
func (v Vector) ForEach(fn func(i int)) {
	for wi, w := range v {
		for w != 0 {
			b := bits.TrailingZeros64(w)
			fn(wi*64 + b)
			w &^= 1 << uint(b)
		}
	}
}

// String renders the set bits as "{1, 4, 7}".
func (v Vector) String() string {
	var sb strings.Builder
	sb.WriteByte('{')
	first := true
	v.ForEach(func(i int) {
		if !first {
			sb.WriteString(", ")
		}
		first = false
		fmt.Fprintf(&sb, "%d", i)
	})
	sb.WriteByte('}')
	return sb.String()
}
