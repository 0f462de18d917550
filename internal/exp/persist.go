package exp

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"math"
	"reflect"
	"strconv"
	"unsafe"

	"ltrf/internal/sim"
)

// ResultSchemaVersion names the persisted-result schema. It is folded into
// every store entry's content address (see StoreVersion), so bumping it
// makes every old entry an unreachable miss instead of a wrongly-decoded
// hit. Layout changes need no bump: adding, removing, renaming, reordering
// or retyping a storedResult field changes the layout fingerprint, which
// StoreVersion folds in too. Bump it only when the meaning of a stored
// field changes while its layout stays put (a counter that starts counting
// something else, a unit change).
//
// v2: the payload moved from JSON to the binary layout of encodeResult.
const ResultSchemaVersion = 2

// StoreVersion is the version string engines pass to store.Open: schema
// revision plus the payload layout's fingerprint. Everything else that
// affects result bytes (design, tech point, budget, knob overrides) is
// already in the key itself.
func StoreVersion() string {
	return fmt.Sprintf("ltrf-exp/v%d/%s", ResultSchemaVersion, resultLayout.fingerprint)
}

// storeKey renders the canonical (post-canon) point as the store's
// user-level key. Field order is fixed and every field is explicit, so the
// key — and with it the content address — is total over Point. The key is
// built with strconv appends and must stay byte-identical to its original
// fmt rendering ("design=%s;tech=%d;latx=%g;..."; TestStoreKeyMatchesFmt
// keeps that rendering as the oracle): any drift misses every stored entry.
func (p Point) storeKey() string {
	b := make([]byte, 0, 128)
	b = append(b, "design="...)
	b = append(b, p.Design.Name()...)
	b = append(b, ";tech="...)
	b = strconv.AppendInt(b, int64(p.Tech), 10)
	b = append(b, ";latx="...)
	b = strconv.AppendFloat(b, p.LatencyX, 'g', -1, 64) // %g
	b = append(b, ";wl="...)
	b = append(b, p.Workload...)
	b = append(b, ";unroll="...)
	b = strconv.AppendInt(b, int64(p.Unroll), 10)
	b = append(b, ";budget="...)
	b = strconv.AppendInt(b, p.Budget, 10)
	b = append(b, ";rpi="...)
	b = strconv.AppendInt(b, int64(p.RegsPerInterval), 10)
	b = append(b, ";aw="...)
	b = strconv.AppendInt(b, int64(p.ActiveWarps), 10)
	// Appended only when non-default (post-canon), so every pre-axis store
	// address stays reachable without a schema bump.
	if p.Scheduler != "" {
		b = append(b, ";sched="...)
		b = append(b, p.Scheduler...)
	}
	if p.Prefetch != "" {
		b = append(b, ";pref="...)
		b = append(b, p.Prefetch...)
	}
	if p.CTAs != 0 {
		b = append(b, ";ctas="...)
		b = strconv.AppendInt(b, int64(p.CTAs), 10)
	}
	return string(b)
}

// storedResult is the persisted payload: the simulation's statistics and
// the compile-time scalars. sim.Config is deliberately NOT serialized — it
// embeds memtech.Params, whose derived latency fields are unexported and
// would silently zero through a serialization round-trip, corrupting energy
// accounting. Instead decodeResult rebuilds the Config from the Point
// through the exact code path evalUncached uses, so a rehydrated Result is
// field-for-field what a fresh simulation would have returned (float64
// values round-trip through their IEEE bits, keeping rendered tables
// byte-identical).
type storedResult struct {
	Stats    sim.Stats
	Demand   int
	Capacity int
	Kernel   string
}

// layout is the binary payload format of a struct type: its leaf fields in
// declaration order, nested structs (embedded ones included) walked
// depth-first, written back to back in little-endian — int and int64 as 8
// bytes, float64 as its IEEE bits, bool as one byte (0 or 1), string as an
// 8-byte length and then its bytes. A decoder must consume the payload
// exactly, so every payload has one decoding and every Result one encoding.
//
// The reflection walk runs once, at package initialisation: it records
// each leaf's byte offset from the root, and encode and decode then read
// and write the fields in place through those offsets.
type layout struct {
	leaves      []leaf
	fixed       int    // payload bytes excluding string contents
	fingerprint string // short hash of every leaf's field path and kind
}

type leaf struct {
	offset uintptr // byte offset of the field from the start of the root
	kind   reflect.Kind
}

var resultLayout = layoutOf(reflect.TypeOf(storedResult{}))

// layoutOf walks t's fields once. A field kind the format has no encoding
// for panics at package initialisation, so a Stats field of a new kind
// cannot be silently dropped from the store.
func layoutOf(t reflect.Type) *layout {
	l := &layout{}
	h := sha256.New()
	var walk func(t reflect.Type, offset uintptr, path string)
	walk = func(t reflect.Type, offset uintptr, path string) {
		for i := range t.NumField() {
			f := t.Field(i)
			off := offset + f.Offset
			p := path + f.Name
			if !f.IsExported() {
				panic(fmt.Sprintf("exp: stored field %s is unexported", p))
			}
			k := f.Type.Kind()
			switch k {
			case reflect.Struct:
				walk(f.Type, off, p+".")
				continue
			case reflect.Int, reflect.Int64, reflect.Float64, reflect.String:
				l.fixed += 8
			case reflect.Bool:
				l.fixed++
			default:
				panic(fmt.Sprintf("exp: stored field %s has unsupported kind %s", p, k))
			}
			fmt.Fprintf(h, "%s %s\n", p, k)
			l.leaves = append(l.leaves, leaf{offset: off, kind: k})
		}
	}
	walk(t, 0, "")
	l.fingerprint = hex.EncodeToString(h.Sum(nil)[:4])
	return l
}

// encode appends the payload of the value at root, which must point to a
// value of the type the layout was built from, to buf.
func (l *layout) encode(buf []byte, root unsafe.Pointer) []byte {
	for _, lf := range l.leaves {
		f := unsafe.Add(root, lf.offset)
		switch lf.kind {
		case reflect.Int:
			buf = binary.LittleEndian.AppendUint64(buf, uint64(*(*int)(f)))
		case reflect.Int64:
			buf = binary.LittleEndian.AppendUint64(buf, uint64(*(*int64)(f)))
		case reflect.Float64:
			buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(*(*float64)(f)))
		case reflect.Bool:
			b := byte(0)
			if *(*bool)(f) {
				b = 1
			}
			buf = append(buf, b)
		case reflect.String:
			s := *(*string)(f)
			buf = binary.LittleEndian.AppendUint64(buf, uint64(len(s)))
			buf = append(buf, s...)
		}
	}
	return buf
}

var errShortPayload = errors.New("short payload")

// decode fills the value at root, which must point to a value of the type
// the layout was built from, from data, which it must consume exactly.
func (l *layout) decode(data []byte, root unsafe.Pointer) error {
	for _, lf := range l.leaves {
		f := unsafe.Add(root, lf.offset)
		if lf.kind == reflect.Bool {
			if len(data) < 1 {
				return errShortPayload
			}
			if data[0] > 1 {
				return fmt.Errorf("bool byte %d", data[0])
			}
			*(*bool)(f) = data[0] == 1
			data = data[1:]
			continue
		}
		if len(data) < 8 {
			return errShortPayload
		}
		u := binary.LittleEndian.Uint64(data)
		data = data[8:]
		switch lf.kind {
		case reflect.Int:
			*(*int)(f) = int(int64(u))
		case reflect.Int64:
			*(*int64)(f) = int64(u)
		case reflect.Float64:
			*(*float64)(f) = math.Float64frombits(u)
		case reflect.String:
			if u > uint64(len(data)) {
				return fmt.Errorf("string length %d exceeds the %d bytes left", u, len(data))
			}
			*(*string)(f) = string(data[:u])
			data = data[u:]
		}
	}
	if len(data) != 0 {
		return fmt.Errorf("%d trailing bytes", len(data))
	}
	return nil
}

func encodeResult(res *sim.Result) []byte {
	sr := storedResult{
		Stats:    res.Stats,
		Demand:   res.Demand,
		Capacity: res.Capacity,
		Kernel:   res.Kernel,
	}
	return resultLayout.encode(make([]byte, 0, resultLayout.fixed+len(sr.Kernel)), unsafe.Pointer(&sr))
}

func decodeResult(p Point, data []byte) (*sim.Result, error) {
	var sr storedResult
	if err := resultLayout.decode(data, unsafe.Pointer(&sr)); err != nil {
		return nil, fmt.Errorf("exp: stored result for %s: %w", p.storeKey(), err)
	}
	// A checksum-valid entry can still be semantically impossible (e.g.
	// written by a buggy build at the same schema version); the cheapest
	// invariant — every completed simulation retires at least one cycle —
	// catches the obvious cases and downgrades them to a recompute.
	if sr.Stats.Cycles <= 0 {
		return nil, fmt.Errorf("exp: stored result for %s: implausible (Cycles=%d)", p.storeKey(), sr.Stats.Cycles)
	}
	c, err := p.config()
	if err != nil {
		return nil, err
	}
	return &sim.Result{
		Stats:    sr.Stats,
		Design:   p.Design,
		Config:   c,
		Kernel:   sr.Kernel,
		Demand:   sr.Demand,
		Capacity: sr.Capacity,
	}, nil
}
