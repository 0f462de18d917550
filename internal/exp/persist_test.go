package exp

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	_ "ltrf/internal/faultinject"
	"ltrf/internal/sim"
	"ltrf/internal/store"
)

// openTestStore opens a store at dir with the engine's live schema version,
// failing the test on error.
func openTestStore(t *testing.T, dir string) *store.Store {
	t.Helper()
	s, err := store.Open(dir, store.Options{Version: StoreVersion()})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// quickPoint is a cheap deterministic point for store round-trip tests.
func quickPoint() Point {
	o := Options{Quick: true}
	return o.point(sim.DesignLTRF, 1, 1.0, "vectoradd")
}

// TestEngineStoreRestartServesWithoutResim is the crash-restart criterion:
// a second engine on the same directory (a "restarted server") serves the
// point from disk — zero simulations — with a byte-identical result.
func TestEngineStoreRestartServesWithoutResim(t *testing.T) {
	dir := t.TempDir()
	p := quickPoint()

	e1 := NewEngineWithStore(openTestStore(t, dir))
	r1, err := e1.Eval(context.Background(), p)
	if err != nil {
		t.Fatal(err)
	}
	if e1.Sims() != 1 || e1.StoreHits() != 0 {
		t.Fatalf("cold eval: sims=%d hits=%d, want 1/0", e1.Sims(), e1.StoreHits())
	}

	// "Restart": fresh engine, fresh store handle, same directory.
	e2 := NewEngineWithStore(openTestStore(t, dir))
	r2, err := e2.Eval(context.Background(), p)
	if err != nil {
		t.Fatal(err)
	}
	if e2.Sims() != 0 {
		t.Errorf("restarted engine re-simulated (%d sims), want disk hit", e2.Sims())
	}
	if e2.StoreHits() != 1 {
		t.Errorf("restarted engine store hits = %d, want 1", e2.StoreHits())
	}
	if !reflect.DeepEqual(r1.Stats, r2.Stats) {
		t.Errorf("restored stats differ from computed:\n got %+v\nwant %+v", r2.Stats, r1.Stats)
	}
	if r1.Kernel != r2.Kernel || r1.Demand != r2.Demand || r1.Capacity != r2.Capacity {
		t.Errorf("restored kernel/demand/capacity differ: got (%+v,%d,%d) want (%+v,%d,%d)",
			r2.Kernel, r2.Demand, r2.Capacity, r1.Kernel, r1.Demand, r1.Capacity)
	}
}

// TestEngineStoreVersionBump asserts a schema-version change makes old
// entries unreachable (recompute) instead of wrongly decoded.
func TestEngineStoreVersionBump(t *testing.T) {
	dir := t.TempDir()
	p := quickPoint()

	e1 := NewEngineWithStore(openTestStore(t, dir))
	if _, err := e1.Eval(context.Background(), p); err != nil {
		t.Fatal(err)
	}

	s2, err := store.Open(dir, store.Options{Version: "ltrf-exp/v999"})
	if err != nil {
		t.Fatal(err)
	}
	e2 := NewEngineWithStore(s2)
	if _, err := e2.Eval(context.Background(), p); err != nil {
		t.Fatal(err)
	}
	if e2.Sims() != 1 {
		t.Errorf("version-bumped engine sims = %d, want 1 (recompute)", e2.Sims())
	}
}

// TestEngineStoreCorruptionRecovers flips bytes in the persisted record and
// asserts the restarted engine quarantines it, recomputes, and heals the
// store — the next restart hits disk again.
func TestEngineStoreCorruptionRecovers(t *testing.T) {
	dir := t.TempDir()
	p := quickPoint()

	e1 := NewEngineWithStore(openTestStore(t, dir))
	want, err := e1.Eval(context.Background(), p)
	if err != nil {
		t.Fatal(err)
	}

	path := e1.Store().Path(p.canon().storeKey())
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-2] ^= 0xff
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	s2 := openTestStore(t, dir)
	e2 := NewEngineWithStore(s2)
	got, err := e2.Eval(context.Background(), p)
	if err != nil {
		t.Fatal(err)
	}
	if e2.Sims() != 1 {
		t.Errorf("corrupt entry not recomputed: sims=%d, want 1", e2.Sims())
	}
	if s2.Quarantined() != 1 {
		t.Errorf("quarantined = %d, want 1", s2.Quarantined())
	}
	if !reflect.DeepEqual(got.Stats, want.Stats) {
		t.Errorf("recomputed stats differ: got %+v want %+v", got.Stats, want.Stats)
	}
	if ents, err := os.ReadDir(filepath.Join(dir, "quarantine")); err != nil || len(ents) != 1 {
		t.Errorf("quarantine dir entries = %v (err %v), want exactly 1", ents, err)
	}

	// Healed: a third engine serves from the rewritten record.
	e3 := NewEngineWithStore(openTestStore(t, dir))
	if _, err := e3.Eval(context.Background(), p); err != nil {
		t.Fatal(err)
	}
	if e3.Sims() != 0 {
		t.Errorf("store not healed after recompute: sims=%d, want 0", e3.Sims())
	}
}

// TestEngineStoreWriteFailureDegrades asserts a dead disk (persistent
// ENOSPC) degrades the engine to compute-only: evals still succeed, the
// failure is counted, and there is no retry storm.
func TestEngineStoreWriteFailureDegrades(t *testing.T) {
	s, err := store.Open(t.TempDir(), store.Options{
		Version:  StoreVersion(),
		Injector: &store.Faults{OnWrite: store.ENOSPCAlways()},
	})
	if err != nil {
		t.Fatal(err)
	}
	e := NewEngineWithStore(s)
	if _, err := e.Eval(context.Background(), quickPoint()); err != nil {
		t.Fatalf("eval must succeed when only persistence fails: %v", err)
	}
	if e.StoreErrors() == 0 {
		t.Error("store write failure not counted")
	}
	if s.Retries() != 0 {
		t.Errorf("ENOSPC retried %d times, want 0 (not transient)", s.Retries())
	}
}

// TestEngineCancellationPrompt asserts Eval returns the context error
// promptly when cancelled mid-simulation, instead of running the point to
// completion first. The hung design sleeps on every operand read, so an
// uncancelled run takes many seconds; a run that honours the deadline
// returns within one cancel-poll window.
func TestEngineCancellationPrompt(t *testing.T) {
	e := NewEngine()
	p := Point{Design: sim.Design("fault-hang"), Tech: 1, LatencyX: 1,
		Workload: "vectoradd", Unroll: 4, Budget: 100_000}

	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := e.Eval(ctx, p)
	elapsed := time.Since(start)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want DeadlineExceeded", err)
	}
	// The cancel poll runs every 1024 simulator passes; with the hung
	// design's per-read sleep one window is a few hundred ms. 3s catches
	// only run-to-completion bugs (an uncancelled run takes far longer).
	if elapsed > 3*time.Second {
		t.Errorf("cancellation took %v, want prompt return", elapsed)
	}
}

// TestEngineCancelledEvalNotMemoized asserts a cancellation is not sticky:
// the same point evaluated again under a live context succeeds.
func TestEngineCancelledEvalNotMemoized(t *testing.T) {
	e := NewEngine()
	p := quickPoint()

	ctx, cancel := context.WithCancel(context.Background())
	cancel() // already dead
	if _, err := e.Eval(ctx, p); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want Canceled", err)
	}
	if _, err := e.Eval(context.Background(), p); err != nil {
		t.Fatalf("point poisoned by earlier cancellation: %v", err)
	}
}

// TestEnginePanicIsolation asserts a panicking design surfaces as a typed
// PanicError for that point only — the engine keeps serving others — and
// is counted as a failure.
func TestEnginePanicIsolation(t *testing.T) {
	e := NewEngine()
	bad := Point{Design: sim.Design("fault-panic"), Tech: 1, LatencyX: 1,
		Workload: "vectoradd", Unroll: 4, Budget: 2_000}

	_, err := e.Eval(context.Background(), bad)
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %v (%T), want *PanicError", err, err)
	}
	if pe.Value == "" || len(pe.Stack) == 0 {
		t.Errorf("PanicError missing value/stack: %+v", pe)
	}
	if e.Failures() != 1 {
		t.Errorf("failures = %d, want 1", e.Failures())
	}
	if e.FirstError() == nil {
		t.Error("FirstError() = nil after a panic")
	}

	// Isolation: a healthy point on the same engine still evaluates.
	if _, err := e.Eval(context.Background(), quickPoint()); err != nil {
		t.Fatalf("healthy point failed after panic: %v", err)
	}
}

// TestGoldenByteIdenticalWithStore asserts the store changes nothing about
// rendered output: figure9 quick tables are byte-identical across (a) a
// memory-only engine, (b) a cold store-backed engine, and (c) a fresh
// engine reading the now-warm store — the decode path.
func TestGoldenByteIdenticalWithStore(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	run := func(eng *Engine) string {
		t.Helper()
		tab, err := Figure9(Options{Quick: true, Workloads: []string{"sgemm", "btree"}, Engine: eng})
		if err != nil {
			t.Fatal(err)
		}
		return tab.String()
	}

	dir := t.TempDir()
	memory := run(NewEngine())
	cold := run(NewEngineWithStore(openTestStore(t, dir)))
	warmEng := NewEngineWithStore(openTestStore(t, dir))
	warm := run(warmEng)

	if memory != cold {
		t.Errorf("store-backed output differs from memory-only:\n--- memory ---\n%s\n--- store ---\n%s", memory, cold)
	}
	if memory != warm {
		t.Errorf("store-decoded output differs from computed:\n--- memory ---\n%s\n--- warm ---\n%s", memory, warm)
	}
	if warmEng.Sims() != 0 {
		t.Errorf("warm store run re-simulated %d points, want 0", warmEng.Sims())
	}
}

// fillLeaves sets every leaf field under v to a distinct non-zero value:
// ints alternate in sign, floats are fractional and alternate in sign,
// bools are true, a string is as long as its position. It walks v itself
// rather than trusting the codec's layout, so a field the codec skips
// keeps its value here and makes the round trip differ.
func fillLeaves(v reflect.Value, n *int) {
	for i := range v.NumField() {
		f := v.Field(i)
		*n++
		sign := int64(1 - 2*(*n%2)) // -1, +1, -1, ...
		switch f.Kind() {
		case reflect.Struct:
			fillLeaves(f, n)
		case reflect.Int, reflect.Int64:
			f.SetInt(sign * int64(*n) * 1_000_003)
		case reflect.Float64:
			f.SetFloat(float64(sign) * (float64(*n) + 0.3125))
		case reflect.Bool:
			f.SetBool(true)
		case reflect.String:
			f.SetString(strings.Repeat("k", *n))
		default:
			panic("fillLeaves: unhandled kind " + f.Kind().String())
		}
	}
}

func storedOf(res *sim.Result) storedResult {
	return storedResult{Stats: res.Stats, Demand: res.Demand, Capacity: res.Capacity, Kernel: res.Kernel}
}

// filledResult is a Result whose every stored field holds a distinct
// non-zero value (see fillLeaves), with Cycles positive as decodeResult
// requires.
func filledResult() *sim.Result {
	var sr storedResult
	n := 0
	fillLeaves(reflect.ValueOf(&sr).Elem(), &n)
	sr.Stats.Cycles = 1 << 40
	return &sim.Result{Stats: sr.Stats, Demand: sr.Demand, Capacity: sr.Capacity, Kernel: sr.Kernel}
}

// reflectEncode is the payload format written out by a reflection walk of
// its own over v — the test oracle for the offset codec (layout.encode).
func reflectEncode(buf []byte, v reflect.Value) []byte {
	for i := range v.NumField() {
		f := v.Field(i)
		switch f.Kind() {
		case reflect.Struct:
			buf = reflectEncode(buf, f)
		case reflect.Int, reflect.Int64:
			buf = binary.LittleEndian.AppendUint64(buf, uint64(f.Int()))
		case reflect.Float64:
			buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(f.Float()))
		case reflect.Bool:
			b := byte(0)
			if f.Bool() {
				b = 1
			}
			buf = append(buf, b)
		case reflect.String:
			buf = binary.LittleEndian.AppendUint64(buf, uint64(f.Len()))
			buf = append(buf, f.String()...)
		default:
			panic("reflectEncode: unhandled kind " + f.Kind().String())
		}
	}
	return buf
}

// reflectDecode is the oracle for layout.decode: it fills v (addressable)
// from data by a reflection walk and returns the bytes it did not consume.
func reflectDecode(data []byte, v reflect.Value) ([]byte, error) {
	for i := range v.NumField() {
		f := v.Field(i)
		if f.Kind() == reflect.Struct {
			var err error
			if data, err = reflectDecode(data, f); err != nil {
				return nil, err
			}
			continue
		}
		if f.Kind() == reflect.Bool {
			if len(data) < 1 || data[0] > 1 {
				return nil, errors.New("bad bool")
			}
			f.SetBool(data[0] == 1)
			data = data[1:]
			continue
		}
		if len(data) < 8 {
			return nil, errShortPayload
		}
		u := binary.LittleEndian.Uint64(data)
		data = data[8:]
		switch f.Kind() {
		case reflect.Int, reflect.Int64:
			f.SetInt(int64(u))
		case reflect.Float64:
			f.SetFloat(math.Float64frombits(u))
		case reflect.String:
			if u > uint64(len(data)) {
				return nil, errors.New("bad string length")
			}
			f.SetString(string(data[:u]))
			data = data[u:]
		default:
			panic("reflectDecode: unhandled kind " + f.Kind().String())
		}
	}
	return data, nil
}

// oracleDecode decodes a whole payload with the reflective oracle; ok is
// false when the oracle rejects it.
func oracleDecode(data []byte) (sr storedResult, ok bool) {
	rest, err := reflectDecode(data, reflect.ValueOf(&sr).Elem())
	return sr, err == nil && len(rest) == 0 && sr.Stats.Cycles > 0
}

// TestStoredResultRoundTripsEveryField encodes a storedResult whose every
// leaf holds a distinct non-zero value and requires the codec to write the
// reflective oracle's bytes and the decode to equal the input.
func TestStoredResultRoundTripsEveryField(t *testing.T) {
	want := filledResult()
	data := encodeResult(want)
	sr := storedOf(want)
	if oracle := reflectEncode(nil, reflect.ValueOf(sr)); !bytes.Equal(data, oracle) {
		t.Fatalf("codec bytes differ from the reflective oracle:\n got %x\nwant %x", data, oracle)
	}
	got, err := decodeResult(quickPoint(), data)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(storedOf(got), sr) {
		t.Errorf("round trip differs:\n got %+v\nwant %+v", storedOf(got), sr)
	}
	if n := resultLayout.fixed + len(want.Kernel); len(data) != n {
		t.Errorf("payload is %d bytes, layout says %d", len(data), n)
	}
}

// The compatibility fixture: a payload the reflective encoder wrote for
// quickPoint() under storeVersionV2, before the codec moved to field
// offsets. Stores written then must keep hitting.
const (
	storeVersionV2      = "ltrf-exp/v2/5116e192"
	storedResultV2Path  = "testdata/stored_result_quick_ltrf_vectoradd.bin"
	storedResultV2PtKey = "design=LTRF;tech=1;latx=1;wl=vectoradd;unroll=3;budget=12000;rpi=0;aw=0"
)

// TestStoredResultReadsRecordedPayload decodes the recorded payload and
// requires a Result DeepEqual to a fresh evaluation of the same point, at
// an unchanged StoreVersion and store key.
func TestStoredResultReadsRecordedPayload(t *testing.T) {
	if v := StoreVersion(); v != storeVersionV2 {
		t.Fatalf("StoreVersion() = %q, want %q: existing stores would miss", v, storeVersionV2)
	}
	p := quickPoint()
	if k := p.canon().storeKey(); k != storedResultV2PtKey {
		t.Fatalf("store key = %q, want %q", k, storedResultV2PtKey)
	}
	data, err := os.ReadFile(storedResultV2Path)
	if err != nil {
		t.Fatal(err)
	}
	got, err := decodeResult(p, data)
	if err != nil {
		t.Fatal(err)
	}
	want, err := NewEngine().Eval(context.Background(), p)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("recorded payload decodes to\n%+v\nwant a fresh evaluation's\n%+v", got, want)
	}
	if again := encodeResult(got); !bytes.Equal(again, data) {
		t.Errorf("recorded payload re-encodes differently:\n got %x\nwant %x", again, data)
	}

	// Stored under its key, the payload serves the point with no simulation.
	st := openTestStore(t, t.TempDir())
	if err := st.Put(storedResultV2PtKey, data); err != nil {
		t.Fatal(err)
	}
	eng := NewEngineWithStore(st)
	if _, err := eng.Eval(context.Background(), p); err != nil {
		t.Fatal(err)
	}
	if eng.Sims() != 0 || eng.StoreHits() != 1 {
		t.Errorf("recorded entry: sims=%d hits=%d, want a store hit (0/1)", eng.Sims(), eng.StoreHits())
	}
}

// TestStoredResultRejectsBadLength asserts that a payload one byte short,
// one byte long or empty is a decode error, and that the engine answers
// such an entry by recomputing and overwriting it.
func TestStoredResultRejectsBadLength(t *testing.T) {
	p := quickPoint()
	res, err := NewEngine().Eval(context.Background(), p)
	if err != nil {
		t.Fatal(err)
	}
	good := encodeResult(res)
	for name, data := range map[string][]byte{
		"truncated":  good[:len(good)-1],
		"extra byte": append(append([]byte(nil), good...), 0),
		"empty":      nil,
	} {
		t.Run(name, func(t *testing.T) {
			if _, err := decodeResult(p, data); err == nil {
				t.Fatal("decode accepted a payload of the wrong length")
			}
			dir := t.TempDir()
			if err := openTestStore(t, dir).Put(p.canon().storeKey(), data); err != nil {
				t.Fatal(err)
			}
			e := NewEngineWithStore(openTestStore(t, dir))
			if _, err := e.Eval(context.Background(), p); err != nil {
				t.Fatal(err)
			}
			if e.Sims() != 1 || e.StoreHits() != 0 {
				t.Errorf("bad payload: sims=%d hits=%d, want a recompute (1/0)", e.Sims(), e.StoreHits())
			}
			healed := NewEngineWithStore(openTestStore(t, dir))
			if _, err := healed.Eval(context.Background(), p); err != nil {
				t.Fatal(err)
			}
			if healed.Sims() != 0 || healed.StoreHits() != 1 {
				t.Errorf("after the recompute: sims=%d hits=%d, want the overwritten entry (0/1)", healed.Sims(), healed.StoreHits())
			}
		})
	}
}

// TestLayoutFingerprintTracksFields asserts the fingerprint StoreVersion
// folds in depends on the field list: one added or retyped field changes
// it, while the type's own name does not.
func TestLayoutFingerprintTracksFields(t *testing.T) {
	type inner struct{ A, B int64 }
	type base struct {
		In inner
		X  float64
		S  string
	}
	type sameShape struct {
		In inner
		X  float64
		S  string
	}
	type oneMore struct {
		In inner
		X  float64
		S  string
		Y  bool
	}
	type retyped struct {
		In inner
		X  int64
		S  string
	}
	fp := func(v any) string { return layoutOf(reflect.TypeOf(v)).fingerprint }
	if fp(base{}) != fp(sameShape{}) {
		t.Error("fingerprint depends on the type name, not only its fields")
	}
	if fp(base{}) == fp(oneMore{}) {
		t.Error("an added field left the fingerprint unchanged")
	}
	if fp(base{}) == fp(retyped{}) {
		t.Error("a retyped field left the fingerprint unchanged")
	}
	if !strings.HasSuffix(StoreVersion(), "/"+resultLayout.fingerprint) {
		t.Errorf("StoreVersion %q does not carry the layout fingerprint %q", StoreVersion(), resultLayout.fingerprint)
	}
}

// FuzzStoredResult feeds arbitrary bytes to decodeResult. It must never
// panic, it must accept exactly what the reflective oracle accepts and
// decode it to the same value, and a payload it accepts must re-encode to
// exactly the same bytes.
func FuzzStoredResult(f *testing.F) {
	p := quickPoint()
	f.Add(encodeResult(filledResult()))
	f.Add(encodeResult(&sim.Result{Stats: sim.Stats{Cycles: 1}}))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		res, err := decodeResult(p, data)
		want, ok := oracleDecode(data)
		if (err == nil) != ok {
			t.Fatalf("decode error %v, but the oracle accepts: %v", err, ok)
		}
		if err != nil {
			return
		}
		if got := storedOf(res); !reflect.DeepEqual(got, want) {
			t.Fatalf("decode differs from the oracle:\n got %+v\nwant %+v", got, want)
		}
		if again := encodeResult(res); !bytes.Equal(again, data) {
			t.Fatalf("accepted payload re-encodes differently:\n  in %x\n out %x", data, again)
		}
	})
}

// storeKeyFmt is storeKey's original fmt rendering, kept as the oracle the
// strconv version must match byte for byte: a key that drifts misses every
// entry an older build stored.
func storeKeyFmt(p Point) string {
	key := fmt.Sprintf("design=%s;tech=%d;latx=%g;wl=%s;unroll=%d;budget=%d;rpi=%d;aw=%d",
		p.Design.Name(), p.Tech, p.LatencyX, p.Workload, p.Unroll, p.Budget,
		p.RegsPerInterval, p.ActiveWarps)
	if p.Scheduler != "" {
		key += fmt.Sprintf(";sched=%s", p.Scheduler)
	}
	if p.Prefetch != "" {
		key += fmt.Sprintf(";pref=%s", p.Prefetch)
	}
	if p.CTAs != 0 {
		key += fmt.Sprintf(";ctas=%d", p.CTAs)
	}
	return key
}

// TestStoreKeyMatchesFmt compares storeKey with its fmt oracle over a grid
// that sets every optional axis, and over latency multipliers whose %g
// rendering switches between plain and exponent forms.
func TestStoreKeyMatchesFmt(t *testing.T) {
	for _, d := range []sim.Design{"", sim.DesignBL, sim.DesignLTRF} {
		for _, latX := range []float64{1, 6.3, 0.5, 1e-7, 1e21, 2.0 / 3} {
			for _, sched := range []sim.Scheduler{"", sim.SchedStatic} {
				for _, pref := range []string{"", "cta"} {
					for _, ctas := range []int{0, 2} {
						for _, knobs := range [][2]int{{0, 0}, {16, 8}} {
							p := Point{
								Design: d, Tech: 7, LatencyX: latX, Workload: "sgemm",
								Unroll: 4, Budget: 40000,
								RegsPerInterval: knobs[0], ActiveWarps: knobs[1],
								Scheduler: sched, Prefetch: pref, CTAs: ctas,
							}
							if got, want := p.storeKey(), storeKeyFmt(p); got != want {
								t.Fatalf("storeKey(%+v)\n got %q\nwant %q", p, got, want)
							}
						}
					}
				}
			}
		}
	}
}

// BenchmarkDecodeResult decodes one stored record into a Result: the
// payload codec and the Config rebuild, without the store read.
func BenchmarkDecodeResult(b *testing.B) {
	p := quickPoint()
	data := encodeResult(filledResult())
	b.ReportAllocs()
	for b.Loop() {
		if _, err := decodeResult(p, data); err != nil {
			b.Fatal(err)
		}
	}
}
