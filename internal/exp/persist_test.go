package exp

import (
	"bytes"
	"context"
	"errors"
	"fmt"
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

// TestStoredResultRoundTripsEveryField encodes a storedResult whose every
// leaf holds a distinct non-zero value and requires the decode to equal it.
func TestStoredResultRoundTripsEveryField(t *testing.T) {
	want := filledResult()
	data := encodeResult(want)
	got, err := decodeResult(quickPoint(), data)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(storedOf(got), storedOf(want)) {
		t.Errorf("round trip differs:\n got %+v\nwant %+v", storedOf(got), storedOf(want))
	}
	if n := resultLayout.fixed + len(want.Kernel); len(data) != n {
		t.Errorf("payload is %d bytes, layout says %d", len(data), n)
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
// panic; a payload it accepts must re-encode to exactly the same bytes.
func FuzzStoredResult(f *testing.F) {
	p := quickPoint()
	f.Add(encodeResult(filledResult()))
	f.Add(encodeResult(&sim.Result{Stats: sim.Stats{Cycles: 1}}))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		res, err := decodeResult(p, data)
		if err != nil {
			return
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
