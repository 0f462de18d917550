package exp

import (
	"context"
	"errors"
	"fmt"
	"os"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"ltrf/internal/core"
	"ltrf/internal/isa"
	"ltrf/internal/memsys"
	"ltrf/internal/memtech"
	"ltrf/internal/sim"
	"ltrf/internal/store"
	"ltrf/internal/workloads"
)

// Point canonically keys one simulation of the evaluation: the design under
// test, the Table 2 technology point, the latency multiplier, the workload
// (and compiler unroll factor), the dynamic-instruction budget, and the
// Table 3 knobs the sensitivity figures vary. Two experiments that need the
// same point — e.g. the config-#1 BL baseline shared by Figures 3, 9, and
// 10 — simulate it once per process.
type Point struct {
	Design   sim.Design
	Tech     int // Table 2 config index (1-based)
	LatencyX float64
	Workload string
	Unroll   int
	Budget   int64 // dynamic-instruction budget (Options.budget)

	// Table 3 overrides for the sensitivity figures (0 = default).
	RegsPerInterval int // Figure 12
	ActiveWarps     int // Figure 13

	// Scheduler selects the warp-scheduler variant (empty = the two-level
	// default). pipesweep's scheduler-sensitivity rows set it.
	Scheduler sim.Scheduler

	// Prefetch selects the hardware prefetcher mode ("" = off; "stride",
	// "cta"); CTAs the resident thread blocks per SM (0 = the single-CTA
	// default). prefsweep's rows set both.
	Prefetch string
	CTAs     int
}

// point builds the canonical key for a simulation at the options' budget.
func (o Options) point(d sim.Design, tech int, latX float64, workload string) Point {
	return Point{
		Design:   d,
		Tech:     tech,
		LatencyX: latX,
		Workload: workload,
		Unroll:   workloads.UnrollMaxwell,
		Budget:   o.budget(),
	}
}

// config assembles the point's full simulator configuration — the single
// code path shared by fresh evaluation and store rehydration, so a
// rehydrated Result carries exactly the Config a fresh run would have.
func (p Point) config() (sim.Config, error) {
	tech, err := memtech.Config(p.Tech)
	if err != nil {
		return sim.Config{}, err
	}
	c := sim.DefaultConfig(p.Design)
	c.Tech = tech
	c.LatencyX = p.LatencyX
	if err := c.SetBudget(p.Budget); err != nil {
		return sim.Config{}, err
	}
	if p.RegsPerInterval != 0 {
		c.RegsPerInterval = p.RegsPerInterval
	}
	if p.ActiveWarps != 0 {
		c.ActiveWarps = p.ActiveWarps
	}
	c.Scheduler = p.Scheduler
	c.Mem.Prefetch.Mode = memsys.PrefetchMode(p.Prefetch)
	c.CTAsPerSM = p.CTAs
	return c, nil
}

// Validate reports whether the point describes a simulation the engine can
// run: the configuration it builds — budget included (sim.Config.SetBudget)
// — passes sim.Config.Validate. Serving layers call it before admission, so
// a bad point is a client error instead of a failed (and memoized)
// evaluation. The workload name is the caller's to resolve.
func (p Point) Validate() error {
	c, err := p.config()
	if err != nil {
		return err
	}
	return c.Validate()
}

// PanicError is the structured error a panicking evaluation (a buggy design
// plugin, a simulator invariant blown by a hostile configuration) is
// converted into: the point that triggered it, the recovered value, and the
// goroutine stack at recovery. The panic is confined to its point — other
// points in the batch, and other requests on a serving engine, proceed.
type PanicError struct {
	Point Point
	Value string
	Stack string
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("exp: panic evaluating %s/%s@%gx: %s", e.Point.Design, e.Point.Workload, e.Point.LatencyX, e.Value)
}

// Engine memoizes simulation results per Point and compiled kernels per
// (workload, unroll, regCap), and evaluates batches of points on a bounded
// worker pool. It is safe for concurrent use; each point is simulated at
// most once per Engine (singleflight), so batch evaluation is deduplicated
// both within one experiment and across experiments sharing the engine.
//
// An engine opened with NewEngineWithStore additionally persists every
// computed result to a crash-safe disk store and serves store hits without
// re-simulation — the memo generalized across processes and restarts.
type Engine struct {
	mu      sync.Mutex
	results map[Point]*resultEntry

	vmu      sync.Mutex
	virtuals map[virtKey]*virtEntry

	compile *sim.CompileCache

	// The static tables' analyses (tables.go), memoized per engine so a
	// fresh engine still computes them cold: Table 2's queueing run per
	// technology config and Table 4's interval measurement per (workload,
	// trace length).
	queueing  memo[int, float64]
	intervals memo[intervalKey, intervalMeasure]

	disk *store.Store // nil = in-process memo only

	// Cross-replica coalescing (lease.go in internal/store): before
	// computing a cold point, a store-backed engine claims its per-point
	// lease; losers wait for the winner's publish instead of duplicating
	// the simulation. leaseTTL caps how long a crashed holder can block a
	// point (0 = store.DefaultLeaseTTL); owner names this engine in lease
	// files for forensics.
	leaseTTL time.Duration
	owner    string

	sims      atomic.Int64 // simulations actually executed (cache misses)
	storeHits atomic.Int64 // results served from the disk store
	storeErrs atomic.Int64 // store operations that failed after retries

	failMu    sync.Mutex
	failures  int64
	firstFail error
}

// Sims reports how many simulations the engine has actually executed —
// i.e. cache misses. The difference against the number of points rendered
// is the work memoization saved.
func (e *Engine) Sims() int64 { return e.sims.Load() }

// Memoized reports how many points the in-process memo holds, finished or
// in flight. A rejected point never enters it.
func (e *Engine) Memoized() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return len(e.results)
}

// StoreHits reports how many evaluations were served from the disk store
// without re-simulation (always 0 for engines without a store).
func (e *Engine) StoreHits() int64 { return e.storeHits.Load() }

// StoreErrors reports store operations that failed even after retries; the
// engine degrades to compute-without-persist on such failures, so this is
// an observability signal, not a correctness one.
func (e *Engine) StoreErrors() int64 { return e.storeErrs.Load() }

// Failures reports how many distinct points have failed (memoized errors,
// counted once per point; cancellations are not memoized and not counted).
// Drivers use it to exit non-zero when a sweep rendered with failed cells.
func (e *Engine) Failures() int64 {
	e.failMu.Lock()
	defer e.failMu.Unlock()
	return e.failures
}

// FirstError returns the first distinct point failure the engine recorded
// (nil when every point so far succeeded). "First" is first-evaluated: it
// can vary with scheduling across runs, but is stable within one engine.
func (e *Engine) FirstError() error {
	e.failMu.Lock()
	defer e.failMu.Unlock()
	return e.firstFail
}

func (e *Engine) noteFailure(err error) {
	e.failMu.Lock()
	e.failures++
	if e.firstFail == nil {
		e.firstFail = err
	}
	e.failMu.Unlock()
}

// resultEntry is one point's singleflight slot: the leader (the goroutine
// that created the entry) evaluates and closes done; waiters block on done
// or their own context. Cancelled evaluations are NOT memoized — the
// leader removes the entry before closing done, so waiters and later
// callers retry under their own contexts instead of inheriting a dead
// request's ctx.Err() forever.
type resultEntry struct {
	done chan struct{}
	res  *sim.Result
	err  error
}

type virtKey struct {
	workload string
	unroll   int
}

type virtEntry struct {
	once sync.Once
	prog *isa.Program
	err  error
}

// NewEngine returns an empty engine with its own caches. The zero Options
// value uses a process-wide shared engine instead; a private engine is
// useful to bound cache lifetime or to benchmark cold-cache behavior.
func NewEngine() *Engine {
	return &Engine{
		results:  map[Point]*resultEntry{},
		virtuals: map[virtKey]*virtEntry{},
		compile:  sim.NewCompileCache(),
	}
}

// NewEngineWithStore returns an engine backed by a persistent result store:
// evaluation consults the store before simulating and persists every fresh
// result (best-effort — a failing store degrades to compute-only, counted
// by StoreErrors). Open the store with Version: StoreVersion().
//
// A store-backed engine also participates in the store's per-point lease
// protocol: replicas sharing the store directory compute each cold point
// exactly once (the winner of the exclusive lease simulates and publishes;
// the others wait on the published entry). A lease held longer than the
// TTL (SetLeaseTTL; default store.DefaultLeaseTTL) is presumed crashed and
// taken over.
func NewEngineWithStore(s *store.Store) *Engine {
	e := NewEngine()
	e.disk = s
	e.owner = fmt.Sprintf("pid-%d/engine-%d", os.Getpid(), engineSeq.Add(1))
	return e
}

// engineSeq disambiguates lease owners when one process hosts several
// store-backed engines (e.g. the two-replica load harness).
var engineSeq atomic.Int64

// SetLeaseTTL overrides the engine's per-point lease deadline: the promise
// window a replica has to compute and publish a cold point before waiters
// presume it crashed and take the point over. Non-positive restores the
// default. Set it before serving; it is not synchronized with in-flight
// evaluations.
func (e *Engine) SetLeaseTTL(ttl time.Duration) { e.leaseTTL = ttl }

// Store returns the engine's disk store (nil for in-process-only engines).
func (e *Engine) Store() *store.Store { return e.disk }

// defaultEngine memoizes across every experiment run in the process.
var defaultEngine = NewEngine()

// engine resolves the engine experiments run on.
func (o Options) engine() *Engine {
	if o.Engine != nil {
		return o.Engine
	}
	return defaultEngine
}

// virtual memoizes workloads.Build so every simulation of a workload shares
// one program pointer (which is what makes the compile cache hit).
func (e *Engine) virtual(workload string, unroll int) (*isa.Program, error) {
	e.vmu.Lock()
	ent, ok := e.virtuals[virtKey{workload, unroll}]
	if !ok {
		ent = &virtEntry{}
		e.virtuals[virtKey{workload, unroll}] = ent
	}
	e.vmu.Unlock()
	ent.once.Do(func() {
		w, err := workloads.ByName(workload)
		if err != nil {
			ent.err = err
			return
		}
		ent.prog = w.Build(unroll)
	})
	return ent.prog, ent.err
}

// memo caches a deterministic analysis per key. A failed computation is
// returned but never cached, so the next caller retries it. Two first
// callers of one key may both compute it; the analysis is deterministic,
// so either value is the value. The zero memo is ready to use.
type memo[K comparable, V any] struct {
	mu   sync.Mutex
	m    map[K]V
	runs int // computations started, failed ones included
}

func (c *memo[K, V]) get(k K, compute func() (V, error)) (V, error) {
	c.mu.Lock()
	v, ok := c.m[k]
	if !ok {
		c.runs++
	}
	c.mu.Unlock()
	if ok {
		return v, nil
	}
	v, err := compute()
	if err == nil {
		c.mu.Lock()
		if c.m == nil {
			c.m = map[K]V{}
		}
		c.m[k] = v
		c.mu.Unlock()
	}
	return v, err
}

// canon folds Table 3 overrides that equal the design's defaults into the
// zero value, so e.g. Figure 12's "16 regs" variant shares the memo with
// Figure 11's default-knob LTRF sweep.
func (p Point) canon() Point {
	d := sim.DefaultConfig(p.Design)
	if p.RegsPerInterval == d.RegsPerInterval {
		p.RegsPerInterval = 0
	}
	if p.ActiveWarps == d.ActiveWarps {
		p.ActiveWarps = 0
	}
	if p.Scheduler == sim.SchedTwoLevel {
		p.Scheduler = "" // the resolved default: shares the memo with unset
	}
	if p.Prefetch == "off" {
		p.Prefetch = "" // the explicit spelling of the default
	}
	if p.CTAs == 1 {
		p.CTAs = 0 // one CTA per SM is the resolved default
	}
	return p
}

// isCtxErr reports whether err is (or wraps) a context cancellation or
// deadline — the class of errors that must NOT be memoized.
func isCtxErr(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// errLeaseBusy is the deferral signal of an evaluation without the wait
// mode: another replica holds the point's lease, so the caller (EvalStream)
// should move on and come back. Local singleflight still applies.
// Like cancellation it describes the moment, not the point, so it is never
// memoized (see isTransientEvalErr).
var errLeaseBusy = errors.New("exp: point leased by another replica")

// storeRead is what one read of a point's store entry found when it did
// not serve the point; the zero value means the entry has not been read.
// As an error it is a probe's miss: like errLeaseBusy it describes the
// moment, not the point, so it is never memoized.
type storeRead uint8

const (
	unread      storeRead = iota
	absent                // no entry, or a corrupt one the store quarantined
	undecodable           // an entry that passed its checksum but does not decode
	unreadable            // the store failed after its retries
)

func (r storeRead) Error() string { return "exp: point not served from the store" }

// evalMode says how far the memo leader for a point goes.
type evalMode struct {
	// wait blocks on another replica's lease until it publishes (Eval);
	// without it a held lease returns errLeaseBusy for the caller to defer.
	wait bool
	// probe serves the point only from the store: a point with no usable
	// entry returns the storeRead that sends it to EvalStream's cold pass.
	probe bool
	// from is what the probe's read found, so the cold pass starts at the
	// lease instead of reading the entry a second time.
	from storeRead
}

// isTransientEvalErr reports whether err reflects the circumstances of one
// evaluation attempt (caller cancelled, lease held elsewhere, a probe's
// miss) rather than a property of the point — the class that must be
// retried by the next caller, never memoized.
func isTransientEvalErr(err error) bool {
	_, miss := err.(storeRead)
	return miss || isCtxErr(err) || errors.Is(err, errLeaseBusy)
}

// Eval returns the simulation result for a point, running it on first use
// and serving the memo (or the disk store, when the engine has one)
// afterwards. Concurrent calls for the same point block on the single
// in-flight evaluation — on ctx.Done() a waiter abandons the wait and
// returns ctx.Err() promptly without disturbing the in-flight work.
// Non-cancellation errors (including panics, converted to *PanicError) are
// memoized, so the serial rendering pass surfaces the same error regardless
// of parallelism; cancellation errors are not memoized — the point stays
// evaluable by the next caller.
func (e *Engine) Eval(ctx context.Context, p Point) (*sim.Result, error) {
	return e.eval(ctx, p, evalMode{wait: true})
}

// probe is EvalStream's first pass: it serves the point from the memo or
// with one store read, and returns a storeRead for a point only the cold
// pass can serve. Without a store, a point the memo does not hold is cold
// at the cost of a map lookup.
func (e *Engine) probe(ctx context.Context, p Point) (*sim.Result, error) {
	if e.disk == nil {
		e.mu.Lock()
		_, ok := e.results[p.canon()]
		e.mu.Unlock()
		if !ok {
			return nil, absent
		}
	}
	return e.eval(ctx, p, evalMode{probe: true})
}

// settled returns the point's finished memo entry without waiting or
// evaluating: nil when the point is missing or still in flight. An entry
// seen in flight may settle transiently (its leader unpublishes it), which
// also reads as missing.
func (e *Engine) settled(p Point) *resultEntry {
	e.mu.Lock()
	ent := e.results[p.canon()]
	e.mu.Unlock()
	if ent == nil {
		return nil
	}
	select {
	case <-ent.done:
		if isTransientEvalErr(ent.err) {
			return nil
		}
		return ent
	default:
		return nil
	}
}

// isLeaseBusy reports whether err is errLeaseBusy, the deferral signal: the
// point is being computed by another replica right now.
func isLeaseBusy(err error) bool { return errors.Is(err, errLeaseBusy) }

func (e *Engine) eval(ctx context.Context, p Point, m evalMode) (*sim.Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	p = p.canon()
	for {
		e.mu.Lock()
		ent, ok := e.results[p]
		if !ok {
			ent = &resultEntry{done: make(chan struct{})}
			e.results[p] = ent
			e.mu.Unlock()

			res, err := e.evalProtected(ctx, p, m)
			if err != nil && isTransientEvalErr(err) {
				// Do not poison the memo with this attempt's circumstances
				// (caller death, remote lease, a probe's miss): unpublish
				// the entry, then release waiters so they retry (each under
				// its own context and mode) through a fresh entry.
				e.mu.Lock()
				delete(e.results, p)
				e.mu.Unlock()
				ent.err = err
				close(ent.done)
				return nil, err
			}
			ent.res, ent.err = res, err
			if err != nil {
				e.noteFailure(err)
			}
			close(ent.done)
			return res, err
		}
		e.mu.Unlock()

		select {
		case <-ent.done:
			if ent.err != nil && isTransientEvalErr(ent.err) {
				continue // leader cancelled, deferred or missed; retry as the new leader
			}
			return ent.res, ent.err
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
}

// evalProtected is evalStored behind a panic barrier: a panicking design
// plugin (or any simulator invariant failure) becomes a *PanicError for
// this point instead of taking down the batch worker or the serving
// process.
func (e *Engine) evalProtected(ctx context.Context, p Point, m evalMode) (res *sim.Result, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = &PanicError{Point: p, Value: fmt.Sprint(r), Stack: string(debug.Stack())}
		}
	}()
	return e.evalStored(ctx, p, m)
}

// evalStored consults the disk store around the actual simulation: a valid
// stored entry is rehydrated without simulating; a miss (or a corrupt /
// undecodable entry — already quarantined by the store) falls through to
// simulation, whose result is persisted best-effort. A probe stops after
// the read; an evaluation the probe already read for (m.from) skips it.
//
// Cold points additionally run the store's per-point lease protocol so N
// replicas sharing the directory compute each point exactly once: claim
// the lease (exclusive create) and compute on success; on ErrLeaseHeld either
// poll Has with the store's jittered backoff until the winner publishes
// (m.wait, re-contending each round so released/expired leases are
// picked up), or return errLeaseBusy for the caller to defer.
// Lease-infrastructure failures degrade to uncoordinated compute — the
// lease saves duplicate work; it must never block serving.
func (e *Engine) evalStored(ctx context.Context, p Point, m evalMode) (*sim.Result, error) {
	if e.disk == nil {
		if m.probe {
			return nil, absent
		}
		return e.evalUncached(ctx, p)
	}
	key := p.storeKey()
	found := m.from
	for try := 1; ; try++ {
		// The first round reads unless the probe already did; later rounds
		// are waiter polls that stat (Has) before paying for a read.
		if (try == 1 && found == unread) || (try > 1 && e.disk.Has(key)) {
			res, r := e.readStored(p, key)
			if res != nil {
				return res, nil
			}
			found = r
		}
		if m.probe {
			return nil, found
		}
		if found == unreadable {
			// The disk is misbehaving; skip lease coordination on the
			// same disk and just serve.
			return e.computeAndPublish(ctx, p, key, nil)
		}
		lease, lerr := e.disk.AcquireLease(key, e.owner, e.leaseTTL)
		if lerr == nil {
			// Double-check under the lease: another replica may have
			// published (and released) in the window between the miss and
			// the acquisition — computing now would duplicate its work.
			// Release and loop back to the read path instead — unless the
			// entry there is one this engine could not decode, which only
			// the recompute replaces.
			if found != undecodable && e.disk.Has(key) {
				lease.Release() //nolint:errcheck // best-effort; TTL reclaims
				continue
			}
			return e.computeAndPublish(ctx, p, key, lease)
		}
		if !errors.Is(lerr, store.ErrLeaseHeld) {
			e.storeErrs.Add(1)
			return e.computeAndPublish(ctx, p, key, nil)
		}
		if !m.wait {
			return nil, fmt.Errorf("%s/%s@%gx: %w", p.Design, p.Workload, p.LatencyX, errLeaseBusy)
		}
		select {
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-time.After(e.disk.LeasePollDelay(try)):
		}
	}
}

// readStored reads and decodes the point's store entry: the result on a
// hit, else what the read found. A checksum failure never reaches the
// decode — the store quarantines the entry and reports ErrCorrupt, which
// reads as absent.
func (e *Engine) readStored(p Point, key string) (*sim.Result, storeRead) {
	data, err := e.disk.Get(key)
	switch {
	case err == nil:
		if res, derr := decodeResult(p, data); derr == nil {
			e.storeHits.Add(1)
			return res, unread
		}
		return nil, undecodable
	case errors.Is(err, store.ErrNotFound), errors.Is(err, store.ErrCorrupt):
		return nil, absent
	default:
		e.storeErrs.Add(1)
		return nil, unreadable
	}
}

// computeAndPublish simulates the point, persists the result best-effort,
// and releases the lease (when one is held) AFTER the publish — waiters'
// next poll then finds either the entry or a free lease, never a gap where
// both are absent while the result exists. The deferred release also runs
// on failure and on panic unwinding, so a broken point never leaves its
// lease to the TTL clock.
func (e *Engine) computeAndPublish(ctx context.Context, p Point, key string, lease *store.Lease) (*sim.Result, error) {
	if lease != nil {
		defer lease.Release() //nolint:errcheck // best-effort; TTL reclaims
	}
	res, err := e.evalUncached(ctx, p)
	if err != nil {
		return nil, err
	}
	if err := e.disk.Put(key, encodeResult(res)); err != nil {
		e.storeErrs.Add(1) // degraded to compute-only; result still served
	}
	return res, nil
}

func (e *Engine) evalUncached(ctx context.Context, p Point) (*sim.Result, error) {
	virt, err := e.virtual(p.Workload, p.Unroll)
	if err != nil {
		return nil, err
	}
	c, err := p.config()
	if err != nil {
		return nil, err
	}
	e.sims.Add(1)
	res, err := sim.RunWithCacheCtx(ctx, c, virt, e.compile)
	if err != nil {
		return nil, fmt.Errorf("%s/%s@%gx: %w", p.Design, p.Workload, p.LatencyX, err)
	}
	return res, nil
}

// RunBatch evaluates a point set by draining EvalStream over the options'
// worker pool, so experiment renders get the same kernel-batched dispatch
// and lease deferral as streaming sweeps. It does not return errors:
// results and errors alike are memoized, and drivers render serially
// through Eval afterwards (render) — so both the table bytes and the
// surfaced error are independent of worker count, dispatch order and
// goroutine scheduling (the golden suite locks this down). Failures() and
// FirstError() summarize what a batch left behind. A cancelled ctx stops
// dispatch promptly; in-flight points observe the same ctx inside the
// simulator's advance loop.
func (e *Engine) RunBatch(ctx context.Context, o Options, pts []Point) {
	for range e.EvalStream(ctx, o.Parallelism, pts) {
	}
}

// Compiles reports how many allocation pipelines the engine's compile cache
// has actually executed (its (kernel, regCap) misses).
func (e *Engine) Compiles() int64 { return e.compile.Compiles() }

// Pressure returns a workload's unconstrained register demand (the Table 1
// quantity), memoized.
func (e *Engine) Pressure(workload string, unroll int) (int, error) {
	virt, err := e.virtual(workload, unroll)
	if err != nil {
		return 0, err
	}
	return e.compile.Pressure(virt)
}

// Intervals returns a workload's register-allocated program and its
// register-interval partition at budget n, memoized. The static analyses
// (Table 4, code-size overheads) share these with the simulator's compile
// path.
func (e *Engine) Intervals(workload string, unroll, regCap, n int) (*isa.Program, *core.Partition, error) {
	virt, err := e.virtual(workload, unroll)
	if err != nil {
		return nil, nil, err
	}
	prog, _, err := e.compile.Allocate(virt, regCap)
	if err != nil {
		return nil, nil, err
	}
	part, err := e.compile.Partition(prog, false, n)
	if err != nil {
		return nil, nil, err
	}
	return prog, part, nil
}

// parallelEach runs fn(i) for every i in [0,n) on the options' worker pool
// and returns the lowest-index error (deterministic regardless of
// scheduling). fn must write its output to index-addressed storage.
func parallelEach(o Options, n int, fn func(i int) error) error {
	errs := make([]error, n)
	pool(context.Background(), o.Parallelism, n, func(i int) { errs[i] = fn(i) })
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
