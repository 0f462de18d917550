package exp

import (
	"cmp"
	"context"
	"runtime"
	"slices"
	"strings"
	"sync"

	"ltrf/internal/sim"
)

// StreamResult is one completed point of a streaming sweep: the index into
// the caller's point slice, the point itself, and the evaluation outcome.
type StreamResult struct {
	Index int
	Point Point
	Res   *sim.Result
	Err   error
}

// EvalStream evaluates pts on a bounded worker pool (workers <= 0 means
// GOMAXPROCS) and delivers each result on the returned channel AS IT
// COMPLETES — warm points (memoized or store-resident) flush immediately
// instead of queueing behind cold simulations. The channel is closed after
// the last delivery, once every worker has returned (or promptly after ctx
// fires; points not yet delivered are simply absent — the caller counts
// them as cancelled). RunBatch is a drain of this stream.
//
// The channel is buffered to the number of points, so a worker never waits
// on the consumer: warm results pile up while the consumer writes, and a
// consumer that flushes only when its next receive would block (the sweep
// handler) gets them in bursts whatever the scheduler's interleaving.
//
// Dispatch runs three passes on the pool:
//
//  1. The probe visits every point in declaration order and serves it from
//     the memo or with one store read (Engine.probe). A point it cannot
//     serve is not memoized; it goes to the cold pass with what the read
//     found, so the cold pass starts at the lease instead of reading again.
//  2. The cold pass runs the probe's misses sorted by compiled-kernel
//     identity (workload, then unroll; declaration order within a kernel).
//     The first point of each kernel runs its compile pipeline once (the
//     CompileCache singleflights concurrent claimants) and every later
//     point of that kernel hits the cache, instead of the pool
//     interleaving half-warm compiles of many kernels.
//  3. The deferred pass retries points whose store lease another replica
//     held, now with the blocking cross-replica wait.
//
// Cross-replica coordination is non-blocking until the last pass: a point
// whose lease is held elsewhere is DEFERRED — the worker moves on — and
// retried after the rest of the grid has dispatched, by which time the
// other replica has usually published it as a store hit. Deferred points
// that are still contended fall back to the blocking wait (poll until
// published), so every point is eventually delivered exactly once.
func (e *Engine) EvalStream(ctx context.Context, workers int, pts []Point) <-chan StreamResult {
	if ctx == nil {
		ctx = context.Background()
	}
	out := make(chan StreamResult, len(pts))
	go func() {
		defer close(out)
		var mu sync.Mutex
		var cold []coldPoint
		var deferred []int
		// Every point is emitted at most once, so a send never blocks.
		emit := func(idx int, res *sim.Result, err error) {
			if isLeaseBusy(err) {
				mu.Lock()
				deferred = append(deferred, idx)
				mu.Unlock()
				return
			}
			out <- StreamResult{Index: idx, Point: pts[idx], Res: res, Err: err}
		}

		pool(ctx, workers, len(pts), func(idx int) {
			res, err := e.probe(ctx, pts[idx])
			if found, miss := err.(storeRead); miss {
				mu.Lock()
				cold = append(cold, coldPoint{idx, found})
				mu.Unlock()
				return
			}
			emit(idx, res, err)
		})

		slices.SortFunc(cold, func(a, b coldPoint) int {
			pa, pb := pts[a.idx], pts[b.idx]
			return cmp.Or(strings.Compare(pa.Workload, pb.Workload),
				cmp.Compare(pa.Unroll, pb.Unroll), cmp.Compare(a.idx, b.idx))
		})
		pool(ctx, workers, len(cold), func(k int) {
			c := cold[k]
			res, err := e.eval(ctx, pts[c.idx], evalMode{from: c.found})
			emit(c.idx, res, err)
		})

		// Most deferred points are store hits by now; stragglers poll until
		// the owning replica publishes (or its lease expires and this engine
		// takes the point over). Batching no longer matters: these points
		// are compiling (or compiled) on another replica, not here.
		pool(ctx, workers, len(deferred), func(k int) {
			idx := deferred[k]
			res, err := e.Eval(ctx, pts[idx])
			emit(idx, res, err)
		})
	}()
	return out
}

// coldPoint is a point the probe could not serve, with what its read found.
type coldPoint struct {
	idx   int
	found storeRead
}

// pool is the package's one worker pool: it calls job(k) for k = 0..n-1,
// dispatched in that order, on at most workers goroutines (workers <= 0
// means GOMAXPROCS). Dispatch stops when ctx fires; pool returns once every
// dispatched job has returned. EvalStream's three passes (and so RunBatch)
// and parallelEach's static analyses run on it.
func pool(ctx context.Context, workers, n int, job func(k int)) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	jobs := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers && w < n; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := range jobs {
				job(k)
			}
		}()
	}
	for k := 0; k < n && ctx.Err() == nil; k++ {
		select {
		case jobs <- k:
		case <-ctx.Done():
		}
	}
	close(jobs)
	wg.Wait()
}
