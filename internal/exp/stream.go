package exp

import (
	"context"
	"runtime"
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
// Dispatch follows batchOrderIdx (warm first in declaration order, cold
// sorted by compiled-kernel identity), so a multi-kernel grid compiles
// each kernel once instead of racing the workers into many compile misses.
//
// Cross-replica coordination is non-blocking: a cold point whose store
// lease is held by another replica is DEFERRED — the worker moves on to the
// next point — and retried after the rest of the grid has dispatched, by
// which time the other replica has usually published it as a store hit.
// Deferred points that are still contended on the second pass fall back to
// the blocking wait (poll-until-published), so every point is eventually
// delivered exactly once.
func (e *Engine) EvalStream(ctx context.Context, workers int, pts []Point) <-chan StreamResult {
	if ctx == nil {
		ctx = context.Background()
	}
	out := make(chan StreamResult, len(pts))
	go func() {
		defer close(out)
		// Every point is emitted at most once, so a send never blocks.
		emit := func(idx int, res *sim.Result, err error) {
			out <- StreamResult{Index: idx, Point: pts[idx], Res: res, Err: err}
		}

		// Pass 1: kernel-batched dispatch, deferring lease-contended points.
		var deferredMu sync.Mutex
		var deferred []int
		order := e.batchOrderIdx(pts)
		pool(ctx, workers, len(order), func(k int) {
			idx := order[k]
			res, err := e.evalNoWait(ctx, pts[idx])
			if isLeaseBusy(err) {
				deferredMu.Lock()
				deferred = append(deferred, idx)
				deferredMu.Unlock()
				return
			}
			emit(idx, res, err)
		})

		// Pass 2: deferred points, now with the blocking cross-replica wait.
		// Most are store hits by now; stragglers poll until the owning
		// replica publishes (or its lease expires and this engine takes the
		// point over). Batching no longer matters: these points are
		// compiling (or compiled) on another replica, not here.
		pool(ctx, workers, len(deferred), func(k int) {
			idx := deferred[k]
			res, err := e.Eval(ctx, pts[idx])
			emit(idx, res, err)
		})
	}()
	return out
}

// pool is the package's one worker pool: it calls job(k) for k = 0..n-1,
// dispatched in that order, on at most workers goroutines (workers <= 0
// means GOMAXPROCS). Dispatch stops when ctx fires; pool returns once every
// dispatched job has returned. EvalStream's two passes (and so RunBatch)
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
