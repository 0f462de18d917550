package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"time"

	"ltrf/internal/exp"
	"ltrf/internal/server"
	"ltrf/internal/sim"
	"ltrf/internal/workloads"
)

// Serve working set: the point pool ltrf-load draws its repeat requests
// from (internal/load: designs BL, RFC, LTRF, LTRF+ × workloads sgemm,
// btree, vectoradd × latency 1, 2, 4, 8x), at the server's default tech and
// budget and with allow_truncated, as ltrf-load sends them. Requests are a
// uniform draw over the pool, as ltrf-load's are. ltrf-load also sends a
// share of never-seen budgets, each a cold simulation; serve leaves those
// out, so the simulator does no work here (sweep measures the cold path).
var (
	serveDesigns   = []string{"BL", "RFC", "LTRF", "LTRF+"}
	serveWorkloads = []string{"sgemm", "btree", "vectoradd"}
	serveLatencyXs = []float64{1, 2, 4, 8}
)

const (
	serverBudget = 40_000 // the server's default per-point budget
	serverTech   = 1      // the server's default technology config
	serveClients = 2
)

// servePoint is one point of the working set: its request body and the
// exact response body a direct Engine.Eval of it implies (nil when the point
// is expected to fail).
type servePoint struct {
	key   string
	point exp.Point
	body  []byte
	want  []byte
}

func newServePoint(design, workload string, tech int, latX float64, budget int64) (servePoint, error) {
	body, err := json.Marshal(server.EvalRequest{
		Design: design, Workload: workload, Tech: tech, LatencyX: latX,
		Budget: budget, AllowTruncated: true,
	})
	return servePoint{
		key: pointKey(design, tech, latX, "off", workload),
		point: exp.Point{
			Design: sim.Design(design), Tech: tech, LatencyX: latX,
			Workload: workload, Unroll: workloads.UnrollMaxwell, Budget: budget,
		},
		body: body,
	}, err
}

func serveWorkingSet() ([]servePoint, error) {
	var pts []servePoint
	for _, d := range serveDesigns {
		for _, w := range serveWorkloads {
			for _, l := range serveLatencyXs {
				p, err := newServePoint(d, w, serverTech, l, serverBudget)
				if err != nil {
					return nil, err
				}
				pts = append(pts, p)
			}
		}
	}
	return pts, nil
}

// newDraw returns client c's request sequence in segment seg: indices drawn
// uniformly from a working set of n points.
func newDraw(seed int64, seg, c, n int) func() int {
	rng := rand.New(rand.NewSource(seed*1_000_003 + int64(seg)*1_009 + int64(c) + 1))
	return func() int { return rng.Intn(n) }
}

// evalBody renders a result exactly as the server's /v1/eval writes it.
func evalBody(p exp.Point, res *sim.Result) ([]byte, error) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	err := enc.Encode(server.EvalResponse{
		Design: res.Design.Name(), Workload: p.Workload, Tech: p.Tech, LatencyX: p.LatencyX,
		Budget: p.Budget, IPC: res.IPC, Cycles: res.Cycles, Instrs: res.Instrs,
		Truncated: res.Truncated, Warps: res.Warps, Capacity: res.Capacity, Stats: res.Stats,
	})
	return buf.Bytes(), err
}

// populateAndRestart is the serve set-up: a separate engine simulates the
// working set into a fresh store, then a server on a new engine over that
// store is mounted, so first touches are store reads and repeats memo hits.
// It fills each point's expected body from the populating engine's results
// and returns the populating engine, the server's, and how long populating
// took.
func populateAndRestart(lb *loopback, dir string, pts []servePoint, workers int) (ref, eng *exp.Engine, populate float64, err error) {
	st, err := openStore(dir)
	if err != nil {
		return nil, nil, 0, err
	}
	ref = exp.NewEngineWithStore(st)
	batch := make([]exp.Point, len(pts))
	for i, p := range pts {
		batch[i] = p.point
	}
	start := time.Now()
	ref.RunBatch(context.Background(), exp.Options{Parallelism: workers}, batch)
	populate = time.Since(start).Seconds()
	for i := range pts {
		res, err := ref.Eval(context.Background(), pts[i].point)
		if err != nil {
			pts[i].want = nil // an expected failure (planted fault)
			continue
		}
		if pts[i].want, err = evalBody(pts[i].point, res); err != nil {
			return nil, nil, 0, err
		}
	}
	st2, err := openStore(dir)
	if err != nil {
		return nil, nil, 0, err
	}
	eng = exp.NewEngineWithStore(st2)
	return ref, eng, populate, lb.mount(eng)
}

// loopResult is what a closed loop observed. A failed request is over any
// latency limit and never a completion.
type loopResult struct {
	lats        *latencies
	completed   int64
	failed      int64
	faultDraws  int64 // requests for points expected to fail
	faultPassed int64 // of those, answered as if successful
	problems    []string
}

func (l *loopResult) merge(o loopResult) {
	if l.lats == nil {
		l.lats = newLatencies()
	}
	l.lats.merge(o.lats)
	l.completed += o.completed
	l.failed += o.failed
	l.faultDraws += o.faultDraws
	l.faultPassed += o.faultPassed
	if len(l.problems) < 5 {
		l.problems = append(l.problems, o.problems...)
	}
}

// closedLoop runs segment seg of a closed loop: `clients` clients that each
// post perClient requests, each one after the reply to the last was read
// and checked. Points are drawn by newDraw.
func closedLoop(lb *loopback, pts []servePoint, seed int64, seg, clients, perClient int) loopResult {
	parts := make([]loopResult, clients)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			draw := newDraw(seed, seg, c, len(pts))
			r := &parts[c]
			r.lats = newLatencies()
			var buf bytes.Buffer
			for n := 0; n < perClient; n++ {
				p := &pts[draw()]
				t0 := time.Now()
				status, err := lb.post("/v1/eval", p.body, &buf)
				lat := float64(time.Since(t0).Nanoseconds()) / 1e6
				ok := err == nil && status == 200 && p.want != nil && bytes.Equal(buf.Bytes(), p.want)
				if p.want == nil {
					r.faultDraws++
					if err == nil && status == 200 {
						r.faultPassed++
					}
				}
				if ok {
					r.completed++
					r.lats.add(lat)
					continue
				}
				r.failed++
				r.lats.fail()
				if p.want != nil && len(r.problems) < 5 {
					r.problems = append(r.problems, fmt.Sprintf("serve: %s: status %d, err %v, body matches %t", p.key, status, err, bytes.Equal(buf.Bytes(), p.want)))
				}
			}
		}(c)
	}
	wg.Wait()
	var total loopResult
	for _, r := range parts {
		total.merge(r)
	}
	return total
}

// serveSegment is how many requests each client sends in one timed segment
// of the loop; a segment's time is one wall_s sample.
const serveSegment = 2_500

// serveSetupReps is how many set-ups the serve workload times, half before
// the loop and half after it, so their median spans the run.
const serveSetupReps = 8

func runServe(o options) (*report, error) {
	rep := newReport()
	pts, err := serveWorkingSet()
	if err != nil {
		return nil, err
	}
	lb, err := startLoopback(serveClients)
	if err != nil {
		return nil, err
	}
	defer lb.close()
	dirs, err := newScratchDirs(o.out)
	if err != nil {
		return nil, err
	}
	defer dirs.removeAll()
	clock := newHostClock(o.workers)

	// The loop serves from the last set-up before it; the set-ups after it
	// only measure, and mount servers that serve nothing.
	var loopEng *exp.Engine
	var setups, populates []sample
	setUp := func() error {
		var populate float64
		var eng *exp.Engine
		norm, raw, err := clock.time(func() error {
			var err error
			_, eng, populate, err = populateAndRestart(lb, dirs.next(), pts, o.workers)
			return err
		})
		if err != nil {
			return err
		}
		setups = append(setups, sample{norm, raw})
		populates = append(populates, sample{populate * norm / raw, populate})
		if loopEng == nil || len(setups) <= serveSetupReps/2 {
			loopEng = eng
		}
		return nil
	}
	for i := 0; i < serveSetupReps/2; i++ {
		if err := setUp(); err != nil {
			return nil, err
		}
	}
	var res loopResult
	segs, err := repeatFor(clock, o.seconds, 3, func(seg int) error {
		res.merge(closedLoop(lb, pts, o.seed, seg, serveClients, serveSegment))
		return nil
	})
	if err != nil {
		return nil, err
	}
	rep.attempted = res.completed + res.failed
	rep.failed = res.failed
	rep.problems = append(rep.problems, res.problems...)
	sims, storeHits := loopEng.Sims(), loopEng.StoreHits()
	if sims != 0 {
		rep.fail("serve: the server simulated %d points; the whole working set is in its store", sims)
	}
	for i := 0; i < serveSetupReps/2; i++ {
		if err := setUp(); err != nil {
			return nil, err
		}
	}
	p50, err := res.lats.percentile(0.50)
	if err != nil {
		return nil, err
	}
	p99, err := res.lats.percentile(0.99)
	if err != nil {
		return nil, err
	}
	n := float64(len(pts))
	perSeg := float64(serveClients * serveSegment)
	rep.add("setup_s", "s", median(norms(setups)))
	rep.add("wall_s", "s", median(norms(segs)))
	rep.add("cold_points_per_s", "points/s", n/median(norms(populates)))
	rep.add("warm_points_per_s", "points/s", float64(res.completed)/sum(norms(segs)))
	rep.raw("setup_s", median(raws(setups)))
	rep.raw("wall_s", median(raws(segs)))
	rep.raw("cold_points_per_s", n/median(raws(populates)))
	rep.raw("warm_points_per_s", float64(res.completed)/sum(raws(segs)))
	rep.meta["host_slowdown"] = clock.slowdown()
	rep.keep(clock, "setup", setups)
	rep.keep(clock, "segment", segs)
	// Latency percentiles are recorded with the result but are not metrics:
	// the other workloads have no per-request latency. A failed request
	// counts as over any limit; where one sets a percentile, the loop's
	// whole length, which no request exceeds, is recorded. They are raw
	// times, not host-normalised.
	loopMs := sum(raws(segs)) * 1e3
	rep.meta["p50_ms"] = math.Min(p50, loopMs)
	rep.meta["p99_ms"] = math.Min(p99, loopMs)
	rep.meta["segment_requests"] = perSeg
	rep.meta["segments"] = len(segs)
	rep.meta["working_set"] = len(pts)
	rep.meta["clients"] = serveClients
	rep.meta["loop"] = "closed"
	rep.meta["latency_samples"] = res.lats.n
	rep.meta["p99_samples_beyond"] = int(float64(res.lats.n) * 0.01)
	rep.meta["setup_samples"] = len(setups)
	rep.meta["sims"] = sims
	rep.meta["store_hits"] = storeHits
	return rep, nil
}
