package main

import (
	"bytes"
	"encoding/json"
	"maps"
	"time"

	"ltrf/internal/exp"
	"ltrf/internal/store"
)

// paperPass renders every experiment serially; B wraps each Spec.Run in an
// exp span, and the engine's counters give its simulations and compiles.
type paperPass struct{}

func (*paperPass) setup() error { return paperSetup(1) }
func (*paperPass) close()       {}

func (*paperPass) run(tr *tracer, lt *layerTotals, rep *report) (float64, error) {
	start := time.Now()
	eng := exp.NewEngine()
	err := renderAll(eng, 1, rep, func(id string, run func() error) error {
		var err error
		tr.do("exp", "Spec.Run", id, func() { err = run() })
		return err
	})
	if err != nil {
		return 0, err
	}
	lt.countEngine(eng)
	return time.Since(start).Seconds(), nil
}

// sweepPass posts the grid cold and then warm, one span per HTTP sweep, and
// then walks the grid point by point through the layers: kernel build,
// CompileCache.Compile, simulation on the warmed cache, store lease, Put,
// Release and Get, and Engine.Eval as a store hit and as a memo hit.
type sweepPass struct {
	seed int64
	dirs *scratchDirs
	h    *sweepHarness
}

func (p *sweepPass) setup() error {
	lb, err := startLoopback(1)
	if err != nil {
		return err
	}
	p.h = &sweepHarness{lb: lb, dirs: p.dirs}
	_, err = p.h.warmup()
	return err
}

func (p *sweepPass) close() { p.h.lb.close() }

func (p *sweepPass) run(tr *tracer, lt *layerTotals, rep *report) (float64, error) {
	req := sweepGrid(p.seed, 1)
	body, err := json.Marshal(req)
	if err != nil {
		return 0, err
	}
	keys, pts := gridPoints(req)
	dir := p.dirs.next()
	entry := 0.0
	var cold map[string]string
	var warmPerRecord float64
	for _, phase := range []string{"cold", "warm"} {
		var (
			wall   sample
			status int
			s      *sweepStream
		)
		tr.do("server", "POST /v1/sweep "+phase, "", func() { wall, status, s, err = p.h.pass(dir, body) })
		if err != nil {
			return 0, err
		}
		entry += wall.raw
		recs := checkSweep(rep, status, s, keys, cold)
		lt.countEngine(p.h.eng)
		lt.requests++
		lt.bytesOut += int64(s.bytes)
		if cold == nil {
			checkDigest(rep, recs)
			cold = map[string]string{}
			maps.Copy(cold, recs)
		} else {
			warmPerRecord = wall.raw * 1e6 / float64(len(keys))
		}
	}

	served, err := openStore(dir)
	if err != nil {
		return 0, err
	}
	own, err := openStore(p.dirs.next())
	if err != nil {
		return 0, err
	}
	ks := newKernels()
	storeHits := make([]float64, 0, len(pts))
	for i, pt := range pts {
		res, err := ks.simulate(tr, lt, rep, keys[i], pt)
		if err != nil {
			return 0, err
		}
		payload, err := json.Marshal(res.Stats)
		if err != nil {
			return 0, err
		}
		storeRoundTrip(tr, lt, rep, own, keys[i], payload)
		eng := exp.NewEngineWithStore(served)
		ev, d, err := evalPoint(tr, lt, "Engine.Eval store hit", keys[i], eng, pt)
		if err != nil {
			return 0, err
		}
		storeHits = append(storeHits, us(d))
		_, d, err = evalPoint(tr, lt, "Engine.Eval memo hit", keys[i], eng, pt)
		if err != nil {
			return 0, err
		}
		lt.memoHits++
		lt.memoHitUs = append(lt.memoHitUs, us(d))
		lt.countEngine(eng)
		if !statsEqual(res, ev) {
			rep.fail("sweep: %s: the direct simulation's stats differ from the served result", keys[i])
		}
	}
	lt.storeHitUs = append(lt.storeHitUs, storeHits...)
	lt.recordUs = append(lt.recordUs, warmPerRecord-mean(storeHits))
	lt.compileKernels += ks.cc.Compiles()
	lt.storeRetries += own.Retries() + served.Retries()
	lt.storeQuarantined += own.Quarantined() + served.Quarantined()
	return entry, nil
}

// storeRoundTrip claims key's lease, puts payload, releases the lease and
// reads the entry back, one store span per call.
func storeRoundTrip(tr *tracer, lt *layerTotals, rep *report, st *store.Store, key string, payload []byte) {
	rep.attempted++
	var (
		lease *store.Lease
		data  []byte
		err   error
	)
	acquire := tr.do("store", "AcquireLease", key, func() { lease, err = st.AcquireLease(key, "layerbench", 0) })
	if err != nil {
		rep.fail("store: lease %s: %v", key, err)
		return
	}
	lt.leases++
	put := tr.do("store", "Put", key, func() { err = st.Put(key, payload) })
	if err != nil {
		rep.fail("store: put %s: %v", key, err)
	}
	lt.puts++
	lt.bytesWritten += int64(len(payload))
	lt.putUs = append(lt.putUs, us(put))
	release := tr.do("store", "Release", key, func() { err = lease.Release() })
	if err != nil {
		rep.fail("store: release %s: %v", key, err)
	}
	lt.leaseUs = append(lt.leaseUs, us(acquire+release))
	get := tr.do("store", "Get", key, func() { data, err = st.Get(key) })
	lt.gets++
	lt.getUs = append(lt.getUs, us(get))
	if err != nil || !bytes.Equal(data, payload) {
		rep.fail("store: get %s returned other bytes than were put (err %v)", key, err)
	}
}

// servePass sends the serve draw from one client, one server span per
// request, each followed by an in-process Engine.Eval of the same point on
// the populating engine (a memo hit) in an exp span.
type servePass struct {
	seed int64
	dirs *scratchDirs
	lb   *loopback
	pts  []servePoint
	ref  *exp.Engine
	dir  string
}

// serveTracedRequests is the length of each traced serve pass.
const serveTracedRequests = 20_000

func (p *servePass) setup() error {
	var err error
	if p.pts, err = serveWorkingSet(); err != nil {
		return err
	}
	if p.lb, err = startLoopback(1); err != nil {
		return err
	}
	p.dir = p.dirs.next()
	p.ref, _, _, err = populateAndRestart(p.lb, p.dir, p.pts, 1)
	return err
}

func (p *servePass) close() { p.lb.close() }

func (p *servePass) run(tr *tracer, lt *layerTotals, rep *report) (float64, error) {
	st, err := openStore(p.dir)
	if err != nil {
		return 0, err
	}
	eng := exp.NewEngineWithStore(st)
	if err := p.lb.mount(eng); err != nil {
		return 0, err
	}
	draw := newDraw(p.seed, 0, 0, len(p.pts))
	var buf bytes.Buffer
	entry := 0.0
	for n := 0; n < serveTracedRequests; n++ {
		sp := &p.pts[draw()]
		var (
			status  int
			postErr error
		)
		t0 := time.Now()
		rtt := tr.do("server", "POST /v1/eval", sp.key, func() { status, postErr = p.lb.post("/v1/eval", sp.body, &buf) })
		entry += time.Since(t0).Seconds()
		rep.attempted++
		lt.requests++
		lt.bytesOut += int64(buf.Len())
		if status == 429 || status == 503 {
			lt.shed++
		}
		ok := postErr == nil && status == 200 && bytes.Equal(buf.Bytes(), sp.want)
		if !ok {
			rep.fail("serve: %s: status %d, err %v", sp.key, status, postErr)
		}
		_, memo, err := evalPoint(tr, lt, "Engine.Eval memo hit", sp.key, p.ref, sp.point)
		if err != nil {
			return 0, err
		}
		lt.memoHits++
		lt.memoHitUs = append(lt.memoHitUs, us(memo))
		if ok {
			lt.evalRttUs = append(lt.evalRttUs, us(rtt))
			lt.overheadUs = append(lt.overheadUs, us(rtt)-us(memo))
		}
	}
	lt.countEngine(eng)
	return entry, nil
}
