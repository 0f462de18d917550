package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math/rand"
	"regexp"
	"sort"
	"strings"
	"time"

	"ltrf/internal/exp"
	"ltrf/internal/regfile"
	"ltrf/internal/server"
	"ltrf/internal/sim"
	"ltrf/internal/workloads"
)

// sweepGrid is the sweep workload's grid: every registered design × tech
// {1,7} × latency {1,4}x × prefetch {off,cta} × the evaluation workloads, at
// the server's default budget. The seed shuffles each axis, which reorders
// the grid the server expands and dispatches; the set of points is fixed.
func sweepGrid(seed int64, parallelism int) server.SweepRequest {
	rng := rand.New(rand.NewSource(seed))
	req := server.SweepRequest{
		Designs:     regfile.Names(),
		Techs:       []int{1, 7},
		LatencyXs:   []float64{1, 4},
		Prefetch:    []string{"off", "cta"},
		Parallelism: parallelism,
	}
	for _, w := range workloads.EvalSet() {
		req.Workloads = append(req.Workloads, w.Name)
	}
	shuffle(rng, req.Designs)
	shuffle(rng, req.Techs)
	shuffle(rng, req.LatencyXs)
	shuffle(rng, req.Prefetch)
	shuffle(rng, req.Workloads)
	return req
}

func shuffle[T any](rng *rand.Rand, xs []T) {
	rng.Shuffle(len(xs), func(i, j int) { xs[i], xs[j] = xs[j], xs[i] })
}

// gridPoints lists the grid's points in the server's documented expansion
// order (designs × techs × latency_xs × prefetch × workloads), so a record
// with index i is the point keys[i], pts[i]. The budget is the server's
// default.
func gridPoints(req server.SweepRequest) (keys []string, pts []exp.Point) {
	for _, d := range req.Designs {
		for _, t := range req.Techs {
			for _, l := range req.LatencyXs {
				for _, p := range req.Prefetch {
					for _, w := range req.Workloads {
						keys = append(keys, pointKey(d, t, l, p, w))
						pts = append(pts, exp.Point{
							Design: sim.Design(d), Tech: t, LatencyX: l, Workload: w,
							Unroll: workloads.UnrollMaxwell, Budget: serverBudget, Prefetch: p,
						})
					}
				}
			}
		}
	}
	return keys, pts
}

func gridKeys(req server.SweepRequest) []string {
	keys, _ := gridPoints(req)
	return keys
}

func pointKey(design string, tech int, latX float64, prefetch, workload string) string {
	return fmt.Sprintf("%s/t%d/%gx/%s/%s", design, tech, latX, prefetch, workload)
}

// sweepStream is one parsed NDJSON response.
type sweepStream struct {
	records map[int][]byte // result and error lines by grid index
	errors  int
	summary *server.SweepSummary
	bytes   int
}

// parseSweep parses the stream's lines.
func parseSweep(body []byte) (*sweepStream, error) {
	s := &sweepStream{records: map[int][]byte{}, bytes: len(body)}
	for _, line := range bytes.Split(bytes.TrimSuffix(body, []byte("\n")), []byte("\n")) {
		var head struct {
			Type  string `json:"type"`
			Index int    `json:"index"`
		}
		if err := json.Unmarshal(line, &head); err != nil {
			return nil, fmt.Errorf("sweep stream: %w", err)
		}
		switch head.Type {
		case "result", "error":
			if _, dup := s.records[head.Index]; dup {
				return nil, fmt.Errorf("sweep stream: index %d delivered twice", head.Index)
			}
			s.records[head.Index] = append([]byte(nil), line...) // body's buffer is reused
			if head.Type == "error" {
				s.errors++
			}
		case "summary":
			s.summary = &server.SweepSummary{}
			if err := json.Unmarshal(line, s.summary); err != nil {
				return nil, fmt.Errorf("sweep summary: %w", err)
			}
		}
	}
	return s, nil
}

var indexField = regexp.MustCompile(`"index":\d+,`)

// checkDigest checks the results of the whole grid, by point key with their
// grid index removed, against the recorded digest: sorted, so it depends on
// the simulated results and not on the seed.
func checkDigest(rep *report, recs map[string]string) {
	lines := make([]string, 0, len(recs))
	for _, l := range recs {
		lines = append(lines, l)
	}
	sort.Strings(lines)
	sum := sha256.Sum256([]byte(strings.Join(lines, "\n")))
	if d := hex.EncodeToString(sum[:8]); d != sweepDigest {
		rep.fail("sweep: results digest %s, recorded %s", d, sweepDigest)
	}
}

// checkSweep checks one sweep response against its grid's keys: a complete
// summary with every point ok, and the truncated points equal to the
// recorded cycle-capped points of this grid. On a warm sweep (cold not nil)
// each record must equal the cold record of the same point, and nothing may
// be simulated. It counts every point as one operation and returns the
// records by point key, with their grid index removed.
func checkSweep(rep *report, status int, s *sweepStream, keys []string, cold map[string]string) map[string]string {
	n := len(keys)
	rep.attempted += int64(n)
	if status != 200 || s.summary == nil {
		rep.failed += int64(n)
		rep.fail("sweep: status %d, summary present %t: all %d points counted failed", status, s.summary != nil, n)
		return nil
	}
	recs := make(map[string]string, n)
	want := map[string]bool{}
	for i, k := range keys {
		if sweepTruncated[k] {
			want[k] = true
		}
		line, ok := s.records[i]
		if !ok {
			rep.fail("sweep: point %d (%s) missing from the stream", i, k)
			continue
		}
		recs[k] = indexField.ReplaceAllString(string(line), "")
		switch {
		case !bytes.HasPrefix(line, []byte(`{"type":"result"`)):
			rep.fail("sweep: point %d (%s) failed: %s", i, k, line)
		case cold != nil && recs[k] != cold[k]:
			rep.fail("sweep: warm record of %s differs from its cold record", k)
		}
	}
	sum := s.summary
	if sum.Points != n || sum.OK != n || sum.Errors != 0 || sum.Cancelled != 0 {
		rep.fail("sweep: summary points=%d ok=%d errors=%d cancelled=%d for a %d-point grid", sum.Points, sum.OK, sum.Errors, sum.Cancelled, n)
	}
	got := map[string]bool{}
	for _, i := range sum.Truncated {
		if i >= 0 && i < n {
			got[keys[i]] = true
		}
	}
	if !sameSet(got, want) {
		rep.fail("sweep: truncated points %v, recorded %v", setKeys(got), setKeys(want))
	}
	if cold != nil && (sum.Sims != 0 || sum.StoreHits != int64(n)) {
		rep.fail("sweep: warm pass simulated %d points and served %d from the store, want 0 and %d", sum.Sims, sum.StoreHits, n)
	}
	return recs
}

func sameSet(a, b map[string]bool) bool {
	if len(a) != len(b) {
		return false
	}
	for k := range a {
		if !b[k] {
			return false
		}
	}
	return true
}

func setKeys(m map[string]bool) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// sweepHarness serves /v1/sweep from a fresh server+engine per pass over one
// loopback listener.
type sweepHarness struct {
	lb    *loopback
	dirs  *scratchDirs
	eng   *exp.Engine // the last pass's engine
	buf   bytes.Buffer
	clock *hostClock // when set, times each request; else its raw time is taken
}

func newSweepHarness(o options) (*sweepHarness, error) {
	dirs, err := newScratchDirs(o.out)
	if err != nil {
		return nil, err
	}
	lb, err := startLoopback(o.workers)
	if err != nil {
		return nil, err
	}
	return &sweepHarness{lb: lb, dirs: dirs}, nil
}

func (h *sweepHarness) close() error {
	err := h.lb.close()
	h.dirs.removeAll()
	return err
}

// open mounts a server on a fresh engine over the store at dir.
func (h *sweepHarness) open(dir string) error {
	st, err := openStore(dir)
	if err != nil {
		return err
	}
	h.eng = exp.NewEngineWithStore(st)
	return h.lb.mount(h.eng)
}

// post posts one sweep to the mounted server; it returns the request's
// time, its status and the parsed stream.
func (h *sweepHarness) post(body []byte) (sample, int, *sweepStream, error) {
	var (
		status int
		t      sample
		err    error
	)
	post := func() error {
		var err error
		status, err = h.lb.post("/v1/sweep", body, &h.buf)
		return err
	}
	if h.clock != nil {
		t.norm, t.raw, err = h.clock.time(post)
	} else {
		t.raw, err = timeIt(post)
		t.norm = t.raw
	}
	if err != nil {
		return sample{}, 0, nil, fmt.Errorf("sweep request: %w", err)
	}
	if status != 200 {
		return t, status, &sweepStream{records: map[int][]byte{}}, nil
	}
	s, err := parseSweep(h.buf.Bytes())
	if err != nil {
		return sample{}, 0, nil, err
	}
	return t, status, s, nil
}

// pass mounts a server on a fresh engine over the store at dir and posts one
// sweep to it.
func (h *sweepHarness) pass(dir string, body []byte) (sample, int, *sweepStream, error) {
	if err := h.open(dir); err != nil {
		return sample{}, 0, nil, err
	}
	return h.post(body)
}

// warmup is the set-up: one sweep of one point per design on one workload,
// on a fresh store, so lazy initialisation is paid before timing. It
// returns the sweep's time.
func (h *sweepHarness) warmup() (sample, error) {
	body, err := json.Marshal(server.SweepRequest{Designs: regfile.Names(), Workloads: []string{"sgemm"}})
	if err != nil {
		return sample{}, err
	}
	t, status, s, err := h.pass(h.dirs.next(), body)
	if err != nil {
		return sample{}, err
	}
	if status != 200 || s.summary == nil || s.summary.OK != len(regfile.Names()) {
		return sample{}, fmt.Errorf("warm-up sweep: status %d, %d error record(s)", status, s.errors)
	}
	return t, nil
}

// coldParts splits the grid into one sweep per design, in the grid's
// (seeded) design order, so each cold request is short enough to be timed
// between two host calibrations.
func coldParts(req server.SweepRequest) ([]server.SweepRequest, [][]byte, error) {
	var parts []server.SweepRequest
	var bodies [][]byte
	for _, d := range req.Designs {
		p := req
		p.Designs = []string{d}
		b, err := json.Marshal(p)
		if err != nil {
			return nil, nil, err
		}
		parts = append(parts, p)
		bodies = append(bodies, b)
	}
	return parts, bodies, nil
}

func runSweep(o options) (*report, error) {
	rep := newReport()
	h, err := newSweepHarness(o)
	if err != nil {
		return nil, err
	}
	defer h.close()
	h.clock = newHostClock(o.workers)

	var setups []sample
	for i := 0; i < setupReps; i++ {
		t, err := h.warmup()
		if err != nil {
			return nil, err
		}
		setups = append(setups, t)
	}
	req := sweepGrid(o.seed, o.workers)
	body, err := json.Marshal(req)
	if err != nil {
		return nil, err
	}
	parts, partBodies, err := coldParts(req)
	if err != nil {
		return nil, err
	}
	keys := gridKeys(req)
	n := float64(len(keys))

	// The cold passes take about 85% of the measured time and the warm
	// passes the rest: the cold rate varies more from run to run. A cold pass sends the grid one design at a time to
	// one server on an empty store; the warm passes re-read the last cold
	// pass's store in one sweep of the whole grid. The cold rate is the
	// points of every cold pass over their summed time.
	var coldDir string
	var cold map[string]string
	var colds, coldReqs, warms []sample
	start := time.Now()
	for len(colds) < 1 || time.Since(start).Seconds()*float64(len(colds)+1)/float64(len(colds)) <= 0.85*o.seconds {
		coldDir = h.dirs.next()
		if err := h.open(coldDir); err != nil {
			return nil, err
		}
		cold = map[string]string{}
		var pass sample
		for i, pb := range partBodies {
			t, status, s, err := h.post(pb)
			if err != nil {
				return nil, err
			}
			for k, r := range checkSweep(rep, status, s, gridKeys(parts[i]), nil) {
				cold[k] = r
			}
			pass.norm += t.norm
			pass.raw += t.raw
			coldReqs = append(coldReqs, t)
		}
		checkDigest(rep, cold)
		colds = append(colds, pass)
	}
	start = time.Now()
	for len(warms) < 10 || time.Since(start).Seconds()*float64(len(warms)+1)/float64(len(warms)) <= 0.15*o.seconds {
		t, status, s, err := h.pass(coldDir, body)
		if err != nil {
			return nil, err
		}
		checkSweep(rep, status, s, keys, cold)
		warms = append(warms, t)
		rep.meta["sweep_bytes"] = s.bytes
	}
	warmRates := make([]float64, len(warms))
	for i, t := range warms {
		warmRates[i] = n / t.norm
	}
	rep.add("setup_s", "s", median(norms(setups)))
	rep.add("wall_s", "s", median(norms(warms)))
	rep.add("cold_points_per_s", "points/s", n*float64(len(colds))/sum(norms(colds)))
	rep.add("warm_points_per_s", "points/s", median(warmRates))
	rep.raw("setup_s", median(raws(setups)))
	rep.raw("wall_s", median(raws(warms)))
	rep.raw("cold_points_per_s", n*float64(len(colds))/sum(raws(colds)))
	rep.raw("warm_points_per_s", n/median(raws(warms)))
	rep.meta["host_slowdown"] = h.clock.slowdown()
	rep.keep(h.clock, "setup", setups)
	rep.keep(h.clock, "cold_request", coldReqs)
	rep.keep(h.clock, "warm_pass", warms)
	rep.meta["grid_points"] = len(keys)
	rep.meta["grid"] = fmt.Sprintf("%d designs x techs %v x latency_xs %v x prefetch %v x %d workloads, budget default", len(req.Designs), req.Techs, req.LatencyXs, req.Prefetch, len(req.Workloads))
	rep.meta["setup_samples"] = len(setups)
	rep.meta["cold_passes"] = len(colds)
	rep.meta["cold_requests"] = len(coldReqs)
	rep.meta["warm_samples"] = len(warms)
	return rep, nil
}
