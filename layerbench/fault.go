package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"strings"

	_ "ltrf/internal/faultinject" // registers the hidden fault designs
	"ltrf/internal/server"
)

// faultDesign is the hidden design whose subsystem panics on construction;
// the engine turns the panic into a per-point error.
const faultDesign = "fault-panic"

// runPlantedFault proves the failure accounting: it mixes faultDesign into a
// small sweep grid or serve draw and checks that exactly those operations
// are reported as failed, are counted over the latency limit, and are never
// counted as completions.
func runPlantedFault(o options) (*report, error) {
	if o.workload == "sweep" {
		return faultSweep(o)
	}
	return faultServe(o)
}

func faultSweep(o options) (*report, error) {
	rep := newReport()
	h, err := newSweepHarness(o)
	if err != nil {
		return nil, err
	}
	defer h.close()
	req := server.SweepRequest{
		Designs: []string{"LTRF", faultDesign}, Workloads: []string{"sgemm", "btree"},
		Techs: []int{1}, LatencyXs: []float64{1}, Prefetch: []string{"off"},
		Budget: 12_000, Parallelism: o.workers,
	}
	body, err := json.Marshal(req)
	if err != nil {
		return nil, err
	}
	keys := gridKeys(req)
	wall, status, s, err := h.pass(h.dirs.next(), body)
	if err != nil {
		return nil, err
	}
	planted, detected, completed := 0, 0, 0
	for i := range keys {
		isFault := strings.HasPrefix(keys[i], faultDesign+"/")
		isResult := bytes.HasPrefix(s.records[i], []byte(`{"type":"result",`))
		rep.attempted++
		if !isResult {
			rep.fail("sweep: point %d (%s) failed", i, keys[i])
		} else {
			completed++
		}
		if isFault {
			planted++
			if !isResult {
				detected++
			}
		}
	}
	pass := status == 200 && s.summary != nil && planted > 0 && detected == planted &&
		completed == len(keys)-planted && s.summary.Errors == planted && s.summary.OK == completed
	rep.faultCheck = &pass
	rep.add("faults_planted", "count", float64(planted))
	rep.add("faults_reported_failed", "count", float64(detected))
	rep.add("completed_points", "count", float64(completed))
	rep.add("cold_points_per_s", "points/s", float64(completed)/wall.raw)
	return rep, nil
}

func faultServe(o options) (*report, error) {
	rep := newReport()
	var pts []servePoint
	for _, dw := range [][2]string{{"LTRF", "sgemm"}, {"LTRF", "btree"}, {faultDesign, "sgemm"}} {
		p, err := newServePoint(dw[0], dw[1], serverTech, 1, 12_000)
		if err != nil {
			return nil, err
		}
		pts = append(pts, p)
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
	if _, _, _, err := populateAndRestart(lb, dirs.next(), pts, o.workers); err != nil {
		return nil, err
	}
	if pts[2].want != nil {
		return nil, fmt.Errorf("%s evaluated without error; it cannot plant a fault", faultDesign)
	}
	var res loopResult
	wall, _ := timeIt(func() error {
		res = closedLoop(lb, pts, o.seed, 0, serveClients, 600)
		return nil
	})
	rep.attempted = res.completed + res.failed
	rep.failed = res.failed
	rep.problems = append(rep.problems, res.problems...)
	p99, err := res.lats.percentile(0.99)
	if err != nil {
		return nil, err
	}
	overLimit := res.lats.failed
	pass := res.faultDraws > 0 && res.failed == res.faultDraws && res.faultPassed == 0 &&
		overLimit == res.faultDraws && res.completed == rep.attempted-res.faultDraws &&
		math.IsInf(p99, 1)
	rep.faultCheck = &pass
	rep.add("faults_planted", "count", float64(res.faultDraws))
	rep.add("faults_reported_failed", "count", float64(res.failed))
	rep.add("faults_over_latency_limit", "count", float64(overLimit))
	rep.add("completed_requests", "count", float64(res.completed))
	rep.add("req_per_s", "req/s", float64(res.completed)/wall)
	return rep, nil
}
