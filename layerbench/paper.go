package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"time"

	"ltrf/internal/exp"
)

// paperOptions are the settings the paper workload renders with: every
// registered experiment at the quick budget over the full evaluation set,
// which is what `ltrf-experiments -all -quick` runs.
func paperOptions(eng *exp.Engine, workers int) exp.Options {
	return exp.Options{Quick: true, Parallelism: workers, Engine: eng}
}

// warmupExperiments are rendered on one workload during set-up, so lazy
// initialisation and first-touch costs are paid before timing.
var warmupExperiments = []string{"table1", "table4", "figure9", "overheads", "designspace"}

func paperSetup(workers int) error {
	eng := exp.NewEngine()
	o := paperOptions(eng, workers)
	o.Workloads = []string{"sgemm"}
	for _, id := range warmupExperiments {
		s, err := exp.ByID(id)
		if err != nil {
			return err
		}
		if _, err := s.Run(o); err != nil {
			return fmt.Errorf("warm-up %s: %w", id, err)
		}
	}
	if n := eng.Failures(); n > 0 {
		return fmt.Errorf("warm-up: %d point(s) failed: %v", n, eng.FirstError())
	}
	return nil
}

// renderAll renders every registered experiment on eng, calling
// around(id, run) for each so a traced pass can wrap the call in a span. It
// checks each table's digest against the recorded one and counts every
// experiment as one operation.
func renderAll(eng *exp.Engine, workers int, rep *report, around func(id string, run func() error) error) error {
	o := paperOptions(eng, workers)
	for _, s := range exp.Registry() {
		var t *exp.Table
		var runErr error
		if err := around(s.ID, func() error {
			t, runErr = s.Run(o)
			return nil
		}); err != nil {
			return err
		}
		rep.attempted++
		if runErr != nil {
			rep.fail("experiment %s: %v", s.ID, runErr)
			continue
		}
		sum := sha256.Sum256([]byte(t.String()))
		got := hex.EncodeToString(sum[:8])
		if want := paperDigests[s.ID]; got != want {
			rep.fail("experiment %s: table digest %s, recorded %s", s.ID, got, want)
		}
	}
	if n := eng.Failures(); n > 0 {
		rep.fail("%d simulation point(s) failed; first: %v", n, eng.FirstError())
	}
	return nil
}

func directly(_ string, run func() error) error { return run() }

// warmRenders is how many times each fresh engine re-renders every
// experiment after its cold render, serving every point from its memo.
const warmRenders = 8

func runPaper(o options) (*report, error) {
	rep := newReport()
	clock := newHostClock(o.workers)
	setups, err := repeatFor(clock, 0, setupReps, func(int) error { return paperSetup(o.workers) })
	if err != nil {
		return nil, err
	}
	// A cold render takes seconds, so each experiment in it is timed on
	// its own between calibrations and the render's time is their sum.
	var colds, warms []sample
	var points int64
	start := time.Now()
	for len(colds) < 3 || time.Since(start).Seconds()*float64(len(colds)+1)/float64(len(colds)) <= o.seconds {
		eng := exp.NewEngine()
		var render sample
		err := renderAll(eng, o.workers, rep, func(_ string, run func() error) error {
			norm, raw, err := clock.time(run)
			render.norm += norm
			render.raw += raw
			return err
		})
		if err != nil {
			return nil, err
		}
		points = eng.Sims()
		colds = append(colds, render)
		for i := 0; i < warmRenders; i++ {
			norm, raw, err := clock.time(func() error { return renderAll(eng, o.workers, rep, directly) })
			if err != nil {
				return nil, err
			}
			warms = append(warms, sample{norm, raw})
		}
		if n := eng.Sims() - points; n != 0 {
			rep.fail("paper: re-rendering on a warm engine simulated %d points", n)
		}
	}
	p := float64(points)
	rep.add("setup_s", "s", median(norms(setups)))
	rep.add("wall_s", "s", median(norms(colds)))
	rep.add("cold_points_per_s", "points/s", p/median(norms(colds)))
	rep.add("warm_points_per_s", "points/s", p/median(norms(warms)))
	rep.raw("setup_s", median(raws(setups)))
	rep.raw("wall_s", median(raws(colds)))
	rep.raw("cold_points_per_s", p/median(raws(colds)))
	rep.raw("warm_points_per_s", p/median(raws(warms)))
	rep.meta["host_slowdown"] = clock.slowdown()
	rep.keep(clock, "setup", setups)
	rep.keep(clock, "cold_render", colds)
	rep.keep(clock, "warm_render", warms)
	rep.meta["points"] = points
	rep.meta["experiments"] = len(exp.Registry())
	rep.meta["setup_samples"] = len(setups)
	rep.meta["wall_samples"] = len(colds)
	rep.meta["warm_samples"] = len(warms)
	rep.meta["settings"] = "every registered experiment, quick budget, full evaluation set; a fresh engine per cold render, then re-renders on it"
	return rep, nil
}
