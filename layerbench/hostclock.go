package main

import (
	"runtime"
	"sort"
	"sync"
	"time"
)

// Host-speed normalisation.
//
// The shared 2-vCPU hosts this benchmark runs on change speed by 20–40%
// within seconds and drift as much over tens of minutes: a fixed CPU-bound
// loop timed in 3-second bins ranged over 44% within half a minute, and
// process CPU time moved with wall time, so CPU-time accounting cannot
// remove the slowdown. Such drift is larger than the changes the benchmark
// must detect. Every timed sample is therefore bracketed by a fixed
// calibration kernel, and the reported time is
//
//	raw × calRefSeconds / calibration
//
// where calibration is the mean of the kernel's time just before and just
// after the sample. That is the sample's time at the host speed at which the
// kernel takes calRefSeconds. The kernel is this file's own code and does
// not call the repository, so a change to the code under test moves the
// reported times in full; only the host's speed is divided out. Over 134
// samples alternating with calibrations, normalising cut the range of
// 10-second medians of a 0.27 s render from 30% to 10%.
//
// The kernel runs on every worker at once, so it measures the host as
// parallel work sees it. When the host takes CPU time away from the VM
// (steal), work that runs mostly on one goroutine, such as a re-render
// served from the memo, slows less than the kernel and is over-corrected:
// in a stretch of about 10% steal, paper's normalised warm rate read up to
// 25% high. Raw times and the host's measured slowdown are recorded in each
// result's metadata.

// calRefSeconds is the kernel's median time over 268 calibrations on a
// 2-vCPU x86-64 host (Go 1.24, two goroutines).
const calRefSeconds = 0.0166

const (
	calTableWords = 1 << 15 // 128 KiB per goroutine: an L2-resident table
	calIters      = 2_000_000
	calReps       = 3
)

// hostClock times samples between calibrations.
type hostClock struct {
	tables [][]uint32
	last   float64 // the latest calibration, which opens the next sample
	cals   []float64
}

func newHostClock(workers int) *hostClock {
	c := &hostClock{tables: make([][]uint32, workers)}
	for i := range c.tables {
		c.tables[i] = make([]uint32, calTableWords)
	}
	return c
}

// calibrate collects garbage, so no collection runs during the kernel, then
// runs the kernel calReps times on every worker at once and returns the
// median wall time.
func (c *hostClock) calibrate() float64 {
	runtime.GC()
	ts := make([]float64, calReps)
	for r := range ts {
		start := time.Now()
		var wg sync.WaitGroup
		for g, t := range c.tables {
			wg.Add(1)
			go func() {
				defer wg.Done()
				calKernel(t, uint32(g+1)*2_463_534_242)
			}()
		}
		wg.Wait()
		ts[r] = time.Since(start).Seconds()
	}
	sort.Float64s(ts)
	c.last = ts[calReps/2]
	c.cals = append(c.cals, c.last)
	return c.last
}

// calKernel is a fixed mix of integer arithmetic, data-dependent branches
// and random loads and stores over an L2-sized table, the kind of work a
// cycle-level simulator does.
func calKernel(t []uint32, x uint32) {
	var acc uint32
	for i := 0; i < calIters; i++ {
		x ^= x << 13
		x ^= x >> 17
		x ^= x << 5
		j := x & (calTableWords - 1)
		v := t[j]
		if v&3 == 0 {
			acc += v >> 2
		} else {
			acc ^= v * 2_654_435_761
		}
		t[j] = v + x + acc
	}
	t[0] += acc
}

// time runs fn between two calibrations and returns its host-normalised and
// raw wall times. The closing calibration opens the next sample.
func (c *hostClock) time(fn func() error) (norm, raw float64, err error) {
	if c.last == 0 {
		c.calibrate()
	}
	before := c.last
	raw, err = timeIt(fn)
	after := c.calibrate()
	return raw * calRefSeconds / ((before + after) / 2), raw, err
}

// slowdown is the run's median calibration time over calRefSeconds: above 1
// the host ran slower than the reference speed.
func (c *hostClock) slowdown() float64 { return median(c.cals) / calRefSeconds }
