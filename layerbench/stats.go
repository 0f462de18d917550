package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// median returns the median of xs (NaN for none); xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// latencies counts request latencies in constant memory: 100 ns buckets up
// to 10 ms, the exact values above that, and the failed requests, which
// count as over any latency limit.
type latencies struct {
	n       int64
	buckets []int64
	slow    []float64 // ms
	failed  int64
}

const (
	latBucketNs = 100
	latBuckets  = 100_000 // 10 ms
)

func newLatencies() *latencies { return &latencies{buckets: make([]int64, latBuckets)} }

func (l *latencies) add(ms float64) {
	l.n++
	if b := int(ms * 1e6 / latBucketNs); b < latBuckets {
		l.buckets[b]++
		return
	}
	l.slow = append(l.slow, ms)
}

func (l *latencies) fail() {
	l.n++
	l.failed++
}

func (l *latencies) merge(o *latencies) {
	l.n += o.n
	l.failed += o.failed
	l.slow = append(l.slow, o.slow...)
	for i, c := range o.buckets {
		l.buckets[i] += c
	}
}

// percentile returns the nearest-rank p-quantile (0 < p < 1) in ms, as the
// upper edge of its bucket, or +Inf when it falls on a failed request. It
// errors unless at least ten samples lie beyond it, the least a tail
// percentile may rest on.
func (l *latencies) percentile(p float64) (float64, error) {
	if beyond := int64(math.Floor(float64(l.n) * (1 - p))); beyond < 10 {
		return 0, fmt.Errorf("p%g of %d samples has only %d beyond it (need 10)", p*100, l.n, beyond)
	}
	rank := int64(math.Ceil(p * float64(l.n)))
	var cum int64
	for b, c := range l.buckets {
		if cum += c; cum >= rank {
			return float64((b+1)*latBucketNs) / 1e6, nil
		}
	}
	sort.Float64s(l.slow)
	for _, v := range l.slow {
		if cum++; cum >= rank {
			return v, nil
		}
	}
	return math.Inf(1), nil
}

// setupReps is how many times the paper and sweep workloads repeat their
// set-up, which takes tens of milliseconds, to report its median.
const setupReps = 15

// sample is one timed call: its host-normalised and raw wall times.
type sample struct{ norm, raw float64 }

func norms(ss []sample) []float64 {
	out := make([]float64, len(ss))
	for i, s := range ss {
		out[i] = s.norm
	}
	return out
}

func raws(ss []sample) []float64 {
	out := make([]float64, len(ss))
	for i, s := range ss {
		out[i] = s.raw
	}
	return out
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

// repeatFor times fn on clock at least minReps times, and then again while
// one more call of average length, with its calibration, still fits in
// `seconds`.
func repeatFor(clock *hostClock, seconds float64, minReps int, fn func(rep int) error) ([]sample, error) {
	var out []sample
	start := time.Now()
	for rep := 0; rep < minReps || time.Since(start).Seconds()*float64(rep+1)/float64(rep) <= seconds; rep++ {
		norm, raw, err := clock.time(func() error { return fn(rep) })
		if err != nil {
			return nil, err
		}
		out = append(out, sample{norm, raw})
	}
	return out, nil
}
