package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// layers are the modules the traced run attributes time to.
var layers = []string{"compile", "sim", "regfile", "memsys", "exp", "store", "server"}

// span is one timed call into a layer: its name, the span that caused it,
// and the point or request it served.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Layer  string `json:"layer"`
	Name   string `json:"name"`
	Key    string `json:"key,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer records spans in memory from one goroutine; a nil *tracer runs the
// same calls without recording, which is how a pass is timed untraced.
type tracer struct {
	t0    time.Time
	spans []span
	open  []int // stack of open span IDs
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// do runs fn inside a span and returns the span's duration (0 untraced).
func (t *tracer) do(layer, name, key string, fn func()) time.Duration {
	if t == nil {
		fn()
		return 0
	}
	s := span{ID: len(t.spans) + 1, Layer: layer, Name: name, Key: key}
	if n := len(t.open); n > 0 {
		s.Parent = t.open[n-1]
	}
	t.open = append(t.open, s.ID)
	s.Start = time.Since(t.t0).Nanoseconds()
	fn()
	s.End = time.Since(t.t0).Nanoseconds()
	t.open = t.open[:len(t.open)-1]
	t.spans = append(t.spans, s)
	return time.Duration(s.End - s.Start)
}

// selfTimes returns each layer's self time in seconds: its spans' durations
// minus the parts their child spans cover. Only spans with an ID above
// `after` count, so a caller can take the self times of one pass.
func (t *tracer) selfTimes(after int) map[string]float64 {
	child := map[int]int64{}
	for _, s := range t.spans {
		if s.ID > after && s.Parent != 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	out := map[string]float64{}
	for _, s := range t.spans {
		if s.ID > after {
			out[s.Layer] += float64(s.End-s.Start-child[s.ID]) / 1e9
		}
	}
	return out
}

// mark returns the ID of the last span recorded so far.
func (t *tracer) mark() int {
	if t == nil {
		return 0
	}
	return len(t.spans)
}

// write stores every span as one JSON line.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("spans: %w", err)
	}
	return nil
}
