// Command layerbench is the repository's benchmark. One process runs one
// workload — paper, sweep or serve — with at most nproc workers, clients and
// connections, checks every output it receives, and prints one JSON result
// as the last line of standard output:
//
//	{"correct": true, "attempted": 51, "failed": 0, "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end ones; with --trace 1 the
// workload's work is repeated as timed calls into each layer and the
// metrics are the per-layer ones. README.md in this directory defines every
// workload and metric.
//
// Usage (from the repository root; run.sh builds and then runs this):
//
//	bash layerbench/run.sh --workload sweep --seed 1 --seconds 35 --trace 0
//	bash layerbench/run.sh --workload serve --seed 1 --plant-fault
package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"time"
)

// heldOutSeed is never used while tuning the benchmark or a change; a claim
// made on other seeds is confirmed on it (choosing-metrics §6.3).
const heldOutSeed = 7919

type options struct {
	workload   string
	seed       int64
	seconds    float64
	trace      bool
	plantFault bool
	out        string
	workers    int
}

func main() { os.Exit(run()) }

func run() int {
	var o options
	var seconds, trace int
	flag.StringVar(&o.workload, "workload", "", "workload to run: paper, sweep or serve")
	flag.Int64Var(&o.seed, "seed", 1, "workload seed (drives the sweep grid order and the serve request draw)")
	flag.IntVar(&seconds, "seconds", 10, "measurement time in seconds")
	flag.IntVar(&trace, "trace", 0, "1 = traced run printing per-layer metrics, 0 = end-to-end metrics")
	flag.BoolVar(&o.plantFault, "plant-fault", false, "mix the hidden fault-panic design into a small sweep grid or serve draw and check that its operations are reported as failed")
	flag.StringVar(&o.out, "out", ".bench_build/out", "directory for the result record and the trace spans")
	flag.Parse()
	if flag.NArg() > 0 || seconds < 1 || (trace != 0 && trace != 1) {
		flag.Usage()
		return 2
	}
	o.seconds = float64(seconds)
	o.trace = trace == 1
	o.workers = min(2, runtime.NumCPU())

	var (
		rep *report
		err error
	)
	switch {
	case o.workload != "paper" && o.workload != "sweep" && o.workload != "serve":
		err = fmt.Errorf("unknown workload %q (have: paper, sweep, serve)", o.workload)
	case o.plantFault && o.workload == "paper":
		err = errors.New("--plant-fault applies to the sweep and serve workloads")
	case o.plantFault:
		rep, err = runPlantedFault(o)
	case o.trace:
		rep, err = runTraced(o)
	case o.workload == "paper":
		rep, err = runPaper(o)
	case o.workload == "sweep":
		rep, err = runSweep(o)
	default:
		rep, err = runServe(o)
	}
	if err == nil {
		err = rep.finish(o)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "layerbench:", err)
		return 1
	}
	return 0
}

// report accumulates one run's operations, output-check failures, metrics
// and metadata.
type report struct {
	attempted int64
	failed    int64
	problems  []string // first failures, for the human-readable log
	names     []string // metric names in insertion order
	metrics   map[string]metric
	meta      map[string]any
	samples   map[string]any // every timed sample, for the result file only
	// faultCheck, set only by --plant-fault, replaces "every operation
	// succeeded" as the run's correctness criterion.
	faultCheck *bool
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func newReport() *report {
	return &report{metrics: map[string]metric{}, meta: map[string]any{}, samples: map[string]any{}}
}

func (r *report) add(name, unit string, v float64) {
	if _, ok := r.metrics[name]; !ok {
		r.names = append(r.names, name)
	}
	r.metrics[name] = metric{Value: v, Unit: unit}
}

// raw records in the metadata the raw, not host-normalised, value of a
// time metric.
func (r *report) raw(name string, v float64) {
	m, _ := r.meta["raw"].(map[string]float64)
	if m == nil {
		m = map[string]float64{}
		r.meta["raw"] = m
	}
	m[name] = v
}

// keep records timed samples, as [normalised, raw] seconds, in the result
// file, together with the clock's calibrations.
func (r *report) keep(clock *hostClock, name string, ss []sample) {
	pairs := make([][2]float64, len(ss))
	for i, s := range ss {
		pairs[i] = [2]float64{s.norm, s.raw}
	}
	r.samples[name] = pairs
	r.samples["calibrations"] = clock.cals
}

// fail counts one failed operation (a failed request or point, or an output
// that does not match its check) and remembers the first few reasons.
func (r *report) fail(format string, args ...any) {
	r.failed++
	if len(r.problems) < 20 {
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
}

// finish adds the process-wide metadata, prints the human-readable lines and
// the final JSON result, and writes the same record to the output dir.
func (r *report) finish(o options) error {
	if !o.trace && !o.plantFault {
		hwm, err := peakRSSMiB()
		if err != nil {
			return err
		}
		r.add("peak_rss_mb", "MiB", hwm)
	}
	if r.attempted < 1 {
		return errors.New("no operation was attempted")
	}
	for _, v := range r.metrics {
		if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
			return fmt.Errorf("a metric is not finite: %+v", r.metrics)
		}
	}
	r.meta["workload"] = o.workload
	r.meta["seed"] = o.seed
	r.meta["held_out_seed"] = heldOutSeed
	r.meta["seconds"] = o.seconds
	r.meta["trace"] = o.trace
	r.meta["nproc"] = runtime.NumCPU()
	r.meta["gomaxprocs"] = runtime.GOMAXPROCS(0)
	r.meta["workers"] = o.workers
	r.meta["go_version"] = runtime.Version()
	r.meta["commit"], r.meta["source_sha256"] = sourceIdentity()

	correct := r.failed == 0
	if r.faultCheck != nil {
		correct = *r.faultCheck
	}
	for _, p := range r.problems {
		fmt.Println("problem:", p)
	}
	for _, n := range r.names {
		m := r.metrics[n]
		fmt.Printf("%-34s %16.6f %s\n", n, m.Value, m.Unit)
	}
	meta, err := json.Marshal(r.meta)
	if err != nil {
		return err
	}
	fmt.Printf("meta %s\n", meta)
	res := struct {
		Correct   bool              `json:"correct"`
		Attempted int64             `json:"attempted"`
		Failed    int64             `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{correct, r.attempted, r.failed, r.metrics}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(o.out, 0o755); err != nil {
		return err
	}
	rec, err := json.MarshalIndent(map[string]any{"result": res, "meta": r.meta, "problems": r.problems, "samples": r.samples}, "", "  ")
	if err != nil {
		return err
	}
	name := fmt.Sprintf("result-%s-seed%d-trace%t.json", o.workload, o.seed, o.trace)
	if o.plantFault {
		name = fmt.Sprintf("result-%s-seed%d-fault.json", o.workload, o.seed)
	}
	if err := os.WriteFile(filepath.Join(o.out, name), rec, 0o644); err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// peakRSSMiB reads the process's peak resident set (VmHWM).
func peakRSSMiB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("peak RSS: %w", err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("peak RSS: %w", err)
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("peak RSS: no VmHWM line in /proc/self/status")
}

// sourceIdentity names the code under test: the VCS revision when the build
// recorded one, and always a digest of the module's Go sources, which also
// identifies a checkout that is not a repository.
func sourceIdentity() (commit, digest string) {
	commit = "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				commit = s.Value
			}
		}
	}
	var files []string
	filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && strings.HasPrefix(d.Name(), ".") && p != "." {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(p, ".go") || d.Name() == "go.mod") {
			files = append(files, p)
		}
		return nil
	})
	sort.Strings(files)
	h := sha256.New()
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			continue
		}
		fmt.Fprintf(h, "%s %d\n", f, len(b))
		h.Write(b)
	}
	return commit, hex.EncodeToString(h.Sum(nil))[:16]
}

// timeIt runs fn and returns its wall time in seconds.
func timeIt(fn func() error) (float64, error) {
	start := time.Now()
	err := fn()
	return time.Since(start).Seconds(), err
}
