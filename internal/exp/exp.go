// Package exp contains one experiment driver per table and figure of the
// paper's evaluation. Each driver regenerates the artifact's data as a
// Table; where the paper reports a value, the table's notes quote it.
package exp

import (
	"context"
	"fmt"
	"io"
	"math"
	"sort"
	"strings"

	"ltrf/internal/regfile"
	"ltrf/internal/workloads"
)

// Table is a rendered experiment result.
type Table struct {
	ID      string
	Title   string
	Headers []string
	Rows    [][]string
	Notes   []string
}

// Fprint renders the table as aligned text.
func (t *Table) Fprint(w io.Writer) {
	fmt.Fprintf(w, "== %s: %s ==\n", t.ID, t.Title)
	widths := make([]int, len(t.Headers))
	for i, h := range t.Headers {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		parts := make([]string, len(cells))
		for i, c := range cells {
			if i < len(widths) {
				parts[i] = fmt.Sprintf("%-*s", widths[i], c)
			} else {
				parts[i] = c
			}
		}
		fmt.Fprintln(w, strings.TrimRight(strings.Join(parts, "  "), " "))
	}
	line(t.Headers)
	for _, row := range t.Rows {
		line(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(w, "note: %s\n", n)
	}
}

// String renders the table.
func (t *Table) String() string {
	var sb strings.Builder
	t.Fprint(&sb)
	return sb.String()
}

// Cell looks up a row by its first column and returns column col.
func (t *Table) Cell(rowKey string, col int) (string, bool) {
	for _, r := range t.Rows {
		if len(r) > col && r[0] == rowKey {
			return r[col], true
		}
	}
	return "", false
}

// Options control experiment execution cost.
type Options struct {
	// Ctx cancels in-flight evaluation: it is observed by batch dispatch,
	// by waiters blocked on another caller's simulation, and inside the
	// simulator's own advance loop (coarse-grained poll), so deadlines and
	// SIGINT actually stop simulations instead of leaking them. nil means
	// context.Background(). Uncancelled runs are byte-identical with any
	// Ctx value.
	Ctx context.Context
	// Quick reduces the per-run instruction budget for smoke tests and
	// benchmarks (shapes are preserved, absolute numbers get noisier).
	Quick bool
	// Workloads restricts simulation-based experiments to the named
	// workloads (nil = the paper's 14-workload evaluation subset).
	Workloads []string
	// Designs restricts the registry-driven experiments (designspace,
	// designsweep, pipesweep, prefsweep) to the named register-file designs
	// (nil = every registered design).
	Designs []string
	// Parallelism bounds the number of concurrently simulated points
	// (0 = GOMAXPROCS). Tables are rendered serially from memoized
	// results, so output is byte-identical at any parallelism.
	Parallelism int
	// Engine overrides the memo cache experiments run on (nil = a shared
	// process-wide engine, so repeated experiments never re-simulate a
	// point). Supply a fresh NewEngine to isolate or drop the cache.
	Engine *Engine
}

// ctx resolves the options' cancellation context.
func (o Options) ctx() context.Context {
	if o.Ctx != nil {
		return o.Ctx
	}
	return context.Background()
}

// budget returns the dynamic-instruction budget per simulation.
func (o Options) budget() int64 {
	if o.Quick {
		return 12_000
	}
	return 40_000
}

// designSet resolves the design-column list for registry-driven
// experiments: the Options' subset when given (resolved against the
// registry, so spellings canonicalize and an unknown name fails with the
// registered-designs listing), every registered design otherwise.
func (o Options) designSet() ([]string, error) {
	if len(o.Designs) == 0 {
		return regfile.Names(), nil
	}
	out := make([]string, len(o.Designs))
	for i, n := range o.Designs {
		d, err := regfile.Lookup(n)
		if err != nil {
			return nil, err
		}
		out[i] = d.Name
	}
	return out, nil
}

// evalSet resolves the workload list for simulation experiments.
func (o Options) evalSet() ([]workloads.Workload, error) {
	if len(o.Workloads) == 0 {
		return workloads.EvalSet(), nil
	}
	var out []workloads.Workload
	for _, name := range o.Workloads {
		w, err := workloads.ByName(name)
		if err != nil {
			return nil, err
		}
		out = append(out, w)
	}
	return out, nil
}

// Spec describes a runnable experiment.
type Spec struct {
	ID    string
	Title string
	Run   func(Options) (*Table, error)
}

// Registry lists every experiment in paper order.
func Registry() []Spec {
	return []Spec{
		{"table1", "Register file capacity required to maximize TLP", Table1},
		{"table2", "Register file design points (technology model)", Table2},
		{"table4", "Real vs. optimal register-interval lengths", Table4},
		{"figure2", "On-chip memory capacity across GPU generations", Figure2},
		{"figure3", "Ideal vs. real TFET-SRAM 8x register file", Figure3},
		{"figure4", "Register file cache hit rates (HW and SW)", Figure4},
		{"figure9", "IPC of BL/RFC/LTRF/LTRF+/Ideal on configs #6 and #7", Figure9},
		{"figure10", "Register file power on config #7", Figure10},
		{"figure11", "Maximum tolerable register file access latency", Figure11},
		{"figure12", "Sensitivity to registers per register-interval", Figure12},
		{"figure13", "Sensitivity to active warp count", Figure13},
		{"figure14", "LTRF vs. software-managed register caching schemes", Figure14},
		{"overheads", "LTRF code-size, storage, area, and power overheads", Overheads},
		{"designspace", "IPC and RF power of every registered design (open registry)", DesignSpace},
		{"designsweep", "Energy-delay product of every registered design across the latency sweep", DesignSweep},
		{"pipesweep", "Software-pipelined vs naive kernels across designs, latency, and schedulers", PipeSweep},
		{"prefsweep", "Hardware prefetching (stride / CTA-aware) vs software pipelining across designs and latency", PrefSweep},
	}
}

// ByID finds an experiment.
func ByID(id string) (Spec, error) {
	for _, s := range Registry() {
		if s.ID == id {
			return s, nil
		}
	}
	return Spec{}, fmt.Errorf("exp: unknown experiment %q (have: %s)", id, strings.Join(ids(), ", "))
}

func ids() []string {
	var out []string
	for _, s := range Registry() {
		out = append(out, s.ID)
	}
	sort.Strings(out)
	return out
}

// truncMark is the suffix appended to table cells whose underlying
// simulation was truncated (sim.Stats.Truncated: the MaxCycles hard stop
// fired before the instruction budget), so budget-starved numbers are never
// silently presented as full-budget samples. None of the golden quick/full
// runs truncate — the mark appearing in a rendered table is itself a
// regression signal.
const truncMark = "†"

// markIf appends the truncation mark to a rendered cell.
func markIf(cell string, truncated bool) string {
	if truncated {
		return cell + truncMark
	}
	return cell
}

// noteTruncation appends the explanatory footnote when any cell in the
// table was marked.
func noteTruncation(t *Table, any bool) {
	if any {
		t.Notes = append(t.Notes, truncMark+" includes a truncated run (cycle cap fired before the instruction budget); value is a lower bound")
	}
}

// f2, f1, f0 format floats at fixed precision.
func f2(v float64) string { return fmt.Sprintf("%.2f", v) }
func f1(v float64) string { return fmt.Sprintf("%.1f", v) }

// geomean returns the geometric mean of vs (1.0 for empty).
func geomean(vs []float64) float64 {
	if len(vs) == 0 {
		return 1
	}
	sum := 0.0
	for _, v := range vs {
		if v <= 0 {
			return 0
		}
		sum += math.Log(v)
	}
	return math.Exp(sum / float64(len(vs)))
}

// mean returns the arithmetic mean of vs (0 for empty).
func mean(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	sum := 0.0
	for _, v := range vs {
		sum += v
	}
	return sum / float64(len(vs))
}
