package exp

import (
	"strings"
	"testing"

	"ltrf/internal/regfile"
	"ltrf/internal/sim"
)

// sweepTrio is the fixed workload trio of the designsweep golden: sgemm
// (register-hungry, compute-leaning), pathfinder (shared-memory-heavy), and
// vectoradd (small streaming kernel).
var sweepTrio = []string{"sgemm", "pathfinder", "vectoradd"}

// TestDesignSweepDualColumns asserts the rebased sweep's shape: per
// registered design an RF-EDP column immediately followed by its chip-EDP
// column, then a best-design column for each account, with BL pinned to
// 1.00 under both accounts at 1x.
func TestDesignSweepDualColumns(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	o := Options{Quick: true, Workloads: []string{"sgemm"}, Engine: NewEngine()}
	tab, err := DesignSweep(o)
	if err != nil {
		t.Fatal(err)
	}
	names := regfile.Names()
	if want := 1 + 2*len(names) + 2; len(tab.Headers) != want {
		t.Fatalf("designsweep has %d columns, want %d (Latency + 2 per design + 2 best): %v",
			len(tab.Headers), want, tab.Headers)
	}
	for i, n := range names {
		if got := tab.Headers[1+2*i]; got != n {
			t.Errorf("column %d = %q, want RF column %q", 1+2*i, got, n)
		}
		if got, want := tab.Headers[2+2*i], n+"(chip)"; got != want {
			t.Errorf("column %d = %q, want chip column %q", 2+2*i, got, want)
		}
	}
	if got := tab.Headers[len(tab.Headers)-2]; got != "best(rf)" {
		t.Errorf("penultimate column = %q, want best(rf)", got)
	}
	if got := tab.Headers[len(tab.Headers)-1]; got != "best(chip)" {
		t.Errorf("last column = %q, want best(chip)", got)
	}

	// BL is the normalization baseline under BOTH accounts at 1x.
	blCol := 0
	for i, h := range tab.Headers {
		if h == "BL" {
			blCol = i
			break
		}
	}
	if rf, ok := tab.Cell("1x", blCol); !ok || rf != "1.00" {
		t.Errorf("BL RF-EDP at 1x = %q, want 1.00", rf)
	}
	if chip, ok := tab.Cell("1x", blCol+1); !ok || chip != "1.00" {
		t.Errorf("BL chip-EDP at 1x = %q, want 1.00", chip)
	}

	// Every best cell names a registered design.
	for _, row := range tab.Rows {
		for _, cell := range row[len(row)-2:] {
			if _, err := regfile.Lookup(cell); err != nil {
				t.Errorf("best cell %q is not a registered design: %v", cell, err)
			}
		}
	}
}

// TestDesignSweepRankingDisagreement is the acceptance check for the
// chip-level account: on at least one workload of the golden trio, some
// pair of designs at some latency point ranks in OPPOSITE order under
// RF-only EDP and chip-level EDP — i.e. the RF-only yardstick mis-ranks a
// design that buys RF savings with memory-system or pipeline cost. (sgemm
// shows it clearly: comp beats SHRF on RF energy through compression, but
// SHRF wins the chip account.)
func TestDesignSweepRankingDisagreement(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	o := Options{Quick: true, Workloads: sweepTrio, Engine: NewEngine()}
	ws, err := o.evalSet()
	if err != nil {
		t.Fatal(err)
	}
	names, err := o.designSet()
	if err != nil {
		t.Fatal(err)
	}
	eng := o.engine()
	// The designsweep render evaluates every (design, latency, workload)
	// point below in one batch; the scoring loop then reads the memo.
	if _, err := DesignSweep(o); err != nil {
		t.Fatal(err)
	}

	var flips []string
	for _, w := range ws {
		for _, x := range sweepGrid {
			type score struct {
				name     string
				rf, chip float64
			}
			scores := make([]score, 0, len(names))
			for _, n := range names {
				res, err := eng.Eval(o.ctx(), o.point(sim.Design(n), 1, x, w.Name))
				if err != nil {
					t.Fatal(err)
				}
				rf, chip, err := designEDPs(res)
				if err != nil {
					t.Fatal(err)
				}
				scores = append(scores, score{n, rf, chip})
			}
			for i := range scores {
				for j := i + 1; j < len(scores); j++ {
					a, b := scores[i], scores[j]
					if (a.rf-b.rf)*(a.chip-b.chip) < 0 {
						flips = append(flips, w.Name+": "+a.name+" vs "+b.name)
					}
				}
			}
		}
	}
	if len(flips) == 0 {
		t.Fatal("no (workload, latency, design pair) in the quick trio ranks differently under RF-EDP vs chip-EDP; the chip account adds nothing")
	}
	t.Logf("RF-vs-chip ranking disagreements: %s", strings.Join(flips, "; "))
}
