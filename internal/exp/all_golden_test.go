package exp_test

import (
	"os"
	"strings"
	"testing"

	"ltrf"
)

// checkAllGolden renders every registered experiment through
// RunAllExperiments on a fresh engine — what `ltrf-experiments -all`
// prints, minus its trailing timing line — and compares it with the golden
// at path byte for byte. LTRF_UPDATE_GOLDEN=1 rewrites the golden instead;
// a model change regenerates it and names the rows that moved.
func checkAllGolden(t *testing.T, path string, quick bool) {
	t.Helper()
	var sb strings.Builder
	o := ltrf.ExperimentOptions{Quick: quick, Engine: ltrf.NewExperimentEngine()}
	if err := ltrf.RunAllExperiments(&sb, o); err != nil {
		t.Fatal(err)
	}
	if n := o.Engine.Failures(); n > 0 {
		t.Fatalf("%d point(s) failed; first: %v", n, o.Engine.FirstError())
	}
	got := sb.String()
	if os.Getenv("LTRF_UPDATE_GOLDEN") != "" {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("updated %s", path)
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) || i < len(wl); i++ {
			var g, w string
			if i < len(gl) {
				g = gl[i]
			}
			if i < len(wl) {
				w = wl[i]
			}
			if g != w {
				t.Fatalf("%s: first difference at line %d\n got %q\nwant %q", path, i+1, g, w)
			}
		}
	}
}

// TestAllQuickGolden pins the whole quick evaluation: every registered
// experiment over its default workloads and designs.
func TestAllQuickGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	checkAllGolden(t, "testdata/all_quick_golden.txt", true)
}

// TestAllFullGolden pins the full-budget evaluation. It takes about ten
// seconds on two cores, so it runs only in the nightly tier
// (LTRF_FULL_PROPERTY=1).
func TestAllFullGolden(t *testing.T) {
	if os.Getenv("LTRF_FULL_PROPERTY") == "" {
		t.Skip("full-budget golden: set LTRF_FULL_PROPERTY=1")
	}
	checkAllGolden(t, "testdata/all_full_golden.txt", false)
}
