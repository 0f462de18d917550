package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestRejectsHostileFlags asserts that each misuse exits 2 with the usage
// message and a named reason, before any experiment runs.
func TestRejectsHostileFlags(t *testing.T) {
	for _, c := range []struct {
		args []string
		why  string
	}{
		{[]string{"-all", "-run", "table1"}, "exclude each other"},
		{[]string{"-list", "-all"}, "exclude each other"},
		{[]string{"-run", "table2", "-parallel", "-3"}, "-parallel -3"},
		{[]string{"-run", "table1", "-workloads", "nosuch"}, `unknown workload`},
		{[]string{"-run", "table2", "-workloads", "sgemm,"}, `-workloads`},
		{[]string{"-run", "designspace", "-design", "nosuch"}, `unknown design "nosuch"`},
		{[]string{"-run", "table2", "-design", "LTRF,bogus"}, `unknown design "bogus"`},
		{[]string{"-run", "table2", "extra"}, "unexpected arguments"},
		{[]string{"-parallel", "x"}, "invalid value"},
	} {
		t.Run(strings.Join(c.args, " "), func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			if code := realMain(c.args, &stdout, &stderr); code != 2 {
				t.Errorf("exit %d, want 2", code)
			}
			if stdout.Len() != 0 {
				t.Errorf("ran something:\n%s", stdout.String())
			}
			if !strings.Contains(stderr.String(), c.why) || !strings.Contains(stderr.String(), "Usage of ltrf-experiments") {
				t.Errorf("stderr lacks %q or the usage message:\n%s", c.why, stderr.String())
			}
		})
	}
}

// TestAcceptsValidFlags runs a static experiment with every list flag set
// to a valid value, case-insensitive design spelling included.
func TestAcceptsValidFlags(t *testing.T) {
	var stdout, stderr bytes.Buffer
	args := []string{"-run", "table2", "-quick", "-parallel", "1", "-workloads", "sgemm,btree", "-design", "ltrf,BL"}
	if code := realMain(args, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d, stderr:\n%s", code, stderr.String())
	}
	if !strings.HasPrefix(stdout.String(), "== table2:") {
		t.Errorf("stdout does not start with the table2 table:\n%s", stdout.String())
	}
}
