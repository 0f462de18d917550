package exp

import "testing"

// TestSmokeAll runs every experiment in quick mode on a reduced workload
// set and checks each renders a non-empty table.
func TestSmokeAll(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	o := Options{Quick: true, Workloads: []string{"vectoradd", "btree", "sgemm", "stencil"}}
	for _, s := range Registry() {
		s := s
		t.Run(s.ID, func(t *testing.T) {
			tab, err := s.Run(o)
			if err != nil {
				t.Fatalf("%s: %v", s.ID, err)
			}
			if len(tab.Rows) == 0 {
				t.Fatalf("%s: empty table", s.ID)
			}
		})
	}
}
