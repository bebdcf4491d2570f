package dreamsim_test

import (
	"reflect"
	"testing"

	"dreamsim"
)

// TestFastSearchEquivalence pins that the deprecated FastSearch and
// FastSearchCutoff fields are no-ops: across a grid of scales and both
// reconfiguration scenarios, every public Result — metrics, Table I
// counters (SchedulerSearch and HousekeepingSteps included), phase
// histogram — must be identical with them set and unset.
func TestFastSearchEquivalence(t *testing.T) {
	for _, nodes := range []int{50, 100} {
		for _, tasks := range []int{500, 1000} {
			for _, partial := range []bool{false, true} {
				p := dreamsim.DefaultParams()
				p.Nodes = nodes
				p.Tasks = tasks
				p.PartialReconfig = partial

				lin, err := dreamsim.Run(p)
				if err != nil {
					t.Fatal(err)
				}
				p.FastSearch = true
				p.FastSearchCutoff = 1
				fast, err := dreamsim.Run(p)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(lin, fast) {
					t.Errorf("nodes=%d tasks=%d partial=%v: FastSearch result diverged\nlinear %+v\nfast   %+v",
						nodes, tasks, partial, lin, fast)
				}
			}
		}
	}
}

// TestFastSearchMatrixEquivalence covers the sweep-level surface: a
// full matrix run with FastSearch set produces the same cells as one
// without it.
func TestFastSearchMatrixEquivalence(t *testing.T) {
	base := dreamsim.DefaultParams()
	lin, err := dreamsim.RunMatrix(base, []int{20, 40}, []int{100, 300}, nil)
	if err != nil {
		t.Fatal(err)
	}
	base.FastSearch = true
	base.FastSearchCutoff = 1
	fast, err := dreamsim.RunMatrix(base, []int{20, 40}, []int{100, 300}, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := range lin.Cells {
		if !reflect.DeepEqual(lin.Cells[i].Full, fast.Cells[i].Full) ||
			!reflect.DeepEqual(lin.Cells[i].Partial, fast.Cells[i].Partial) {
			t.Errorf("cell %d diverged between linear and fast search", i)
		}
	}
}
