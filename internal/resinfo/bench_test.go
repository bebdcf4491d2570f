package resinfo_test

import (
	"testing"

	"dreamsim/internal/invariant"
	"dreamsim/internal/metrics"
	"dreamsim/internal/model"
	"dreamsim/internal/resinfo"
)

// searchBench owns one manager plus the reusable scratch a steady-state
// search/transition cycle needs (the eviction slice and the probe task
// live outside the measured loop).
type searchBench struct {
	m     *resinfo.Manager
	nodes []*model.Node
	cfgs  []*model.Config
	evict [1]*model.Entry
	task  model.Task
}

func newSearchBench(tb testing.TB, nodeCount int) *searchBench {
	tb.Helper()
	nodes, cfgs := population(1234, nodeCount, 30, nil)
	m, err := resinfo.New(nodes, cfgs, &metrics.Counters{})
	if err != nil {
		tb.Fatal(err)
	}
	return &searchBench{m: m, nodes: nodes, cfgs: cfgs}
}

// cycle is one steady-state round: the placement-search queries the
// scheduler issues per decision, plus a configure → start → finish →
// evict transition so the scan block's sync runs on every flag change
// (blank, partially-blank and busy all move). The node returns to
// blank, so every round sees the same state.
func (sb *searchBench) cycle(tb testing.TB, i int) {
	cfg := sb.cfgs[i%len(sb.cfgs)]
	m := sb.m

	m.BestPartiallyBlankNode(cfg)
	m.AnyBusyNodeCouldFit(cfg)
	m.FindClosestConfig(cfg.ReqArea)
	m.FindPreferredConfig(cfg.No)

	n := m.BestBlankNode(cfg)
	if n == nil {
		return // capability-less population always has a blank fit
	}
	e, err := m.Configure(n, cfg)
	if err != nil {
		tb.Fatal(err)
	}
	sb.task = model.Task{No: i, AssignedConfig: -1}
	if err := m.StartTask(e, &sb.task); err != nil {
		tb.Fatal(err)
	}
	if _, err := m.FinishTask(n, &sb.task); err != nil {
		tb.Fatal(err)
	}
	sb.evict[0] = e
	if err := m.EvictIdle(n, sb.evict[:]); err != nil {
		tb.Fatal(err)
	}
}

// BenchmarkSearch measures the placement-search path on the 150-node
// population — the sweep grid's largest cell — and must report 0
// allocs/op: entries recycle through their pool and the scans walk
// the preallocated SoA arrays only. CI gates on the allocs/op column.
func BenchmarkSearch(b *testing.B) {
	sb := newSearchBench(b, 150)
	for i := 0; i < 64; i++ {
		sb.cycle(b, i) // warm the entry pool
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sb.cycle(b, i)
	}
}

// TestSearchZeroAlloc is the test-suite form of the benchmark gate.
func TestSearchZeroAlloc(t *testing.T) {
	if invariant.Enabled {
		t.Skip("invariant assertions allocate their message arguments")
	}
	if invariant.RaceEnabled {
		t.Skip("race instrumentation allocates")
	}
	sb := newSearchBench(t, 150)
	for i := 0; i < 64; i++ {
		sb.cycle(t, i)
	}
	i := 64
	if avg := testing.AllocsPerRun(500, func() { sb.cycle(t, i); i++ }); avg != 0 {
		t.Fatalf("placement search allocates: %.1f allocs/op", avg)
	}
}
