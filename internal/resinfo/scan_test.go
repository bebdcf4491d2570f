package resinfo_test

// Property test for the placement searches: one Manager is driven
// through a randomized transition sequence, and after every query step
// each search must return what the paper's literal walk over the node
// and configuration lists returns, and charge the steps that walk
// takes. The sharded SoA scans, their shard-count skips and the
// early-exit charge recovery are all checked against it.

import (
	"fmt"
	"testing"

	"dreamsim/internal/metrics"
	"dreamsim/internal/model"
	"dreamsim/internal/resinfo"
	"dreamsim/internal/rng"
)

// population synthesises a mixed-mode node population and its
// configurations from seed; caps, when given, are spread over both.
func population(seed uint64, nodes, configs int, caps []string) ([]*model.Node, []*model.Config) {
	r := rng.New(seed)
	ns := make([]*model.Node, nodes)
	for i := range ns {
		partial := r.Bool(0.5)
		ns[i] = model.NewNode(i, int64(r.IntRange(1000, 4000)), partial)
		for _, c := range caps {
			if r.Bool(0.6) {
				ns[i].Caps = append(ns[i].Caps, c)
			}
		}
	}
	cs := make([]*model.Config, configs)
	for i := range cs {
		cs[i] = &model.Config{
			No:         i,
			ReqArea:    int64(r.IntRange(200, 2000)),
			Ptype:      model.PTypeSoftCore,
			ConfigTime: int64(r.IntRange(10, 20)),
		}
		for _, c := range caps {
			if r.Bool(0.2) {
				cs[i].RequiredCaps = append(cs[i].RequiredCaps, c)
			}
		}
	}
	return ns, cs
}

// paperWalk answers each placement query by the paper's linear walk
// over m's lists, returning the result and the search steps the walk
// charges.
type paperWalk struct{ m *resinfo.Manager }

func (w paperWalk) bestBlank(cfg *model.Config) (*model.Node, uint64) {
	var best *model.Node
	for _, n := range w.m.Nodes() {
		if n.Blank() && !n.Down && n.HasCaps(cfg.RequiredCaps) && n.TotalArea >= cfg.ReqArea &&
			(best == nil || n.TotalArea < best.TotalArea) {
			best = n
		}
	}
	return best, uint64(len(w.m.Nodes()))
}

func (w paperWalk) bestPart(cfg *model.Config) (*model.Node, uint64) {
	var best *model.Node
	for _, n := range w.m.Nodes() {
		if n.PartialMode && !n.Blank() && n.HasCaps(cfg.RequiredCaps) && n.AvailableArea >= cfg.ReqArea &&
			(best == nil || n.AvailableArea < best.AvailableArea) {
			best = n
		}
	}
	return best, uint64(len(w.m.Nodes()))
}

func (w paperWalk) busyFit(cfg *model.Config) (bool, uint64) {
	for i, n := range w.m.Nodes() {
		if n.State() == model.StateBusy && n.HasCaps(cfg.RequiredCaps) && n.TotalArea >= cfg.ReqArea {
			return true, uint64(i) + 1
		}
	}
	return false, uint64(len(w.m.Nodes()))
}

func (w paperWalk) closest(area int64) (*model.Config, uint64) {
	var best *model.Config
	for _, cfg := range w.m.Configs() {
		if cfg.ReqArea >= area && (best == nil || cfg.ReqArea < best.ReqArea) {
			best = cfg
		}
	}
	return best, uint64(len(w.m.Configs()))
}

func (w paperWalk) preferred(no int) (*model.Config, uint64) {
	for i, cfg := range w.m.Configs() {
		if cfg.No == no {
			return cfg, uint64(i) + 1
		}
	}
	return nil, uint64(len(w.m.Configs()))
}

// charged runs query and returns the search steps it charged.
func charged(m *resinfo.Manager, query func()) uint64 {
	before := m.Counters().SchedulerSearch
	query()
	return m.Counters().SchedulerSearch - before
}

// queryAll runs every placement query on m and compares result and
// charge with the paper walk; cfgNo is the probe configuration, area
// the closest-match request.
func queryAll(t *testing.T, m *resinfo.Manager, cfgNo int, area int64) {
	t.Helper()
	w := paperWalk{m}
	cfg := m.Configs()[cfgNo]
	var node *model.Node
	var fit bool
	var c *model.Config

	steps := charged(m, func() { node = m.BestBlankNode(cfg) })
	if want, ws := w.bestBlank(cfg); node != want || steps != ws {
		t.Fatalf("BestBlankNode(C%d) = %v charging %d; paper walk %v charging %d", cfgNo, node, steps, want, ws)
	}
	steps = charged(m, func() { node = m.BestPartiallyBlankNode(cfg) })
	if want, ws := w.bestPart(cfg); node != want || steps != ws {
		t.Fatalf("BestPartiallyBlankNode(C%d) = %v charging %d; paper walk %v charging %d", cfgNo, node, steps, want, ws)
	}
	steps = charged(m, func() { fit = m.AnyBusyNodeCouldFit(cfg) })
	if want, ws := w.busyFit(cfg); fit != want || steps != ws {
		t.Fatalf("AnyBusyNodeCouldFit(C%d) = %v charging %d; paper walk %v charging %d", cfgNo, fit, steps, want, ws)
	}
	steps = charged(m, func() { c = m.FindClosestConfig(area) })
	if want, ws := w.closest(area); c != want || steps != ws {
		t.Fatalf("FindClosestConfig(%d) = %v charging %d; paper walk %v charging %d", area, c, steps, want, ws)
	}
	// A present and a missing configuration number: the miss charges
	// the whole list.
	for _, no := range []int{cfgNo, -7} {
		steps = charged(m, func() { c = m.FindPreferredConfig(no) })
		if want, ws := w.preferred(no); c != want || steps != ws {
			t.Fatalf("FindPreferredConfig(%d) = %v charging %d; paper walk %v charging %d", no, c, steps, want, ws)
		}
	}
}

func TestFastSearchEquivalenceProperty(t *testing.T) {
	for _, tc := range []struct {
		name string
		caps []string
	}{
		{"homogeneous", nil},
		{"capabilities", []string{"bram", "dsp", "serdes"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			const nodes, configs, steps = 60, 25, 4000
			ns, cs := population(42, nodes, configs, tc.caps)
			m, err := resinfo.New(ns, cs, &metrics.Counters{})
			if err != nil {
				t.Fatal(err)
			}
			r := rng.New(99)
			var nextTask int
			running := map[int][]*model.Task{} // node pos -> running tasks

			for step := 0; step < steps; step++ {
				op := r.Intn(6)
				ni := r.Intn(nodes)
				n := ns[ni]
				switch op {
				case 0: // Configure a random config that fits.
					c := cs[r.Intn(configs)]
					if !n.PartialMode && len(n.Entries) > 0 {
						continue
					}
					if c.ReqArea > n.AvailableArea || !n.HasCaps(c.RequiredCaps) {
						continue
					}
					if _, err := m.Configure(n, c); err != nil {
						t.Fatal(err)
					}
				case 1: // Start a task on a random idle entry.
					idle := n.IdleEntries()
					if len(idle) == 0 || (!n.PartialMode && n.RunningTasks() > 0) {
						continue
					}
					e := idle[r.Intn(len(idle))]
					task := &model.Task{No: nextTask, AssignedConfig: -1}
					nextTask++
					if err := m.StartTask(e, task); err != nil {
						t.Fatal(err)
					}
					running[ni] = append(running[ni], task)
				case 2: // Finish a random running task.
					if len(running[ni]) == 0 {
						continue
					}
					ti := r.Intn(len(running[ni]))
					task := running[ni][ti]
					running[ni] = append(running[ni][:ti], running[ni][ti+1:]...)
					if _, err := m.FinishTask(n, task); err != nil {
						t.Fatal(err)
					}
				case 3: // Evict a random subset of idle entries.
					idle := n.IdleEntries()
					if len(idle) == 0 {
						continue
					}
					if err := m.EvictIdle(n, idle[:r.IntRange(1, len(idle))]); err != nil {
						t.Fatal(err)
					}
				case 4: // Blank a fully idle node.
					if len(n.Entries) == 0 || n.RunningTasks() > 0 {
						continue
					}
					if err := m.BlankNode(n); err != nil {
						t.Fatal(err)
					}
				case 5: // Pure query step.
					queryAll(t, m, r.Intn(configs), int64(r.IntRange(1, 2500)))
				}
				if step%37 == 0 {
					queryAll(t, m, r.Intn(configs), int64(r.IntRange(1, 2500)))
					if err := m.CheckInvariants(); err != nil {
						t.Fatalf("step %d: %v", step, err)
					}
				}
			}
			queryAll(t, m, 0, 1)
			if err := m.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestScanFallsBackOnHugeCapSpace: >64 distinct capability names
// cannot be mask-encoded, so shard assembly must degrade to one flat
// shard whose scans use the per-node string test.
func TestScanFallsBackOnHugeCapSpace(t *testing.T) {
	var nodes []*model.Node
	for i := 0; i < 70; i++ {
		n := model.NewNode(i, 2000, true)
		n.Caps = []string{fmt.Sprintf("cap-%d", i)}
		nodes = append(nodes, n)
	}
	cfgs := []*model.Config{
		{No: 0, ReqArea: 500, ConfigTime: 10},
		{No: 1, ReqArea: 500, ConfigTime: 10, RequiredCaps: []string{"cap-42"}},
	}
	m, err := resinfo.New(nodes, cfgs, &metrics.Counters{})
	if err != nil {
		t.Fatal(err)
	}
	if m.ShardCount() != 1 {
		t.Fatalf("un-encodable capability space must collapse to 1 shard, got %d", m.ShardCount())
	}
	if n := m.BestBlankNode(cfgs[0]); n == nil {
		t.Fatal("flat-shard scan found no node")
	}
	if n := m.BestBlankNode(cfgs[1]); n == nil || n.No != 42 {
		t.Fatalf("flat-shard HasCaps scan missed cap-42: got %v", n)
	}
}
