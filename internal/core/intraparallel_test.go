package core

import (
	"reflect"
	"testing"

	"dreamsim/internal/fault"
	"dreamsim/internal/invariant"
	"dreamsim/internal/model"
	"dreamsim/internal/rng"
	"dreamsim/internal/workload"
)

// Params.IntraParallel is deprecated and has no effect. The tests
// below pin that: stored job specs and callers still set it, and no
// value may change a result byte, a metered counter or a snapshot.
//
// The synthetic generator draws inter-arrival gaps of at least one
// tick, so a Spec-driven run never has two arrivals share a tick.
// collidedSource replays the generator's exact task stream with
// CreateTimes compressed by quant, which collapses nearby arrivals
// onto shared ticks while preserving their order. The generator is rebuilt with the same substream
// derivation as New (config stream, node stream, task stream, in that
// order) so the tasks reference the very config population the run
// under test will build from the same seed. Each call produces fresh
// task structs: runs mutate tasks, so the two sides of an equivalence
// comparison must never share them.
func collidedSource(t *testing.T, p Params, quant int64) workload.TaskSource {
	t.Helper()
	spec := p.Spec
	root := rng.New(p.Seed)
	cfgR := root.Split()
	_ = root.Split() // node stream, drawn by New itself
	taskR := root.Split()
	configs := workload.GenConfigs(cfgR, &spec)
	gen, err := workload.NewGenerator(taskR, &spec, configs)
	if err != nil {
		t.Fatal(err)
	}
	tasks := workload.Drain(gen)
	for _, task := range tasks {
		// +1 keeps tick 0 free: the engine starts at 0.
		task.CreateTime = task.CreateTime/quant + 1
	}
	src, err := workload.SliceSource(tasks)
	if err != nil {
		t.Fatal(err)
	}
	return src
}

// TestIntraParallelResultEquivalence: a run with IntraParallel set
// must produce the exact Result — counters (including SchedulerSearch
// and HousekeepingSteps), report, per-class stats and final snapshot —
// of the run without it, across every scheduling feature that
// interacts with the dispatch path.
func TestIntraParallelResultEquivalence(t *testing.T) {
	scenarios := []struct {
		name string
		tune func(*Params)
	}{
		{"full-reconfig", func(p *Params) { p.Partial = false }},
		{"partial-reconfig", func(p *Params) { p.Partial = true }},
		{"heterogeneous-caps", func(p *Params) {
			p.Partial = true
			p.Spec.CapKinds = []string{"bram", "dsp"}
			p.Spec.NodeCapProb = 0.7
			p.Spec.ConfigCapProb = 0.3
		}},
		{"defrag", func(p *Params) {
			p.Partial = true
			p.DefragThreshold = 3
		}},
		{"bounded-retries", func(p *Params) {
			p.Partial = true
			p.MaxSusRetries = 2
		}},
		{"faults", func(p *Params) {
			p.Partial = true
			p.Faults = fault.Plan{CrashRate: 0.002, MeanDowntime: 150, ReconfigFaultRate: 0.001}
		}},
		{"streamed", func(p *Params) {
			p.Partial = true
			p.Stream = true
		}},
	}
	for _, sc := range scenarios {
		t.Run(sc.name, func(t *testing.T) {
			base := smallParams(40, 600, true)
			sc.tune(&base)

			run := func(ip int) *Result {
				p := base
				p.IntraParallel = ip
				p.Source = collidedSource(t, p, 8)
				return mustRun(t, p)
			}

			sres := run(1)
			for _, ip := range []int{4, 8} {
				pres := run(ip)
				if sres.Counters != pres.Counters {
					t.Fatalf("ip=%d: counters diverged:\nseq %+v\npar %+v", ip, sres.Counters, pres.Counters)
				}
				if sres.Report != pres.Report {
					t.Fatalf("ip=%d: reports diverged:\nseq %+v\npar %+v", ip, sres.Report, pres.Report)
				}
				if !reflect.DeepEqual(sres, pres) {
					t.Fatalf("ip=%d: results diverged", ip)
				}
			}
		})
	}
}

// TestIntraParallelSliceSourceBaseline: the quantized SliceSource run
// at IntraParallel 0 (the default) must equal the same source at 1.
func TestIntraParallelSliceSourceBaseline(t *testing.T) {
	base := smallParams(30, 400, true)
	run := func(ip int) *Result {
		p := base
		p.IntraParallel = ip
		p.Source = collidedSource(t, p, 8)
		return mustRun(t, p)
	}
	if a, b := run(0), run(1); !reflect.DeepEqual(a, b) {
		t.Fatal("IntraParallel 0 and 1 diverged on the same source")
	}
}

// collideScenario is a two-class scenario whose per-class clocks
// collide constantly (uniform gaps of at most three ticks each), on a
// source that also supports checkpointing — the Generator cannot
// collide ticks, and SliceSource cannot checkpoint.
const collideScenario = `dreamsim-scenario v1
tasks 500
interval 3
class batch
  fraction 0.5
  reqtime 500 20000 uniform
end
class interactive
  fraction 0.5
  reqtime 100 2000 uniform
end
`

// scenarioParams builds the shared parameter set for the scenario
// tests below.
func scenarioParams(t *testing.T, ip int) Params {
	t.Helper()
	scn, err := workload.ParseScenario(collideScenario)
	if err != nil {
		t.Fatal(err)
	}
	p := smallParams(30, 500, true)
	p.Scenario = scn
	p.IntraParallel = ip
	return p
}

// TestIntraParallelScenarioEquivalence extends the equivalence gate to
// the multi-class scenario source, whose interleaved class clocks are
// the one paper-surface way same-tick arrivals occur naturally.
func TestIntraParallelScenarioEquivalence(t *testing.T) {
	sref := mustRun(t, scenarioParams(t, 1))
	pres := mustRun(t, scenarioParams(t, 4))
	if !reflect.DeepEqual(sref, pres) {
		t.Fatalf("scenario run diverged:\nip=1 %+v\nip=4 %+v", sref.Counters, pres.Counters)
	}
}

// TestIntraParallelSnapshotResume: a snapshot must restore and finish
// identically when the restoring side sets a different IntraParallel
// than the snapshotting side. The fingerprint deliberately excludes
// the field: it changes no result byte.
func TestIntraParallelSnapshotResume(t *testing.T) {
	ref := mustRun(t, scenarioParams(t, 1))
	paused := 0
	for _, target := range []uint64{40, 200, 700} {
		for _, levels := range [][2]int{{4, 4}, {4, 1}, {1, 4}} {
			snap, ok := pauseAndSnapshot(t, scenarioParams(t, levels[0]), target)
			if !ok {
				continue
			}
			paused++
			s2, err := RestoreSnapshot(scenarioParams(t, levels[1]), snap)
			if err != nil {
				t.Fatalf("RestoreSnapshot at %d events (ip %d->%d): %v", target, levels[0], levels[1], err)
			}
			if !s2.RunUntil(nil) {
				t.Fatal("restored run paused with a nil pause")
			}
			got, err := s2.Finish()
			if err != nil {
				t.Fatalf("restored Finish: %v", err)
			}
			if !reflect.DeepEqual(ref, got) {
				t.Fatalf("target=%d ip %d->%d: restored run diverged", target, levels[0], levels[1])
			}
		}
	}
	if paused < 6 {
		t.Fatalf("only %d pause points exercised", paused)
	}
}

// TestTickZeroAllocIntraParallel re-runs the plain single-arrival tick
// gate with IntraParallel set: the tick must stay allocation-free.
func TestTickZeroAllocIntraParallel(t *testing.T) {
	if invariant.Enabled {
		t.Skip("invariant assertions allocate their message arguments")
	}
	if invariant.RaceEnabled {
		t.Skip("race instrumentation allocates")
	}
	p := smallParams(1, 1, true)
	p.Spec.Configs = 1
	p.Spec.ConfigAreaLow, p.Spec.ConfigAreaHigh = 1000, 1000
	p.Spec.NodeAreaLow, p.Spec.NodeAreaHigh = 1500, 1500
	p.Spec.Nodes = 1
	p.IntraParallel = 4
	p.Source = emptySource{}
	s, err := New(p)
	if err != nil {
		t.Fatal(err)
	}
	task := model.NewTask(0, 1000, 0, 50, 0)
	for i := 0; i < 8; i++ {
		tickCycle(t, s, task)
	}
	if avg := testing.AllocsPerRun(200, func() { tickCycle(t, s, task) }); avg != 0 {
		t.Fatalf("scheduler tick with IntraParallel allocates: %.1f allocs/op", avg)
	}
}
