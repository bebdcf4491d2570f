package main

import (
	"io"
	"time"

	"dreamsim"
	"dreamsim/internal/core"
	"dreamsim/internal/metrics"
	"dreamsim/internal/monitor"
	"dreamsim/internal/report"
	"dreamsim/internal/rng"
	"dreamsim/internal/sched"
	"dreamsim/internal/workload"
)

// lower builds the engine parameters dreamsim.StartRun would build for
// p. It covers only the knobs the workloads set; the correctness gate
// proves it faithful, since a core-level pass must reproduce the
// public run's report digest.
func lower(p dreamsim.Params) (core.Params, *monitor.Recorder, error) {
	cp := core.Params{
		Spec: workload.Spec{
			Tasks:               p.Tasks,
			NextTaskMaxInterval: p.NextTaskMaxInterval,
			Arrival:             workload.ArrivalUniform,
			TaskReqTimeLow:      p.TaskTimeRange[0],
			TaskReqTimeHigh:     p.TaskTimeRange[1],
			ClosestMatchPct:     p.ClosestMatchPct,
			TaskTimeDist:        workload.DistUniform,
			ConfigPopularity:    p.ConfigPopularity,
			Configs:             p.Configs,
			ConfigAreaLow:       p.ConfigAreaRange[0],
			ConfigAreaHigh:      p.ConfigAreaRange[1],
			ConfigTimeLow:       p.ConfigTimeRange[0],
			ConfigTimeHigh:      p.ConfigTimeRange[1],
			Nodes:               p.Nodes,
			NodeAreaLow:         p.NodeAreaRange[0],
			NodeAreaHigh:        p.NodeAreaRange[1],
		},
		Partial:       p.PartialReconfig,
		Seed:          p.Seed,
		PolicyOptions: sched.Options{Placement: sched.BestFit},
		IntraParallel: dreamsim.EffectiveIntraParallel(p.IntraParallel),
		Stream:        p.Stream,
	}
	if p.ScenarioText != "" {
		scn, err := workload.ParseScenario(p.ScenarioText)
		if err != nil {
			return core.Params{}, nil, err
		}
		if err := scn.Validate(); err != nil {
			return core.Params{}, nil, err
		}
		scn.ApplyDefaults(&cp.Spec)
		cp.Scenario = scn
	}
	if err := cp.Validate(); err != nil {
		return core.Params{}, nil, err
	}
	var rec *monitor.Recorder
	if p.SampleEvery > 0 {
		rec = monitor.NewWindowRecorder(p.SampleEvery, p.WindowSamples, nil)
		if cp.Scenario != nil && cp.Scenario.MultiClass() {
			rec.Classes = len(cp.Scenario.Classes)
		}
		cp.Recorder = rec
	}
	return cp, rec, nil
}

// newSource builds the task source core.New would build for cp, from
// the same seed-derived RNG streams (configurations, nodes, tasks).
func newSource(cp core.Params) (workload.TaskSource, error) {
	root := rng.New(cp.Seed)
	cfgR := root.Split()
	_ = root.Split() // node stream
	taskR := root.Split()
	configs := workload.GenConfigs(cfgR, &cp.Spec)
	if cp.Scenario != nil {
		return workload.NewScenarioSource(taskR, cp.Scenario, &cp.Spec, configs)
	}
	return workload.NewGenerator(taskR, &cp.Spec, configs)
}

// passStats is what one core-level pass measured over an iteration's
// simulations.
type passStats struct {
	setup, run, finish time.Duration
	events             uint64
	counters           metrics.Counters // summed over simulations
	susPeak            int64            // deepest suspension queue of any simulation
	speculated         int64
	committed          int64
	windows, samples   int
	decide, retry      hist
	next               hist
	decidePlaced       uint64
	retryPlaced        uint64
	recycled           int64
}

// corePass runs p at the core level. With wrap set (pass a) the policy
// and task source are wrapped with per-call timers; without it (pass
// b) the run is the engine's own, so batched dispatch stays on.
func corePass(p dreamsim.Params, wrap bool, tr *tracer, parent int, ps *passStats) (outcome, error) {
	pass := "b"
	if wrap {
		pass = "a"
	}
	sim := tr.begin(parent, "simulation", "path", "core", "pass", pass)
	defer tr.end(sim)

	sp := tr.begin(sim, "setup")
	t0 := time.Now()
	cp, rec, err := lower(p)
	var (
		pol *timedPolicy
		src *timedSource
	)
	if err == nil && wrap {
		var inner workload.TaskSource
		inner, err = newSource(cp)
		src = &timedSource{inner: inner}
		pol = &timedPolicy{inner: sched.New(cp.PolicyOptions)}
		cp.Source, cp.Policy = src, pol
	}
	var s *core.Simulator
	if err == nil {
		s, err = core.New(cp)
	}
	if err == nil {
		err = s.Start()
	}
	ps.setup += time.Since(t0)
	tr.end(sp)
	if err != nil {
		return outcome{}, err
	}

	sp = tr.begin(sim, "run")
	t0 = time.Now()
	s.RunUntil(nil)
	ps.run += time.Since(t0)
	tr.end(sp)

	sp = tr.begin(sim, "finish")
	t0 = time.Now()
	res, err := s.Finish()
	var d string
	var (
		total int
		rows  []monitor.WindowRow
	)
	if err == nil && rec != nil {
		err = rec.FinishWindows()
		total, rows = rec.WindowsTotal(), rec.Windows()
	}
	if err == nil {
		x := res.XML(cp)
		d, err = reportDigest(func(w io.Writer) error { return report.WriteXML(w, x) }, total, rows)
	}
	ps.finish += time.Since(t0)
	tr.end(sp)
	if err != nil {
		return outcome{}, err
	}

	c := res.Counters
	ps.events += s.Processed()
	addCounters(&ps.counters, &c)
	ps.susPeak = max(ps.susPeak, c.SusQueuePeak)
	spec, commit := s.BatchStats()
	ps.speculated += spec
	ps.committed += commit
	ps.windows += total
	for _, row := range rows {
		ps.samples += row.Samples
	}
	if wrap {
		ps.decide.merge(&pol.decide)
		ps.retry.merge(&pol.retry)
		ps.next.merge(&src.next)
		ps.decidePlaced += pol.decidePlaced
		ps.retryPlaced += pol.retryPlaced
		ps.recycled += src.Recycled()
	}
	return outcome{
		digest:    d,
		generated: c.GeneratedTasks,
		completed: c.CompletedTasks,
		discarded: c.DiscardedTasks,
		lost:      c.LostTasks,
		expected:  int64(cp.Spec.Tasks),
	}, nil
}

// addCounters sums the counters the per-layer metrics read.
func addCounters(dst, c *metrics.Counters) {
	dst.SusRetries += c.SusRetries
	dst.SchedulerSearch += c.SchedulerSearch
	dst.HousekeepingSteps += c.HousekeepingSteps
	dst.NodeCrashes += c.NodeCrashes
	dst.TasksRetried += c.TasksRetried
}
