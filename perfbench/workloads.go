package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"strings"
	"time"

	"dreamsim"
	"dreamsim/internal/monitor"
)

// workloadDef is one benchmark input: the simulations one iteration runs
// and the public-API path it drives them through.
type workloadDef struct {
	name string
	// sims returns the parameters of each simulation one iteration
	// runs; the seed is the only source of input variation.
	sims func(seed uint64, small bool) []dreamsim.Params
	// run executes one iteration through the public API, recording
	// coarse spans under parent (tr may be nil), and returns each
	// simulation's outcome in sims order.
	run func(ps []dreamsim.Params, tr *tracer, parent int, st *publicStats) ([]outcome, error)
}

var workloads = []*workloadDef{
	{name: "paper-overloaded", sims: paperOverloaded, run: runCompare},
	{name: "cluster-stream", sims: clusterStream, run: runPlain},
	{name: "burst-monitored", sims: burstMonitored, run: runCheckpointed},
}

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return names
}

func lookupWorkload(name string) *workloadDef {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// base is the paper's Table II parameters with sequential experiment
// helpers; every other knob keeps its default.
func base(seed uint64, nodes, tasks int) dreamsim.Params {
	p := dreamsim.DefaultParams()
	p.Seed = seed
	p.Nodes = nodes
	p.Tasks = tasks
	p.Parallelism = 1
	return p
}

// paperOverloaded is Table II at 100 nodes, deep in the quadratic
// suspension regime, in both reconfiguration modes over one input.
func paperOverloaded(seed uint64, small bool) []dreamsim.Params {
	nodes, tasks := 100, 20000
	if small {
		nodes, tasks = 20, 600
	}
	full := base(seed, nodes, tasks)
	full.PartialReconfig = false
	partial := full
	partial.PartialReconfig = true
	return []dreamsim.Params{full, partial}
}

// clusterStream is a light-load cluster-scale streamed run on the
// default placement path.
func clusterStream(seed uint64, small bool) []dreamsim.Params {
	nodes, tasks := 5000, 1000000
	if small {
		nodes, tasks = 300, 6000
	}
	p := base(seed, nodes, tasks)
	p.Stream = true
	return []dreamsim.Params{p}
}

// burstMonitored is a generated multi-class scenario with bursts, a
// load timeline, a spike, a maintenance window and a fault storm, run
// with windowed monitoring of every placement and completion.
func burstMonitored(seed uint64, small bool) []dreamsim.Params {
	nodes, tasks := 1000, 100000
	if small {
		nodes, tasks = 100, 4000
	}
	p := base(seed, nodes, tasks)
	p.ScenarioText = burstScenario(nodes, tasks)
	p.SampleEvery = 1
	p.WindowSamples = dreamsim.DefaultWindowSamples
	return []dreamsim.Params{p}
}

// burstScenario writes the burst-monitored scenario for the given
// size. Event times are fractions of the expected arrival horizon, so
// the spike, maintenance window and storm land early, mid and late in
// the run at any size.
func burstScenario(nodes, tasks int) string {
	const interval = 50
	horizon := float64(tasks) * (interval + 1) / 2
	at := func(f float64) int64 { return int64(f * horizon) }
	var b strings.Builder
	fmt.Fprintf(&b, "dreamsim-scenario v1\nname burst-monitored\ntasks %d\ninterval %d\n\n", tasks, interval)
	b.WriteString("class batch\n  fraction 0.5\n  arrival gamma 2\n  reqtime 1000 60000 uniform\n  area 200 1500\nend\n\n")
	b.WriteString("class interactive\n  fraction 0.3\n  arrival weibull 0.7\n  reqtime 100 5000 uniform\nend\n\n")
	b.WriteString("class stream\n  fraction 0.2\n  arrival poisson\n  reqtime 500 20000 uniform\nend\n\n")
	fmt.Fprintf(&b, "timeline\n  0 0.6\n  %d 1.4\n  %d 0.8\n  %d 1.4\n  %d 0.6\nend\n\n",
		at(0.25), at(0.5), at(0.75), at(1))
	fmt.Fprintf(&b, "event spike %d %d 3\n", at(0.3), at(0.31))
	fmt.Fprintf(&b, "event maintenance %d %d 0 %d\n", at(0.45), at(0.5), nodes/20-1)
	fmt.Fprintf(&b, "event storm %d %d %d\n", at(0.7), at(0.705), nodes/50)
	return b.String()
}

// The burst-monitored run pauses every Tasks/cadenceDivisor events
// (about ten pauses, since a task costs about two events), snapshots
// at every pause, and resumes once from the snapshot of pause
// resumeAtPause.
const (
	cadenceDivisor = 5
	resumeAtPause  = 5
)

// outcome is what the correctness gate checks of one simulation.
type outcome struct {
	digest                                string
	generated, completed, discarded, lost int64
	expected                              int64
}

// check verifies task conservation and, when ref is set, that the
// report digest equals the reference digest.
func (o outcome) check(ref string) error {
	if settled := o.completed + o.discarded + o.lost; settled != o.generated {
		return fmt.Errorf("completed %d + discarded %d + lost %d != generated %d",
			o.completed, o.discarded, o.lost, o.generated)
	}
	if o.generated != o.expected {
		return fmt.Errorf("generated %d tasks, want %d", o.generated, o.expected)
	}
	if ref != "" && o.digest != ref {
		return fmt.Errorf("report digest %s differs from reference %s", o.digest[:12], ref[:12])
	}
	return nil
}

func (o outcome) settled() int64 { return o.completed + o.discarded + o.lost }

// publicStats accumulates the coarse public-call timings of an
// iteration.
type publicStats struct {
	snapshots int
	snapBytes int64
	encode    time.Duration
	restore   time.Duration
	finish    time.Duration
}

// reportDigest hashes a simulation's XML report and its monitoring
// windows, so the correctness gate covers the monitor layer too.
func reportDigest(writeXML func(io.Writer) error, windowsTotal int, rows []monitor.WindowRow) (string, error) {
	h := sha256.New()
	if err := writeXML(h); err != nil {
		return "", err
	}
	fmt.Fprintf(h, "windows %d\n", windowsTotal)
	for _, r := range rows {
		fmt.Fprintf(h, "%d %d %d", r.Start, r.End, r.Samples)
		for _, st := range append([]monitor.WindowStat{r.Utilization, r.Running, r.Suspended, r.WastedArea}, r.ClassRunning...) {
			fmt.Fprintf(h, " %v %v %v %v", st.Min, st.Max, st.Mean, st.P99)
		}
		fmt.Fprintln(h)
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// monitorRows converts a public result's windows to the engine's form.
func monitorRows(ws []dreamsim.TimelineWindow) []monitor.WindowRow {
	rows := make([]monitor.WindowRow, len(ws))
	for i, w := range ws {
		rows[i] = monitor.WindowRow{
			Start:       w.Start,
			End:         w.End,
			Samples:     w.Samples,
			Utilization: monitor.WindowStat(w.Utilization),
			Running:     monitor.WindowStat(w.Running),
			Suspended:   monitor.WindowStat(w.Suspended),
			WastedArea:  monitor.WindowStat(w.WastedArea),
		}
		for _, c := range w.ClassRunning {
			rows[i].ClassRunning = append(rows[i].ClassRunning, monitor.WindowStat(c))
		}
	}
	return rows
}

// finishPublic runs finish (the public call that yields the result, if
// the path has one) and renders the result's report into its digest,
// all inside one "finish" span.
func finishPublic(p dreamsim.Params, tr *tracer, parent int, st *publicStats, finish func() (dreamsim.Result, error)) (outcome, error) {
	sp := tr.begin(parent, "finish")
	t0 := time.Now()
	r, err := finish()
	var d string
	if err == nil {
		d, err = reportDigest(r.WriteXML, r.WindowsTotal, monitorRows(r.Windows))
	}
	st.finish += time.Since(t0)
	tr.end(sp)
	if err != nil {
		return outcome{}, err
	}
	return outcome{
		digest:    d,
		generated: r.TotalTasks,
		completed: r.CompletedTasks,
		discarded: r.TotalDiscardedTasks,
		lost:      r.TasksLost,
		expected:  int64(p.Tasks),
	}, nil
}

// runCompare drives both simulations through one dreamsim.Compare.
func runCompare(ps []dreamsim.Params, tr *tracer, parent int, st *publicStats) ([]outcome, error) {
	sim := tr.begin(parent, "simulation", "path", "Compare")
	defer tr.end(sim)
	sp := tr.begin(sim, "run")
	full, partial, err := dreamsim.Compare(ps[0])
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	outs := make([]outcome, 2)
	for i, r := range []dreamsim.Result{full, partial} {
		if outs[i], err = finishPublic(ps[i], tr, sim, st, func() (dreamsim.Result, error) { return r, nil }); err != nil {
			return nil, err
		}
	}
	return outs, nil
}

// runPlain drives each simulation through dreamsim.Run.
func runPlain(ps []dreamsim.Params, tr *tracer, parent int, st *publicStats) ([]outcome, error) {
	outs := make([]outcome, len(ps))
	for i, p := range ps {
		sim := tr.begin(parent, "simulation", "path", "Run")
		sp := tr.begin(sim, "run")
		r, err := dreamsim.Run(p)
		tr.end(sp)
		if err == nil {
			outs[i], err = finishPublic(p, tr, sim, st, func() (dreamsim.Result, error) { return r, nil })
		}
		tr.end(sim)
		if err != nil {
			return nil, err
		}
	}
	return outs, nil
}

// runCheckpointed drives each simulation the way the serving layer
// does: StartRun, then RunUntil paused at a fixed event cadence with a
// Snapshot at every pause, one mid-run ResumeRun from the latest
// snapshot, and Finish.
func runCheckpointed(ps []dreamsim.Params, tr *tracer, parent int, st *publicStats) ([]outcome, error) {
	outs := make([]outcome, len(ps))
	for i, p := range ps {
		sim := tr.begin(parent, "simulation", "path", "StartRun")
		o, err := checkpointed(p, tr, sim, st)
		tr.end(sim)
		if err != nil {
			return nil, err
		}
		outs[i] = o
	}
	return outs, nil
}

func checkpointed(p dreamsim.Params, tr *tracer, sim int, st *publicStats) (outcome, error) {
	sp := tr.begin(sim, "setup")
	r, err := dreamsim.StartRun(p)
	tr.end(sp)
	if err != nil {
		return outcome{}, err
	}
	cadence := uint64(p.Tasks / cadenceDivisor)
	next := cadence
	pause := func(_ int64, processed uint64) bool { return processed >= next }
	for pauses := 1; ; pauses++ {
		sp = tr.begin(sim, "run")
		done := r.RunUntil(pause)
		tr.end(sp)
		if done {
			break
		}
		sp = tr.begin(sim, "snapshot")
		t0 := time.Now()
		snap, err := r.Snapshot()
		st.encode += time.Since(t0)
		tr.end(sp)
		if err != nil {
			return outcome{}, err
		}
		st.snapshots++
		st.snapBytes += int64(len(snap))
		if pauses == resumeAtPause {
			sp = tr.begin(sim, "resume")
			t0 = time.Now()
			r, err = dreamsim.ResumeRun(p, snap)
			st.restore += time.Since(t0)
			tr.end(sp)
			if err != nil {
				return outcome{}, err
			}
		}
		next = r.Processed() + cadence
	}
	return finishPublic(p, tr, sim, st, r.Finish)
}
