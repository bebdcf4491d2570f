package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"dreamsim"
)

// An untraced run times set-up (dreamsim.StartRun of every simulation,
// summed) setupRepeats times per round, over setupRounds rounds, and
// reports the median of the round means.
const (
	setupRounds  = 31
	setupRepeats = 16
)

// gate checks each outcome against its reference digest (none when
// refs is nil) and logs failures; it returns how many failed.
func gate(outs []outcome, refs []string, what string) int {
	failed := 0
	for i, o := range outs {
		ref := ""
		if refs != nil {
			ref = refs[i]
		}
		if err := o.check(ref); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s simulation %d: %v\n", what, i, err)
			failed++
		}
	}
	return failed
}

func digests(outs []outcome) []string {
	ds := make([]string, len(outs))
	for i, o := range outs {
		ds[i] = o.digest
	}
	return ds
}

// untracedRun measures the end-to-end metrics. An untimed reference
// pass runs every simulation through plain dreamsim.Run (which also
// warms the heap and caches); set-up is then timed on its own, and the
// workload's own path repeats until the measuring time is spent. Every
// timed simulation must reproduce its reference report digest.
func untracedRun(w *workloadDef, cfg config) (result, error) {
	ps := w.sims(cfg.seed, cfg.small)
	res := result{metrics: map[string]float64{}}
	ref, err := runPlain(ps, nil, 0, &publicStats{})
	res.attempted += len(ps)
	if err != nil {
		return result{}, fmt.Errorf("reference run: %w", err)
	}
	res.failed += gate(ref, nil, "reference")
	res.digests = digests(ref)

	setup, err := measureSetup(ps)
	if err != nil {
		return result{}, err
	}

	var rates []float64
	deadline := time.Now().Add(cfg.seconds)
	for iter := 0; iter == 0 || time.Now().Before(deadline); iter++ {
		// Every iteration starts from a collected heap, so GC cycles
		// left over from the previous one do not land in its time.
		runtime.GC()
		t0 := time.Now()
		outs, err := w.run(ps, nil, 0, &publicStats{})
		elapsed := time.Since(t0)
		res.attempted += len(ps)
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: iteration %d: %v\n", iter, err)
			res.failed += len(ps)
			continue
		}
		res.failed += gate(outs, res.digests, "timed")
		var settled int64
		for _, o := range outs {
			settled += o.settled()
		}
		rates = append(rates, float64(settled)/elapsed.Seconds())
	}
	fmt.Fprintf(os.Stderr, "perfbench: %s: %d timed iterations, tasks/s %.0f\n", w.name, len(rates), rates)
	rss, err := peakRSSMB()
	if err != nil {
		return result{}, err
	}
	res.metrics["tasks_per_s"] = median(rates)
	res.metrics["setup_s"] = median(setup)
	res.metrics["peak_rss_mb"] = rss
	res.correct = res.failed == 0
	return res, nil
}

// measureSetup returns the mean set-up time of each round. Each round
// starts from a collected heap, so GC cycles triggered by earlier
// rounds do not land in its time. The opened runs are dropped before
// their first event; the GC finalizes any worker pools they started.
func measureSetup(ps []dreamsim.Params) ([]float64, error) {
	xs := make([]float64, 0, setupRounds)
	for r := 0; r < setupRounds; r++ {
		runtime.GC()
		var sum time.Duration
		for k := 0; k < setupRepeats; k++ {
			for _, p := range ps {
				t0 := time.Now()
				_, err := dreamsim.StartRun(p)
				sum += time.Since(t0)
				if err != nil {
					return nil, fmt.Errorf("set-up: %w", err)
				}
			}
		}
		xs = append(xs, sum.Seconds()/setupRepeats)
	}
	return xs, nil
}

// layerSamples are the per-iteration timings of a traced run; the
// reported value of each is its median over iterations.
type layerSamples struct {
	self, nsPerEvent, decide, retry, next []float64
	encode, restore, finish, overhead     []float64
}

// tracedRun measures the per-layer metrics. Each iteration runs the
// workload's public path once (coarse spans: snapshot, resume and
// finish timings come from here), then every simulation twice at the
// core level: pass (a) with the policy and task source wrapped in
// per-call timers, pass (b) unwrapped for the batch counters. All
// three must reproduce the same report digests.
func tracedRun(w *workloadDef, cfg config, stamp env, path string) (result, error) {
	tr := newTracer()
	root := tr.begin(0, "workload", "workload", w.name, "seed", fmt.Sprint(cfg.seed))
	ps := w.sims(cfg.seed, cfg.small)
	res := result{metrics: map[string]float64{}}
	var (
		ls                           layerSamples
		a, b                         passStats // the last complete iteration
		pub                          publicStats
		allDecide, allRetry, allNext hist
		done                         bool
	)
	deadline := time.Now().Add(cfg.seconds)
	for iter := 0; iter == 0 || time.Now().Before(deadline); iter++ {
		it := tr.begin(root, "iteration", "n", fmt.Sprint(iter))
		st, pa, pb, ok := tracedIteration(w, ps, tr, it, &res)
		tr.end(it)
		if !ok {
			continue
		}
		self := pa.run - pa.decide.total - pa.retry.total - pa.next.total
		ls.self = append(ls.self, self.Seconds())
		ls.nsPerEvent = append(ls.nsPerEvent, ratio(float64(self.Nanoseconds()), float64(pa.events)))
		ls.decide = append(ls.decide, pa.decide.total.Seconds())
		ls.retry = append(ls.retry, pa.retry.total.Seconds())
		ls.next = append(ls.next, pa.next.total.Seconds())
		ls.encode = append(ls.encode, st.encode.Seconds())
		ls.restore = append(ls.restore, st.restore.Seconds())
		ls.finish = append(ls.finish, st.finish.Seconds())
		ls.overhead = append(ls.overhead, ratio(float64(pa.setup+pa.run+pa.finish), float64(pb.setup+pb.run+pb.finish)))
		allDecide.merge(&pa.decide)
		allRetry.merge(&pa.retry)
		allNext.merge(&pa.next)
		a, b, pub, done = *pa, *pb, st, true
	}
	tr.end(root)
	if !done {
		res.correct = false
		return res, nil
	}

	m := res.metrics
	m["core.self_s"] = median(ls.self)
	m["core.ns_per_event"] = median(ls.nsPerEvent)
	m["core.events"] = float64(a.events)
	m["core.sus_retries"] = float64(a.counters.SusRetries)
	m["core.sus_peak"] = float64(a.susPeak)
	m["core.batch_speculated"] = float64(b.speculated)
	m["core.batch_committed"] = float64(b.committed)
	m["core.batch_commit_ratio"] = ratio(float64(b.committed), float64(b.speculated))
	m["sched.decide_s"] = median(ls.decide)
	m["sched.decide_calls"] = float64(a.decide.count)
	m["sched.decide_ns_p50"] = allDecide.quantile(0.50)
	m["sched.decide_ns_p99"] = allDecide.quantile(0.99)
	m["sched.decide_place_ratio"] = ratio(float64(a.decidePlaced), float64(a.decide.count))
	m["sched.retry_s"] = median(ls.retry)
	m["sched.retry_calls"] = float64(a.retry.count)
	m["sched.retry_place_ratio"] = ratio(float64(a.retryPlaced), float64(a.retry.count))
	m["resinfo.search_steps"] = float64(a.counters.SchedulerSearch)
	m["resinfo.housekeeping_steps"] = float64(a.counters.HousekeepingSteps)
	m["workload.next_s"] = median(ls.next)
	m["workload.next_calls"] = float64(a.next.count)
	m["workload.recycled_ratio"] = ratio(float64(a.recycled), float64(a.next.count))
	m["monitor.samples"] = float64(b.samples)
	m["monitor.windows"] = float64(b.windows)
	m["snapshot.encode_s"] = median(ls.encode)
	m["snapshot.calls"] = float64(pub.snapshots)
	m["snapshot.bytes"] = float64(pub.snapBytes)
	m["snapshot.restore_s"] = median(ls.restore)
	m["report.finish_s"] = median(ls.finish)
	m["fault.crashes"] = float64(a.counters.NodeCrashes)
	m["fault.tasks_retried"] = float64(a.counters.TasksRetried)
	m["trace.overhead_ratio"] = median(ls.overhead)
	res.correct = res.failed == 0

	if err := writeTrace(path, stamp, tr, &allDecide, &allRetry, &allNext); err != nil {
		return result{}, err
	}
	return res, nil
}

// tracedIteration runs one traced iteration, counting its simulations
// into res. ok is false when any simulation errored.
func tracedIteration(w *workloadDef, ps []dreamsim.Params, tr *tracer, it int, res *result) (st publicStats, pa, pb *passStats, ok bool) {
	pa, pb = new(passStats), new(passStats)
	res.attempted += 3 * len(ps)
	outs, err := w.run(ps, tr, it, &st)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: public run: %v\n", err)
		res.failed += 3 * len(ps)
		return st, nil, nil, false
	}
	if res.digests == nil {
		res.digests = digests(outs)
	}
	res.failed += gate(outs, res.digests, "public")
	for i, pass := range []*passStats{pa, pb} {
		outs = outs[:0]
		for _, p := range ps {
			o, err := corePass(p, pass == pa, tr, it, pass)
			if err != nil {
				fmt.Fprintf(os.Stderr, "perfbench: core pass: %v\n", err)
				res.failed += (2 - i) * len(ps) // this pass and any not yet run
				return st, nil, nil, false
			}
			outs = append(outs, o)
		}
		res.failed += gate(outs, res.digests, []string{"pass (a)", "pass (b)"}[i])
	}
	return st, pa, pb, true
}

// writeTrace writes the run's spans and per-call histograms.
func writeTrace(path string, stamp env, tr *tracer, decide, retry, next *hist) error {
	data, err := json.MarshalIndent(map[string]any{
		"env":   stamp,
		"spans": tr.spans,
		"calls": map[string]histOut{
			"sched.Decide":       decide.out(),
			"sched.DecideOnNode": retry.out(),
			"workload.Next":      next.out(),
		},
	}, "", " ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("trace output: %w", err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return fmt.Errorf("trace output: %w", err)
	}
	return nil
}
