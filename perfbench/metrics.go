package main

import (
	"bufio"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"
)

// metricDef names one reported metric and its unit. BENCHMARK.json at
// the repository root lists the same names and units.
type metricDef struct {
	name, unit string
}

// endToEnd are the metrics of an untraced run. The fourth end-to-end
// figure, the failure ratio, is the result line's failed/attempted.
var endToEnd = []metricDef{
	{"tasks_per_s", "1/s"},
	{"setup_s", "s"},
	{"peak_rss_mb", "MiB"},
}

// perLayer are the metrics of a traced run.
var perLayer = []metricDef{
	{"core.self_s", "s"},
	{"core.ns_per_event", "ns"},
	{"core.events", "count"},
	{"core.sus_retries", "count"},
	{"core.sus_peak", "count"},
	{"core.batch_speculated", "count"},
	{"core.batch_committed", "count"},
	{"core.batch_commit_ratio", "ratio"},
	{"sched.decide_s", "s"},
	{"sched.decide_calls", "count"},
	{"sched.decide_ns_p50", "ns"},
	{"sched.decide_ns_p99", "ns"},
	{"sched.decide_place_ratio", "ratio"},
	{"sched.retry_s", "s"},
	{"sched.retry_calls", "count"},
	{"sched.retry_place_ratio", "ratio"},
	{"resinfo.search_steps", "count"},
	{"resinfo.housekeeping_steps", "count"},
	{"workload.next_s", "s"},
	{"workload.next_calls", "count"},
	{"workload.recycled_ratio", "ratio"},
	{"monitor.samples", "count"},
	{"monitor.windows", "count"},
	{"snapshot.encode_s", "s"},
	{"snapshot.calls", "count"},
	{"snapshot.bytes", "bytes"},
	{"snapshot.restore_s", "s"},
	{"report.finish_s", "s"},
	{"fault.crashes", "count"},
	{"fault.tasks_retried", "count"},
	{"trace.overhead_ratio", "ratio"},
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// output is the result line: the named metrics with their units.
func (r result) output(defs []metricDef) map[string]any {
	m := make(map[string]metricValue, len(defs))
	for _, d := range defs {
		m[d.name] = metricValue{Value: r.metrics[d.name], Unit: d.unit}
	}
	return map[string]any{
		"correct":   r.correct,
		"attempted": r.attempted,
		"failed":    r.failed,
		"metrics":   m,
	}
}

// median of xs; 0 for an empty sample.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// ratio is num/den, 0 when den is 0.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// peakRSSMB reads the process's peak resident set (VmHWM) in MiB.
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("peak RSS: %w", err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:")
		if !ok {
			continue
		}
		kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
		if err != nil {
			return 0, fmt.Errorf("peak RSS: %w", err)
		}
		return kb / 1024, nil
	}
	if err := sc.Err(); err != nil {
		return 0, fmt.Errorf("peak RSS: %w", err)
	}
	return 0, fmt.Errorf("peak RSS: no VmHWM line in /proc/self/status")
}
