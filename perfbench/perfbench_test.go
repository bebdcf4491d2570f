package main

import (
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"dreamsim"
)

// declared is the metric list of ../BENCHMARK.json.
type declared struct {
	EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	Workload []struct{ Name string }       `json:"workloads"`
}

func readDeclared(t *testing.T) declared {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var d declared
	if err := json.Unmarshal(data, &d); err != nil {
		t.Fatal(err)
	}
	return d
}

// checkLine checks a result line: exactly the four top-level keys, and
// exactly the declared metrics, each with its declared unit.
func checkLine(t *testing.T, r result, defs []metricDef, want []struct{ Name, Unit string }) {
	t.Helper()
	data, err := json.Marshal(r.output(defs))
	if err != nil {
		t.Fatal(err)
	}
	var line struct {
		Correct   *bool                  `json:"correct"`
		Attempted *int                   `json:"attempted"`
		Failed    *int                   `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}
	dec := json.NewDecoder(strings.NewReader(string(data)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&line); err != nil {
		t.Fatalf("result line %s: %v", data, err)
	}
	if line.Correct == nil || line.Attempted == nil || line.Failed == nil || *line.Attempted < 1 {
		t.Fatalf("result line %s lacks correct/attempted/failed", data)
	}
	if len(line.Metrics) != len(want) {
		t.Errorf("emitted %d metrics, BENCHMARK.json declares %d", len(line.Metrics), len(want))
	}
	for _, w := range want {
		got, ok := line.Metrics[w.Name]
		if !ok {
			t.Errorf("metric %s not emitted", w.Name)
			continue
		}
		if got.Unit != w.Unit {
			t.Errorf("metric %s unit %q, BENCHMARK.json declares %q", w.Name, got.Unit, w.Unit)
		}
	}
}

// TestSmokeWorkloads runs every workload at smoke size, untraced and
// traced, and checks the correctness gate, that the traced passes
// reproduce the untraced report digests, that the trace file is
// written, and that every declared metric is emitted with its unit.
func TestSmokeWorkloads(t *testing.T) {
	d := readDeclared(t)
	if len(d.Workload) != len(workloads) {
		t.Fatalf("BENCHMARK.json declares %d workloads, perfbench has %d", len(d.Workload), len(workloads))
	}
	for _, dw := range d.Workload {
		w := lookupWorkload(dw.Name)
		if w == nil {
			t.Fatalf("BENCHMARK.json workload %q unknown to perfbench", dw.Name)
		}
		t.Run(w.name, func(t *testing.T) {
			cfg := config{seed: 3, small: true}
			un, err := untracedRun(w, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if !un.correct || un.failed != 0 {
				t.Fatalf("untraced run: correct=%v failed=%d", un.correct, un.failed)
			}
			checkLine(t, un, endToEnd, d.EndToEnd)
			for _, m := range endToEnd {
				if un.metrics[m.name] <= 0 {
					t.Errorf("end-to-end metric %s = %v, want > 0", m.name, un.metrics[m.name])
				}
			}

			path := filepath.Join(t.TempDir(), "trace.json")
			tr, err := tracedRun(w, cfg, currentEnv(w.name, cfg.seed, 1), path)
			if err != nil {
				t.Fatal(err)
			}
			if !tr.correct || tr.failed != 0 || tr.attempted != 3*len(un.digests) {
				t.Fatalf("traced run: correct=%v attempted=%d failed=%d", tr.correct, tr.attempted, tr.failed)
			}
			if !reflect.DeepEqual(tr.digests, un.digests) {
				t.Fatalf("traced digests %v != untraced %v", tr.digests, un.digests)
			}
			checkLine(t, tr, perLayer, d.PerLayer)
			checkTraceFile(t, path)
			checkLayers(t, w.name, tr.metrics)
		})
	}
}

// checkTraceFile checks the spans form a tree under one workload span
// and the per-call histograms are present.
func checkTraceFile(t *testing.T, path string) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var f struct {
		Env   env                `json:"env"`
		Spans []span             `json:"spans"`
		Calls map[string]histOut `json:"calls"`
	}
	if err := json.Unmarshal(data, &f); err != nil {
		t.Fatal(err)
	}
	if f.Env.GoVersion == "" || f.Env.Nproc < 1 || f.Env.IntraParallel < 1 {
		t.Errorf("trace env stamp incomplete: %+v", f.Env)
	}
	if len(f.Spans) == 0 || f.Spans[0].Name != "workload" || f.Spans[0].Parent != 0 {
		t.Fatalf("first span %+v, want the root workload span", f.Spans[0])
	}
	names := map[string]bool{}
	for _, s := range f.Spans {
		names[s.Name] = true
		if s.ID != 1 && (s.Parent < 1 || s.Parent >= s.ID) {
			t.Errorf("span %d (%s) has parent %d", s.ID, s.Name, s.Parent)
		}
		if s.End < s.Start {
			t.Errorf("span %d (%s) ends before it starts", s.ID, s.Name)
		}
	}
	for _, n := range []string{"iteration", "simulation", "setup", "run", "finish"} {
		if !names[n] {
			t.Errorf("no %q span in the trace", n)
		}
	}
	for _, c := range []string{"sched.Decide", "sched.DecideOnNode", "workload.Next"} {
		if _, ok := f.Calls[c]; !ok {
			t.Errorf("no %s histogram in the trace", c)
		}
	}
	if f.Calls["sched.Decide"].Calls == 0 || f.Calls["workload.Next"].Calls == 0 {
		t.Errorf("empty call histograms: %+v", f.Calls)
	}
}

// checkLayers checks each workload loads the layer it was chosen for.
func checkLayers(t *testing.T, name string, m map[string]float64) {
	t.Helper()
	positive := []string{"core.self_s", "core.events", "sched.decide_calls", "workload.next_calls", "resinfo.search_steps"}
	switch name {
	case "paper-overloaded":
		positive = append(positive, "core.sus_peak", "core.sus_retries")
	case "cluster-stream":
		positive = append(positive, "workload.recycled_ratio")
	case "burst-monitored":
		positive = append(positive, "monitor.samples", "monitor.windows", "snapshot.calls",
			"snapshot.bytes", "fault.crashes")
		if dreamsim.EffectiveIntraParallel(0) > 1 {
			positive = append(positive, "core.batch_speculated")
		}
	}
	for _, k := range positive {
		if m[k] <= 0 {
			t.Errorf("%s: %s = %v, want > 0", name, k, m[k])
		}
	}
}

func TestHistQuantile(t *testing.T) {
	for _, ns := range []uint64{0, 7, 8, 15, 16, 1000, 123456789} {
		lo, hi := bucketBounds(bucketOf(ns))
		if float64(ns) < lo || float64(ns) >= hi {
			t.Errorf("%d ns falls in bucket [%v, %v)", ns, lo, hi)
		}
	}
	var h hist
	for i := 1; i <= 1000; i++ {
		h.observe(time.Duration(i) * time.Microsecond)
	}
	for _, q := range []float64{0.5, 0.99} {
		want := q * 1000e3
		if got := h.quantile(q); got < want*0.85 || got > want*1.15 {
			t.Errorf("quantile(%v) = %v ns, want about %v", q, got, want)
		}
	}
}

func TestRunRejectsBadArguments(t *testing.T) {
	for _, args := range [][]string{
		{},
		{"--workload", "nope"},
		{"--workload", "cluster-stream", "--trace", "2"},
		{"--workload", "cluster-stream", "--seconds", "0"},
	} {
		if code := run(args, io.Discard, io.Discard); code != 2 {
			t.Errorf("run(%q) = %d, want 2", args, code)
		}
	}
}
