// Command perfbench is the repository benchmark. It runs one of three
// fixed workloads through the public dreamsim API in a single process
// (Parallelism 1, every other knob at its default), checks every
// simulation's output, and prints one JSON result line.
//
// An untraced run (-trace 0) reports the end-to-end metrics. A traced
// run (-trace 1) reports the per-layer metrics: it times calls into
// each layer's public functions from this package and writes spans
// and per-call histograms to a trace file. README.md documents the
// workloads, the layers each one loads and the metric mapping.
//
//	bash perfbench/run.sh --workload paper-overloaded --seed 1 --seconds 20 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"dreamsim"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// config is one benchmark invocation.
type config struct {
	seed    uint64
	seconds time.Duration
	// small shrinks every workload to smoke-test size.
	small bool
}

// result is what one invocation measured. digests holds each
// simulation's report digest (hex SHA-256 of its XML report), in the
// workload's simulation order.
type result struct {
	correct   bool
	attempted int
	failed    int
	metrics   map[string]float64
	digests   []string
}

// env identifies the environment a result was measured in, so numbers
// from different machines or toolchains are never read as one series.
type env struct {
	Nproc         int    `json:"nproc"`
	GOMAXPROCS    int    `json:"gomaxprocs"`
	IntraParallel int    `json:"intra_parallel"`
	GoVersion     string `json:"go_version"`
	Seed          uint64 `json:"seed"`
	Workload      string `json:"workload"`
	Trace         int    `json:"trace"`
}

func currentEnv(workload string, seed uint64, trace int) env {
	return env{
		Nproc:         runtime.NumCPU(),
		GOMAXPROCS:    runtime.GOMAXPROCS(0),
		IntraParallel: dreamsim.EffectiveIntraParallel(0),
		GoVersion:     runtime.Version(),
		Seed:          seed,
		Workload:      workload,
		Trace:         trace,
	}
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	seed := fs.Uint64("seed", 1, "workload seed")
	seconds := fs.Int("seconds", 10, "measurement time in seconds")
	trace := fs.Int("trace", 0, "0 = untraced run (end-to-end metrics), 1 = traced run (per-layer metrics)")
	traceOut := fs.String("trace-out", "", "trace file of a traced run (default .bench_build/perfbench-trace-<workload>-<seed>.json)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w := lookupWorkload(*name)
	if w == nil || *seconds < 1 || (*trace != 0 && *trace != 1) || fs.NArg() != 0 {
		fmt.Fprintf(stderr, "perfbench: want --workload {%s} --seed N --seconds N>=1 --trace {0,1}\n",
			strings.Join(workloadNames(), ","))
		return 2
	}
	cfg := config{seed: *seed, seconds: time.Duration(*seconds) * time.Second}
	stamp := currentEnv(w.name, *seed, *trace)

	var (
		res  result
		defs []metricDef
		err  error
	)
	if *trace == 1 {
		path := *traceOut
		if path == "" {
			path = filepath.Join(".bench_build", fmt.Sprintf("perfbench-trace-%s-%d.json", w.name, *seed))
		}
		defs = perLayer
		res, err = tracedRun(w, cfg, stamp, path)
	} else {
		defs = endToEnd
		res, err = untracedRun(w, cfg)
	}
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	line, err := json.Marshal(map[string]any{"env": stamp})
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	line, err = json.Marshal(res.output(defs))
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}
