// Command dreamsim runs one DReAMSim simulation (or a full-vs-partial
// comparison) and prints the paper's Table I metrics; -xml emits the
// output subsystem's XML simulation report.
//
// Examples:
//
//	dreamsim -nodes 200 -tasks 5000 -partial
//	dreamsim -nodes 100 -tasks 10000 -compare
//	dreamsim -tasks 2000 -partial -xml report.xml
//	dreamsim -tasks 2000 -trace workload.trace -partial
//	dreamsim -nodes 100 -tasks 20000 -compare -cpuprofile cpu.prof
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"

	"dreamsim"
)

// onExit flushes the profiles; fail calls it because os.Exit skips
// deferred calls.
var onExit = func() {}

func main() {
	var (
		nodes       = flag.Int("nodes", 200, "number of reconfigurable nodes")
		configs     = flag.Int("configs", 50, "size of the configurations list")
		tasks       = flag.Int("tasks", 1000, "number of tasks to generate")
		interval    = flag.Int64("interval", 50, "max inter-arrival gap in timeticks")
		poisson     = flag.Bool("poisson", false, "Poisson arrivals instead of uniform gaps")
		partial     = flag.Bool("partial", false, "enable partial reconfiguration")
		compare     = flag.Bool("compare", false, "run both scenarios over identical inputs")
		seed        = flag.Uint64("seed", 1, "random seed")
		placement   = flag.String("placement", "best-fit", "allocation criterion: best-fit|first-fit|worst-fit|random-fit")
		loadBalance = flag.Bool("lb", false, "enable least-loaded tie-break (load balancing module)")
		noSus       = flag.Bool("no-suspension", false, "discard instead of suspending")
		maxRetries  = flag.Int64("max-retries", 0, "discard suspended tasks after this many re-examinations (0 = never)")
		netLow      = flag.Int64("net-low", 0, "minimum node network delay")
		netHigh     = flag.Int64("net-high", 0, "maximum node network delay")
		bsBW        = flag.Int64("bitstream-bw", 0, "bitstream transfer bandwidth, bytes/tick (0 = off)")
		dataBW      = flag.Int64("data-bw", 0, "task data transfer bandwidth, bytes/tick (0 = off)")
		tickStep    = flag.Bool("tick-step", false, "paper-literal tick-by-tick clock")
		xmlOut      = flag.String("xml", "", "write the XML simulation report to this file")
		tracePath   = flag.String("trace", "", "read the task stream from this trace file")
		scenario    = flag.String("scenario", "", "read a workload scenario (dreamsim-scenario v1) from this file")
		phases      = flag.Bool("phases", false, "print the per-phase placement census")
		timeline    = flag.Bool("timeline", false, "print utilization/queue sparklines over the run")
		replicate   = flag.Int("replicate", 0, "replicate the run over N seeds and print metric statistics")
		parallel    = flag.Int("parallel", dreamsim.DefaultParallelism(), "workers for -compare/-replicate fan-out (1 = sequential)")
		fastSearch  = flag.Bool("fast-search", false, "use the indexed resource-search fast path (identical results and counters)")
		intraPar    = flag.Int("intra-parallel", 0, "workers inside one run: sharded placement scans and batched same-tick dispatch (0 = auto min(GOMAXPROCS,8), 1 = sequential; identical results at any value)")
		stream      = flag.Bool("stream", false, "bounded-memory streaming engine: recycle finished tasks, window the monitor series (identical results)")
		window      = flag.Int("window", 0, "monitoring samples per rolling aggregation window (0 = default on streamed runs; implies sampling)")
		timelineOut = flag.String("timeline-out", "", "stream rolling-window timeline rows to this CSV file as the run progresses")

		faultCrashRate  = flag.Float64("fault-crash-rate", 0, "mean random node crashes per timetick (0 = off)")
		faultDowntime   = flag.Float64("fault-downtime", 0, "mean downtime of randomly crashed nodes, in timeticks")
		faultReconfRate = flag.Float64("fault-reconfig-rate", 0, "mean reconfiguration-failure armings per timetick (0 = off)")
		faultScript     = flag.String("fault-script", "", "scripted fault schedule: crash@TICK:NODE,recover@TICK:NODE,cfail@TICK,...")
		faultRetries    = flag.Int64("fault-retries", 0, "crash displacements a task survives before being lost (0 = default 3)")
		faultBackoff    = flag.Int64("fault-backoff", 0, "first retry backoff in timeticks, doubling per displacement (0 = default 16)")
		faultBackoffCap = flag.Int64("fault-backoff-cap", 0, "retry backoff ceiling in timeticks (0 = default 4096)")

		cpuProfile = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memProfile = flag.String("memprofile", "", "write a heap profile to this file on exit")
	)
	flag.Parse()

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		fail(err)
		fail(pprof.StartCPUProfile(f))
	}
	onExit = func() {
		if *cpuProfile != "" {
			pprof.StopCPUProfile()
		}
		if *memProfile != "" {
			f, err := os.Create(*memProfile)
			if err != nil {
				fmt.Fprintln(os.Stderr, "dreamsim:", err)
				return
			}
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "dreamsim:", err)
			}
			f.Close()
		}
	}
	defer onExit()

	p := dreamsim.DefaultParams()
	p.Nodes = *nodes
	p.Configs = *configs
	p.Tasks = *tasks
	p.NextTaskMaxInterval = *interval
	p.PoissonArrivals = *poisson
	p.PartialReconfig = *partial
	p.Seed = *seed
	p.Placement = *placement
	p.LoadBalance = *loadBalance
	p.DisableSuspension = *noSus
	p.MaxSusRetries = *maxRetries
	p.NetworkDelayRange = [2]int64{*netLow, *netHigh}
	p.BitstreamBandwidth = *bsBW
	p.DataBandwidth = *dataBW
	p.TickStep = *tickStep
	p.Parallelism = *parallel
	p.FastSearch = *fastSearch
	p.IntraParallel = *intraPar
	p.FaultCrashRate = *faultCrashRate
	p.FaultMeanDowntime = *faultDowntime
	p.FaultReconfigRate = *faultReconfRate
	p.FaultScript = *faultScript
	p.FaultRetryBudget = *faultRetries
	p.FaultBackoffBase = *faultBackoff
	p.FaultBackoffCap = *faultBackoffCap
	p.Stream = *stream
	p.WindowSamples = *window
	p.TimelinePath = *timelineOut
	if *timeline || *window > 0 || *timelineOut != "" {
		p.SampleEvery = 1
	}
	if *scenario != "" {
		scn, err := dreamsim.LoadScenario(*scenario)
		fail(err)
		p.ScenarioText = scn.Text
		// A scenario's tasks/interval lines govern unless the matching
		// flag was given explicitly on the command line.
		explicit := map[string]bool{}
		flag.Visit(func(f *flag.Flag) { explicit[f.Name] = true })
		if !explicit["tasks"] {
			p.Tasks = 0
		}
		if !explicit["interval"] {
			p.NextTaskMaxInterval = 0
		}
	}

	if *replicate > 0 {
		stats, err := dreamsim.RunReplicated(p, dreamsim.Seeds(p.Seed, *replicate))
		fail(err)
		fmt.Printf("replicated over %d seeds (base %d)\n\n", *replicate, p.Seed)
		fmt.Printf("%-34s %14s %12s %14s %14s\n", "metric", "mean", "ci95", "min", "max")
		for _, s := range stats {
			fmt.Printf("%-34s %14.2f %12.2f %14.2f %14.2f\n", s.Name, s.Mean, s.CI95, s.Min, s.Max)
		}
		return
	}

	if *compare {
		full, part, err := dreamsim.Compare(p)
		fail(err)
		// full.TotalTasks, not p.Tasks: the count may come from a
		// scenario file rather than the flag.
		fmt.Printf("nodes=%d tasks=%d seed=%d\n\n", p.Nodes, full.TotalTasks, p.Seed)
		fmt.Print(dreamsim.CompareTable(full, part))
		if *phases {
			printPhases("full", full)
			printPhases("partial", part)
		}
		return
	}

	var res dreamsim.Result
	var err error
	if *tracePath != "" {
		f, ferr := os.Open(*tracePath)
		fail(ferr)
		defer f.Close()
		res, err = dreamsim.RunTrace(f, p)
	} else {
		res, err = dreamsim.Run(p)
	}
	fail(err)

	fmt.Printf("scenario=%s policy=%s nodes=%d tasks=%d seed=%d\n\n",
		res.Scenario, res.Policy, p.Nodes, res.TotalTasks, res.Seed)
	fmt.Print(res.TableI())
	if *phases {
		printPhases(res.Scenario, res)
	}
	if *timeline {
		fmt.Println()
		fmt.Print(res.TimelineText())
	}
	if res.WindowsTotal > 0 {
		fmt.Printf("\nmonitoring windows closed: %d (%d retained)\n", res.WindowsTotal, len(res.Windows))
	}
	if *timelineOut != "" {
		fmt.Printf("streaming timeline written to %s\n", *timelineOut)
	}

	if *xmlOut != "" {
		f, ferr := os.Create(*xmlOut)
		fail(ferr)
		defer f.Close()
		fail(res.WriteXML(f))
		fmt.Printf("\nXML report written to %s\n", *xmlOut)
	}
}

func printPhases(label string, r dreamsim.Result) {
	fmt.Printf("\nphase census (%s):\n", label)
	for _, k := range dreamsim.SortedPhaseNames(r) {
		fmt.Printf("  %-18s %d\n", k, r.Phases[k])
	}
}

func fail(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "dreamsim:", err)
		onExit()
		os.Exit(1)
	}
}
