package core

import (
	"testing"

	"dreamsim/internal/invariant"
	"dreamsim/internal/model"
)

// emptySource is an exhausted arrival stream: the tick benchmark
// injects its arrivals by hand so each cycle exercises exactly one
// arrival → placement → completion round trip.
type emptySource struct{}

func (emptySource) Next() (*model.Task, bool) { return nil, false }

// newTickSim builds a one-node, one-configuration simulator whose
// steady state is the hot scheduler tick: every injected task hits the
// Allocation phase (the configuration stays resident and idle between
// cycles), runs, and completes. The population is pinned so the single
// configuration fits the node exactly once — no second placement path
// ever opens up.
func newTickSim(tb testing.TB) (*Simulator, *model.Task) {
	tb.Helper()
	p := smallParams(1, 1, true)
	p.Spec.Configs = 1
	p.Spec.ConfigAreaLow, p.Spec.ConfigAreaHigh = 1000, 1000
	p.Spec.NodeAreaLow, p.Spec.NodeAreaHigh = 1500, 1500
	p.Source = emptySource{}
	s, err := New(p)
	if err != nil {
		tb.Fatal(err)
	}
	task := model.NewTask(0, 1000, 0, 50, 0)
	return s, task
}

// tickCycle drives one arrival through placement and runs the engine
// until the completion fires; the same task struct is recycled so the
// loop measures the simulator, not task construction.
func tickCycle(tb testing.TB, s *Simulator, task *model.Task) {
	now := s.eng.Now()
	task.Status = model.TaskCreated
	task.AssignedConfig = -1
	task.CreateTime = now
	task.StartTime, task.CompletionTime = -1, -1
	task.CommDelay, task.ConfigDelay = 0, 0
	task.SusRetry, task.Retries = 0, 0
	s.handleArrival(task, now)
	s.eng.Run(func() bool { return s.err != nil })
	if s.err != nil {
		tb.Fatal(s.err)
	}
	if task.Status != model.TaskCompleted {
		tb.Fatalf("tick cycle left task %v", task.Status)
	}
}

// BenchmarkTick measures the steady-state scheduler tick — arrival
// handling, the four-phase placement decision, resource mutation and
// the pooled completion event — and must report 0 allocs/op: the event
// queue recycles its events, the run context's bookkeeping is dense
// slices, and decisions are plain values. CI gates on the allocs/op
// column.
func BenchmarkTick(b *testing.B) {
	s, task := newTickSim(b)
	for i := 0; i < 8; i++ {
		tickCycle(b, s, task) // warm the event pool and the resident config
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tickCycle(b, s, task)
	}
}

// TestTickZeroAlloc is the test-suite form of the benchmark gate.
func TestTickZeroAlloc(t *testing.T) {
	if invariant.Enabled {
		t.Skip("invariant assertions allocate their message arguments")
	}
	if invariant.RaceEnabled {
		t.Skip("race instrumentation allocates")
	}
	s, task := newTickSim(t)
	for i := 0; i < 8; i++ {
		tickCycle(t, s, task)
	}
	if avg := testing.AllocsPerRun(200, func() { tickCycle(t, s, task) }); avg != 0 {
		t.Fatalf("scheduler tick allocates: %.1f allocs/op", avg)
	}
}

// TestScratchReuseAcrossRuns pins the run-context contract: a stream
// of runs sharing one donated RunContext produces byte-identical
// results to fresh-context runs, including when consecutive runs
// change population size and feature set (the grow-and-clear paths).
func TestScratchReuseAcrossRuns(t *testing.T) {
	shapes := []Params{
		smallParams(10, 150, true),
		smallParams(25, 300, false),
		smallParams(6, 80, true),
	}
	shapes[2].DefragThreshold = 2

	ctx := NewRunContext()
	for i, base := range shapes {
		fresh := mustRun(t, base)
		donated := base
		donated.Scratch = ctx
		reused := mustRun(t, donated)
		if fresh.Report != reused.Report || fresh.Counters != reused.Counters {
			t.Fatalf("shape %d: donated-context run diverged from fresh run", i)
		}
		if len(fresh.Phases) != len(reused.Phases) {
			t.Fatalf("shape %d: phase histograms diverged", i)
		}
		for k, v := range fresh.Phases {
			if reused.Phases[k] != v {
				t.Fatalf("shape %d: phase %q: %d != %d", i, k, v, reused.Phases[k])
			}
		}
	}
}

// retryDeepQueueDepth is the suspension backlog BenchmarkRetryDeepQueue
// holds: the depth the paper's overloaded Table II cells reach.
const retryDeepQueueDepth = 10000

// newDeepQueueSim builds a one-node simulator whose suspension queue
// holds retryDeepQueueDepth tasks the node can never host — their
// configuration is larger than its whole fabric — the overloaded
// regime's common case. It returns the simulator and two tasks of a
// configuration that does fit, for deepRetryCycle.
func newDeepQueueSim(tb testing.TB) (*Simulator, [2]*model.Task) {
	tb.Helper()
	p := smallParams(1, 1, true)
	p.Spec.Configs = 8
	p.Spec.ConfigAreaLow, p.Spec.ConfigAreaHigh = 1000, 3000
	p.Spec.NodeAreaLow, p.Spec.NodeAreaHigh = 1500, 1500
	p.Source = emptySource{}
	s, err := New(p)
	if err != nil {
		tb.Fatal(err)
	}
	var small, big *model.Config
	for _, c := range s.mgr.Configs() {
		if c.ReqArea <= 1500 && small == nil {
			small = c
		}
		if c.ReqArea > 1500 && big == nil {
			big = c
		}
	}
	if small == nil || big == nil {
		tb.Fatal("configuration draw lacks a fitting and an oversized configuration")
	}
	for i := 0; i < retryDeepQueueDepth; i++ {
		task := model.NewTask(100+i, big.ReqArea, big.No, 50, 0)
		task.Resolved = big
		s.c.GeneratedTasks++ // keep task conservation (-tags invariants) balanced
		s.sus.Add(task)
	}
	return s, [2]*model.Task{
		model.NewTask(0, small.ReqArea, small.No, 50, 0),
		model.NewTask(1, small.ReqArea, small.No, 50, 0),
	}
}

// deepRetryCycle drives two same-tick arrivals of the fitting
// configuration: the first runs, the second finds the node full and
// joins the tail of the deep queue. The first completion's retry walk
// places it; the second completion's walk finds nothing. Both walks
// charge the whole queue, as the paper's examination does.
func deepRetryCycle(tb testing.TB, s *Simulator, tasks [2]*model.Task) {
	now := s.eng.Now()
	for _, task := range tasks {
		task.Status = model.TaskCreated
		task.AssignedConfig = -1
		task.CreateTime = now
		task.StartTime, task.CompletionTime = -1, -1
		task.CommDelay, task.ConfigDelay = 0, 0
		task.SusRetry, task.Retries = 0, 0
		// Dispatch directly: an arrival would pull from the exhausted
		// source and let the end-of-run drain discard the backlog.
		s.c.GeneratedTasks++
		s.dispatch(task, s.policy.Decide(s.mgr, task), now)
	}
	s.eng.Run(func() bool { return s.err != nil })
	if s.err != nil {
		tb.Fatal(s.err)
	}
	if tasks[0].Status != model.TaskCompleted || tasks[1].Status != model.TaskCompleted {
		tb.Fatalf("deep retry cycle left tasks %v, %v", tasks[0].Status, tasks[1].Status)
	}
	if s.sus.Len() != retryDeepQueueDepth {
		tb.Fatalf("deep queue holds %d tasks, want %d", s.sus.Len(), retryDeepQueueDepth)
	}
}

// BenchmarkRetryDeepQueue measures suspension retry against a
// 10,000-task backlog: one cycle is two completions' walks plus one
// retry placement. It must report 0 allocs/op — CI gates on the
// allocs/op column — and its time must not grow with the backlog.
func BenchmarkRetryDeepQueue(b *testing.B) {
	s, tasks := newDeepQueueSim(b)
	for i := 0; i < 8; i++ {
		deepRetryCycle(b, s, tasks) // warm the event pool and the walk scratch
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		deepRetryCycle(b, s, tasks)
	}
}

// TestRetryDeepQueueZeroAlloc is the test-suite form of the benchmark
// gate, and checks that each cycle walked the queue twice and charged
// every queued task's examination.
func TestRetryDeepQueueZeroAlloc(t *testing.T) {
	s, tasks := newDeepQueueSim(t)
	for i := 0; i < 8; i++ {
		deepRetryCycle(t, s, tasks)
	}
	before := s.c.SusRetries
	deepRetryCycle(t, s, tasks)
	// Both walks examine the backlog; the first also the queued task.
	if got, want := s.c.SusRetries-before, int64(2*retryDeepQueueDepth+1); got != want {
		t.Fatalf("one cycle charged %d SusRetries, want %d", got, want)
	}
	if invariant.Enabled {
		t.Skip("invariant assertions allocate their message arguments")
	}
	if invariant.RaceEnabled {
		t.Skip("race instrumentation allocates")
	}
	if avg := testing.AllocsPerRun(200, func() { deepRetryCycle(t, s, tasks) }); avg != 0 {
		t.Fatalf("deep-queue retry allocates: %.1f allocs/op", avg)
	}
}
