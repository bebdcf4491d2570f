package core

import (
	"testing"

	"dreamsim/internal/fault"
	"dreamsim/internal/model"
	"dreamsim/internal/resinfo"
	"dreamsim/internal/sched"
)

// countingPolicy forwards to the paper policy and counts the targeted
// retry consultations.
type countingPolicy struct {
	sched.Policy
	onNode int64
}

func (p *countingPolicy) DecideOnNode(m *resinfo.Manager, task *model.Task, node *model.Node) sched.Decision {
	p.onNode++
	return p.Policy.DecideOnNode(m, task, node)
}

// suspensionWork runs p and reports the queue work: the SusRetries
// the paper's full examination charges, and the tasks the indexed
// walk actually produced. When perWalk is set, it also checks every
// completion's walk against the candidate bound: the tasks produced
// never exceed the policy consultations plus the expiries plus one
// stale pick per configuration bucket.
func suspensionWork(t *testing.T, p Params, perWalk bool) (susRetries int64, visits uint64) {
	t.Helper()
	pol := &countingPolicy{Policy: sched.New(p.PolicyOptions)}
	p.Policy = pol
	var s *Simulator
	var lastVisits uint64
	var lastOnNode, expiries, lastExpiries int64
	check := func(now int64) {
		buckets := len(s.mgr.Configs()) + 1 // one per configuration, plus the unindexed one
		dv := s.sus.Visits() - lastVisits
		bound := uint64(pol.onNode-lastOnNode) + uint64(expiries-lastExpiries) + uint64(buckets)
		if dv > bound {
			t.Fatalf("tick %d: a completion's walk produced %d tasks, bound %d (%d consultations, %d expiries, %d buckets)",
				now, dv, bound, pol.onNode-lastOnNode, expiries-lastExpiries, buckets)
		}
		lastVisits, lastOnNode, lastExpiries = s.sus.Visits(), pol.onNode, expiries
	}
	p.OnEvent = func(kind string, now int64, task *model.Task) {
		switch {
		case kind == "discard" && p.MaxSusRetries > 0 && task.SusRetry > p.MaxSusRetries:
			expiries++
		case kind == "complete" && perWalk:
			// The previous completion's walk has finished: arrivals in
			// between never walk the queue.
			check(now)
		}
	}
	var err error
	if s, err = New(p); err != nil {
		t.Fatal(err)
	}
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if perWalk {
		check(s.eng.Now())
	}
	return res.Counters.SusRetries, s.sus.Visits()
}

// TestSuspensionRetryPerCompletionBound pins the indexed walk's cost
// per completion on overloaded Table II runs in both reconfiguration
// modes, with and without a retry cap: each walk produces at most the
// tasks the policy is consulted on, the tasks it expires, and one
// stale pick per bucket — never the queue length.
func TestSuspensionRetryPerCompletionBound(t *testing.T) {
	for _, partial := range []bool{false, true} {
		for _, limit := range []int64{0, 3} {
			p := smallParams(20, 3000, partial)
			p.MaxSusRetries = limit
			retries, visits := suspensionWork(t, p, true)
			if retries == 0 || visits == 0 {
				t.Fatalf("partial=%v cap=%d: the run never retried a suspended task", partial, limit)
			}
		}
	}
}

// TestSuspensionRetryScaling is the deterministic guard against a
// quadratic suspension layer. In the overloaded regime the queue
// grows with the task count, so the paper's examination — SusRetries,
// one per queued task per completion — grows quadratically. The
// tasks the walk actually produces must grow only with the placements:
// doubling the task count roughly quadruples SusRetries but at most
// about doubles the visits.
func TestSuspensionRetryScaling(t *testing.T) {
	for _, partial := range []bool{false, true} {
		r1, v1 := suspensionWork(t, smallParams(20, 4000, partial), false)
		r2, v2 := suspensionWork(t, smallParams(20, 8000, partial), false)
		rr, vr := float64(r2)/float64(r1), float64(v2)/float64(v1)
		t.Logf("partial=%v: SusRetries %d -> %d (x%.2f), visits %d -> %d (x%.2f)", partial, r1, r2, rr, v1, v2, vr)
		if rr < 3 {
			t.Fatalf("partial=%v: SusRetries grew only x%.2f; the workload is not in the overloaded regime", partial, rr)
		}
		if vr > 2.5 {
			t.Fatalf("partial=%v: queue visits grew x%.2f for twice the tasks; the retry walk scales with the queue", partial, vr)
		}
	}
}

// TestSuspensionRetryBoundWithFaults repeats the per-completion bound
// with crashes and reconfiguration faults, which re-queue tasks in the
// middle of walks and re-suspend crash victims with non-zero counts.
// A recovery walks the queue without a completion event, so its work
// lands in the next completion's interval; the bound's per-bucket
// slack is never needed by the paper policy, whose queued tasks are
// all resolved.
func TestSuspensionRetryBoundWithFaults(t *testing.T) {
	script, err := fault.ParseScript(susGoldenScript(1500, 150000))
	if err != nil {
		t.Fatal(err)
	}
	for _, partial := range []bool{false, true} {
		p := smallParams(20, 3000, partial)
		p.Seed = 4242
		p.MaxSusRetries = 3
		p.Faults = fault.Plan{Script: script}
		p.Retry = fault.RetryPolicy{Budget: 3, BackoffBase: 16, BackoffCap: 256}
		suspensionWork(t, p, true)
	}
}
