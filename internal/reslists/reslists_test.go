package reslists

import (
	"testing"
	"testing/quick"

	"dreamsim/internal/model"
)

func mkEntry(no int) *model.Entry {
	n := model.NewNode(no, 4000, true)
	cfg := &model.Config{No: no, ReqArea: 500, ConfigTime: 10}
	e, err := n.SendBitstream(cfg)
	if err != nil {
		panic(err)
	}
	return e
}

func mkTask(no int) *model.Task {
	return model.NewTask(no, 500, no, 100, 0)
}

func collect(l *List) []*model.Entry {
	var out []*model.Entry
	l.Each(func(e *model.Entry) bool {
		out = append(out, e)
		return true
	})
	return out
}

func TestListAddRemove(t *testing.T) {
	l := NewList(Idle)
	if l.Len() != 0 || l.Head() != nil {
		t.Fatal("fresh list not empty")
	}
	e1, e2, e3 := mkEntry(1), mkEntry(2), mkEntry(3)
	l.Add(e1)
	l.Add(e2)
	l.Add(e3)
	if l.Len() != 3 || l.Head() != e3 {
		t.Fatalf("len=%d head=%v", l.Len(), l.Head())
	}
	if err := l.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// Remove middle.
	if !l.Remove(e2) {
		t.Fatal("Remove(e2) failed")
	}
	if l.Remove(e2) {
		t.Fatal("double Remove succeeded")
	}
	got := collect(l)
	if len(got) != 2 || got[0] != e3 || got[1] != e1 {
		t.Fatalf("after remove: %v", got)
	}
	if err := l.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// Remove head then tail.
	l.Remove(e3)
	l.Remove(e1)
	if l.Len() != 0 || l.Head() != nil {
		t.Fatal("list not empty after removing all")
	}
	if err := l.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestListDoubleInsertPanics(t *testing.T) {
	l := NewList(Busy)
	e := mkEntry(1)
	l.Add(e)
	defer func() {
		if recover() == nil {
			t.Fatal("double insert did not panic")
		}
	}()
	l.Add(e)
}

func TestIdleBusyHooksIndependent(t *testing.T) {
	idle := NewList(Idle)
	busy := NewList(Busy)
	e := mkEntry(1)
	idle.Add(e)
	busy.Add(e) // same entry may sit in one idle and one busy list
	if !e.InIdle || !e.InBusy {
		t.Fatal("hook flags not set")
	}
	if !idle.Remove(e) || !busy.Remove(e) {
		t.Fatal("removal failed")
	}
	if e.InIdle || e.InBusy {
		t.Fatal("hook flags not cleared")
	}
}

func TestEachStepsAndEarlyStop(t *testing.T) {
	l := NewList(Idle)
	for i := 0; i < 10; i++ {
		l.Add(mkEntry(i))
	}
	seen := 0
	steps := l.Each(func(*model.Entry) bool {
		seen++
		return seen < 4
	})
	if seen != 4 || steps != 4 {
		t.Fatalf("seen=%d steps=%d, want 4,4", seen, steps)
	}
	steps = l.Each(func(*model.Entry) bool { return true })
	if steps != 10 {
		t.Fatalf("full traversal steps=%d, want 10", steps)
	}
}

func TestFindMin(t *testing.T) {
	l := NewList(Idle)
	var entries []*model.Entry
	areas := []int64{900, 300, 700, 300, 500}
	for i, a := range areas {
		n := model.NewNode(i, 4000, true)
		e, _ := n.SendBitstream(&model.Config{No: i, ReqArea: 100})
		n.AvailableArea = a // directly set for the test key
		n.TotalArea = a + 100
		entries = append(entries, e)
		l.Add(e)
	}
	best, steps := l.FindMin(nil, func(e *model.Entry) int64 { return e.Node.AvailableArea })
	if best == nil || best.Node.AvailableArea != 300 {
		t.Fatalf("FindMin returned %v", best)
	}
	if steps != uint64(len(areas)) {
		t.Fatalf("FindMin steps=%d, want %d", steps, len(areas))
	}
	// Ties: first encountered in list order (list is LIFO of adds).
	if best != entries[3] {
		t.Fatalf("tie-break wrong: got node %d", best.Node.No)
	}
	// Filter that rejects everything.
	none, _ := l.FindMin(func(*model.Entry) bool { return false }, func(*model.Entry) int64 { return 0 })
	if none != nil {
		t.Fatalf("filtered FindMin returned %v", none)
	}
}

func TestFindMinEmptyList(t *testing.T) {
	l := NewList(Idle)
	best, steps := l.FindMin(nil, func(*model.Entry) int64 { return 0 })
	if best != nil || steps != 0 {
		t.Fatalf("empty FindMin: %v, %d", best, steps)
	}
}

func TestPairTransitions(t *testing.T) {
	p := NewPair()
	e := mkEntry(1)
	p.Idle.Add(e)
	steps := p.MarkBusy(e)
	if steps != 2 {
		t.Fatalf("MarkBusy steps=%d", steps)
	}
	if p.Idle.Len() != 0 || p.Busy.Len() != 1 {
		t.Fatal("MarkBusy did not move entry")
	}
	steps = p.MarkIdle(e)
	if steps != 2 {
		t.Fatalf("MarkIdle steps=%d", steps)
	}
	if p.Idle.Len() != 1 || p.Busy.Len() != 0 {
		t.Fatal("MarkIdle did not move entry")
	}
	if got := p.Drop(e); got != 1 {
		t.Fatalf("Drop steps=%d", got)
	}
	if p.Idle.Len() != 0 || p.Busy.Len() != 0 {
		t.Fatal("Drop left entry behind")
	}
	// MarkBusy on an unlisted entry still lands it in busy.
	p.MarkBusy(e)
	if p.Busy.Len() != 1 {
		t.Fatal("MarkBusy from nowhere failed")
	}
}

func TestKindString(t *testing.T) {
	if Idle.String() != "idle" || Busy.String() != "busy" {
		t.Fatal("Kind.String wrong")
	}
}

func TestSusQueueFIFO(t *testing.T) {
	q := NewSusQueue(nil, 0)
	if q.Len() != 0 || q.Peak() != 0 {
		t.Fatal("fresh queue not empty")
	}
	t1, t2, t3 := mkTask(1), mkTask(2), mkTask(3)
	q.Add(t1)
	q.Add(t2)
	q.Add(t3)
	if q.Len() != 3 || q.Peak() != 3 {
		t.Fatalf("len=%d peak=%d", q.Len(), q.Peak())
	}
	if t1.Status != model.TaskSuspended {
		t.Fatal("Add did not mark task suspended")
	}
	got := q.Tasks()
	if got[0] != t1 || got[1] != t2 || got[2] != t3 {
		t.Fatalf("FIFO order broken: %v", got)
	}
	if err := q.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestSusQueueRemove(t *testing.T) {
	q := NewSusQueue(nil, 0)
	tasks := []*model.Task{mkTask(1), mkTask(2), mkTask(3), mkTask(4)}
	for _, task := range tasks {
		q.Add(task)
	}
	if !q.Remove(tasks[1]) || !q.Remove(tasks[3]) { // middle + tail
		t.Fatal("Remove failed")
	}
	if q.Remove(tasks[1]) {
		t.Fatal("double Remove succeeded")
	}
	if q.Len() != 2 {
		t.Fatalf("len=%d", q.Len())
	}
	got := q.Tasks()
	if got[0] != tasks[0] || got[1] != tasks[2] {
		t.Fatalf("remaining order: %v", got)
	}
	if !q.Remove(tasks[0]) { // head
		t.Fatal("head Remove failed")
	}
	if err := q.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// Peak survives removals.
	if q.Peak() != 4 {
		t.Fatalf("peak=%d, want 4", q.Peak())
	}
}

func TestSusQueueDoubleAddPanics(t *testing.T) {
	q := NewSusQueue(nil, 0)
	task := mkTask(1)
	q.Add(task)
	defer func() {
		if recover() == nil {
			t.Fatal("double Add did not panic")
		}
	}()
	q.Add(task)
}

// TestSusQueueWalkBumpsRetry pins the lazy retry count: a walk
// examines every queued task once — produced or skipped by the index —
// and the count each task carries says so once it is read.
func TestSusQueueWalkBumpsRetry(t *testing.T) {
	cfgs := []*model.Config{{No: 0, ReqArea: 100}, {No: 1, ReqArea: 900}}
	q := NewSusQueue(cfgs, 0)
	tasks := []*model.Task{mkTask(1), mkTask(2), mkTask(3)}
	tasks[0].Resolved, tasks[1].Resolved = cfgs[0], cfgs[1] // tasks[2] unresolved
	for _, task := range tasks {
		q.Add(task)
	}
	// The offer admits only the small configuration: the large one is
	// skipped without being produced, the unresolved task always is.
	offer := Offer{Free: 500, Reclaim: 500}
	var got []int
	q.BeginRetry(&offer)
	for task, _ := q.Next(); task != nil; task, _ = q.Next() {
		got = append(got, task.No)
	}
	if steps := q.EndRetry(); steps != 3 {
		t.Fatalf("steps=%d, want 3 (every link explored)", steps)
	}
	if len(got) != 2 || got[0] != 1 || got[1] != 3 {
		t.Fatalf("walk produced %v, want [1 3]", got)
	}
	q.Materialize()
	for _, task := range tasks {
		if task.SusRetry != 1 {
			t.Fatalf("task %d SusRetry=%d, want 1", task.No, task.SusRetry)
		}
	}
	if q.Visits() != 2 {
		t.Fatalf("visits=%d, want 2", q.Visits())
	}
}

func TestSusQueueWalkAllowsRemoval(t *testing.T) {
	q := NewSusQueue(nil, 0)
	tasks := []*model.Task{mkTask(1), mkTask(2), mkTask(3)}
	for _, task := range tasks {
		q.Add(task)
	}
	// Remove every visited task during traversal.
	q.BeginRetry(&Offer{})
	for task, _ := q.Next(); task != nil; task, _ = q.Next() {
		q.Remove(task)
	}
	q.EndRetry()
	if q.Len() != 0 {
		t.Fatalf("queue not drained: %d left", q.Len())
	}
	if err := q.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// Property: arbitrary interleavings of list add/remove keep linkage sane.
func TestQuickListOps(t *testing.T) {
	f := func(ops []uint8) bool {
		l := NewList(Idle)
		pool := make([]*model.Entry, 8)
		for i := range pool {
			pool[i] = mkEntry(i)
		}
		for _, op := range ops {
			e := pool[op%8]
			if op&0x80 != 0 {
				l.Remove(e)
			} else if !l.Contains(e) {
				l.Add(e)
			}
			if l.CheckInvariants() != nil {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Property: suspension queue preserves FIFO order of surviving tasks
// under arbitrary add/remove interleavings.
func TestQuickSusQueueOrder(t *testing.T) {
	f := func(ops []uint8) bool {
		q := NewSusQueue(nil, 0)
		pool := make([]*model.Task, 8)
		for i := range pool {
			pool[i] = mkTask(i)
		}
		var order []*model.Task
		for _, op := range ops {
			task := pool[op%8]
			if op&0x80 != 0 {
				if q.Remove(task) {
					for i, x := range order {
						if x == task {
							order = append(order[:i], order[i+1:]...)
							break
						}
					}
				}
			} else if !q.Contains(task) {
				q.Add(task)
				order = append(order, task)
			}
			if q.CheckInvariants() != nil {
				return false
			}
		}
		got := q.Tasks()
		if len(got) != len(order) {
			return false
		}
		for i := range got {
			if got[i] != order[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func BenchmarkListAddRemove(b *testing.B) {
	l := NewList(Idle)
	entries := make([]*model.Entry, 128)
	for i := range entries {
		entries[i] = mkEntry(i)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e := entries[i%128]
		if l.Contains(e) {
			l.Remove(e)
		} else {
			l.Add(e)
		}
	}
}

// TestSusQueueSteadyStateZeroAlloc pins the element pool: add/remove
// churn at a warmed depth must recycle elements instead of allocating
// one linked-list node per suspension.
func TestSusQueueSteadyStateZeroAlloc(t *testing.T) {
	q := NewSusQueue(nil, 0)
	tasks := []*model.Task{mkTask(1), mkTask(2), mkTask(3)}
	for _, task := range tasks { // warm the pool to depth 3
		q.Add(task)
	}
	for _, task := range tasks {
		q.Remove(task)
	}
	allocs := testing.AllocsPerRun(500, func() {
		for _, task := range tasks {
			q.Add(task)
		}
		for _, task := range tasks {
			q.Remove(task)
		}
	})
	if allocs != 0 {
		t.Fatalf("steady-state suspend/retry churn allocates %v allocs/op, want 0", allocs)
	}
}

// TestSusQueueAppendTasks pins the recycled-snapshot form used by the
// drain loop: FIFO order into a reused backing array, no allocation
// once the array fits the queue.
func TestSusQueueAppendTasks(t *testing.T) {
	q := NewSusQueue(nil, 0)
	tasks := []*model.Task{mkTask(1), mkTask(2), mkTask(3)}
	for _, task := range tasks {
		q.Add(task)
	}
	scratch := q.AppendTasks(nil)
	if len(scratch) != 3 || scratch[0] != tasks[0] || scratch[1] != tasks[1] || scratch[2] != tasks[2] {
		t.Fatalf("AppendTasks order: %v", scratch)
	}
	allocs := testing.AllocsPerRun(100, func() {
		scratch = q.AppendTasks(scratch[:0])
	})
	if allocs != 0 {
		t.Fatalf("AppendTasks into a fitting array allocates %v allocs/op, want 0", allocs)
	}
	if got := q.Tasks(); len(got) != 3 {
		t.Fatalf("Tasks after AppendTasks: %v", got)
	}
}
