package reslists

import (
	"fmt"
	"math/rand"
	"testing"

	"dreamsim/internal/model"
)

// refSusQueue is the linear suspension queue the indexed one
// replaced: a FIFO walked link by link, every visited task's SusRetry
// bumped on the spot. It lives only here, as the reference the
// indexed walk must reproduce.
type refSusQueue struct {
	head, tail *refElem
	index      map[*model.Task]*refElem
}

type refElem struct {
	task       *model.Task
	next, prev *refElem
}

func newRefSusQueue() *refSusQueue {
	return &refSusQueue{index: map[*model.Task]*refElem{}}
}

func (q *refSusQueue) Len() int { return len(q.index) }

func (q *refSusQueue) Add(task *model.Task) {
	el := &refElem{task: task, prev: q.tail}
	if q.tail != nil {
		q.tail.next = el
	} else {
		q.head = el
	}
	q.tail = el
	q.index[task] = el
	task.Status = model.TaskSuspended
}

func (q *refSusQueue) Remove(task *model.Task) bool {
	el, ok := q.index[task]
	if !ok {
		return false
	}
	if el.prev != nil {
		el.prev.next = el.next
	} else {
		q.head = el.next
	}
	if el.next != nil {
		el.next.prev = el.prev
	} else {
		q.tail = el.prev
	}
	delete(q.index, task)
	return true
}

// Each is the linear walk: the successor is read before the visit,
// so a task appended while the tail is being visited is not reached.
func (q *refSusQueue) Each(visit func(*model.Task) bool) (steps uint64) {
	for el := q.head; el != nil; {
		next := el.next
		steps++
		el.task.SusRetry++
		if !visit(el.task) {
			return steps
		}
		el = next
	}
	return steps
}

func (q *refSusQueue) Tasks() []*model.Task {
	var out []*model.Task
	for el := q.head; el != nil; el = el.next {
		out = append(out, el.task)
	}
	return out
}

// diffRec is one observable effect of a scenario step.
type diffRec struct {
	kind  byte // a add, d decide, x expire, p place, f fault, r drop, s steps
	no    int
	retry int64
}

func (r diffRec) String() string { return fmt.Sprintf("%c%d/%d", r.kind, r.no, r.retry) }

// diffWorld runs one side of the differential test: the same seeded
// scenario against either the reference or the indexed queue. Every
// random draw happens in visit order, so the two sides stay in
// lockstep exactly as long as they visit the same tasks in the same
// order with the same counts.
type diffWorld struct {
	rng      *rand.Rand
	configs  []*model.Config
	foreign  []*model.Config // resolutions the index cannot file
	max      int64
	nextNo   int
	ref      *refSusQueue
	q        *SusQueue
	log      []diffRec
	walks    int
	appended int // tasks appended during walks
	// stale counts tasks the indexed walk produced although the offer
	// excludes their configuration: wasted visits the index exists to
	// avoid.
	stale int
}

func newDiffWorld(seed int64, maxRetries int64, indexed bool) *diffWorld {
	w := &diffWorld{rng: rand.New(rand.NewSource(seed)), max: maxRetries}
	for i := 0; i < 12; i++ {
		w.configs = append(w.configs, &model.Config{No: i, ReqArea: model.Area(200 + 150*i)})
	}
	// A twin of configuration 3 (same number, other struct) and one
	// numbered past the list: both belong in the unindexed bucket.
	w.foreign = []*model.Config{{No: 3, ReqArea: 650}, {No: 99, ReqArea: 1200}}
	if indexed {
		w.q = NewSusQueue(w.configs, maxRetries)
	} else {
		w.ref = newRefSusQueue()
	}
	return w
}

func (w *diffWorld) len() int {
	if w.q != nil {
		return w.q.Len()
	}
	return w.ref.Len()
}

func (w *diffWorld) add(t *model.Task) {
	if w.q != nil {
		w.q.Add(t)
	} else {
		w.ref.Add(t)
	}
}

func (w *diffWorld) remove(t *model.Task) {
	var ok bool
	if w.q != nil {
		ok = w.q.Remove(t)
	} else {
		ok = w.ref.Remove(t)
	}
	if !ok {
		panic(fmt.Sprintf("remove of unqueued task %d", t.No))
	}
}

func (w *diffWorld) tasks() []*model.Task {
	if w.q != nil {
		return w.q.Tasks()
	}
	return w.ref.Tasks()
}

// suspend queues a fresh task: usually resolved, sometimes not yet
// (or to a configuration the index does not know), and sometimes
// carrying a count from an earlier suspension, as a crash victim does.
func (w *diffWorld) suspend() {
	t := model.NewTask(w.nextNo, 0, 0, 100, 0)
	w.nextNo++
	switch r := w.rng.Intn(20); {
	case r < 14:
		t.Resolved = w.configs[w.rng.Intn(len(w.configs))]
	case r < 17:
		// unresolved
	default:
		t.Resolved = w.foreign[w.rng.Intn(len(w.foreign))]
	}
	if w.rng.Intn(5) == 0 {
		t.SusRetry = int64(w.rng.Intn(int(w.max) + 3))
	}
	w.log = append(w.log, diffRec{'a', t.No, t.SusRetry})
	w.add(t)
}

// offer draws the digest of a node that just completed a task, or of
// a blank recovered one.
func (w *diffWorld) offer(recovered bool) *Offer {
	o := &Offer{Idle: make([]bool, len(w.configs))}
	if recovered {
		o.Free = model.Area(500 + w.rng.Intn(2000))
		o.Reclaim = o.Free
		return o
	}
	for i := range o.Idle {
		o.Idle[i] = w.rng.Intn(12) == 0
	}
	o.Free = model.Area(w.rng.Intn(1000))
	o.Reclaim = o.Free + model.Area(w.rng.Intn(1500))
	return o
}

// shrink re-summarises the node after a placement: the offer only
// ever loses idle regions and area.
func (w *diffWorld) shrink(o *Offer) {
	o.Idle[w.rng.Intn(len(o.Idle))] = false
	o.Free -= model.Area(w.rng.Int63n(int64(o.Free) + 1))
	o.Reclaim -= model.Area(w.rng.Int63n(int64(o.Reclaim) + 1))
}

// visit is the retry body core runs for each examined task.
func (w *diffWorld) visit(qt *model.Task, expired bool, o *Offer) {
	if expired {
		w.remove(qt)
		w.log = append(w.log, diffRec{'x', qt.No, qt.SusRetry})
		w.maybeAppend()
		return
	}
	if qt.Resolved != nil && !o.Fits(qt.Resolved) {
		if c := qt.Resolved; w.q != nil && c.No < len(w.configs) && w.configs[c.No] == c {
			w.stale++
		}
		return
	}
	w.log = append(w.log, diffRec{'d', qt.No, qt.SusRetry})
	if qt.Resolved == nil && w.rng.Intn(2) == 0 {
		qt.Resolved = w.configs[w.rng.Intn(len(w.configs))] // the policy resolved it
	}
	if w.rng.Intn(3) == 0 {
		w.remove(qt)
		if w.rng.Intn(4) == 0 {
			// A reconfiguration fault: the task re-enters at the tail
			// in the middle of the walk.
			w.log = append(w.log, diffRec{'f', qt.No, qt.SusRetry})
			w.add(qt)
			w.appended++
		} else {
			w.log = append(w.log, diffRec{'p', qt.No, qt.SusRetry})
		}
		w.shrink(o)
	}
	w.maybeAppend()
}

// maybeAppend suspends fresh tasks mid-walk, as released dependants
// do.
func (w *diffWorld) maybeAppend() {
	if w.rng.Intn(8) == 0 {
		for k := 1 + w.rng.Intn(2); k > 0; k-- {
			w.suspend()
			w.appended++
		}
	}
}

func (w *diffWorld) walk(recovered bool) {
	if w.len() == 0 {
		return
	}
	o := w.offer(recovered)
	w.walks++
	var steps uint64
	if w.ref != nil {
		steps = w.ref.Each(func(qt *model.Task) bool {
			w.visit(qt, w.max > 0 && qt.SusRetry > w.max, o)
			return true
		})
	} else {
		w.q.BeginRetry(o)
		for qt, expired := w.q.Next(); qt != nil; qt, expired = w.q.Next() {
			w.visit(qt, expired, o)
		}
		steps = w.q.EndRetry()
	}
	w.log = append(w.log, diffRec{'s', -1, int64(steps)})
}

// step runs one scenario operation.
func (w *diffWorld) step() {
	switch r := w.rng.Intn(20); {
	case r < 8:
		w.suspend()
	case r < 14:
		w.walk(false) // a completion
	case r < 16:
		w.walk(true) // a recovery
	case r < 18:
		// A full scheduling pass settles one queued task for good.
		if ts := w.tasks(); len(ts) > 0 {
			t := ts[w.rng.Intn(len(ts))]
			w.remove(t)
			w.log = append(w.log, diffRec{'r', t.No, t.SusRetry})
		}
	default:
		// A full scheduling pass resolves a queued task in place.
		if ts := w.tasks(); len(ts) > 0 {
			t := ts[w.rng.Intn(len(ts))]
			if t.Resolved == nil {
				t.Resolved = w.configs[w.rng.Intn(len(w.configs))]
				if w.q != nil {
					w.q.Refile(t)
				}
			}
		}
	}
}

// TestSusQueueMatchesLinearWalk is the differential property test of
// the indexed suspension queue: over seeded random sequences of
// suspensions, completion and recovery walks, retry-cap expiries,
// mid-walk appends (fresh tasks and fault re-queues, including while
// the tail is visited), out-of-walk removals and resolutions, and
// renumbering of the 32-bit sequence and epoch counters, the
// indexed walk must consult the policy for the same tasks in the same
// order with the same SusRetry values, charge the same steps per walk
// and leave the same FIFO order and counts as the linear walk —
// without ever producing a task whose configuration the offer
// excludes.
func TestSusQueueMatchesLinearWalk(t *testing.T) {
	walks, appended, expiries := 0, 0, 0
	defer func(at int32) { susRenumberAt = at }(susRenumberAt)
	for seed := int64(1); seed <= 300; seed++ {
		// Every third seed renumbers the queue almost every walk.
		susRenumberAt = 1 << 30
		if seed%3 == 0 {
			susRenumberAt = int32(4 + seed%9)
		}
		for _, limit := range []int64{0, 2, 3, 6} {
			ref := newDiffWorld(seed, limit, false)
			idx := newDiffWorld(seed, limit, true)
			for i := 0; i < 300; i++ {
				ref.step()
				idx.step()
				if err := idx.q.CheckInvariants(); err != nil {
					t.Fatalf("seed %d cap %d step %d: %v", seed, limit, i, err)
				}
			}
			if idx.stale != 0 {
				t.Fatalf("seed %d cap %d: indexed walk produced %d tasks of excluded configurations", seed, limit, idx.stale)
			}
			if d := firstDiff(ref.log, idx.log); d >= 0 {
				lo := max(0, d-5)
				t.Fatalf("seed %d cap %d: effect %d differs\nlinear:  %v\nindexed: %v",
					seed, limit, d, ref.log[lo:min(len(ref.log), d+5)], idx.log[lo:min(len(idx.log), d+5)])
			}
			idx.q.Materialize()
			rt, it := ref.tasks(), idx.tasks()
			if len(rt) != len(it) {
				t.Fatalf("seed %d cap %d: final depth %d, want %d", seed, limit, len(it), len(rt))
			}
			for i := range rt {
				if rt[i].No != it[i].No || rt[i].SusRetry != it[i].SusRetry {
					t.Fatalf("seed %d cap %d: final queue position %d holds %d/%d, want %d/%d",
						seed, limit, i, it[i].No, it[i].SusRetry, rt[i].No, rt[i].SusRetry)
				}
			}
			walks += ref.walks
			appended += ref.appended
			for _, r := range ref.log {
				if r.kind == 'x' {
					expiries++
				}
			}
		}
	}
	if walks == 0 || appended == 0 || expiries == 0 {
		t.Fatalf("scenarios never exercised the walk: %d walks, %d mid-walk appends, %d expiries",
			walks, appended, expiries)
	}
}

func firstDiff(a, b []diffRec) int {
	for i := 0; i < len(a) && i < len(b); i++ {
		if a[i] != b[i] {
			return i
		}
	}
	if len(a) != len(b) {
		return min(len(a), len(b))
	}
	return -1
}
