package reslists

import (
	"fmt"

	"dreamsim/internal/model"
)

// Offer is an O(1)-queryable digest of what a node that just released
// resources can offer the suspension queue: which configurations have
// an idle region there, how much unconfigured fabric is free, and how
// much area is reclaimable by evicting idle regions. The simulator
// builds it; the queue uses it to skip whole configurations the node
// cannot host.
type Offer struct {
	Idle    []bool // indexed by configuration number
	Free    model.Area
	Reclaim model.Area
}

// Fits reports whether a task needing cfg could possibly land on the
// node the offer describes.
func (o *Offer) Fits(cfg *model.Config) bool {
	if cfg.No >= 0 && cfg.No < len(o.Idle) && o.Idle[cfg.No] {
		return true
	}
	return cfg.ReqArea <= o.Free || cfg.ReqArea <= o.Reclaim
}

// susElem is one queued task. Elements live in fixed-size chunks and
// link to each other by slot number (0 is "none"), threaded through
// the queue-wide FIFO and through the FIFO of their configuration
// bucket; the task's SusSlot points back at its element.
type susElem struct {
	task         *model.Task
	next, prev   int32 // queue-wide FIFO; next also threads the free list
	bnext, bprev int32 // FIFO within the bucket
	// seq is the queue-wide FIFO position: strictly increasing along
	// next, so every bucket is also ordered by it.
	seq int32
	// epoch is the retry walk the task's SusRetry field was last
	// brought up to date at (see materialize).
	epoch int32
	// bucket is the bucket index; -1 while a walk holds the element
	// on its expiry list.
	bucket int32
	// heap is the element's position in the expiry heap; -1 when
	// absent.
	heap int32
}

// susChunk is the element allocation unit: slots grow a chunk at a
// time and are recycled through the free list, never moved.
const susChunkBits = 10

// susBucket is the FIFO of queued tasks resolved to one
// configuration. The last bucket holds the tasks the index cannot
// place: no resolved configuration yet, or one outside the
// configurations list.
type susBucket struct {
	cfg        *model.Config // nil for the unindexed bucket
	head, tail int32
	active     int32 // position in SusQueue.active; -1 when empty
	// cursor is the position in SusQueue.cursors, valid only while
	// cursorWalk equals the current walk epoch.
	cursor     int32
	cursorWalk int32
}

// susCursor is a walk's position in one admitted bucket: the next
// element of that bucket the walk has not visited (0 when exhausted)
// and its seq.
type susCursor struct {
	bucket int32
	slot   int32
	seq    int32
}

// SusQueue is the suspension queue (the paper's SusList class): a
// FIFO of tasks the scheduler could not place immediately but that
// some busy node could eventually host. Tasks are retried whenever a
// node releases resources and removed when placed or discarded.
//
// The paper's retry (RemoveTaskFromSusQueue) examines every queued
// task in FIFO order. A retry walk (BeginRetry, Next, EndRetry)
// produces exactly the tasks of that examination that can have an
// effect, in the same order, and accounts for the rest
// arithmetically:
//
//   - Tasks are bucketed by resolved configuration, so a walk visits
//     only the buckets the freed node's Offer admits, plus the
//     unindexed bucket, merged by FIFO position.
//   - SusRetry is lazy. Each walk advances a global epoch; a task's
//     count is its value at enqueue plus the walks since. Tasks whose
//     count will pass the retry cap sit in a heap keyed by the walk
//     that expires them, and are released into the merge on that
//     walk.
//   - The links explored — the queue length at the start of the walk
//     plus the tasks appended mid-walk that a FIFO traversal would
//     still reach — are computed, not counted.
type SusQueue struct {
	chunks     [][]susElem // slot s lives in chunks[s>>susChunkBits]
	slots      int32       // slots handed out so far; slot 0 is never used
	free       int32       // head of the recycled-slot list
	head, tail int32
	size       int
	// peak tracks the maximum depth reached, for reporting.
	peak int

	configs    []*model.Config
	buckets    []susBucket // one per configuration, unindexed last
	active     []int32     // indices of non-empty buckets
	maxRetries int64       // SusRetry cap; 0 disables expiry
	expiry     []int32     // min-heap of slots on (expiry walk, seq)
	nextSeq    int32
	epoch      int32 // retry walks begun since the last renumbering

	// State of the walk in progress.
	walking  bool
	offer    *Offer
	cursors  []susCursor
	due      []int32 // slots this walk expires, in FIFO order
	dueNext  int
	limit    int32 // seq of the last element the walk reaches
	startLen int
	startSeq int32
	reach    bool  // tasks appended now are reached by this walk
	last     int32 // candidate most recently returned by Next

	visits uint64
}

// NewSusQueue returns an empty suspension queue indexing tasks by
// the given configurations. maxRetries is the SusRetry cap past which
// a walk reports a task expired; 0 disables expiry.
func NewSusQueue(configs []*model.Config, maxRetries int64) *SusQueue {
	q := &SusQueue{}
	q.Reset(configs, maxRetries)
	return q
}

// Reset empties the queue for a fresh run over configs, as
// NewSusQueue would build it, but keeps its storage: a queue reused
// across a stream of runs allocates only past its deepest run.
func (q *SusQueue) Reset(configs []*model.Config, maxRetries int64) {
	// Drop the previous run's task pointers from the slots it used.
	for i, c := range q.chunks {
		used := int(q.slots) - i<<susChunkBits
		if used <= 0 {
			break
		}
		clear(c[:min(used, len(c))])
	}
	if cap(q.buckets) < len(configs)+1 {
		q.buckets = make([]susBucket, len(configs)+1)
	}
	q.buckets = q.buckets[:len(configs)+1]
	for i := range q.buckets {
		q.buckets[i] = susBucket{active: -1}
		if i < len(configs) {
			q.buckets[i].cfg = configs[i]
		}
	}
	*q = SusQueue{
		chunks:     q.chunks,
		slots:      1,
		configs:    configs,
		buckets:    q.buckets,
		active:     q.active[:0],
		maxRetries: maxRetries,
		expiry:     q.expiry[:0],
		cursors:    q.cursors[:0],
		due:        q.due[:0],
	}
}

// Len returns the number of suspended tasks.
func (q *SusQueue) Len() int { return q.size }

// Peak returns the maximum queue depth observed.
func (q *SusQueue) Peak() int { return q.peak }

// Visits returns how many tasks retry walks have produced since the
// queue was built or last reset. It is a host-side work counter: it measures the
// index, not the simulated system, and never feeds back into a run.
func (q *SusQueue) Visits() uint64 { return q.visits }

// at returns the element in slot s.
func (q *SusQueue) at(s int32) *susElem {
	return &q.chunks[s>>susChunkBits][s&(1<<susChunkBits-1)]
}

// slotOf returns task's slot in this queue, or 0.
func (q *SusQueue) slotOf(task *model.Task) int32 {
	if s := task.SusSlot; s > 0 && s < q.slots && q.at(s).task == task {
		return s
	}
	return 0
}

// Contains reports whether task is queued.
func (q *SusQueue) Contains(task *model.Task) bool { return q.slotOf(task) != 0 }

// Add appends task at the tail (the paper's AddTaskToSusQueue) and
// marks it suspended. It panics on double insertion. During a retry
// walk the appended task is reached by that walk exactly when a FIFO
// traversal would reach it: unless the task being visited was the
// tail when its visit began.
func (q *SusQueue) Add(task *model.Task) {
	if q.Contains(task) {
		panic(fmt.Sprintf("reslists: suspension queue double insert of %v", task))
	}
	if !q.walking && q.nextSeq >= susRenumberAt {
		q.renumber()
	}
	s := q.alloc()
	el := q.at(s)
	*el = susElem{task: task, prev: q.tail, seq: q.nextSeq, epoch: q.epoch, bucket: -1, heap: -1}
	q.nextSeq++
	if q.tail != 0 {
		q.at(q.tail).next = s
	} else {
		q.head = s
	}
	q.tail = s
	task.SusSlot = s
	q.size++
	if q.size > q.peak {
		q.peak = q.size
	}
	task.Status = model.TaskSuspended

	reached := q.walking && q.reach
	if reached {
		el.epoch-- // this walk's examination still lies ahead
		q.limit = el.seq
		if q.expires(el) {
			q.due = append(q.due, s)
			return
		}
	}
	b := q.bucketOf(task)
	q.file(s, b)
	if reached {
		q.extendCursor(b, s)
	}
}

// Remove unlinks task (the paper's RemoveTaskFromSusQueue) after
// bringing its SusRetry up to date; it reports whether the task was
// queued. The caller decides the task's next status. During a retry
// walk only the candidate Next just returned may be removed.
func (q *SusQueue) Remove(task *model.Task) bool {
	s := q.slotOf(task)
	if s == 0 {
		return false
	}
	if q.walking {
		if s != q.last {
			panic(fmt.Sprintf("reslists: %v removed mid-walk without being visited", task))
		}
		q.last = 0
	}
	el := q.at(s)
	q.materialize(el)
	if el.prev != 0 {
		q.at(el.prev).next = el.next
	} else {
		q.head = el.next
	}
	if el.next != 0 {
		q.at(el.next).prev = el.prev
	} else {
		q.tail = el.prev
	}
	if el.bucket >= 0 {
		q.unlinkBucket(s)
	}
	if el.heap >= 0 {
		q.heapRemove(el)
	}
	task.SusSlot = 0
	q.size--
	*el = susElem{next: q.free}
	q.free = s
	return true
}

// alloc hands out a recycled slot, or a fresh one.
func (q *SusQueue) alloc() int32 {
	if s := q.free; s != 0 {
		q.free = q.at(s).next
		return s
	}
	s := q.slots
	if int(s>>susChunkBits) == len(q.chunks) {
		//lint:allocfree pool miss: one chunk per 1,024 slots of suspension-depth high-water mark, amortized to zero in steady state
		q.chunks = append(q.chunks, make([]susElem, 1<<susChunkBits))
	}
	q.slots++
	return s
}

// BeginRetry opens a retry walk for a node whose resources o
// describes. The caller keeps *o current: after every placement it
// re-summarises the node into the same Offer, and the walk drops the
// buckets the node can no longer host. An offer may only shrink
// during a walk — a placement never frees resources.
//
//dreamsim:noalloc
func (q *SusQueue) BeginRetry(o *Offer) {
	if q.nextSeq >= susRenumberAt || q.epoch >= susRenumberAt {
		q.renumber()
	}
	q.epoch++
	q.walking, q.offer = true, o
	q.startLen, q.startSeq, q.limit = q.size, q.nextSeq, q.nextSeq-1
	q.reach, q.last = false, 0
	q.cursors, q.due, q.dueNext = q.cursors[:0], q.due[:0], 0

	// Release the tasks whose count this walk's examination pushes
	// past the cap. The heap yields them by (expiry walk, seq); only
	// a task re-queued with a count already past the cap is overdue,
	// so the sorted insert is almost always an append.
	for len(q.expiry) > 0 && q.expiryOf(q.at(q.expiry[0])) <= int64(q.epoch) {
		s := q.expiry[0]
		el := q.at(s)
		q.heapRemove(el)
		q.unlinkBucket(s)
		i := len(q.due)
		q.due = append(q.due, s)
		for ; i > 0 && q.at(q.due[i-1]).seq > el.seq; i-- {
			q.due[i] = q.due[i-1]
		}
		q.due[i] = s
	}
	for _, b := range q.active {
		bk := &q.buckets[b]
		if bk.cfg == nil || o.Fits(bk.cfg) {
			q.addCursor(b, bk.head)
		}
	}
}

// Next returns the walk's next task in FIFO order, and whether the
// task's retry count has passed the cap (the caller must then remove
// and discard it). Its SusRetry field is current, this walk's
// examination included. A task whose configuration the offer admits
// needs no further check; the unindexed bucket is produced
// unfiltered. A nil task ends the walk.
//
//dreamsim:noalloc
func (q *SusQueue) Next() (task *model.Task, expired bool) {
	q.settle()
	for {
		pick, seq := -1, q.limit+1
		for i := range q.cursors {
			if c := &q.cursors[i]; c.slot != 0 && c.seq < seq {
				pick, seq = i, c.seq
			}
		}
		var s int32
		if q.dueNext < len(q.due) && q.at(q.due[q.dueNext]).seq < seq {
			s = q.due[q.dueNext]
			q.dueNext++
			expired = true
		} else if pick >= 0 {
			c := &q.cursors[pick]
			if cfg := q.buckets[c.bucket].cfg; cfg != nil && !q.offer.Fits(cfg) {
				q.dropCursor(pick) // the offer shrank below this configuration
				continue
			}
			s = c.slot
			q.advance(c)
		} else {
			return nil, false // nothing left at or before the walk's last link
		}
		el := q.at(s)
		q.reach = s != q.tail
		q.last = s
		q.materialize(el)
		q.visits++
		return el.task, expired
	}
}

// EndRetry closes the walk and returns the number of queue links a
// FIFO traversal would have explored: the queue length when the walk
// began plus every task appended during it that the traversal would
// still have reached.
//
//dreamsim:noalloc
func (q *SusQueue) EndRetry() (steps uint64) {
	q.settle()
	// A walk cut short leaves released expiries behind: file them
	// back so the next walk releases them again.
	for ; q.dueNext < len(q.due); q.dueNext++ {
		s := q.due[q.dueNext]
		q.file(s, q.bucketOf(q.at(s).task))
	}
	q.walking, q.offer = false, nil
	return uint64(q.startLen) + uint64(q.limit-(q.startSeq-1))
}

// Materialize brings every queued task's SusRetry field up to date,
// for readers outside a walk (snapshots). The queue's state is
// unchanged: a task's count is the same before and after.
func (q *SusQueue) Materialize() {
	for s := q.head; s != 0; s = q.at(s).next {
		q.materialize(q.at(s))
	}
}

// susRenumberAt bounds the 32-bit sequence and epoch counters: an add
// or a walk that finds one past it first renumbers the queue, which
// leaves every walk 2³⁰ of headroom. Tests lower it to exercise the
// renumbering.
var susRenumberAt int32 = 1 << 30

// renumber restarts the sequence numbers and the walk epoch from zero
// between walks. Every task keeps its FIFO position and its count, and
// every expiry moves by the same number of walks, so the heap order
// holds. Amortised over the 2³⁰ adds or walks that trigger it, it is
// free.
func (q *SusQueue) renumber() {
	var seq int32
	for s := q.head; s != 0; s = q.at(s).next {
		el := q.at(s)
		q.materialize(el)
		el.seq, el.epoch = seq, 0
		seq++
	}
	q.nextSeq, q.epoch = seq, 0
	for i := range q.buckets {
		q.buckets[i].cursorWalk = 0
	}
}

// materialize folds the walks since el.epoch into the task's count.
func (q *SusQueue) materialize(el *susElem) {
	el.task.SusRetry += int64(q.epoch - el.epoch)
	el.epoch = q.epoch
}

// settle files the walk's last candidate, if still queued, under its
// current resolution: a policy consult may have resolved (or, for a
// custom policy, re-resolved) its configuration, and an expired
// candidate the caller kept goes back to its bucket.
func (q *SusQueue) settle() {
	s := q.last
	q.last = 0
	if s == 0 {
		return
	}
	el := q.at(s)
	if b := q.bucketOf(el.task); el.bucket != b {
		if el.bucket >= 0 {
			q.unlinkBucket(s)
		}
		q.file(s, b)
	}
}

// Refile re-buckets a queued task whose resolved configuration may
// have changed outside a walk (a full scheduling pass over the queue).
func (q *SusQueue) Refile(task *model.Task) {
	if s := q.slotOf(task); s != 0 && !q.walking {
		q.last = s
		q.settle()
	}
}

// bucketOf returns the bucket a task belongs to.
func (q *SusQueue) bucketOf(task *model.Task) int32 {
	if c := task.Resolved; c != nil && c.No >= 0 && c.No < len(q.configs) && q.configs[c.No] == c {
		return int32(c.No)
	}
	return int32(len(q.configs))
}

// expiryOf returns the walk whose examination pushes el's count past
// the cap. Folding walks into the count leaves it unchanged.
func (q *SusQueue) expiryOf(el *susElem) int64 {
	return int64(el.epoch) + q.maxRetries - el.task.SusRetry + 1
}

// expires reports whether the current walk's examination of el
// pushes its count past the cap.
func (q *SusQueue) expires(el *susElem) bool {
	return q.maxRetries > 0 && q.expiryOf(el) <= int64(q.epoch)
}

// file links slot s into bucket b at its FIFO position and, when
// expiry is on and it is not there yet, into the expiry heap. Appends
// land at the tail at once; only a re-filed task scans back past
// later arrivals.
func (q *SusQueue) file(s int32, b int32) {
	el, bk := q.at(s), &q.buckets[b]
	at := bk.tail
	for at != 0 && q.at(at).seq > el.seq {
		at = q.at(at).bprev
	}
	el.bucket, el.bprev = b, at
	if at == 0 {
		el.bnext, bk.head = bk.head, s
	} else {
		prev := q.at(at)
		el.bnext, prev.bnext = prev.bnext, s
	}
	if el.bnext != 0 {
		q.at(el.bnext).bprev = s
	} else {
		bk.tail = s
	}
	if bk.active < 0 {
		bk.active = int32(len(q.active))
		q.active = append(q.active, b)
	}
	if q.maxRetries > 0 && el.heap < 0 {
		q.heapPush(s)
	}
}

// unlinkBucket removes slot s from its bucket (not from the heap).
func (q *SusQueue) unlinkBucket(s int32) {
	el := q.at(s)
	bk := &q.buckets[el.bucket]
	if el.bprev != 0 {
		q.at(el.bprev).bnext = el.bnext
	} else {
		bk.head = el.bnext
	}
	if el.bnext != 0 {
		q.at(el.bnext).bprev = el.bprev
	} else {
		bk.tail = el.bprev
	}
	if bk.head == 0 {
		last := q.active[len(q.active)-1]
		q.active[bk.active] = last
		q.buckets[last].active = bk.active
		q.active = q.active[:len(q.active)-1]
		bk.active = -1
	}
	el.bucket, el.bnext, el.bprev = -1, 0, 0
}

// addCursor starts the walk's cursor for bucket b at slot s.
func (q *SusQueue) addCursor(b int32, s int32) {
	bk := &q.buckets[b]
	bk.cursor, bk.cursorWalk = int32(len(q.cursors)), q.epoch
	q.cursors = append(q.cursors, susCursor{bucket: b, slot: s, seq: q.at(s).seq})
}

// advance moves cursor c to the next element of its bucket.
func (q *SusQueue) advance(c *susCursor) {
	c.slot = q.at(c.slot).bnext
	if c.slot != 0 {
		c.seq = q.at(c.slot).seq
	}
}

// dropCursor removes the walk's i-th cursor.
func (q *SusQueue) dropCursor(i int) {
	q.buckets[q.cursors[i].bucket].cursorWalk = 0
	last := len(q.cursors) - 1
	if i != last {
		q.cursors[i] = q.cursors[last]
		q.buckets[q.cursors[i].bucket].cursor = int32(i)
	}
	q.cursors = q.cursors[:last]
}

// extendCursor makes slot s, appended to bucket b and reached by the
// walk, visible to the merge: an exhausted cursor resumes at it, and
// a bucket without one gets one if the offer admits it.
func (q *SusQueue) extendCursor(b int32, s int32) {
	bk := &q.buckets[b]
	if bk.cursorWalk == q.epoch {
		if c := &q.cursors[bk.cursor]; c.slot == 0 {
			c.slot, c.seq = s, q.at(s).seq
		}
		return
	}
	if bk.cfg == nil || q.offer.Fits(bk.cfg) {
		q.addCursor(b, s)
	}
}

// heapLess orders the expiry heap by expiry walk, then FIFO position.
func (q *SusQueue) heapLess(a, b int32) bool {
	ea, eb := q.at(a), q.at(b)
	xa, xb := q.expiryOf(ea), q.expiryOf(eb)
	return xa < xb || (xa == xb && ea.seq < eb.seq)
}

func (q *SusQueue) heapSet(i int, s int32) {
	q.expiry[i] = s
	q.at(s).heap = int32(i)
}

func (q *SusQueue) heapPush(s int32) {
	q.expiry = append(q.expiry, s)
	q.heapUp(len(q.expiry) - 1)
}

func (q *SusQueue) heapRemove(el *susElem) {
	i, last := int(el.heap), len(q.expiry)-1
	if i != last {
		q.heapSet(i, q.expiry[last])
	}
	q.expiry = q.expiry[:last]
	el.heap = -1
	if i != last {
		q.heapDown(i)
		q.heapUp(i)
	}
}

func (q *SusQueue) heapUp(i int) {
	s := q.expiry[i]
	for i > 0 {
		p := (i - 1) / 2
		if !q.heapLess(s, q.expiry[p]) {
			break
		}
		q.heapSet(i, q.expiry[p])
		i = p
	}
	q.heapSet(i, s)
}

func (q *SusQueue) heapDown(i int) {
	s := q.expiry[i]
	n := len(q.expiry)
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if c+1 < n && q.heapLess(q.expiry[c+1], q.expiry[c]) {
			c++
		}
		if !q.heapLess(q.expiry[c], s) {
			break
		}
		q.heapSet(i, q.expiry[c])
		i = c
	}
	q.heapSet(i, s)
}

// Tasks returns the queued tasks in FIFO order (for reports).
func (q *SusQueue) Tasks() []*model.Task {
	return q.AppendTasks(nil)
}

// AppendTasks appends the queued tasks in FIFO order to dst and
// returns the extended slice — the allocation-free form of Tasks for
// callers that recycle the backing array across passes.
//
//dreamsim:noalloc
func (q *SusQueue) AppendTasks(dst []*model.Task) []*model.Task {
	for s := q.head; s != 0; s = q.at(s).next {
		dst = append(dst, q.at(s).task)
	}
	return dst
}

// CheckInvariants validates the FIFO linkage and slots, the buckets
// (FIFO-ordered, each task under its resolution), the active-bucket
// set and the expiry heap. It is meant for use between walks.
func (q *SusQueue) CheckInvariants() error {
	count := 0
	var prev int32
	for s := q.head; s != 0; s = q.at(s).next {
		count++
		if count > q.size {
			return fmt.Errorf("reslists: suspension queue cycle or size drift")
		}
		el := q.at(s)
		if el.prev != prev {
			return fmt.Errorf("reslists: suspension queue back-pointer mismatch at %v", el.task)
		}
		if el.task.SusSlot != s {
			return fmt.Errorf("reslists: suspension queue slot mismatch at %v", el.task)
		}
		if prev != 0 && q.at(prev).seq >= el.seq {
			return fmt.Errorf("reslists: suspension queue sequence not increasing at %v", el.task)
		}
		if el.bucket != q.bucketOf(el.task) {
			return fmt.Errorf("reslists: %v filed in bucket %d, resolves to %d", el.task, el.bucket, q.bucketOf(el.task))
		}
		if (q.maxRetries > 0) != (el.heap >= 0) || (el.heap >= 0 && q.expiry[el.heap] != s) {
			return fmt.Errorf("reslists: %v expiry heap position %d inconsistent", el.task, el.heap)
		}
		prev = s
	}
	if count != q.size {
		return fmt.Errorf("reslists: suspension queue size %d, chain %d", q.size, count)
	}
	if q.tail != prev {
		return fmt.Errorf("reslists: suspension queue tail mismatch")
	}
	filed, nonEmpty := 0, 0
	for i := range q.buckets {
		bk := &q.buckets[i]
		var bprev int32
		for s := bk.head; s != 0; s = q.at(s).bnext {
			filed++
			if filed > q.size {
				return fmt.Errorf("reslists: suspension bucket %d cycle", i)
			}
			el := q.at(s)
			if el.bprev != bprev || int(el.bucket) != i || (bprev != 0 && q.at(bprev).seq >= el.seq) {
				return fmt.Errorf("reslists: suspension bucket %d linkage broken at %v", i, el.task)
			}
			bprev = s
		}
		if bk.tail != bprev {
			return fmt.Errorf("reslists: suspension bucket %d tail mismatch", i)
		}
		if (bk.head != 0) != (bk.active >= 0) || (bk.active >= 0 && q.active[bk.active] != int32(i)) {
			return fmt.Errorf("reslists: suspension bucket %d active-set entry inconsistent", i)
		}
		if bk.head != 0 {
			nonEmpty++
		}
	}
	if filed != q.size || nonEmpty != len(q.active) {
		return fmt.Errorf("reslists: %d tasks filed in %d buckets, queue holds %d in %d active",
			filed, nonEmpty, q.size, len(q.active))
	}
	for i := 1; i < len(q.expiry); i++ {
		if q.heapLess(q.expiry[i], q.expiry[(i-1)/2]) {
			return fmt.Errorf("reslists: expiry heap order broken at %d", i)
		}
	}
	if q.maxRetries > 0 && len(q.expiry) != q.size {
		return fmt.Errorf("reslists: expiry heap holds %d of %d tasks", len(q.expiry), q.size)
	}
	return nil
}
