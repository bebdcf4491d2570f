package main

import (
	"math/bits"
	"time"

	"dreamsim/internal/model"
	"dreamsim/internal/resinfo"
	"dreamsim/internal/sched"
	"dreamsim/internal/workload"
)

// span is one coarse interval of a traced run: workload, iteration,
// simulation, and the setup/run/snapshot/resume/finish calls under it.
// Times are seconds since the trace began.
type span struct {
	ID     int               `json:"id"`
	Parent int               `json:"parent"`
	Name   string            `json:"name"`
	Start  float64           `json:"start_s"`
	End    float64           `json:"end_s"`
	Attrs  map[string]string `json:"attrs,omitempty"`
}

// tracer keeps spans in memory until the run ends. A nil tracer
// records nothing, so untraced runs share the traced code paths.
type tracer struct {
	origin time.Time
	spans  []span
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

// begin opens a span under parent (0 = root) with key/value attributes
// and returns its id.
func (t *tracer) begin(parent int, name string, kv ...string) int {
	if t == nil {
		return 0
	}
	s := span{ID: len(t.spans) + 1, Parent: parent, Name: name, Start: time.Since(t.origin).Seconds()}
	if len(kv) > 0 {
		s.Attrs = make(map[string]string, len(kv)/2)
		for i := 0; i+1 < len(kv); i += 2 {
			s.Attrs[kv[i]] = kv[i+1]
		}
	}
	t.spans = append(t.spans, s)
	return s.ID
}

// end closes span id.
func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	t.spans[id-1].End = time.Since(t.origin).Seconds()
}

// hist is a per-call timing record: call count, total time and a
// log-linear histogram (each power of two split into 8 buckets), so a
// million calls cost a fixed 4 KiB instead of a million spans.
type hist struct {
	count   uint64
	total   time.Duration
	buckets [64 << subBits]uint64
}

const subBits = 3

func bucketOf(ns uint64) int {
	if ns < 1<<subBits {
		return int(ns)
	}
	k := bits.Len64(ns) - 1
	sub := (ns >> (k - subBits)) & (1<<subBits - 1)
	return (k-subBits+1)<<subBits | int(sub)
}

// bucketBounds returns bucket i's range [lo, hi) in nanoseconds.
func bucketBounds(i int) (lo, hi float64) {
	if i < 1<<subBits {
		return float64(i), float64(i + 1)
	}
	k := i>>subBits + subBits - 1
	sub := uint64(i & (1<<subBits - 1))
	l := uint64(1)<<k | sub<<(k-subBits)
	return float64(l), float64(l + 1<<(k-subBits))
}

func (h *hist) observe(d time.Duration) {
	h.count++
	h.total += d
	ns := d.Nanoseconds()
	if ns < 0 {
		ns = 0
	}
	h.buckets[bucketOf(uint64(ns))]++
}

// merge adds o's calls into h.
func (h *hist) merge(o *hist) {
	h.count += o.count
	h.total += o.total
	for i, c := range o.buckets {
		h.buckets[i] += c
	}
}

// quantile estimates the q-quantile in nanoseconds, interpolating
// linearly inside the bucket that holds the rank.
func (h *hist) quantile(q float64) float64 {
	if h.count == 0 {
		return 0
	}
	rank := q * float64(h.count)
	var cum float64
	for i, c := range h.buckets {
		if c == 0 {
			continue
		}
		if cum+float64(c) >= rank {
			lo, hi := bucketBounds(i)
			return lo + (hi-lo)*(rank-cum)/float64(c)
		}
		cum += float64(c)
	}
	_, hi := bucketBounds(len(h.buckets) - 1)
	return hi
}

// histOut is a histogram as written to the trace file: non-empty
// buckets only, keyed by their lower bound in nanoseconds.
type histOut struct {
	Calls   uint64            `json:"calls"`
	TotalS  float64           `json:"total_s"`
	Buckets map[string]uint64 `json:"buckets_ns,omitempty"`
}

func (h *hist) out() histOut {
	o := histOut{Calls: h.count, TotalS: h.total.Seconds(), Buckets: map[string]uint64{}}
	for i, c := range h.buckets {
		if c != 0 {
			lo, _ := bucketBounds(i)
			o.Buckets[time.Duration(lo).String()] = c
		}
	}
	return o
}

// timedPolicy wraps the scheduling policy and times every decision.
// A custom policy turns batched dispatch off and cannot be
// snapshotted, which is why traced pass (a) runs at the core level.
type timedPolicy struct {
	inner         sched.Policy
	decide, retry hist
	decidePlaced  uint64
	retryPlaced   uint64
}

func (p *timedPolicy) Name() string { return p.inner.Name() }

func (p *timedPolicy) Decide(m *resinfo.Manager, t *model.Task) sched.Decision {
	t0 := time.Now()
	d := p.inner.Decide(m, t)
	p.decide.observe(time.Since(t0))
	if d.Places() {
		p.decidePlaced++
	}
	return d
}

func (p *timedPolicy) DecideOnNode(m *resinfo.Manager, t *model.Task, n *model.Node) sched.Decision {
	t0 := time.Now()
	d := p.inner.DecideOnNode(m, t, n)
	p.retry.observe(time.Since(t0))
	if d.Places() {
		p.retryPlaced++
	}
	return d
}

// timedSource wraps the task source and times every Next. It forwards
// recycling (workload.Recycler and Recycled) and class names
// (workload.ClassedSource), so the traced run keeps streaming reuse
// and per-class accounting exactly as the untraced run has them.
type timedSource struct {
	inner workload.TaskSource
	next  hist
}

func (s *timedSource) Next() (*model.Task, bool) {
	t0 := time.Now()
	t, ok := s.inner.Next()
	s.next.observe(time.Since(t0))
	return t, ok
}

// Release implements workload.Recycler.
func (s *timedSource) Release(t *model.Task) {
	if r, ok := s.inner.(workload.Recycler); ok {
		r.Release(t)
	}
}

// Recycled reports how many Next calls the inner source served from
// its free list.
func (s *timedSource) Recycled() int64 {
	if r, ok := s.inner.(interface{ Recycled() int64 }); ok {
		return r.Recycled()
	}
	return 0
}

// ClassNames implements workload.ClassedSource.
func (s *timedSource) ClassNames() []string {
	if c, ok := s.inner.(workload.ClassedSource); ok {
		return c.ClassNames()
	}
	return nil
}
