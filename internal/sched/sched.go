// Package sched implements the proportional-share scheduling substrate
// that the paper assumes is available on the server ("we assume that the
// processing rate of an Internet server can be proportionally allocated to
// a number of task servers", §2.2, citing GPS, PGPS and Lottery
// scheduling). The PSD rate allocator outputs a weight vector; these
// schedulers realize it on a single serially-shared processor by choosing
// which class's head-of-line request runs next.
//
// Provided disciplines:
//
//   - SCFQ — self-clocked fair queueing, a practical packet-by-packet
//     approximation of GPS (PGPS family)
//   - DRR — deficit round robin
//   - Lottery — randomized proportional share
//   - StrictPriority — the related-work baseline that provably cannot
//     hold quality spacings (§5)
//
// A fluid GPS reference (GPSFinishTimes) computes exact fluid completion
// times for conformance tests: packetized schedules must track the fluid
// schedule within a bounded lag.
//
// Jobs move through the schedulers BY VALUE: Enqueue copies the Job into
// the scheduler's internal storage (a value-typed tag heap for SCFQ, ring
// buffers for the round-robin family) and Dequeue copies it back out. No
// per-job heap allocation ever occurs in steady state — internal buffers
// grow only while a queue reaches a new high-water mark, and Reset
// retains that capacity across simulation replications. This is what
// keeps the packetized simulation mode on the same ~zero allocs/event
// budget as the partitioned one.
//
// All schedulers are single-goroutine data structures; the HTTP front end
// serializes access through its dispatcher.
package sched

import (
	"errors"
	"fmt"
)

// Job is one schedulable request. Jobs are plain values; the scheduler
// stores a copy on Enqueue and returns a copy from Dequeue.
type Job struct {
	// Class indexes the weight vector.
	Class int
	// Size is the job's service demand in work units.
	Size float64
	// Arrival is the caller's arrival timestamp (informational; only GPS
	// conformance tooling interprets it).
	Arrival float64
	// Payload carries the caller's context through the scheduler.
	Payload any
}

// Scheduler selects the next job to run to completion on the shared
// processor.
type Scheduler interface {
	// Name identifies the discipline.
	Name() string
	// SetWeights installs the normalized per-class weights (from the rate
	// allocator). Implementations must accept any positive vector.
	SetWeights(w []float64) error
	// Enqueue adds a job (copied by value).
	Enqueue(j Job)
	// Dequeue removes and returns the next job to serve; ok is false when
	// the scheduler is idle.
	Dequeue() (j Job, ok bool)
	// Backlog returns the number of queued jobs.
	Backlog() int
	// Reset restores the freshly constructed state — empty queues, equal
	// weights, cleared virtual-time/deficit bookkeeping — while retaining
	// internal buffer capacity, so a simulation arena reuses one
	// scheduler across replications without allocating. Randomized
	// disciplines keep their random source state; rebuild the scheduler
	// instead when bit-reproducible replications are required.
	Reset()
}

// ErrBadWeights reports an invalid weight vector.
var ErrBadWeights = errors.New("sched: weights must be positive")

func checkWeights(w []float64, classes int) error {
	if len(w) != classes {
		return fmt.Errorf("%w: got %d weights for %d classes", ErrBadWeights, len(w), classes)
	}
	for i, x := range w {
		if !(x > 0) {
			return fmt.Errorf("%w: weight[%d] = %v", ErrBadWeights, i, x)
		}
	}
	return nil
}

func equalWeights(w []float64) {
	for i := range w {
		w[i] = 1 / float64(len(w))
	}
}

// jobRing is a growable power-of-two ring buffer of Job values. Push and
// pop never allocate in steady state; the buffer grows only at a new
// high-water mark and is retained across Reset.
type jobRing struct {
	buf  []Job
	head int
	n    int
}

func (q *jobRing) empty() bool { return q.n == 0 }

func (q *jobRing) push(j Job) {
	if q.n == len(q.buf) {
		q.grow()
	}
	q.buf[(q.head+q.n)&(len(q.buf)-1)] = j
	q.n++
}

func (q *jobRing) pop() Job {
	j := q.buf[q.head]
	q.buf[q.head] = Job{} // drop the Payload reference
	q.head = (q.head + 1) & (len(q.buf) - 1)
	q.n--
	return j
}

func (q *jobRing) headJob() (Job, bool) {
	if q.n == 0 {
		return Job{}, false
	}
	return q.buf[q.head], true
}

func (q *jobRing) reset() {
	for i := 0; i < q.n; i++ {
		q.buf[(q.head+i)&(len(q.buf)-1)] = Job{}
	}
	q.head = 0
	q.n = 0
}

func (q *jobRing) grow() {
	newCap := 8
	if len(q.buf) > 0 {
		newCap = len(q.buf) * 2
	}
	nb := make([]Job, newCap)
	for i := 0; i < q.n; i++ {
		nb[i] = q.buf[(q.head+i)&(len(q.buf)-1)]
	}
	q.buf = nb
	q.head = 0
}

// ---------------------------------------------------------------------------
// SCFQ

// SCFQ is self-clocked fair queueing (Golestani): each arriving job gets a
// finish tag F = max(V, F_prev(class)) + size/w(class), where the virtual
// time V is the finish tag of the job most recently dispatched. Jobs are
// served in increasing tag order, approximating GPS within one maximum job
// per class.
//
// The pending set mirrors internal/des: a value-typed 4-ary implicit
// heap of small (tag, seq, slot) entries over a Job slot arena recycled
// through a free list. The heap is ordered by the strict total order
// (tag, seq) — seq is a monotone enqueue counter, so no two entries
// compare equal and the dequeue sequence is independent of heap
// internals. Sift operations move 24-byte keys instead of whole Jobs
// (or, as in the container/heap implementation this replaced, chasing
// *Job pointers through the GC heap), and steady-state operation
// performs no allocation: enqueue pops a free slot, dequeue pushes it
// back, and both arenas are retained across Reset.
type SCFQ struct {
	classes int
	weights []float64
	lastTag []float64 // per-class last finish tag
	vtime   float64
	heap    []scfqEntry
	jobs    []Job   // slot arena backing the heap entries
	free    []int32 // recycled slot indices (LIFO)
	seq     uint64
}

type scfqEntry struct {
	tag  float64
	seq  uint64
	slot int32
}

func scfqLess(a, b scfqEntry) bool {
	if a.tag != b.tag {
		return a.tag < b.tag
	}
	return a.seq < b.seq
}

// NewSCFQ builds an SCFQ scheduler for the given class count with equal
// initial weights.
func NewSCFQ(classes int) *SCFQ {
	s := &SCFQ{
		classes: classes,
		weights: make([]float64, classes),
		lastTag: make([]float64, classes),
	}
	equalWeights(s.weights)
	return s
}

// Name implements Scheduler.
func (s *SCFQ) Name() string { return "scfq" }

// SetWeights implements Scheduler.
func (s *SCFQ) SetWeights(w []float64) error {
	if err := checkWeights(w, s.classes); err != nil {
		return err
	}
	copy(s.weights, w)
	return nil
}

// Reset implements Scheduler.
func (s *SCFQ) Reset() {
	equalWeights(s.weights)
	for i := range s.lastTag {
		s.lastTag[i] = 0
	}
	s.vtime = 0
	s.seq = 0
	s.heap = s.heap[:0]
	for i := range s.jobs {
		s.jobs[i] = Job{} // drop Payload references
	}
	s.jobs = s.jobs[:0]
	s.free = s.free[:0]
}

// Enqueue implements Scheduler.
func (s *SCFQ) Enqueue(j Job) {
	start := s.vtime
	if s.lastTag[j.Class] > start {
		start = s.lastTag[j.Class]
	}
	tag := start + j.Size/s.weights[j.Class]
	s.lastTag[j.Class] = tag
	var slot int32
	if n := len(s.free); n > 0 {
		slot = s.free[n-1]
		s.free = s.free[:n-1]
	} else {
		slot = int32(len(s.jobs))
		s.jobs = append(s.jobs, Job{})
	}
	s.jobs[slot] = j
	s.heap = append(s.heap, scfqEntry{tag: tag, seq: s.seq, slot: slot})
	s.seq++
	s.siftUp(len(s.heap) - 1)
}

// Dequeue implements Scheduler.
func (s *SCFQ) Dequeue() (Job, bool) {
	if len(s.heap) == 0 {
		// Idle period: reset virtual time bookkeeping so stale tags do
		// not penalize the next busy period.
		s.vtime = 0
		for i := range s.lastTag {
			s.lastTag[i] = 0
		}
		return Job{}, false
	}
	root := s.heap[0]
	n := len(s.heap) - 1
	s.heap[0] = s.heap[n]
	s.heap = s.heap[:n]
	if n > 0 {
		s.siftDown(0)
	}
	s.vtime = root.tag
	j := s.jobs[root.slot]
	s.jobs[root.slot] = Job{} // drop the Payload reference
	s.free = append(s.free, root.slot)
	return j, true
}

// Backlog implements Scheduler.
func (s *SCFQ) Backlog() int { return len(s.heap) }

func (s *SCFQ) siftUp(i int) {
	h := s.heap
	e := h[i]
	for i > 0 {
		parent := (i - 1) >> 2
		if !scfqLess(e, h[parent]) {
			break
		}
		h[i] = h[parent]
		i = parent
	}
	h[i] = e
}

func (s *SCFQ) siftDown(i int) {
	h := s.heap
	n := len(h)
	e := h[i]
	for {
		first := i<<2 + 1
		if first >= n {
			break
		}
		min := first
		last := first + 4
		if last > n {
			last = n
		}
		for c := first + 1; c < last; c++ {
			if scfqLess(h[c], h[min]) {
				min = c
			}
		}
		if !scfqLess(h[min], e) {
			break
		}
		h[i] = h[min]
		i = min
	}
	h[i] = e
}

// ---------------------------------------------------------------------------
// DRR

// DRR is deficit round robin (Shreedhar & Varghese): classes are visited
// cyclically; arriving at a backlogged class adds its grant
// (Quantum·w_i/max(w)) to the class's deficit counter, and the class
// releases head-of-line jobs while their size fits the deficit. A job
// larger than the grant simply accumulates deficit over multiple rounds —
// no job is ever served out of budget.
type DRR struct {
	classes int
	weights []float64
	queues  []jobRing
	deficit []float64
	// Quantum is the base quantum in work units; the per-round grant is
	// Quantum·w_i/max(w). Larger quanta reduce rotation overhead but
	// coarsen fairness granularity.
	Quantum float64
	cursor  int
	arrived bool // whether the cursor class has been granted since arrival
	backlog int
}

// NewDRR builds a DRR scheduler with the given base quantum (work units).
func NewDRR(classes int, quantum float64) (*DRR, error) {
	if !(quantum > 0) {
		return nil, fmt.Errorf("sched: DRR quantum %v must be positive", quantum)
	}
	d := &DRR{
		classes: classes,
		weights: make([]float64, classes),
		queues:  make([]jobRing, classes),
		deficit: make([]float64, classes),
		Quantum: quantum,
	}
	equalWeights(d.weights)
	return d, nil
}

// Name implements Scheduler.
func (d *DRR) Name() string { return "drr" }

// SetWeights implements Scheduler.
func (d *DRR) SetWeights(w []float64) error {
	if err := checkWeights(w, d.classes); err != nil {
		return err
	}
	copy(d.weights, w)
	return nil
}

// Reset implements Scheduler. The quantum is construction-time
// configuration and is retained.
func (d *DRR) Reset() {
	equalWeights(d.weights)
	for i := range d.queues {
		d.queues[i].reset()
		d.deficit[i] = 0
	}
	d.cursor = 0
	d.arrived = false
	d.backlog = 0
}

// Enqueue implements Scheduler.
func (d *DRR) Enqueue(j Job) {
	d.queues[j.Class].push(j)
	d.backlog++
}

// Dequeue implements Scheduler.
func (d *DRR) Dequeue() (Job, bool) {
	if d.backlog == 0 {
		for i := range d.deficit {
			d.deficit[i] = 0
		}
		d.arrived = false
		return Job{}, false
	}
	maxW := 0.0
	for _, w := range d.weights {
		if w > maxW {
			maxW = w
		}
	}
	advance := func() {
		d.cursor = (d.cursor + 1) % d.classes
		d.arrived = false
	}
	// Terminates: every full rotation adds a positive grant to each
	// backlogged class, so some head eventually fits its deficit.
	for {
		q := &d.queues[d.cursor]
		if q.empty() {
			// Standard DRR: an emptied class forfeits its deficit.
			d.deficit[d.cursor] = 0
			advance()
			continue
		}
		if !d.arrived {
			d.deficit[d.cursor] += d.Quantum * d.weights[d.cursor] / maxW
			d.arrived = true
		}
		if head, _ := q.headJob(); head.Size <= d.deficit[d.cursor] {
			d.deficit[d.cursor] -= head.Size
			d.backlog--
			// Cursor stays: the class keeps draining its deficit until
			// its head no longer fits (then the rotation moves on).
			return q.pop(), true
		}
		advance()
	}
}

// Backlog implements Scheduler.
func (d *DRR) Backlog() int { return d.backlog }
