package sched

import (
	"psd/internal/rng"
)

// Lottery is Waldspurger & Weihl's randomized proportional-share
// discipline: each backlogged class holds tickets proportional to its
// weight; a uniform draw selects the winner. Expected shares equal the
// weights; variance decays as 1/n.
type Lottery struct {
	classes int
	weights []float64
	queues  []jobRing
	src     *rng.Source
	backlog int
}

// NewLottery builds the scheduler with its own deterministic random
// stream.
func NewLottery(classes int, src *rng.Source) *Lottery {
	l := &Lottery{
		classes: classes,
		weights: make([]float64, classes),
		queues:  make([]jobRing, classes),
		src:     src,
	}
	equalWeights(l.weights)
	return l
}

// Name implements Scheduler.
func (l *Lottery) Name() string { return "lottery" }

// SetWeights implements Scheduler.
func (l *Lottery) SetWeights(w []float64) error {
	if err := checkWeights(w, l.classes); err != nil {
		return err
	}
	copy(l.weights, w)
	return nil
}

// Reset implements Scheduler. The random stream continues where it left
// off; construct a fresh Lottery (with a freshly split source) for
// bit-reproducible replications.
func (l *Lottery) Reset() {
	equalWeights(l.weights)
	for i := range l.queues {
		l.queues[i].reset()
	}
	l.backlog = 0
}

// Enqueue implements Scheduler.
func (l *Lottery) Enqueue(j Job) {
	l.queues[j.Class].push(j)
	l.backlog++
}

// Dequeue implements Scheduler.
func (l *Lottery) Dequeue() (Job, bool) {
	if l.backlog == 0 {
		return Job{}, false
	}
	total := 0.0
	for i := range l.queues {
		if !l.queues[i].empty() {
			total += l.weights[i]
		}
	}
	draw := l.src.Float64() * total
	for i := range l.queues {
		if l.queues[i].empty() {
			continue
		}
		draw -= l.weights[i]
		if draw < 0 {
			l.backlog--
			return l.queues[i].pop(), true
		}
	}
	// Floating-point edge: serve the last backlogged class.
	for i := l.classes - 1; i >= 0; i-- {
		if !l.queues[i].empty() {
			l.backlog--
			return l.queues[i].pop(), true
		}
	}
	return Job{}, false
}

// Backlog implements Scheduler.
func (l *Lottery) Backlog() int { return l.backlog }

// StrictPriority always serves the lowest-numbered backlogged class —
// the related-work baseline ([Almeida et al.], paper §5) that achieves
// differentiation but cannot hold proportional spacings and starves low
// classes under high-priority load.
type StrictPriority struct {
	classes int
	queues  []jobRing
	backlog int
}

// NewStrictPriority builds the scheduler; class 0 is highest priority.
func NewStrictPriority(classes int) *StrictPriority {
	return &StrictPriority{classes: classes, queues: make([]jobRing, classes)}
}

// Name implements Scheduler.
func (s *StrictPriority) Name() string { return "priority" }

// SetWeights implements Scheduler; weights are ignored (priority is
// positional) but validated for interface conformance.
func (s *StrictPriority) SetWeights(w []float64) error {
	return checkWeights(w, s.classes)
}

// Reset implements Scheduler.
func (s *StrictPriority) Reset() {
	for i := range s.queues {
		s.queues[i].reset()
	}
	s.backlog = 0
}

// Enqueue implements Scheduler.
func (s *StrictPriority) Enqueue(j Job) {
	s.queues[j.Class].push(j)
	s.backlog++
}

// Dequeue implements Scheduler.
func (s *StrictPriority) Dequeue() (Job, bool) {
	for i := range s.queues {
		if !s.queues[i].empty() {
			s.backlog--
			return s.queues[i].pop(), true
		}
	}
	return Job{}, false
}

// Backlog implements Scheduler.
func (s *StrictPriority) Backlog() int { return s.backlog }

var (
	_ Scheduler = (*SCFQ)(nil)
	_ Scheduler = (*DRR)(nil)
	_ Scheduler = (*Lottery)(nil)
	_ Scheduler = (*StrictPriority)(nil)
)
