package sched

import (
	"math"
	"testing"

	"psd/internal/dist"
	"psd/internal/rng"
)

// drainShares runs a continuously backlogged scheduler for `rounds`
// dequeues and returns the fraction of *work* served per class.
func drainShares(t *testing.T, s Scheduler, weights []float64, sizes dist.Distribution, rounds int, seed uint64) []float64 {
	t.Helper()
	if err := s.SetWeights(weights); err != nil {
		t.Fatal(err)
	}
	src := rng.New(seed)
	classes := len(weights)
	// Keep EVERY class individually backlogged (a share test is only
	// meaningful when the scheduler always has a choice); track per-class
	// occupancy externally since Scheduler exposes only total backlog.
	occupancy := make([]int, classes)
	served := make([]float64, classes)
	total := 0.0
	for i := 0; i < rounds; i++ {
		for c := 0; c < classes; c++ {
			for occupancy[c] < 8 {
				s.Enqueue(Job{Class: c, Size: sizes.Sample(src)})
				occupancy[c]++
			}
		}
		j, ok := s.Dequeue()
		if !ok {
			t.Fatal("dequeue returned idle with backlog")
		}
		occupancy[j.Class]--
		served[j.Class] += j.Size
		total += j.Size
	}
	for c := range served {
		served[c] /= total
	}
	return served
}

func unit(t *testing.T) dist.Distribution {
	t.Helper()
	d, err := dist.NewDeterministic(1)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestSCFQSharesUniformSizes(t *testing.T) {
	weights := []float64{0.5, 0.3, 0.2}
	shares := drainShares(t, NewSCFQ(3), weights, unit(t), 30000, 1)
	for c, w := range weights {
		if math.Abs(shares[c]-w) > 0.02 {
			t.Errorf("class %d share %v, want %v", c, shares[c], w)
		}
	}
}

func TestSCFQSharesHeavyTailedSizes(t *testing.T) {
	weights := []float64{0.7, 0.3}
	shares := drainShares(t, NewSCFQ(2), weights, dist.PaperDefault(), 60000, 2)
	for c, w := range weights {
		if math.Abs(shares[c]-w) > 0.05 {
			t.Errorf("class %d share %v, want %v (size-aware discipline)", c, shares[c], w)
		}
	}
}

func TestDRRShares(t *testing.T) {
	d, err := NewDRR(3, 2.0)
	if err != nil {
		t.Fatal(err)
	}
	weights := []float64{0.6, 0.3, 0.1}
	shares := drainShares(t, d, weights, dist.PaperDefault(), 60000, 3)
	for c, w := range weights {
		if math.Abs(shares[c]-w) > 0.05 {
			t.Errorf("class %d share %v, want %v", c, shares[c], w)
		}
	}
}

func TestDRRQuantumValidation(t *testing.T) {
	if _, err := NewDRR(2, 0); err == nil {
		t.Fatal("accepted zero quantum")
	}
}

func TestLotteryShares(t *testing.T) {
	l := NewLottery(2, rng.New(99))
	weights := []float64{0.8, 0.2}
	shares := drainShares(t, l, weights, unit(t), 50000, 6)
	for c, w := range weights {
		if math.Abs(shares[c]-w) > 0.02 {
			t.Errorf("class %d share %v, want %v", c, shares[c], w)
		}
	}
}

func TestStrictPriorityOrdering(t *testing.T) {
	s := NewStrictPriority(3)
	if err := s.SetWeights([]float64{1, 1, 1}); err != nil {
		t.Fatal(err)
	}
	s.Enqueue(Job{Class: 2, Size: 1})
	s.Enqueue(Job{Class: 0, Size: 1})
	s.Enqueue(Job{Class: 1, Size: 1})
	s.Enqueue(Job{Class: 0, Size: 1})
	want := []int{0, 0, 1, 2}
	for i, cls := range want {
		j, ok := s.Dequeue()
		if !ok || j.Class != cls {
			t.Fatalf("dequeue %d: got %+v ok=%v, want class %d", i, j, ok, cls)
		}
	}
	if _, ok := s.Dequeue(); ok {
		t.Fatal("empty scheduler should report idle")
	}
}

func allSchedulers(classes int) []Scheduler {
	scheds := []Scheduler{
		NewSCFQ(classes), NewLottery(classes, rng.New(1)), NewStrictPriority(classes),
	}
	d, _ := NewDRR(classes, 1)
	return append(scheds, d)
}

func TestWeightValidation(t *testing.T) {
	for _, s := range allSchedulers(2) {
		if err := s.SetWeights([]float64{0.5}); err == nil {
			t.Errorf("%s: accepted wrong length", s.Name())
		}
		if err := s.SetWeights([]float64{0.5, 0}); err == nil {
			t.Errorf("%s: accepted zero weight", s.Name())
		}
		if err := s.SetWeights([]float64{0.5, -1}); err == nil {
			t.Errorf("%s: accepted negative weight", s.Name())
		}
	}
}

func TestEmptyDequeues(t *testing.T) {
	for _, s := range allSchedulers(2) {
		if j, ok := s.Dequeue(); ok {
			t.Errorf("%s: empty dequeue returned %+v", s.Name(), j)
		}
		if s.Backlog() != 0 {
			t.Errorf("%s: backlog %d on empty", s.Name(), s.Backlog())
		}
	}
}

func TestBacklogAccounting(t *testing.T) {
	for _, s := range allSchedulers(3) {
		if err := s.SetWeights([]float64{0.4, 0.3, 0.3}); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 9; i++ {
			s.Enqueue(Job{Class: i % 3, Size: 0.5})
		}
		if s.Backlog() != 9 {
			t.Errorf("%s: backlog %d, want 9", s.Name(), s.Backlog())
		}
		for i := 8; i >= 0; i-- {
			if _, ok := s.Dequeue(); !ok {
				t.Fatalf("%s: premature idle at %d remaining", s.Name(), i+1)
			}
			if s.Backlog() != i {
				t.Fatalf("%s: backlog %d, want %d", s.Name(), s.Backlog(), i)
			}
		}
	}
}

// TestResetRestoresFreshBehavior: after churning jobs through a
// scheduler, Reset must make it behave exactly like a freshly constructed
// instance (SCFQ's deterministic disciplines compared dequeue-for-dequeue
// against a pristine twin on an identical workload).
func TestResetRestoresFreshBehavior(t *testing.T) {
	build := map[string]func() Scheduler{
		"scfq": func() Scheduler { return NewSCFQ(3) },
		"drr": func() Scheduler {
			d, err := NewDRR(3, 2)
			if err != nil {
				t.Fatal(err)
			}
			return d
		},
		"priority": func() Scheduler { return NewStrictPriority(3) },
	}
	weights := []float64{0.5, 0.3, 0.2}
	feed := func(s Scheduler, seed uint64) []int {
		if err := s.SetWeights(weights); err != nil {
			t.Fatal(err)
		}
		src := rng.New(seed)
		sizes := dist.PaperDefault()
		var order []int
		for i := 0; i < 500; i++ {
			s.Enqueue(Job{Class: i % 3, Size: sizes.Sample(src)})
			if i%3 == 2 {
				j, ok := s.Dequeue()
				if !ok {
					t.Fatal("idle with backlog")
				}
				order = append(order, j.Class)
			}
		}
		for s.Backlog() > 0 {
			j, _ := s.Dequeue()
			order = append(order, j.Class)
		}
		return order
	}
	for name, mk := range build {
		used := mk()
		feed(used, 1) // churn with a different stream, then reset
		used.Reset()
		got := feed(used, 2)
		want := feed(mk(), 2)
		if len(got) != len(want) {
			t.Fatalf("%s: reset run length %d vs fresh %d", name, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("%s: dequeue %d diverged after Reset: class %d vs %d", name, i, got[i], want[i])
			}
		}
	}
}

// TestRingDropsPayloadReferences: popped and reset slots must not pin the
// Payload, or long-lived arenas leak caller context objects.
func TestRingDropsPayloadReferences(t *testing.T) {
	var q jobRing
	q.push(Job{Class: 0, Payload: "x"})
	q.push(Job{Class: 0, Payload: "y"})
	q.pop()
	if q.buf[0].Payload != nil {
		t.Fatal("pop left payload reference in slot")
	}
	q.reset()
	for i := range q.buf {
		if q.buf[i].Payload != nil {
			t.Fatalf("reset left payload reference in slot %d", i)
		}
	}
}

func TestGPSFinishTimesSimple(t *testing.T) {
	// Two unit jobs arriving together, weights 1:1 — both finish at 2.
	jobs := []GPSJob{{Class: 0, Size: 1}, {Class: 1, Size: 1}}
	fin, err := GPSFinishTimes(jobs, []float64{0.5, 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(fin[0]-2) > 1e-9 || math.Abs(fin[1]-2) > 1e-9 {
		t.Fatalf("finish = %v, want [2 2]", fin)
	}
}

func TestGPSFinishTimesWeighted(t *testing.T) {
	// Weights 3:1, two unit jobs at t=0: class 0 drains at 3/4 →
	// finishes at 4/3; then class 1 (1/4 rate until 4/3, then full):
	// work done by 4/3 = 1/3, remaining 2/3 at full rate → 4/3+2/3 = 2.
	jobs := []GPSJob{{Class: 0, Size: 1}, {Class: 1, Size: 1}}
	fin, err := GPSFinishTimes(jobs, []float64{0.75, 0.25})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(fin[0]-4.0/3) > 1e-9 {
		t.Fatalf("class0 finish = %v, want 4/3", fin[0])
	}
	if math.Abs(fin[1]-2) > 1e-9 {
		t.Fatalf("class1 finish = %v, want 2", fin[1])
	}
}

func TestGPSWorkConservation(t *testing.T) {
	// Sequential arrivals with gaps: total completion of the last job
	// equals total work when there is no idling after its arrival.
	jobs := []GPSJob{
		{Class: 0, Size: 2, Arrival: 0},
		{Class: 1, Size: 1, Arrival: 0.5},
		{Class: 0, Size: 0.5, Arrival: 1},
	}
	fin, err := GPSFinishTimes(jobs, []float64{0.5, 0.5})
	if err != nil {
		t.Fatal(err)
	}
	last := 0.0
	for _, f := range fin {
		if f > last {
			last = f
		}
	}
	if math.Abs(last-3.5) > 1e-9 {
		t.Fatalf("makespan = %v, want 3.5 (work conserving)", last)
	}
}

func TestGPSValidation(t *testing.T) {
	if _, err := GPSFinishTimes([]GPSJob{{Class: 5, Size: 1}}, []float64{1}); err == nil {
		t.Error("accepted out-of-range class")
	}
	if _, err := GPSFinishTimes([]GPSJob{{Class: 0, Size: 0}}, []float64{1}); err == nil {
		t.Error("accepted zero size")
	}
	if _, err := GPSFinishTimes([]GPSJob{{Class: 0, Size: 1, Arrival: -1}}, []float64{1}); err == nil {
		t.Error("accepted negative arrival")
	}
}

// TestSCFQTracksGPS: serving jobs back-to-back in SCFQ order on a unit
// server must complete every job within a bounded lag of its fluid GPS
// finish time (PGPS bound: one max job; SCFQ: a few max jobs).
func TestSCFQTracksGPS(t *testing.T) {
	src := rng.New(7)
	weights := []float64{0.6, 0.4}
	sizes := dist.MustBoundedPareto(0.1, 10, 1.5) // cap Lmax at 10
	var jobs []GPSJob
	now := 0.0
	for i := 0; i < 400; i++ {
		now += src.ExpFloat64(1.2)
		jobs = append(jobs, GPSJob{Class: int(src.Uint64() % 2), Size: sizes.Sample(src), Arrival: now})
	}
	gpsFin, err := GPSFinishTimes(jobs, weights)
	if err != nil {
		t.Fatal(err)
	}

	// Replay through SCFQ on a packetized unit server.
	s := NewSCFQ(2)
	if err := s.SetWeights(weights); err != nil {
		t.Fatal(err)
	}
	finish := make([]float64, len(jobs))
	clock := 0.0
	next := 0
	inFlightUntil := 0.0
	cur := -1 // index of the job occupying the server, -1 when idle
	for next < len(jobs) || s.Backlog() > 0 || cur >= 0 {
		// Admit arrivals up to the current clock.
		if cur < 0 {
			// Pull arrivals until something is queued.
			for s.Backlog() == 0 && next < len(jobs) {
				clock = math.Max(clock, jobs[next].Arrival)
				for next < len(jobs) && jobs[next].Arrival <= clock {
					j := jobs[next]
					s.Enqueue(Job{Class: j.Class, Size: j.Size, Payload: next})
					next++
				}
			}
			if s.Backlog() == 0 {
				break
			}
			j, _ := s.Dequeue()
			cur = j.Payload.(int)
			inFlightUntil = clock + j.Size
		}
		// Admit arrivals that land while the current job runs.
		for next < len(jobs) && jobs[next].Arrival <= inFlightUntil {
			j := jobs[next]
			s.Enqueue(Job{Class: j.Class, Size: j.Size, Payload: next})
			next++
		}
		clock = inFlightUntil
		finish[cur] = clock
		cur = -1
	}

	lmax := 10.0
	worst := 0.0
	for i := range jobs {
		lag := finish[i] - gpsFin[i]
		if lag > worst {
			worst = lag
		}
	}
	// SCFQ lag bound ~ (N classes)·Lmax; allow 3·Lmax.
	if worst > 3*lmax {
		t.Fatalf("worst SCFQ lag behind GPS = %v > %v", worst, 3*lmax)
	}
}

func BenchmarkSCFQEnqueueDequeue(b *testing.B) {
	s := NewSCFQ(3)
	_ = s.SetWeights([]float64{0.5, 0.3, 0.2})
	src := rng.New(1)
	d := dist.PaperDefault()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s.Enqueue(Job{Class: i % 3, Size: d.Sample(src)})
		if s.Backlog() > 64 {
			for s.Backlog() > 32 {
				s.Dequeue()
			}
		}
	}
}

func BenchmarkDRRDequeue(b *testing.B) {
	d, _ := NewDRR(3, 2)
	_ = d.SetWeights([]float64{0.5, 0.3, 0.2})
	src := rng.New(1)
	sizes := dist.PaperDefault()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		d.Enqueue(Job{Class: i % 3, Size: sizes.Sample(src)})
		if d.Backlog() > 64 {
			for d.Backlog() > 32 {
				d.Dequeue()
			}
		}
	}
}
