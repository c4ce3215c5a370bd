package simsrv

import (
	"fmt"
	"math"
	"reflect"
	"testing"

	"psd/internal/core"
	"psd/internal/dist"
	"psd/internal/rng"
	"psd/internal/sched"
)

// sameBits reports whether a and b hold the same values, comparing every
// float64 by its bits (any NaN equals any NaN).
func sameBits(a, b reflect.Value) bool {
	switch a.Kind() {
	case reflect.Float64:
		x, y := a.Float(), b.Float()
		return math.Float64bits(x) == math.Float64bits(y) || (math.IsNaN(x) && math.IsNaN(y))
	case reflect.Pointer:
		return sameBits(a.Elem(), b.Elem())
	case reflect.Slice:
		if a.Len() != b.Len() {
			return false
		}
		for i := range a.Len() {
			if !sameBits(a.Index(i), b.Index(i)) {
				return false
			}
		}
		return true
	case reflect.Struct:
		for i := range a.NumField() {
			if !sameBits(a.Field(i), b.Field(i)) {
				return false
			}
		}
		return true
	default:
		return a.Equal(b)
	}
}

// memoStep is one replication: run arms a Simulator for it, and before,
// if set, runs once ahead of it.
type memoStep struct {
	name   string
	run    func(sim *Simulator) error
	before func()
}

// checkAgainstFresh drives every step on one shared Simulator and on a
// fresh one, and requires bit-identical Results.
func checkAgainstFresh(t *testing.T, shared *Simulator, steps []memoStep) {
	t.Helper()
	for _, st := range steps {
		if st.before != nil {
			st.before()
		}
		var got, want Result
		if err := st.run(shared); err != nil {
			t.Fatalf("%s: shared reset: %v", st.name, err)
		}
		if err := shared.RunInto(&got); err != nil {
			t.Fatalf("%s: shared run: %v", st.name, err)
		}
		var fresh Simulator
		if err := st.run(&fresh); err != nil {
			t.Fatalf("%s: fresh reset: %v", st.name, err)
		}
		if err := fresh.RunInto(&want); err != nil {
			t.Fatalf("%s: fresh run: %v", st.name, err)
		}
		if !sameBits(reflect.ValueOf(got), reflect.ValueOf(want)) {
			t.Fatalf("%s: shared arena differs from a fresh one:\n got %+v\nwant %+v", st.name, got, want)
		}
	}
}

// TestVariateReplayMatchesFreshArena resets one arena through configs
// that share a stream but need different numbers of draws, a different
// model and a different seed, and requires every run to equal a fresh
// arena's bit for bit.
func TestVariateReplayMatchesFreshArena(t *testing.T) {
	const s, other = 11, 12
	law := dist.PaperDefault()
	base := EqualLoadConfig([]float64{1, 2}, 0.5, law)
	base.Warmup, base.Horizon = 1000, 6000

	surge := EqualLoadConfig([]float64{1, 2}, 0.7, law)
	surge.Warmup, surge.Horizon = 1000, 6000
	surge.LoadSchedule = LoadStep(4000, 1.4)

	hesrpt := PacketizedConfig{
		Config: base,
		NewScheduler: func(classes int, _ *rng.Source) sched.Scheduler {
			return sched.NewHeSRPT(classes)
		},
	}
	hesrpt.Config.Allocator = core.HeSRPTWeights{}

	var shared Simulator
	drawn := func() int { return len(shared.r.classes[0].arrivals.draws) }
	var key rng.Source
	var recorded int
	steps := []memoStep{
		{name: "seed s, psd", run: func(sim *Simulator) error { return sim.Reset(base, s) }},
		{name: "seed s, higher rate and a load step", run: func(sim *Simulator) error { return sim.Reset(surge, s) },
			before: func() { key, recorded = shared.r.classes[0].arrivals.key, drawn() }},
		{name: "seed s, packetized hesrpt", run: func(sim *Simulator) error { return sim.ResetPacketized(hesrpt, s) },
			before: func() {
				if drawn() <= recorded || shared.r.classes[0].arrivals.key != key {
					t.Errorf("the surge did not extend the recorded stream: %d draws, was %d", drawn(), recorded)
				}
			}},
		{name: "seed t", run: func(sim *Simulator) error { return sim.Reset(base, other) }},
		{name: "seed s again", run: func(sim *Simulator) error { return sim.Reset(base, s) },
			before: func() {
				if shared.r.classes[0].arrivals.key == key {
					t.Error("seed t kept seed s's recording")
				}
			}},
	}
	checkAgainstFresh(t, &shared, steps)
}

// sliceLaw is a size law whose value cannot be compared with ==.
type sliceLaw struct{ sizes []float64 }

func (d sliceLaw) Mean() float64 {
	m := 0.0
	for _, x := range d.sizes {
		m += x
	}
	return m / float64(len(d.sizes))
}

func (d sliceLaw) SecondMoment() float64 {
	m := 0.0
	for _, x := range d.sizes {
		m += x * x
	}
	return m / float64(len(d.sizes))
}

func (d sliceLaw) InverseMoment() float64 {
	m := 0.0
	for _, x := range d.sizes {
		m += 1 / x
	}
	return m / float64(len(d.sizes))
}

func (d sliceLaw) Sample(src *rng.Source) float64 { return d.sizes[src.Intn(len(d.sizes))] }
func (d sliceLaw) String() string                 { return fmt.Sprintf("sliceLaw%v", d.sizes) }

// wrappedLaw has a comparable type whose value still cannot be compared
// when it wraps a sliceLaw.
type wrappedLaw struct{ dist.Distribution }

// TestVariateReplayNonComparableLaw switches a shared seed between laws
// that == cannot compare: no reset may panic, and no size stream may be
// replayed under the wrong law.
func TestVariateReplayNonComparableLaw(t *testing.T) {
	const s = 5
	small := sliceLaw{[]float64{0.2, 0.5, 1}}
	large := sliceLaw{[]float64{0.4, 1, 2}}
	cfgFor := func(law dist.Distribution) Config {
		cfg := EqualLoadConfig([]float64{1, 2}, 0.5, law)
		cfg.Warmup, cfg.Horizon = 500, 3000
		return cfg
	}
	var steps []memoStep
	for _, law := range []dist.Distribution{small, large, small, wrappedLaw{small}, wrappedLaw{large}, wrappedLaw{small}} {
		cfg := cfgFor(law)
		steps = append(steps, memoStep{name: law.String(), run: func(sim *Simulator) error { return sim.Reset(cfg, s) }})
	}
	var shared Simulator
	checkAgainstFresh(t, &shared, steps)
}

// TestSameLaw pins which laws replay each other's size streams.
func TestSameLaw(t *testing.T) {
	bp := dist.PaperDefault()
	exp1, err := dist.NewExponential(1)
	if err != nil {
		t.Fatal(err)
	}
	exp1b, _ := dist.NewExponential(1)
	exp2, _ := dist.NewExponential(2)
	small := sliceLaw{[]float64{1}}
	for _, c := range []struct {
		name string
		a, b dist.Distribution
		want bool
	}{
		{"same pointer", bp, bp, true},
		{"equal parameters, distinct pointers", bp, dist.PaperDefault(), false},
		{"equal comparable values", exp1, exp1b, true},
		{"different values", exp1, exp2, false},
		{"different types", bp, exp1, false},
		{"nil and nil", nil, nil, true},
		{"nil and a law", nil, bp, false},
		{"slice field", small, small, false},
		{"wrapped slice field", wrappedLaw{small}, wrappedLaw{small}, false},
		{"wrapped pointer", wrappedLaw{bp}, wrappedLaw{bp}, true},
	} {
		if got := sameLaw(c.a, c.b); got != c.want {
			t.Errorf("%s: sameLaw = %v, want %v", c.name, got, c.want)
		}
	}
}

// TestRunOrderedRevalidatesTraceAcrossCalls mutates a trace between two
// RunOrdered calls: the pooled arenas must not trust the first call's
// validation of the same slice.
func TestRunOrderedRevalidatesTraceAcrossCalls(t *testing.T) {
	cfg := fastConfig([]float64{1, 2}, 0.5)
	trace := []TraceRequest{{Time: 1, Class: 0, Size: 1}, {Time: 2, Class: 1, Size: 1}}
	run := func(sim *Simulator, res *Result, task int) error {
		if err := sim.ResetTrace(cfg, trace, uint64(task)); err != nil {
			return err
		}
		return sim.RunInto(res)
	}
	for _, workers := range []int{1, 2} {
		trace[1].Class = 1
		if err := RunOrdered(4, workers, run, func(int, *Result) {}); err != nil {
			t.Fatalf("workers %d: valid trace: %v", workers, err)
		}
		trace[1].Class = 9
		if err := RunOrdered(4, workers, run, func(int, *Result) {}); err == nil {
			t.Fatalf("workers %d: a pooled arena accepted a trace mutated after validation", workers)
		}
	}
}
