package stats

import (
	"math"
	"sort"
	"testing"
	"testing/quick"

	"psd/internal/rng"
)

func almostEq(a, b, tol float64) bool {
	if math.IsNaN(a) || math.IsNaN(b) {
		return false
	}
	return math.Abs(a-b) <= tol
}

func TestWelfordBasics(t *testing.T) {
	var w Welford
	if !math.IsNaN(w.Mean()) || !math.IsNaN(w.Variance()) {
		t.Fatal("empty accumulator should report NaN")
	}
	for _, x := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		w.Add(x)
	}
	if w.N() != 8 {
		t.Fatalf("N = %d", w.N())
	}
	if !almostEq(w.Mean(), 5, 1e-12) {
		t.Fatalf("mean = %v", w.Mean())
	}
	// Population variance of this classic sample is 4; unbiased = 32/7.
	if !almostEq(w.Variance(), 32.0/7, 1e-12) {
		t.Fatalf("variance = %v", w.Variance())
	}
	if w.Min() != 2 || w.Max() != 9 {
		t.Fatalf("min/max = %v/%v", w.Min(), w.Max())
	}
}

func TestWelfordMatchesNaive(t *testing.T) {
	f := func(xs []float64) bool {
		var clean []float64
		for _, x := range xs {
			if !math.IsNaN(x) && !math.IsInf(x, 0) && math.Abs(x) < 1e9 {
				clean = append(clean, x)
			}
		}
		if len(clean) < 2 {
			return true
		}
		var w Welford
		sum := 0.0
		for _, x := range clean {
			w.Add(x)
			sum += x
		}
		mean := sum / float64(len(clean))
		ss := 0.0
		for _, x := range clean {
			ss += (x - mean) * (x - mean)
		}
		naiveVar := ss / float64(len(clean)-1)
		scale := math.Max(1, math.Abs(mean))
		return almostEq(w.Mean(), mean, 1e-9*scale) &&
			almostEq(w.Variance(), naiveVar, 1e-6*math.Max(1, naiveVar))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestWelfordMerge(t *testing.T) {
	r := rng.New(1)
	var a, b, all Welford
	for i := 0; i < 1000; i++ {
		x := r.Float64() * 100
		all.Add(x)
		if i%2 == 0 {
			a.Add(x)
		} else {
			b.Add(x)
		}
	}
	a.Merge(&b)
	if a.N() != all.N() {
		t.Fatalf("merged N = %d, want %d", a.N(), all.N())
	}
	if !almostEq(a.Mean(), all.Mean(), 1e-9) {
		t.Fatalf("merged mean %v vs %v", a.Mean(), all.Mean())
	}
	if !almostEq(a.Variance(), all.Variance(), 1e-6) {
		t.Fatalf("merged var %v vs %v", a.Variance(), all.Variance())
	}
	if a.Min() != all.Min() || a.Max() != all.Max() {
		t.Fatal("merged min/max wrong")
	}
}

func TestWelfordMergeEmptyCases(t *testing.T) {
	var a, b Welford
	a.Merge(&b) // both empty: no panic
	if a.N() != 0 {
		t.Fatal("merging empties should stay empty")
	}
	b.Add(5)
	a.Merge(&b)
	if a.N() != 1 || a.Mean() != 5 {
		t.Fatal("merge into empty failed")
	}
	var c Welford
	a.Merge(&c) // merge empty into non-empty
	if a.N() != 1 {
		t.Fatal("merge of empty changed state")
	}
}

func TestWelfordAddN(t *testing.T) {
	var a, b Welford
	a.AddN(3.5, 4)
	for i := 0; i < 4; i++ {
		b.Add(3.5)
	}
	if a.N() != b.N() || a.Mean() != b.Mean() {
		t.Fatal("AddN mismatch")
	}
}

func TestZQuantileKnownValues(t *testing.T) {
	cases := []struct{ p, want float64 }{
		{0.5, 0},
		{0.975, 1.959964},
		{0.95, 1.644854},
		{0.995, 2.575829},
		{0.025, -1.959964},
	}
	for _, c := range cases {
		if got := zQuantile(c.p); !almostEq(got, c.want, 1e-4) {
			t.Errorf("zQuantile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if !math.IsInf(zQuantile(0), -1) || !math.IsInf(zQuantile(1), 1) {
		t.Error("zQuantile edges should be infinite")
	}
}

func TestConfidenceInterval(t *testing.T) {
	var w Welford
	r := rng.New(2)
	for i := 0; i < 10000; i++ {
		w.Add(r.NormFloat64())
	}
	ci := w.ConfidenceInterval(0.95)
	want := 1.96 * w.Std() / math.Sqrt(10000)
	if !almostEq(ci, want, 1e-3) {
		t.Fatalf("CI = %v, want %v", ci, want)
	}
}

func TestQuantileExact(t *testing.T) {
	xs := []float64{15, 20, 35, 40, 50}
	q, err := Quantile(xs, 0.5)
	if err != nil || q != 35 {
		t.Fatalf("median = %v err=%v", q, err)
	}
	// Type-7 interpolation: 0.25 quantile of 5 points = x[1] exactly.
	q, _ = Quantile(xs, 0.25)
	if q != 20 {
		t.Fatalf("q25 = %v, want 20", q)
	}
	q, _ = Quantile(xs, 0)
	if q != 15 {
		t.Fatalf("q0 = %v", q)
	}
	q, _ = Quantile(xs, 1)
	if q != 50 {
		t.Fatalf("q1 = %v", q)
	}
	if _, err := Quantile(nil, 0.5); err != ErrEmpty {
		t.Fatal("empty quantile should error")
	}
}

func TestQuantileDoesNotMutate(t *testing.T) {
	xs := []float64{3, 1, 2}
	_, _ = Quantile(xs, 0.5)
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Fatal("Quantile mutated its input")
	}
}

func TestQuantilesBatch(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	qs, err := Quantiles(xs, 0.05, 0.5, 0.95)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEq(qs[1], 5.5, 1e-12) {
		t.Fatalf("median = %v, want 5.5", qs[1])
	}
	if qs[0] >= qs[1] || qs[1] >= qs[2] {
		t.Fatalf("quantiles not ordered: %v", qs)
	}
}

func TestMeanHelper(t *testing.T) {
	m, err := Mean([]float64{1, 2, 3})
	if err != nil || m != 2 {
		t.Fatalf("mean = %v err = %v", m, err)
	}
	if _, err := Mean(nil); err != ErrEmpty {
		t.Fatal("empty mean should error")
	}
}

func TestSummarize(t *testing.T) {
	xs := make([]float64, 0, 1000)
	r := rng.New(3)
	for i := 0; i < 1000; i++ {
		xs = append(xs, r.Float64()*10)
	}
	s, err := Summarize(xs)
	if err != nil {
		t.Fatal(err)
	}
	if s.N != 1000 {
		t.Fatalf("N = %d", s.N)
	}
	if s.P05 >= s.P50 || s.P50 >= s.P95 {
		t.Fatalf("percentiles unordered: %+v", s)
	}
	if s.Min > s.P05 || s.Max < s.P95 {
		t.Fatalf("extremes inconsistent: %+v", s)
	}
	if _, err := Summarize(nil); err != ErrEmpty {
		t.Fatal("empty summarize should error")
	}
}

func TestP2AgainstExact(t *testing.T) {
	r := rng.New(4)
	for _, q := range []float64{0.5, 0.9, 0.95} {
		p2 := NewP2(q)
		xs := make([]float64, 0, 50000)
		for i := 0; i < 50000; i++ {
			// Heavy-ish tail: exp of normal.
			x := math.Exp(r.NormFloat64())
			p2.Add(x)
			xs = append(xs, x)
		}
		exact, _ := Quantile(xs, q)
		got := p2.Value()
		if math.Abs(got-exact)/exact > 0.05 {
			t.Errorf("P2(%v) = %v, exact %v", q, got, exact)
		}
		if p2.N() != 50000 {
			t.Errorf("P2 N = %d", p2.N())
		}
	}
}

func TestP2SmallSamples(t *testing.T) {
	p := NewP2(0.5)
	if p.Value() != 0 {
		t.Fatal("empty P2 value should be 0")
	}
	p.Add(3)
	p.Add(1)
	p.Add(2)
	if !almostEq(p.Value(), 2, 1e-12) {
		t.Fatalf("small-sample median = %v, want 2", p.Value())
	}
}

func TestP2PanicsOnBadQuantile(t *testing.T) {
	for _, q := range []float64{0, 1, -0.5, 2} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewP2(%v) did not panic", q)
				}
			}()
			NewP2(q)
		}()
	}
}

func TestWindowSeries(t *testing.T) {
	s, err := NewWindowSeries(1000)
	if err != nil {
		t.Fatal(err)
	}
	s.Observe(0, 2)
	s.Observe(999.9, 4)
	s.Observe(1000, 10)
	s.Observe(2500, 7)
	s.Observe(-5, 100) // ignored
	if s.NumWindows() != 3 {
		t.Fatalf("windows = %d", s.NumWindows())
	}
	m, ok := s.WindowMean(0)
	if !ok || m != 3 {
		t.Fatalf("window 0 mean = %v ok=%v", m, ok)
	}
	m, ok = s.WindowMean(1)
	if !ok || m != 10 {
		t.Fatalf("window 1 mean = %v", m)
	}
	if _, ok := s.WindowMean(5); ok {
		t.Fatal("out-of-range window should report !ok")
	}
	if s.WindowCount(2) != 1 {
		t.Fatalf("window 2 count = %d", s.WindowCount(2))
	}
	times, means := s.Means()
	if len(times) != 3 || len(means) != 3 {
		t.Fatalf("Means lengths %d %d", len(times), len(means))
	}
	if times[0] != 0 || times[1] != 1000 || times[2] != 2000 {
		t.Fatalf("times = %v", times)
	}
}

func TestWindowSeriesValidation(t *testing.T) {
	if _, err := NewWindowSeries(0); err == nil {
		t.Error("accepted zero width")
	}
}

func TestQuantileSortedProperty(t *testing.T) {
	f := func(raw []float64) bool {
		var xs []float64
		for _, x := range raw {
			if !math.IsNaN(x) && !math.IsInf(x, 0) {
				xs = append(xs, x)
			}
		}
		if len(xs) == 0 {
			return true
		}
		sort.Float64s(xs)
		// Quantile is monotone in q and within [min, max].
		prev := math.Inf(-1)
		for _, q := range []float64{0, 0.1, 0.3, 0.5, 0.7, 0.9, 1} {
			v := QuantileSorted(xs, q)
			if v < prev || v < xs[0] || v > xs[len(xs)-1] {
				return false
			}
			prev = v
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkWelfordAdd(b *testing.B) {
	var w Welford
	for i := 0; i < b.N; i++ {
		w.Add(float64(i % 1000))
	}
}

func BenchmarkP2Add(b *testing.B) {
	p := NewP2(0.95)
	for i := 0; i < b.N; i++ {
		p.Add(float64(i % 1000))
	}
}
