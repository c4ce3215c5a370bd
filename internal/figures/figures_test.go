package figures

import (
	"bytes"
	"math"
	"strings"
	"testing"
)

// tiny returns minimal-fidelity options for unit tests. The top load is
// 0.8 rather than the paper's 0.95: at an 8k-tu horizon the 90%+ points
// are dominated by transient noise and belong to the full-fidelity run
// (cmd/psdfig), not a unit test.
func tiny() Options {
	return Options{Runs: 6, Horizon: 8000, Warmup: 1000, Loads: []float64{0.3, 0.6, 0.8}, Seed: 1}
}

func TestGenerateRejectsUnknownID(t *testing.T) {
	if _, err := Generate(1, tiny()); err == nil {
		t.Error("figure 1 (the architecture diagram) should not generate")
	}
	if _, err := Generate(15, tiny()); err == nil {
		t.Error("figure 15 does not exist")
	}
}

// TestFigure14PolicyTournament checks the beyond-paper tournament
// figure: three series (ratio error, mean slowdown, shed rate) per
// racing policy, one point per scenario cell, finite non-negative
// values, and a shed series for the packetized heSRPT policy that shows
// the admission gate guarding its server like every other policy's.
func TestFigure14PolicyTournament(t *testing.T) {
	f, err := Figure14(tiny())
	if err != nil {
		t.Fatal(err)
	}
	if f.ID != 14 {
		t.Fatalf("id = %d", f.ID)
	}
	if want := 3 * len(TournamentPolicies); len(f.Series) != want {
		t.Fatalf("series = %d, want %d", len(f.Series), want)
	}
	shed := map[string][]float64{}
	for _, s := range f.Series {
		if len(s.X) != 4 {
			t.Fatalf("series %q has %d cells, want 4", s.Name, len(s.X))
		}
		for i, v := range s.Y {
			if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
				t.Fatalf("series %q cell %d: value %v", s.Name, i+1, v)
			}
		}
		if name, ok := strings.CutSuffix(s.Name, " shed rate"); ok {
			shed[name] = s.Y
		}
	}
	// The heSRPT policy runs on the packetized server behind the same
	// utilization-bound gate and arrival streams as PSD, so it sheds in
	// every overloaded cell, and about as much as PSD does.
	for i, v := range shed["hesrpt"] {
		if !(v > 0) || math.Abs(v/shed["psd"][i]-1) > 0.1 {
			t.Errorf("hesrpt shed rate cell %d = %v, want positive and within 10%% of psd's %v", i+1, v, shed["psd"][i])
		}
	}
}

// TestFigure13EstimatorTransient checks the beyond-paper load-step
// figure: both estimator series plus the target line, a time axis that
// spans the step, and finite positive ratios.
func TestFigure13EstimatorTransient(t *testing.T) {
	f, err := Figure13(tiny())
	if err != nil {
		t.Fatal(err)
	}
	if f.ID != 13 || len(f.Series) != 3 {
		t.Fatalf("shape: id=%d series=%d", f.ID, len(f.Series))
	}
	for _, s := range f.Series {
		if len(s.X) == 0 {
			t.Fatalf("series %q empty", s.Name)
		}
		for i := range s.X {
			if math.IsNaN(s.Y[i]) || s.Y[i] <= 0 {
				t.Fatalf("series %q has invalid ratio %v", s.Name, s.Y[i])
			}
		}
	}
	if f.Series[2].Name != "target ratio" || f.Series[2].Y[0] != 2 {
		t.Fatalf("target series wrong: %+v", f.Series[2].Name)
	}
	// Deterministic regeneration.
	g, err := Figure13(tiny())
	if err != nil {
		t.Fatal(err)
	}
	for i := range f.Series[0].Y {
		if f.Series[0].Y[i] != g.Series[0].Y[i] {
			t.Fatal("figure 13 not deterministic")
		}
	}
}

func TestFigure2ShapeAndAgreement(t *testing.T) {
	f, err := Figure2(tiny())
	if err != nil {
		t.Fatal(err)
	}
	if f.ID != 2 {
		t.Fatalf("ID = %d", f.ID)
	}
	// 2 sim + 2 expected + 1 system series.
	if len(f.Series) != 5 {
		t.Fatalf("series count = %d", len(f.Series))
	}
	for _, s := range f.Series {
		if len(s.X) != 3 || len(s.Y) != 3 {
			t.Fatalf("series %q has %d points, want 3", s.Name, len(s.X))
		}
		for _, y := range s.Y {
			if math.IsNaN(y) || y < 0 {
				t.Fatalf("series %q has invalid value %v", s.Name, y)
			}
		}
	}
	// Simulated tracks expected within heavy-tail tolerance at this
	// fidelity.
	if gap := MaxAbsRelGap(f); math.IsNaN(gap) || gap > 0.5 {
		t.Fatalf("sim-vs-expected gap = %v", gap)
	}
	// Slowdowns increase with load (paper property 1 / Figure 2 shape).
	for _, s := range f.Series {
		for i := 1; i < len(s.Y); i++ {
			if s.Y[i] <= s.Y[i-1] {
				t.Fatalf("series %q not increasing in load: %v", s.Name, s.Y)
			}
		}
	}
}

func TestFigure9RatiosNearTargets(t *testing.T) {
	opts := tiny()
	opts.Loads = []float64{0.6}
	f, err := Figure9(opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Series) != 3 {
		t.Fatalf("series = %d, want 3 (ratios 2, 4, 8)", len(f.Series))
	}
	targets := []float64{2, 4, 8}
	for i, s := range f.Series {
		got := s.Y[0]
		if math.Abs(got-targets[i])/targets[i] > 0.4 {
			t.Errorf("ratio %g achieved %v (tolerance 40%% at tiny fidelity)", targets[i], got)
		}
	}
}

func TestFigure5PercentileOrdering(t *testing.T) {
	opts := tiny()
	opts.Loads = []float64{0.5}
	f, err := Figure5(opts)
	if err != nil {
		t.Fatal(err)
	}
	// Series come in (p05, p50, p95) triples per delta ratio.
	if len(f.Series) != 9 {
		t.Fatalf("series = %d, want 9", len(f.Series))
	}
	for g := 0; g < 3; g++ {
		p05 := f.Series[3*g+0].Y[0]
		p50 := f.Series[3*g+1].Y[0]
		p95 := f.Series[3*g+2].Y[0]
		if !(p05 <= p50 && p50 <= p95) {
			t.Errorf("group %d percentiles unordered: %v %v %v", g, p05, p50, p95)
		}
	}
}

func TestFigure7RecordsRequests(t *testing.T) {
	opts := tiny()
	f, err := Figure7(opts)
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, s := range f.Series {
		total += len(s.X)
		for i := range s.X {
			if s.Y[i] < 0 {
				t.Fatalf("negative slowdown in %q", s.Name)
			}
		}
	}
	if total == 0 {
		t.Fatal("no individual requests recorded")
	}
}

func TestFigure11Monotonicity(t *testing.T) {
	opts := tiny()
	f, err := Figure11(opts)
	if err != nil {
		t.Fatal(err)
	}
	// Expected slowdown strictly decreases as alpha grows (paper §4.5);
	// check the analytic series (the simulated one is noisy at tiny
	// fidelity).
	for _, s := range f.Series {
		if !strings.Contains(s.Name, "expected") {
			continue
		}
		for i := 1; i < len(s.Y); i++ {
			if s.Y[i] >= s.Y[i-1] {
				t.Fatalf("series %q not decreasing in alpha: %v", s.Name, s.Y)
			}
		}
	}
}

func TestFigure12Monotonicity(t *testing.T) {
	opts := tiny()
	f, err := Figure12(opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range f.Series {
		if !strings.Contains(s.Name, "expected") {
			continue
		}
		for i := 1; i < len(s.Y); i++ {
			if s.Y[i] <= s.Y[i-1] {
				t.Fatalf("series %q not increasing in p: %v", s.Name, s.Y)
			}
		}
	}
}

func TestWriteCSV(t *testing.T) {
	f := Figure{
		ID: 99, Title: "test",
		Series: []Series{{Name: "a", X: []float64{1, 2}, Y: []float64{3, 4}}},
	}
	var buf bytes.Buffer
	if err := WriteCSV(&buf, f); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.HasPrefix(out, "series,x,y\n") {
		t.Fatalf("missing header: %q", out)
	}
	if !strings.Contains(out, "a,1,3") || !strings.Contains(out, "a,2,4") {
		t.Fatalf("rows missing: %q", out)
	}
}

func TestRenderTable(t *testing.T) {
	f := Figure{
		ID: 99, Title: "render test", XLabel: "x", Notes: "note",
		Series: []Series{
			{Name: "alpha", X: []float64{1, 2}, Y: []float64{3, 4}},
			{Name: "beta", X: []float64{2}, Y: []float64{5}},
		},
	}
	out := RenderTable(f)
	if !strings.Contains(out, "Figure 99") || !strings.Contains(out, "note") {
		t.Fatalf("header wrong: %q", out)
	}
	// beta has no value at x=1 → dash.
	if !strings.Contains(out, "-") {
		t.Fatalf("missing placeholder for absent point: %q", out)
	}
}

func TestMaxAbsRelGapNoPairs(t *testing.T) {
	f := Figure{Series: []Series{{Name: "solo", X: []float64{1}, Y: []float64{1}}}}
	if !math.IsNaN(MaxAbsRelGap(f)) {
		t.Fatal("gap without pairs should be NaN")
	}
}

func TestOptionsDefaults(t *testing.T) {
	d := Defaults()
	if d.Runs != 100 || d.Horizon != 60000 || d.Warmup != 10000 {
		t.Fatalf("paper defaults wrong: %+v", d)
	}
	q := Quick()
	if q.Runs >= d.Runs {
		t.Fatal("quick options not reduced")
	}
	o := (Options{}).withDefaults()
	if len(o.Loads) == 0 || o.Runs == 0 {
		t.Fatal("withDefaults incomplete")
	}
}
