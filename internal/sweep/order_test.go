package sweep

import (
	"math"
	"reflect"
	"strings"
	"testing"

	"psd/internal/core"
	"psd/internal/simsrv"
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

func TestSweepSeedGroupOrder(t *testing.T) {
	seeded := func(seed uint64, runs int) Point {
		p := point([]float64{1, 2}, 0.5, runs)
		p.Cfg.Seed = seed
		return p
	}
	points := []Point{seeded(1, 2), seeded(2, 1), seeded(1, 3), seeded(3, 1), seeded(2, 2)}
	aggs := make([]*simsrv.Aggregator, len(points))
	for i := range aggs {
		if i != 3 { // point 3 stands in for a closed-form point
			aggs[i] = simsrv.NewAggregator(points[i].Cfg)
		}
	}
	got := seedGroupOrder(points, aggs, 8)
	want := []task{{0, 0}, {2, 0}, {0, 1}, {2, 1}, {2, 2}, {1, 0}, {4, 0}, {4, 1}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("task order %v, want %v", got, want)
	}
}

// TestSweepTournamentMatchesSinglePoints runs a tournament whose seed
// groups mix rates, a load step, the packetized heSRPT model and uneven
// replication counts, under several worker counts, and requires every
// aggregate to equal a single-point Engine.Run of that point bit for bit.
func TestSweepTournamentMatchesSinglePoints(t *testing.T) {
	steady := point([]float64{1, 2}, 0.5, 3)
	step := point([]float64{1, 2}, 0.7, 3)
	step.Cfg.LoadSchedule = simsrv.LoadStep(5000, 1.5)
	other := point([]float64{1, 2}, 0.6, 2)
	other.Cfg.Seed = 8
	grid, err := Tournament([]Point{steady, step, other}, core.Names())
	if err != nil {
		t.Fatal(err)
	}
	extra := point([]float64{1, 2, 4}, 0.4, 4) // a longer member of seed 7's group
	grid = append(grid, extra)

	want := make([]*simsrv.Aggregate, len(grid))
	for i := range grid {
		one, err := (&Engine{Workers: 1}).Run(grid[i : i+1 : i+1])
		if err != nil {
			t.Fatal(err)
		}
		want[i] = one[0]
	}
	for _, workers := range []int{1, 2, 3} {
		got, err := (&Engine{Workers: workers}).Run(grid)
		if err != nil {
			t.Fatal(err)
		}
		for i := range grid {
			if !sameBits(reflect.ValueOf(got[i]), reflect.ValueOf(want[i])) {
				t.Fatalf("workers %d: point %d (%s) differs from its single-point run:\n got %+v\nwant %+v",
					workers, i, grid[i].Policy, got[i], want[i])
			}
		}
	}
}

// TestSweepFirstErrorInSeedGroupOrder: with two failing points the error
// returned is the first in seed-group-major task order, not the lowest
// point index.
func TestSweepFirstErrorInSeedGroupOrder(t *testing.T) {
	bad := []simsrv.TraceRequest{{Time: 1, Class: 5, Size: 1}}
	first := point([]float64{1, 2}, 0.5, 2)
	later := point([]float64{1, 2}, 0.5, 1)
	later.Cfg.Seed = 9
	later.Trace = bad
	grouped := point([]float64{1, 2}, 0.5, 1)
	grouped.Trace = bad
	for _, workers := range []int{1, 3} {
		_, err := (&Engine{Workers: workers}).Run([]Point{first, later, grouped})
		if err == nil || !strings.Contains(err.Error(), "point 2 rep 0") {
			t.Fatalf("workers %d: error %v, want point 2's (it runs in seed 7's group, before point 1)", workers, err)
		}
	}
}
