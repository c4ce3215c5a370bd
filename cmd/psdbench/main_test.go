package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"strings"
	"testing"
)

// passingReport builds one result per table row that sits exactly on
// every gate's bound, with unit throughput, on a 4-core box (so the live
// speedup floor applies).
func passingReport(t *testing.T) report {
	t.Helper()
	var rep report
	for _, sc := range table {
		r := scenarioResult{Name: sc.name, Model: sc.model, StormProcs: 4, StormCores: 4}
		for _, m := range sc.throughput {
			*m.field(&r) = 1000
		}
		for _, g := range sc.gates {
			*g.field(&r) = 1 // a floor may only apply to a measured value
		}
		for _, g := range sc.gates {
			bound, skip := g.limit(&r)
			if skip != "" {
				t.Fatalf("%s: %s gate skipped on a 4-core result: %s", sc.name, g.unit, skip)
			}
			*g.field(&r) = bound
		}
		rep.Scenarios = append(rep.Scenarios, r)
	}
	return rep
}

func clone(rep report) report {
	rep.Scenarios = append([]scenarioResult(nil), rep.Scenarios...)
	return rep
}

func failsNaming(failures []string, name string) bool {
	for _, f := range failures {
		if strings.HasPrefix(f, name+": ") {
			return true
		}
	}
	return false
}

func TestGatesHoldAtThresholdAndTripJustPast(t *testing.T) {
	base := passingReport(t)
	if f := compareAgainst(base, base, 0.5); len(f) != 0 {
		t.Fatalf("results on every bound failed: %v", f)
	}
	gates := 0
	for i, sc := range table {
		for _, g := range sc.gates {
			gates++
			cur := clone(base)
			r := &cur.Scenarios[i]
			bound, _ := g.limit(r)
			past := math.Inf(1)
			if g.floor {
				past = math.Inf(-1)
			}
			*g.field(r) = math.Nextafter(bound, past)
			if f := compareAgainst(base, cur, 0.5); len(f) != 1 || !failsNaming(f, sc.name) {
				t.Errorf("%s: %s just past %g: failures %v, want one naming the scenario", sc.name, g.unit, bound, f)
			}
		}
	}
	if gates < len(table) {
		t.Fatalf("only %d gates over %d scenarios: every scenario must be gated", gates, len(table))
	}
}

// TestGateBounds pins every gate's bound (the live speedup floor on a
// 4-core box), so loosening a gate is a visible change to this test.
func TestGateBounds(t *testing.T) {
	want := []string{
		"2class-load0.6 allocs/event <= 0.01",
		"5class-load0.8 allocs/event <= 0.01",
		"8class-load0.9 allocs/event <= 0.01",
		"2class-load0.6-packetized allocs/event <= 0.01",
		"2class-load0.6-trace allocs/event <= 0.01",
		"figure2-sweep allocs/rep <= 25",
		"analytic-sweep allocs/point <= 0.01",
		"analytic-sweep speedup >= 100",
		"policy-tournament allocs/rep <= 0.01",
		"control-tick allocs/tick <= 0.01",
		"obs-hotpath allocs/event <= 0.01",
		"obs-hotpath allocs/tick <= 0.01",
		"live-contention allocs/req <= 0.01",
		"live-contention speedup >= 2",
	}
	rep := passingReport(t)
	var got []string
	for i, sc := range table {
		for _, g := range sc.gates {
			bound, _ := g.limit(&rep.Scenarios[i])
			op := "<="
			if g.floor {
				op = ">="
			}
			got = append(got, fmt.Sprintf("%s %s %s %g", sc.name, g.unit, op, bound))
		}
	}
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Errorf("gates:\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
}

func TestThroughputTolerance(t *testing.T) {
	base := passingReport(t)
	for i, sc := range table {
		if len(sc.throughput) == 0 {
			t.Errorf("%s: no throughput field checked against the baseline", sc.name)
		}
		for _, m := range sc.throughput {
			for _, c := range []struct {
				cur  float64
				fail bool
			}{{1000, false}, {501, false}, {499, true}, {0, true}} {
				cur := clone(base)
				*m.field(&cur.Scenarios[i]) = c.cur
				f := compareAgainst(base, cur, 0.5)
				if got := failsNaming(f, sc.name); got != c.fail || len(f) > 1 {
					t.Errorf("%s: %s 1000 -> %g at 50%% tolerance: failures %v, want failure=%v", sc.name, m.unit, c.cur, f, c.fail)
				}
			}
		}
	}
}

func TestBaselineScenarioMissingFromTableFails(t *testing.T) {
	cur := passingReport(t)
	base := clone(cur)
	base.Scenarios = append(base.Scenarios, scenarioResult{Name: "retired-scenario", EventsPerSec: 1000})
	f := compareAgainst(base, cur, 0.5)
	if len(f) != 1 || !failsNaming(f, "retired-scenario") {
		t.Fatalf("failures %v, want one naming retired-scenario", f)
	}
}

func TestScenarioMissingFromBaselineIsStillGated(t *testing.T) {
	cur := passingReport(t)
	for i, sc := range table {
		base := clone(cur)
		base.Scenarios = append(base.Scenarios[:i:i], base.Scenarios[i+1:]...)
		slow := clone(cur)
		for _, m := range sc.throughput {
			*m.field(&slow.Scenarios[i]) = 0
		}
		if f := compareAgainst(base, slow, 0.5); len(f) != 0 {
			t.Errorf("%s: throughput checked without a baseline entry: %v", sc.name, f)
		}
		for _, g := range sc.gates {
			breach := clone(cur)
			r := &breach.Scenarios[i]
			bound, _ := g.limit(r)
			if g.floor {
				*g.field(r) = bound / 2
			} else {
				*g.field(r) = bound*2 + 1
			}
			if f := compareAgainst(base, breach, 0.5); !failsNaming(f, sc.name) {
				t.Errorf("%s: %s breach not caught without a baseline entry", sc.name, g.unit)
			}
		}
	}
}

func TestLiveSpeedupFloor(t *testing.T) {
	for _, c := range []struct {
		procs, cores int
		floor        float64
		skip         bool
	}{
		{2, 1, 0, true},
		{2, 2, 1, false},
		{3, 3, 1, false},
		{4, 4, 2, false},
		{8, 4, 2, false},
		{8, 16, 4, false},
	} {
		floor, skip := liveSpeedupFloor(c.procs, c.cores)
		if floor != c.floor || (skip != "") != c.skip {
			t.Errorf("liveSpeedupFloor(%d, %d) = %g, %q; want %g, skip %v", c.procs, c.cores, floor, skip, c.floor, c.skip)
		}
	}
}

func TestCommittedBaselineMatchesTable(t *testing.T) {
	raw, err := os.ReadFile("../../BENCH_psd.json")
	if err != nil {
		t.Fatal(err)
	}
	var base report
	if err := json.Unmarshal(raw, &base); err != nil {
		t.Fatal(err)
	}
	if base.Schema != "psd-bench/v6" {
		t.Errorf("baseline schema %q", base.Schema)
	}
	rows := make(map[string]int, len(table))
	for i, sc := range table {
		if _, dup := rows[sc.name]; dup {
			t.Errorf("scenario %q declared twice", sc.name)
		}
		rows[sc.name] = i
	}
	for _, s := range base.Scenarios {
		if _, ok := rows[s.Name]; !ok {
			t.Errorf("baseline scenario %q has no table row", s.Name)
		}
	}
	if rows["analytic-sweep"] < rows["figure2-sweep"] {
		t.Error("analytic-sweep runs before figure2-sweep, whose reps/s its speedup divides by")
	}
}
