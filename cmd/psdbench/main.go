// Command psdbench measures the repo's hot paths and writes the baseline
// BENCH_psd.json. Each scenario is one row of the table below: how it
// runs, the gates its result must meet (allocation counts and in-process
// speedups, machine-independent) and the throughput fields -compare
// checks against a baseline (meaningful only on comparable hardware).
//
//	psdbench                         # writes BENCH_psd.json in the cwd
//	psdbench -runs 16 -o -           # JSON to stdout
//	psdbench -compare BENCH_psd.json -compare-tolerance 0.30
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"runtime/debug"
	"strings"
	"time"

	"psd/internal/analytic"
	"psd/internal/control"
	"psd/internal/core"
	"psd/internal/dist"
	"psd/internal/obs"
	"psd/internal/rng"
	"psd/internal/sched"
	"psd/internal/simsrv"
	"psd/internal/sweep"
)

type scenarioResult struct {
	Name             string  `json:"name"`
	Classes          int     `json:"classes"`
	Load             float64 `json:"load"`
	Model            string  `json:"model"`
	Runs             int     `json:"runs"`
	Warmup           float64 `json:"warmup"`
	Horizon          float64 `json:"horizon"`
	Events           uint64  `json:"events"`
	WallSeconds      float64 `json:"wall_seconds"`
	EventsPerSec     float64 `json:"events_per_sec"`
	NsPerEvent       float64 `json:"ns_per_event"`
	AllocsPerEvent   float64 `json:"allocs_per_event"`
	Replications     int     `json:"replications,omitempty"`
	RepsPerSec       float64 `json:"reps_per_sec,omitempty"`
	AllocsPerRep     float64 `json:"allocs_per_rep,omitempty"`
	Ticks            int     `json:"ticks,omitempty"`
	TicksPerSec      float64 `json:"ticks_per_sec,omitempty"`
	AllocsPerTick    float64 `json:"allocs_per_tick,omitempty"`
	Requests         int     `json:"requests,omitempty"`
	ReqsPerSec       float64 `json:"reqs_per_sec,omitempty"`
	SerialReqsPerSec float64 `json:"serial_reqs_per_sec,omitempty"`
	Speedup          float64 `json:"speedup,omitempty"`
	StormProcs       int     `json:"storm_procs,omitempty"`
	StormCores       int     `json:"storm_cores,omitempty"`
	AllocsPerReq     float64 `json:"allocs_per_req,omitempty"`
	// analytic-sweep: Speedup is points/s over figure2-sweep's reps/s.
	Points         int     `json:"points,omitempty"`
	PointsPerSec   float64 `json:"points_per_sec,omitempty"`
	AllocsPerPoint float64 `json:"allocs_per_point,omitempty"`
	Policies       int     `json:"policies,omitempty"`
}

type report struct {
	Schema      string           `json:"schema"`
	GeneratedAt string           `json:"generated_at"`
	GoVersion   string           `json:"go_version"`
	GOOS        string           `json:"goos"`
	GOARCH      string           `json:"goarch"`
	GOMAXPROCS  int              `json:"gomaxprocs"`
	Commit      string           `json:"commit"`
	Scenarios   []scenarioResult `json:"scenarios"`
}

// buildCommit returns the binary's VCS stamp, or asks git (`go run`).
func buildCommit() string {
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" && s.Value != "" {
				return s.Value
			}
		}
	}
	out, _ := exec.Command("git", "rev-parse", "HEAD").Output()
	if rev := strings.TrimSpace(string(out)); rev != "" {
		return rev
	}
	return "unknown"
}

var (
	runs    = flag.Int("runs", 8, "replications per scenario")
	warmup  = flag.Float64("warmup", 10000, "warmup duration (time units)")
	horizon = flag.Float64("horizon", 60000, "measured duration (time units)")
	seed    = flag.Uint64("seed", 1, "base random seed")
)

// A scenario is one row of the table. main fills the result's Name,
// Classes, Load and Model; run fills the rest, given the rows before it.
type scenario struct {
	name       string
	model      string
	deltas     []float64
	load       float64
	run        func(sc *scenario, prior []scenarioResult) (scenarioResult, error)
	gates      []gate
	throughput []metric // checked against the baseline within the tolerance
}

// A metric names one float field of a scenarioResult.
type metric struct {
	unit  string
	field func(*scenarioResult) *float64
}

// A gate bounds one metric from above or, for a floor, a speedup from
// below; limit returns the bound for a result, or why it does not apply.
type gate struct {
	metric
	limit func(r *scenarioResult) (bound float64, skip string)
	floor bool
	why   string // what a breach means
}

func ceiling(m metric, bound float64, why string) gate {
	return gate{metric: m, limit: func(*scenarioResult) (float64, string) { return bound, "" }, why: why}
}

var (
	eventsPerSec   = metric{"events/s", func(r *scenarioResult) *float64 { return &r.EventsPerSec }}
	repsPerSec     = metric{"reps/s", func(r *scenarioResult) *float64 { return &r.RepsPerSec }}
	pointsPerSec   = metric{"points/s", func(r *scenarioResult) *float64 { return &r.PointsPerSec }}
	ticksPerSec    = metric{"ticks/s", func(r *scenarioResult) *float64 { return &r.TicksPerSec }}
	reqsPerSec     = metric{"reqs/s", func(r *scenarioResult) *float64 { return &r.ReqsPerSec }}
	allocsPerEvent = metric{"allocs/event", func(r *scenarioResult) *float64 { return &r.AllocsPerEvent }}
	allocsPerRep   = metric{"allocs/rep", func(r *scenarioResult) *float64 { return &r.AllocsPerRep }}
	allocsPerTick  = metric{"allocs/tick", func(r *scenarioResult) *float64 { return &r.AllocsPerTick }}
	allocsPerPoint = metric{"allocs/point", func(r *scenarioResult) *float64 { return &r.AllocsPerPoint }}
	allocsPerReq   = metric{"allocs/req", func(r *scenarioResult) *float64 { return &r.AllocsPerReq }}
	speedup        = metric{"speedup", func(r *scenarioResult) *float64 { return &r.Speedup }}

	eventGate = ceiling(allocsPerEvent, 0.01, "a steady-state event allocates")
	tickGate  = ceiling(allocsPerTick, 0.01, "a steady-state control tick allocates")
)

// simRow is an event scenario at the -warmup/-horizon fidelity: one arena
// replicating EqualLoadConfig(deltas, load), armed per seed by newReset.
func simRow(name, model string, deltas []float64, load float64, newReset func(simsrv.Config) resetFunc) scenario {
	run := func(sc *scenario, _ []scenarioResult) (scenarioResult, error) {
		cfg := simsrv.EqualLoadConfig(sc.deltas, sc.load, nil)
		cfg.Warmup, cfg.Horizon = *warmup, *horizon
		wall, events, mallocs, err := replicate([]lane{{reset: newReset(cfg)}})
		r := scenarioResult{Runs: *runs, Warmup: *warmup, Horizon: *horizon}
		r.setEvents(events, wall)
		_, r.AllocsPerEvent = per(float64(events), wall, mallocs)
		return r, err
	}
	return scenario{name: name, model: model, deltas: deltas, load: load, run: run,
		gates: []gate{eventGate}, throughput: []metric{eventsPerSec}}
}

// table is every scenario, in run and report order.
var table = []scenario{
	simRow("2class-load0.6", "partitioned", []float64{1, 4}, 0.6, resetFluid),
	simRow("5class-load0.8", "partitioned", []float64{1, 2, 4, 8, 16}, 0.8, resetFluid),
	simRow("8class-load0.9", "partitioned", []float64{1, 2, 3, 4, 6, 8, 12, 16}, 0.9, resetFluid),
	simRow("2class-load0.6-packetized", "packetized-scfq", []float64{1, 4}, 0.6, resetPacketized),
	simRow("2class-load0.6-trace", "trace", []float64{1, 2}, 0.6, resetTrace),
	{name: "figure2-sweep", model: "figure-sweep", deltas: []float64{1, 2}, run: runFigureSweep,
		gates:      []gate{ceiling(allocsPerRep, 25, "the sweep engine stopped reusing its arenas or buffers")},
		throughput: []metric{eventsPerSec, repsPerSec}},
	// analytic-sweep must come after figure2-sweep: its speedup is
	// points/s over that row's freshly measured reps/s.
	{name: "analytic-sweep", model: "analytic-sweep", deltas: []float64{1, 2}, run: runAnalyticSweep,
		gates: []gate{
			ceiling(allocsPerPoint, 0.01, "warm closed-form evaluation must not allocate"),
			// Conservative: a published figure point averages many DES reps.
			{metric: speedup, floor: true, why: "the fast path stopped being fast",
				limit: func(r *scenarioResult) (float64, string) {
					if r.Speedup <= 0 {
						return 0, "no figure-sweep reps/s measured in this run"
					}
					return 100, ""
				}},
		},
		throughput: []metric{pointsPerSec}},
	{name: "policy-tournament", model: "policy-tournament", deltas: []float64{1, 2, 4}, load: 0.7,
		run:        runPolicyTournament,
		gates:      []gate{ceiling(allocsPerRep, 0.01, "a registered policy allocates on the warm arena path")},
		throughput: []metric{eventsPerSec, repsPerSec}},
	{name: "control-tick", model: "control-tick", deltas: []float64{1, 2, 3, 4, 6, 8, 12, 16},
		run: runControlTick, gates: []gate{tickGate}, throughput: []metric{ticksPerSec}},
	{name: "obs-hotpath", model: "obs-hotpath", deltas: []float64{1, 2, 3, 4, 6, 8, 12, 16},
		run: runObsHotpath, gates: []gate{eventGate, tickGate}, throughput: []metric{eventsPerSec, ticksPerSec}},
	{name: "live-contention", model: "live-contention", deltas: []float64{1, 2, 4, 8}, run: runLiveContention,
		gates: []gate{
			ceiling(allocsPerReq, 0.01, "admitted path must not allocate under contention"),
			{metric: speedup, floor: true, why: "front door no longer scales",
				limit: func(r *scenarioResult) (float64, string) { return liveSpeedupFloor(r.StormProcs, r.StormCores) }},
		},
		throughput: []metric{reqsPerSec}},
}

func main() {
	var (
		out     = flag.String("o", "BENCH_psd.json", "output path, or - for stdout")
		compare = flag.String("compare", "", "baseline JSON to compare against; failures exit non-zero")
		tol     = flag.Float64("compare-tolerance", 0.15, "allowed fractional throughput regression in -compare mode")
	)
	flag.Parse()
	outSet := false
	flag.Visit(func(f *flag.Flag) { outSet = outSet || f.Name == "o" })

	rep := report{Schema: "psd-bench/v6", GeneratedAt: time.Now().UTC().Format(time.RFC3339),
		GoVersion: runtime.Version(), GOOS: runtime.GOOS, GOARCH: runtime.GOARCH,
		GOMAXPROCS: runtime.GOMAXPROCS(0), Commit: buildCommit()}
	for i := range table {
		sc := &table[i]
		res, err := sc.run(sc, rep.Scenarios)
		if err != nil {
			fatalf("%s: %v", sc.name, err)
		}
		res.Name, res.Classes, res.Load, res.Model = sc.name, len(sc.deltas), sc.load, sc.model
		rep.Scenarios = append(rep.Scenarios, res)
		line := fmt.Sprintf("%-28s %8.3fs", res.Name, res.WallSeconds)
		for _, m := range sc.throughput {
			line += fmt.Sprintf("  %12.0f %s", *m.field(&res), m.unit)
		}
		for _, g := range sc.gates {
			line += fmt.Sprintf("  %.4f %s", *g.field(&res), g.unit)
		}
		fmt.Fprintln(os.Stderr, line)
	}

	if *compare != "" {
		var base report
		raw, err := os.ReadFile(*compare)
		if err == nil {
			err = json.Unmarshal(raw, &base)
		}
		if err != nil {
			fatalf("baseline %s: %v", *compare, err)
		}
		failures := compareAgainst(base, rep, *tol)
		for _, f := range failures {
			fmt.Fprintf(os.Stderr, "psdbench: FAIL %s\n", f)
		}
		if len(failures) > 0 {
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "psdbench: all scenarios within %.0f%% of %s and under allocation gates\n", *tol*100, *compare)
		if !outSet {
			return // compare-only run: leave the committed baseline alone
		}
	}

	buf, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fatalf("encode: %v", err)
	}
	buf = append(buf, '\n')
	if *out == "-" {
		os.Stdout.Write(buf)
	} else if err := os.WriteFile(*out, buf, 0o644); err != nil {
		fatalf("write %s: %v", *out, err)
	} else {
		fmt.Fprintf(os.Stderr, "wrote %s\n", *out)
	}
}

func byName(rs []scenarioResult) map[string]scenarioResult {
	m := make(map[string]scenarioResult, len(rs))
	for _, r := range rs {
		m[r.Name] = r
	}
	return m
}

// compareAgainst checks every table row's gates (new scenarios must be
// born clean) and its throughput within tol of the baseline. A baseline
// scenario cur lacks fails, so a rename cannot disable its gate.
func compareAgainst(base, cur report, tol float64) []string {
	baseByName, curByName := byName(base.Scenarios), byName(cur.Scenarios)
	var failures []string
	fail := func(format string, args ...any) { failures = append(failures, fmt.Sprintf(format, args...)) }
	for _, b := range base.Scenarios {
		if _, ok := curByName[b.Name]; !ok {
			fail("%s: present in the baseline but not measured by this binary (scenario removed or renamed; regenerate the baseline deliberately)", b.Name)
		}
	}
	for _, sc := range table {
		s, ok := curByName[sc.name]
		if !ok {
			continue
		}
		for _, g := range sc.gates {
			v := *g.field(&s)
			bound, skip := g.limit(&s)
			switch {
			case skip != "":
				fmt.Fprintf(os.Stderr, "psdbench: note: %s %s gate skipped (%s)\n", s.Name, g.unit, skip)
			case g.floor && v < bound:
				fail("%s: %.2fx %s, want >= %.2fx (%s)", s.Name, v, g.unit, bound, g.why)
			case !g.floor && v > bound:
				fail("%s: %.4f %s breaches the %g gate (%s)", s.Name, v, g.unit, bound, g.why)
			}
		}
		b, ok := baseByName[sc.name]
		if !ok {
			fmt.Fprintf(os.Stderr, "psdbench: note: %s not in baseline (new scenario, throughput unchecked)\n", s.Name)
			continue
		}
		for _, m := range sc.throughput {
			baseV, curV := *m.field(&b), *m.field(&s)
			if reg := (baseV - curV) / baseV; baseV > 0 && reg > tol {
				fail("%s: %s regressed %.1f%% (%.0f -> %.0f, tolerance %.0f%%)", s.Name, m.unit, reg*100, baseV, curV, tol*100)
			}
		}
	}
	return failures
}

// measure times fn and counts its heap allocations. It reads the start
// MemStats only once the count holds still across a short sleep after a
// forced GC: each GC wakes runtime background work (the unique package's
// map cleanup, finalizers) whose allocations would be charged to fn.
func measure(fn func() error) (wall float64, mallocs uint64, err error) {
	var ms0, ms1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms0)
	for prev, i := uint64(0), 0; ms0.Mallocs != prev && i < 50; i++ {
		prev = ms0.Mallocs
		time.Sleep(time.Millisecond)
		runtime.ReadMemStats(&ms0)
	}
	start := time.Now()
	err = fn()
	wall = time.Since(start).Seconds()
	runtime.ReadMemStats(&ms1)
	return wall, ms1.Mallocs - ms0.Mallocs, err
}

// per returns n units over wall seconds and mallocs per unit.
func per(n, wall float64, mallocs uint64) (perSec, allocs float64) {
	return n / wall, float64(mallocs) / n
}

// setEvents records n events timed over wall seconds.
func (r *scenarioResult) setEvents(n uint64, wall float64) {
	r.Events, r.WallSeconds = n, wall
	r.EventsPerSec, r.NsPerEvent = float64(n)/wall, wall*1e9/float64(n)
}

type resetFunc = func(*simsrv.Simulator, uint64) error

// A lane is one reusable Simulator arena and the reset arming it per seed.
type lane struct {
	errPrefix string
	sim       simsrv.Simulator
	reset     resetFunc
}

// replicate runs every lane over the -runs seeds from -seed untimed (arena
// growth, retained ladders and schedulers), then timed.
func replicate(lanes []lane) (wall float64, events, mallocs uint64, err error) {
	var res simsrv.Result
	pass := func() error {
		for i := range lanes {
			ln := &lanes[i]
			for r := 0; r < *runs; r++ {
				err := ln.reset(&ln.sim, *seed+uint64(r))
				if err == nil {
					err = ln.sim.RunInto(&res)
				}
				if err != nil {
					return fmt.Errorf("%s%w", ln.errPrefix, err)
				}
				events += res.EventsProcessed
			}
		}
		return nil
	}
	if err := pass(); err != nil {
		return 0, 0, 0, err
	}
	events = 0
	wall, mallocs, err = measure(pass)
	return wall, events, mallocs, err
}

func resetFluid(cfg simsrv.Config) resetFunc {
	return func(sim *simsrv.Simulator, seed uint64) error { return sim.Reset(cfg, seed) }
}

func resetPacketized(cfg simsrv.Config) resetFunc {
	pc := simsrv.PacketizedConfig{Config: cfg}
	return func(sim *simsrv.Simulator, seed uint64) error { return sim.ResetPacketized(pc, seed) }
}

// resetTrace replays the golden determinism test's 2-class trace.
func resetTrace(cfg simsrv.Config) resetFunc {
	sz := []float64{0.2, 1.7, 0.4, 3.1, 0.9, 0.15, 6.0, 0.5}
	var trace []simsrv.TraceRequest
	for i, tm := 0, 0.0; tm < cfg.Warmup+cfg.Horizon; i++ {
		tm += 0.35 + float64(i%7)*0.11
		trace = append(trace, simsrv.TraceRequest{Time: tm, Class: i % 2, Size: sz[i%len(sz)]})
	}
	return func(sim *simsrv.Simulator, seed uint64) error { return sim.ResetTrace(cfg, trace, seed) }
}

// The reduced-fidelity Figure 2 grid (also BenchmarkFigureSweep's):
// figure2-sweep simulates it, analytic-sweep evaluates it in closed form.
const figure2Warmup, figure2Horizon = 2000.0, 15000.0

var figure2Loads = []float64{0.1, 0.3, 0.5, 0.7, 0.9}

func figure2Grid(sc *scenario) ([]sweep.Point, scenarioResult) {
	points := make([]sweep.Point, len(figure2Loads))
	for i, rho := range figure2Loads {
		cfg := simsrv.EqualLoadConfig(sc.deltas, rho, nil)
		cfg.Warmup, cfg.Horizon, cfg.Seed = figure2Warmup, figure2Horizon, *seed
		points[i] = sweep.Point{Cfg: cfg, Runs: *runs}
	}
	return points, scenarioResult{Runs: *runs, Warmup: figure2Warmup, Horizon: figure2Horizon}
}

// runFigureSweep times the grid through the sweep engine's arenas.
func runFigureSweep(sc *scenario, _ []scenarioResult) (scenarioResult, error) {
	points, r := figure2Grid(sc)
	aggs, err := sweep.Run(points) // populate the worker arenas
	if err != nil {
		return r, err
	}
	wall, mallocs, err := measure(func() (err error) {
		aggs, err = sweep.Run(points)
		return err
	})
	var events uint64
	for _, agg := range aggs {
		events += agg.EventsProcessed
	}
	r.setEvents(events, wall)
	r.Replications = len(points) * *runs
	r.RepsPerSec, r.AllocsPerRep = per(float64(r.Replications), wall, mallocs)
	return r, err
}

// runAnalyticSweep proves the Auto router simulates none of the grid, then
// times one analytic.Evaluator arena over it many times.
func runAnalyticSweep(sc *scenario, prior []scenarioResult) (scenarioResult, error) {
	points, r := figure2Grid(sc)
	eng := sweep.Engine{Kind: sweep.Auto}
	aggs, err := eng.Run(points)
	if err != nil {
		return r, err
	}
	for i, agg := range aggs {
		if agg.EventsProcessed != 0 {
			return r, fmt.Errorf("auto router simulated point %d (load %.1f): %d DES events on an analytic-eligible grid",
				i, figure2Loads[i], agg.EventsProcessed)
		}
	}
	var ev analytic.Evaluator
	var res analytic.Evaluation
	if err := ev.EvaluateInto(&res, points[0].Cfg); err != nil { // warm the arena
		return r, err
	}
	const gridPasses = 40_000
	r.Points = gridPasses * len(points)
	wall, mallocs, err := measure(func() error {
		for pass := 0; pass < gridPasses; pass++ {
			for i := range points {
				if err := ev.EvaluateInto(&res, points[i].Cfg); err != nil {
					return err
				}
			}
		}
		return nil
	})
	r.WallSeconds = wall
	r.PointsPerSec, r.AllocsPerPoint = per(float64(r.Points), wall, mallocs)
	for _, fig := range prior {
		if fig.Model == "figure-sweep" && fig.RepsPerSec > 0 {
			r.Speedup = r.PointsPerSec / fig.RepsPerSec
			break
		}
	}
	return r, err
}

// runPolicyTournament replicates every registered policy through its own
// arena, isolating what registering a policy adds to the hot path.
// Size-aware policies run packetized with a retained heSRPT scheduler.
func runPolicyTournament(sc *scenario, _ []scenarioResult) (scenarioResult, error) {
	r := scenarioResult{Runs: *runs, Warmup: 2000, Horizon: 10000}
	names := core.Names()
	lanes := make([]lane, len(names))
	for i, name := range names {
		alloc, err := core.Parse(name)
		if err != nil {
			return r, err
		}
		cfg := simsrv.EqualLoadConfig(sc.deltas, sc.load, nil)
		cfg.Warmup, cfg.Horizon, cfg.Allocator = r.Warmup, r.Horizon, alloc
		lanes[i] = lane{errPrefix: name + ": ", reset: resetFluid(cfg)}
		if pol, _ := core.Lookup(name); pol.Caps.NeedsSizeInfo {
			hs := sched.NewHeSRPT(len(sc.deltas)) // retained across resets
			pc := simsrv.PacketizedConfig{Config: cfg,
				NewScheduler: func(int, *rng.Source) sched.Scheduler { hs.Reset(); return hs }}
			lanes[i].reset = func(sim *simsrv.Simulator, seed uint64) error { return sim.ResetPacketized(pc, seed) }
		}
	}
	wall, events, mallocs, err := replicate(lanes)
	r.setEvents(events, wall)
	r.Replications, r.Policies = len(lanes)**runs, len(lanes)
	r.RepsPerSec, r.AllocsPerRep = per(float64(r.Replications), wall, mallocs)
	return r, err
}

// driveTicks times r.Ticks steady-state Ticks of the control.Loop behind
// simsrv and httpsrv, feedback on, fed synthetic windows; rec records if
// set. It adds the ticks' wall time to r.WallSeconds.
func driveTicks(r *scenarioResult, deltas []float64, rec *obs.FlightRecorder) error {
	w, err := core.WorkloadFromDist(dist.PaperDefault())
	if err != nil {
		return err
	}
	lp, err := control.NewLoop(control.LoopConfig{
		Deltas: deltas, Window: 1000, Allocator: core.PSD{}, Workload: w, Feedback: true, Recorder: rec})
	if err != nil {
		return err
	}
	nc := len(deltas)
	counts, work, slows := make([]float64, nc), make([]float64, nc), make([]float64, nc)
	tick := func(k int) error {
		for i := 0; i < nc; i++ {
			counts[i] = float64(200 + (k*7+i*13)%120)
			work[i] = counts[i] * w.MeanSize
			slows[i] = deltas[i] * float64(1+(k+i)%3)
		}
		_, err := lp.Tick(control.TickInput{Counts: counts, Work: work, MeasuredSlowdowns: slows})
		return err
	}
	if err := tick(0); err != nil { // warm the loop's buffers
		return err
	}
	wall, mallocs, err := measure(func() error {
		for k := 1; k <= r.Ticks; k++ {
			if err := tick(k); err != nil {
				return err
			}
		}
		return nil
	})
	r.WallSeconds += wall
	r.TicksPerSec, r.AllocsPerTick = per(float64(r.Ticks), wall, mallocs)
	return err
}

// runControlTick measures the shared control plane in isolation.
func runControlTick(sc *scenario, _ []scenarioResult) (scenarioResult, error) {
	r := scenarioResult{Ticks: 2_000_000}
	err := driveTicks(&r, sc.deltas, nil)
	return r, err
}

// runObsHotpath times the live server's per-request metric touches (two
// histograms, two counters) as events, and a flight-recorded tick.
func runObsHotpath(sc *scenario, _ []scenarioResult) (scenarioResult, error) {
	const events = 5_000_000
	nc := len(sc.deltas)
	reg := obs.NewRegistry()
	slow := reg.HistogramVec("bench_slowdown", "", "class", nc, -7, 21)
	lat := reg.HistogramVec("bench_latency_seconds", "", "class", nc, -13, 21)
	served := reg.CounterVec("bench_served_total", "", "class", nc)
	workC := reg.FloatCounterVec("bench_work_total", "", "class", nc)
	eventWall, eventMallocs, _ := measure(func() error {
		for k := 0; k < events; k++ {
			class, v := k%nc, float64(1+k%97)*0.125
			slow.At(class).Observe(v)
			lat.At(class).Observe(v * 0.01)
			served.At(class).Inc()
			workC.At(class).Add(v)
		}
		return nil
	})
	r := scenarioResult{Ticks: 1_000_000}
	r.setEvents(events, eventWall)
	_, r.AllocsPerEvent = per(events, eventWall, eventMallocs)
	rec, err := obs.NewFlightRecorder(nc, 256)
	if err != nil {
		return r, err
	}
	err = driveTicks(&r, sc.deltas, rec)
	return r, err
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "psdbench: "+format+"\n", args...)
	os.Exit(1)
}
