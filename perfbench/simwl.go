package main

import (
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/pprof"
	"slices"
	"time"

	"psd/internal/analytic"
	"psd/internal/core"
	"psd/internal/simsrv"
	"psd/internal/sweep"
)

const (
	simWarmup     = 2000.0  // time units, as psdfig -quick
	simHorizon    = 15000.0 // time units, as psdfig -quick
	simRuns       = 4       // replications per point
	simStepFactor = 1.6     // LoadStep surge, as Figure 14
	// hangLimit bounds one Engine.Run; a healthy grid takes 1 to 2 s on
	// two cores.
	hangLimit = 10 * time.Second
	// bandPoint and bandGeo are the closed-form bands (see
	// checkClosedForm).
	bandPoint = 2.5
	bandGeo   = 1.4
)

var simLoads = []float64{0.3, 0.6, 0.9}

// simGrid is the policy tournament: every registered policy × the loads
// × {steady, load step}, policy-major, δ = (1, 2), the paper's Bounded
// Pareto. Every policy sees the same base seeds.
func simGrid(seed uint64) ([]sweep.Point, error) {
	var base []sweep.Point
	for li, rho := range simLoads {
		for si, step := range []bool{false, true} {
			cfg := simsrv.EqualLoadConfig([]float64{1, 2}, rho, nil)
			cfg.Warmup, cfg.Horizon = simWarmup, simHorizon
			cfg.Seed = splitmix(seed + uint64(2*li+si))
			if step {
				cfg.LoadSchedule = simsrv.LoadStep(simWarmup+simHorizon/2, simStepFactor)
			}
			base = append(base, sweep.Point{Cfg: cfg, Runs: simRuns})
		}
	}
	return sweep.Tournament(base, core.Names())
}

func splitmix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// steadyPSD lists the grid indices of the steady-state psd points, the
// ones the closed forms cover.
func steadyPSD(pts []sweep.Point) []int {
	var idx []int
	for i := range pts {
		if pts[i].Policy == "psd" && len(pts[i].Cfg.LoadSchedule) == 0 {
			idx = append(idx, i)
		}
	}
	return idx
}

// simSetup is what precedes the first sweep result: the grid, its
// closed-form references, and the grid's first replication on a fresh
// simulator arena.
func simSetup(seed uint64) ([]*analytic.Evaluation, error) {
	pts, err := simGrid(seed)
	if err != nil {
		return nil, err
	}
	var refs []*analytic.Evaluation
	for _, i := range steadyPSD(pts) {
		ev, err := analytic.Evaluate(pts[i].Cfg)
		if err != nil {
			return nil, fmt.Errorf("closed form of point %d: %w", i, err)
		}
		refs = append(refs, ev)
	}
	sim := simsrv.NewSimulator()
	if err := sim.Reset(pts[0].Cfg, simsrv.ReplicationSeed(pts[0].Cfg.Seed, 0)); err != nil {
		return nil, err
	}
	var res simsrv.Result
	if err := sim.RunInto(&res); err != nil {
		return nil, err
	}
	return refs, nil
}

// sweepRun is one guarded Engine.Run.
type sweepRun struct {
	pts  []sweep.Point // as Run resolved them
	aggs []*simsrv.Aggregate
	wall time.Duration
	err  error
	hung bool
}

// runGuarded calls Engine.Run with a deadline. Engine.Run takes no
// context, so a hung call cannot be stopped: its goroutines stay blocked
// (they use no CPU) and the benchmark reports the hang, dumps every
// goroutine's stack and goes on.
func runGuarded(seed uint64, label string) sweepRun {
	pts, err := simGrid(seed)
	if err != nil {
		return sweepRun{err: err}
	}
	var eng sweep.Engine // Kind DES, GOMAXPROCS workers: psdfig's default
	type ret struct {
		aggs []*simsrv.Aggregate
		err  error
	}
	ch := make(chan ret, 1)
	start := time.Now()
	go func() {
		aggs, err := eng.Run(pts)
		ch <- ret{aggs, err}
	}()
	t := time.NewTimer(hangLimit)
	defer t.Stop()
	select {
	case r := <-ch:
		return sweepRun{pts: pts, aggs: r.aggs, wall: time.Since(start), err: r.err}
	case <-t.C:
		fmt.Fprintf(os.Stderr, "HANG: %s: sweep.Engine.Run did not return within %v; goroutine stacks follow\n", label, hangLimit)
		_ = pprof.Lookup("goroutine").WriteTo(os.Stderr, 2)
		return sweepRun{pts: pts, wall: hangLimit, hung: true}
	}
}

func totalReps(pts []sweep.Point) int {
	n := 0
	for i := range pts {
		n += pts[i].Runs
	}
	return n
}

// sameAggregates reports whether two sweeps produced bit-identical
// statistics.
func sameAggregates(a, b []*simsrv.Aggregate) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		x, y := a[i], b[i]
		if x.EventsProcessed != y.EventsProcessed || math.Float64bits(x.SystemSlowdown) != math.Float64bits(y.SystemSlowdown) ||
			!slices.Equal(x.MeanSlowdowns, y.MeanSlowdowns) || !slices.Equal(x.MeanRatios, y.MeanRatios) {
			return false
		}
	}
	return true
}

// checkClosedForm compares each steady PSD point's DES mean system
// slowdown with the closed form. Four replications of a 15000-unit
// horizon under Bounded Pareto sizes put one point's DES/closed ratio
// anywhere in about [0.6, 1.6] (σ of its log ≈ 0.2 over 30 seeds), so
// the band is loose per point and tighter on the geometric mean of the
// three points' ratios.
func checkClosedForm(rep *report, r sweepRun, refs []*analytic.Evaluation) {
	ok, detail, logSum := true, "", 0.0
	idx := steadyPSD(r.pts)
	for k, i := range idx {
		ratio := r.aggs[i].SystemSlowdown / refs[k].SystemSlowdown
		detail += fmt.Sprintf(" rho=%g: DES %.4f closed %.4f (x%.3f);", simLoads[k], r.aggs[i].SystemSlowdown, refs[k].SystemSlowdown, ratio)
		ok = ok && math.Abs(math.Log(ratio)) <= math.Log(bandPoint)
		logSum += math.Log(ratio)
	}
	geo := math.Exp(logSum / float64(len(idx)))
	ok = ok && math.Abs(math.Log(geo)) <= math.Log(bandGeo)
	detail += fmt.Sprintf(" geometric mean x%.3f", geo)
	rep.check(fmt.Sprintf("steady PSD points: DES mean slowdown within x%g of the closed form, their geometric mean within x%g", bandPoint, bandGeo), ok, detail)
}

// tournamentSummary is the simulated mean system slowdown and the mean
// ratio error |achieved S₂/S₁ ÷ (δ₂/δ₁) − 1| over every grid point, as
// Figure 14 scores its policies.
func tournamentSummary(r sweepRun) (slow, rerr float64) {
	for _, a := range r.aggs {
		slow += a.SystemSlowdown
		rerr += ratioErr(1, a.MeanRatios[1], 1, 2)
	}
	n := float64(len(r.aggs))
	return slow / n, rerr / n
}

// runSimSweep is the sim-sweep workload: the tournament grid through
// sweep.Engine, repeated for the run's duration.
func runSimSweep(o options, rep *report) error {
	var setups []float64
	var refs []*analytic.Evaluation
	for range setupRounds {
		t0 := time.Now()
		var err error
		if refs, err = simSetup(o.seed); err != nil {
			return err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	rep.e2e("setup_s", median(setups))

	budget := o.seconds
	if o.trace {
		budget /= 3
	}
	var walls []float64
	var first sweepRun
	reps, runs, hung, errs, same := 0, 0, 0, 0, true
	c0 := cpuTime()
	start := time.Now()
	for runs == 0 || time.Since(start) < budget {
		runs++
		r := runGuarded(o.seed, fmt.Sprintf("seed %d sweep %d", o.seed, runs))
		switch {
		case r.hung:
			hung++
			continue
		case r.err != nil:
			errs++
			rep.check("Engine.Run returned no error", false, r.err.Error())
			continue
		}
		walls = append(walls, ms(r.wall))
		reps += totalReps(r.pts)
		if first.aggs == nil {
			first = r
			checkClosedForm(rep, r, refs)
		} else if !sameAggregates(first.aggs, r.aggs) {
			same = false
		}
	}
	cpu := cpuTime() - c0
	rep.attempted += int64(runs)
	rep.failed += int64(hung + errs)
	rep.check("repeated sweeps of one grid are bit-identical", same, "")
	if first.aggs == nil {
		rep.check("at least one sweep completed", false, fmt.Sprintf("%d hung, %d failed", hung, errs))
		rep.e2e("rss_mb", peakRSSMB())
		return nil
	}
	slow, rerr := tournamentSummary(first)
	sumWall := 0.0
	for _, w := range walls {
		sumWall += w
	}
	rep.layer("sweep.run_ms.p50", quantile(walls, 0.5))
	rep.layer("sweep.run_ms.p99", quantile(walls, 0.99))
	rep.layer("simsrv.slowdown_mean", slow)
	rep.layer("simsrv.ratio_err", rerr)
	rep.e2e("cpu_us_per_op", float64(cpu.Microseconds())/float64(reps))
	rep.e2e("throughput_per_s", float64(reps)/(sumWall/1000))
	if o.trace {
		if err := simLayers(o, rep, first, median(walls), hung); err != nil {
			return err
		}
	}
	rep.e2e("rss_mb", peakRSSMB())
	return nil
}

// layerTimes accumulates the traced re-drive's per-layer work.
type layerTimes struct {
	resetNs, runNs, events, reps [2]int64 // [fluid, packetized]
	aggNs                        int64
	repNs                        int64 // Σ Reset + RunInto + Add
}

// redrive replays the grid's replications in task order on one
// simulator arena — the work of Engine.Run without its pipeline — and
// returns the aggregates. With tr set it records a span around every
// call into simsrv.
func redrive(pts []sweep.Point, tr *tracer, lt *layerTimes) ([]*simsrv.Aggregate, error) {
	var sim simsrv.Simulator
	var res simsrv.Result
	out := make([]*simsrv.Aggregate, len(pts))
	for i := range pts {
		p := &pts[i]
		agg := simsrv.NewAggregator(p.Cfg)
		model := 0
		if p.Packetized {
			model = 1
		}
		for rep := range p.Runs {
			seed := simsrv.ReplicationSeed(p.Cfg.Seed, rep)
			t0 := now(tr)
			var err error
			if p.Packetized {
				err = sim.ResetPacketized(simsrv.PacketizedConfig{Config: p.Cfg, NewScheduler: p.NewScheduler}, seed)
			} else {
				err = sim.Reset(p.Cfg, seed)
			}
			if err != nil {
				return nil, fmt.Errorf("point %d rep %d: reset: %w", i, rep, err)
			}
			t1 := now(tr)
			if err := sim.RunInto(&res); err != nil {
				return nil, fmt.Errorf("point %d rep %d: run: %w", i, rep, err)
			}
			t2 := now(tr)
			agg.Add(&res)
			if tr == nil {
				continue
			}
			t3 := time.Now()
			id := tr.newID()
			tr.record(id, 0, "replication", t0, t3)
			tr.record(tr.newID(), id, "simsrv.Reset", t0, t1)
			tr.record(tr.newID(), id, "simsrv.RunInto", t1, t2)
			tr.record(tr.newID(), id, "simsrv.Aggregator.Add", t2, t3)
			lt.resetNs[model] += t1.Sub(t0).Nanoseconds()
			lt.runNs[model] += t2.Sub(t1).Nanoseconds()
			lt.events[model] += int64(res.EventsProcessed)
			lt.reps[model]++
			lt.aggNs += t3.Sub(t2).Nanoseconds()
			lt.repNs += t3.Sub(t0).Nanoseconds()
		}
		t4 := now(tr)
		a, err := agg.Aggregate()
		if err != nil {
			return nil, fmt.Errorf("point %d: aggregate: %w", i, err)
		}
		if tr != nil {
			t5 := time.Now()
			tr.record(tr.newID(), 0, "simsrv.Aggregator.Aggregate", t4, t5)
			lt.aggNs += t5.Sub(t4).Nanoseconds()
		}
		out[i] = a
	}
	return out, nil
}

// now reads the clock only when tracing.
func now(tr *tracer) time.Time {
	if tr == nil {
		return time.Time{}
	}
	return time.Now()
}

// simLayers is the traced part of sim-sweep: the same grid re-driven
// through the simulator untraced and then traced, against the timed
// Engine.Run calls.
func simLayers(o options, rep *report, first sweepRun, runWallMs float64, hung int) error {
	g0 := readGoCounters()
	t0 := time.Now()
	plain, err := redrive(first.pts, nil, nil)
	if err != nil {
		return err
	}
	plainWall := time.Since(t0)
	g1 := readGoCounters()
	tr := newTracer()
	var lt layerTimes
	t1 := time.Now()
	traced, err := redrive(first.pts, tr, &lt)
	if err != nil {
		return err
	}
	tracedWall := time.Since(t1)
	rep.check("re-driven grid reproduces Engine.Run bit for bit", sameAggregates(first.aggs, plain) && sameAggregates(first.aggs, traced), "")

	var engineEvents uint64
	for _, a := range first.aggs {
		engineEvents += a.EventsProcessed
	}
	events := lt.events[0] + lt.events[1]
	rep.check("traced simsrv.events equals the EventsProcessed of Engine.Run", uint64(events) == engineEvents,
		fmt.Sprintf("traced %d, engine %d", events, engineEvents))

	reps := float64(totalReps(first.pts))
	workers := min(runtime.GOMAXPROCS(0), int(reps))
	rep.layer("sweep.busy_share", float64(lt.repNs)/1e6/(float64(workers)*runWallMs))
	rep.layer("sweep.hung_runs", float64(hung))
	for m, name := range []string{"fluid", "packetized"} {
		rep.layer("simsrv.reset_us."+name, float64(lt.resetNs[m])/1e3/float64(max(lt.reps[m], 1)))
		rep.layer("simsrv.ns_per_event."+name, float64(lt.runNs[m])/float64(max(lt.events[m], 1)))
	}
	rep.layer("simsrv.aggregate_us_per_rep", float64(lt.aggNs)/1e3/reps)
	rep.layer("simsrv.events", float64(events))
	rep.layer("go.allocs_per_rep", float64(g1.mallocs-g0.mallocs)/reps)
	rep.layer("go.gc_cycles", float64(g1.gcs-g0.gcs))
	rep.layer("trace.overhead_pct", 100*(tracedWall.Seconds()-plainWall.Seconds())/plainWall.Seconds())
	rep.writeTrace(o, tr)
	return nil
}
