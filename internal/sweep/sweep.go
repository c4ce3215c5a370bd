// Package sweep shards whole scenario grids across a fixed worker pool of
// reusable simulation arenas. A grid — the unit internal/figures and
// cmd/psdbench actually execute — is a list of Points, each a simsrv
// configuration with a replication count; every figure of the paper's
// evaluation is (load sweep × class mix × replications), i.e. thousands
// of replications whose per-run construction cost and aggregation memory
// used to dominate everything outside the event loop.
//
// The engine differs from the per-point simsrv.RunReplications fan-out it
// replaces in three ways:
//
//   - One global (point, replication) task queue spans the whole grid, so
//     workers never idle at per-point barriers: while one worker finishes
//     the last replication of point k, the rest are already deep into
//     point k+1.
//   - Each worker owns one simsrv.Simulator arena for the entire sweep —
//     rings, pooled statistics, estimator scratch, the packetized packet
//     heap — so a replication costs single-digit heap allocations instead
//     of rebuilding the model (~100 allocations) millions of times per
//     figure.
//   - Results stream through per-point simsrv.Aggregators (Welford + P²
//     quantiles) in strict replication order via a reorder buffer, so
//     memory stays O(workers + points) and the output is bit-reproducible
//     regardless of worker scheduling.
//
// Replication seeds derive from each point's base seed via rng.Split
// (simsrv.ReplicationSeed), so a point's replication streams are
// independent of its position in the grid and identical to what
// simsrv.RunReplications would use.
//
// The engine also routes: in Auto (or Analytic) mode every steady-state
// point whose closed form internal/analytic can evaluate skips the DES
// entirely and collapses to a single exact "replication" — a synthesized
// Aggregate whose means ARE the closed-form values, with zero-width
// confidence intervals and zero events. Transient, packetized, trace,
// window-statistics and moment-divergent points keep simulating; the
// default DES kind (the zero value) never consults the analytic path at
// all, so existing call sites stay bit-identical.
package sweep

import (
	"errors"
	"fmt"

	"psd/internal/analytic"
	"psd/internal/rng"
	"psd/internal/sched"
	"psd/internal/simsrv"
	"psd/internal/stats"
)

// EngineKind selects how the engine evaluates each point.
type EngineKind int

const (
	// DES simulates every point (the zero value: existing call sites
	// keep their bit-identical replication pipeline).
	DES EngineKind = iota
	// Auto evaluates analytic-eligible points from the closed forms and
	// simulates the rest.
	Auto
	// Analytic refuses to simulate: any point needing the DES fails the
	// sweep with an error wrapping analytic.ErrNeedsSimulation.
	Analytic
)

// ParseEngineKind maps the CLI spellings (des | auto | analytic) to an
// EngineKind.
func ParseEngineKind(s string) (EngineKind, error) {
	switch s {
	case "des":
		return DES, nil
	case "auto":
		return Auto, nil
	case "analytic":
		return Analytic, nil
	}
	return DES, fmt.Errorf("sweep: unknown engine kind %q (want des, auto or analytic)", s)
}

// String implements fmt.Stringer.
func (k EngineKind) String() string {
	switch k {
	case DES:
		return "des"
	case Auto:
		return "auto"
	case Analytic:
		return "analytic"
	}
	return fmt.Sprintf("EngineKind(%d)", int(k))
}

// Point is one grid point: a scenario configuration plus how many
// replications to average (the paper uses 100).
type Point struct {
	// Cfg is the scenario; Cfg.Seed is the point's base seed from which
	// replication seeds derive.
	Cfg simsrv.Config
	// Runs is the replication count (≥ 1).
	Runs int
	// Packetized selects the packetized-server model (SCFQ by default)
	// instead of the paper's partitioned task servers.
	Packetized bool
	// NewScheduler optionally overrides the packetized discipline; see
	// simsrv.PacketizedConfig.
	NewScheduler func(classes int, src *rng.Source) sched.Scheduler
	// Trace, when non-nil, replays this arrival trace instead of the
	// Poisson generators (simsrv.RunTrace semantics). Replications then
	// differ only in their estimator/allocator-independent random
	// streams, which for a fixed trace makes runs 1..n-1 redundant —
	// trace points normally use Runs = 1.
	Trace []simsrv.TraceRequest
	// TrackWindowRatios asks the point's aggregator to accumulate the
	// per-measurement-window achieved slowdown ratios across runs
	// (Aggregate.WindowRatioMeans) — the transient time series behind the
	// estimator-convergence figure. Costs O(classes × windows) memory per
	// point.
	TrackWindowRatios bool
	// NeedWindowStats pins the point to the DES in Auto mode: its
	// consumer reads the per-window ratio distribution
	// (Aggregate.RatioSummaries percentiles), which only simulation
	// produces — the closed forms predict means, not window-to-window
	// variability. The percentile figures (5–6) set it.
	NeedWindowStats bool
	// Policy optionally names a registered allocation policy (core.Names());
	// Run resolves it in place before anything executes: Cfg.Allocator is
	// overridden with the policy's allocator, and a size-aware policy
	// (core.Capabilities.NeedsSizeInfo, e.g. heSRPT) additionally switches
	// the point to the packetized model with its matching internal/sched
	// discipline. This is the grid's policy axis: crossing one scenario
	// list with a policy list (see Tournament) sweeps a whole policy
	// tournament in a single engine invocation.
	Policy string
}

// needsDES returns the reason this point cannot take the analytic path
// regardless of its Config (model shape, not steady-state eligibility),
// or "" if the Config decides.
func (p *Point) needsDES() string {
	switch {
	case p.Packetized:
		return "packetized server model"
	case p.Trace != nil:
		return "trace replay"
	case p.NewScheduler != nil:
		return "custom packet scheduler"
	case p.TrackWindowRatios:
		return "per-window ratio tracking"
	case p.NeedWindowStats:
		return "window-distribution statistics"
	}
	return ""
}

// Engine runs grids. The zero value uses GOMAXPROCS workers, streaming
// (P²) ratio quantiles, and simulates every point.
type Engine struct {
	// Workers fixes the pool size; 0 means GOMAXPROCS.
	Workers int
	// ExactQuantiles switches every point's ratio summaries to the exact
	// batch path (buffer + sort) — the pre-streaming behavior, kept for
	// golden comparisons and accuracy tests.
	ExactQuantiles bool
	// Kind routes points between the DES and the closed-form evaluator.
	// The zero value (DES) simulates everything.
	Kind EngineKind
}

// Run executes the grid on a default Engine.
func Run(points []Point) ([]*simsrv.Aggregate, error) {
	var e Engine
	return e.Run(points)
}

// Run executes every point's replications and returns one Aggregate per
// point, in point order. All configurations are validated up front
// (traces are validated by each worker's arena once, on its first
// replication of the point); an execution error (first in task order,
// deterministically) aborts the sweep.
//
// In Auto and Analytic kinds, analytic-eligible points are solved inline
// from the closed forms before the replication pipeline starts — they
// contribute zero tasks, so a fully analytic grid never spins up a
// worker. DES-routed points keep the exact task ordering, seeds and
// reorder-buffer aggregation of a pure-DES sweep: routing a grid through
// Auto leaves every simulated point bit-identical to Kind DES.
//
// Tasks run through simsrv.RunOrdered, the same ordered worker pipeline
// as simsrv.RunReplications.
func (e *Engine) Run(points []Point) ([]*simsrv.Aggregate, error) {
	if len(points) == 0 {
		return nil, fmt.Errorf("sweep: empty grid")
	}
	total := 0
	offsets := make([]int, len(points))
	aggs := make([]*simsrv.Aggregator, len(points))
	var analyticAggs []*simsrv.Aggregate
	var evaluator analytic.Evaluator
	if e.Kind != DES {
		analyticAggs = make([]*simsrv.Aggregate, len(points))
	}
	for i := range points {
		p := &points[i]
		if p.Runs < 1 {
			return nil, fmt.Errorf("sweep: point %d needs at least 1 run, got %d", i, p.Runs)
		}
		if err := p.resolvePolicy(); err != nil {
			return nil, fmt.Errorf("sweep: point %d: %w", i, err)
		}
		cfg := p.Cfg.ApplyDefaults()
		if err := cfg.Validate(); err != nil {
			return nil, fmt.Errorf("sweep: point %d: %w", i, err)
		}
		offsets[i] = total
		if analyticAggs != nil {
			agg, err := e.evalPoint(&evaluator, p)
			if err != nil {
				return nil, fmt.Errorf("sweep: point %d: %w", i, err)
			}
			if agg != nil {
				// Closed form: a zero-width entry in the task queue.
				analyticAggs[i] = agg
				continue
			}
		}
		total += p.Runs
		aggs[i] = simsrv.NewAggregator(p.Cfg)
		if e.ExactQuantiles {
			aggs[i].UseExactQuantiles()
		}
		if p.TrackWindowRatios {
			aggs[i].TrackWindowRatios()
		}
	}

	// locate maps a global task index back to (point, replication).
	locate := func(task int) (int, int) {
		pt := 0
		for pt+1 < len(points) && offsets[pt+1] <= task {
			pt++
		}
		return pt, task - offsets[pt]
	}
	run := func(sim *simsrv.Simulator, res *simsrv.Result, task int) error {
		pt, rep := locate(task)
		p := &points[pt]
		seed := simsrv.ReplicationSeed(p.Cfg.Seed, rep)
		var err error
		switch {
		case p.Trace != nil:
			err = sim.ResetTrace(p.Cfg, p.Trace, seed)
		case p.Packetized:
			err = sim.ResetPacketized(simsrv.PacketizedConfig{Config: p.Cfg, NewScheduler: p.NewScheduler}, seed)
		default:
			err = sim.Reset(p.Cfg, seed)
		}
		if err == nil {
			err = sim.RunInto(res)
		}
		if err != nil {
			return fmt.Errorf("sweep: point %d rep %d: %w", pt, rep, err)
		}
		return nil
	}
	fold := func(task int, res *simsrv.Result) {
		pt, _ := locate(task)
		aggs[pt].Add(res)
	}
	if err := simsrv.RunOrdered(total, e.Workers, run, fold); err != nil {
		return nil, err
	}

	out := make([]*simsrv.Aggregate, len(points))
	for i, a := range aggs {
		if a == nil {
			out[i] = analyticAggs[i]
			continue
		}
		agg, err := a.Aggregate()
		if err != nil {
			return nil, fmt.Errorf("sweep: point %d: %w", i, err)
		}
		out[i] = agg
	}
	return out, nil
}

// evalPoint routes one point: a synthesized Aggregate when the closed
// forms apply, (nil, nil) to fall back to the DES in Auto mode, or an
// error (always in Analytic mode, where simulation is refused).
func (e *Engine) evalPoint(ev *analytic.Evaluator, p *Point) (*simsrv.Aggregate, error) {
	if reason := p.needsDES(); reason != "" {
		if e.Kind == Analytic {
			return nil, fmt.Errorf("%w: %s", analytic.ErrNeedsSimulation, reason)
		}
		return nil, nil
	}
	var res analytic.Evaluation
	if err := ev.EvaluateInto(&res, p.Cfg); err != nil {
		if e.Kind == Auto && errors.Is(err, analytic.ErrNeedsSimulation) {
			return nil, nil
		}
		return nil, err
	}
	return analyticAggregate(&res), nil
}

// analyticAggregate shapes a closed-form Evaluation as the Aggregate of
// a single exact "replication": the means ARE the stationary values,
// the confidence intervals are zero-width, the per-window ratio
// summaries stay empty (no windows were simulated) and no DES events
// were processed — which is also how callers can tell an analytic point
// from a simulated one.
func analyticAggregate(ev *analytic.Evaluation) *simsrv.Aggregate {
	nc := len(ev.Slowdowns)
	agg := &simsrv.Aggregate{
		Runs:              1,
		MeanSlowdowns:     make([]float64, nc),
		CI95:              make([]float64, nc),
		ExpectedSlowdowns: make([]float64, nc),
		RatioSummaries:    make([]stats.Summary, nc),
		MeanRatios:        make([]float64, nc),
		SystemSlowdown:    ev.SystemSlowdown,
	}
	copy(agg.MeanSlowdowns, ev.Slowdowns)
	copy(agg.ExpectedSlowdowns, ev.Slowdowns)
	for i := 1; i < nc; i++ {
		agg.MeanRatios[i] = ev.Ratios[i]
	}
	return agg
}
