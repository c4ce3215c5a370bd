package simsrv

import (
	"errors"

	"psd/internal/core"
	"psd/internal/rng"
)

// Simulator is a reusable simulation arena. It owns every buffer a
// replication needs — the event heap, per-class request rings, estimator
// ring, statistics accumulators, allocator scratch and (in packetized
// mode) the scheduler's packet heap — and replays them across
// replications and grid points:
//
//	var sim Simulator
//	var res Result
//	for rep := 0; rep < runs; rep++ {
//		if err := sim.Reset(cfg, ReplicationSeed(cfg.Seed, rep)); err != nil { ... }
//		if err := sim.RunInto(&res); err != nil { ... }
//		agg.Add(&res)
//	}
//
// Construction cost is paid once: after the first replication a
// Reset+RunInto cycle performs single-digit heap allocations (the
// pre-arena engine performed ~100 per replication, dominating figure
// sweeps where a single curve is thousands of replications). Reset fully
// re-derives the random streams from the seed and restarts event sequence
// numbering, so arena reuse is bit-for-bit identical to fresh
// construction — the golden tests in determinism_test.go pin this.
//
// A Simulator is single-goroutine; use one per worker (see
// RunReplications and internal/sweep).
type Simulator struct {
	r     runner
	armed bool
	// validatedTrace remembers the last trace that passed validation (by
	// slice identity, for the class count below), so replaying one trace
	// across many replications — the sweep engine's trace-point pattern —
	// validates it once instead of O(len) per reset.
	validatedTrace        []TraceRequest
	validatedTraceClasses int
}

// NewSimulator returns an empty arena. The zero value is also ready.
func NewSimulator() *Simulator { return &Simulator{} }

// Reset arms the arena for one partitioned-model replication of cfg under
// the given seed (overriding cfg.Seed). Defaults are applied and the
// config validated here, so RunInto cannot fail on configuration.
func (s *Simulator) Reset(cfg Config, seed uint64) error {
	return s.arm(cfg, seed, nil, nil)
}

// ResetTrace arms the arena for a trace-driven replication: the trace
// replaces the Poisson generators, everything else follows Reset. The
// trace must be time-sorted with in-range classes and positive sizes; it
// is NOT copied, and the caller must not mutate it while this Simulator
// is using it — validation of the exact same slice (same backing array
// and length) is cached across resets, so replaying one trace over many
// replications pays the O(len) checks once.
func (s *Simulator) ResetTrace(cfg Config, trace []TraceRequest, seed uint64) error {
	if trace == nil {
		trace = []TraceRequest{} // still trace mode: rejected as empty
	}
	return s.arm(cfg, seed, trace, nil)
}

// ResetPacketized arms the arena for one packetized-server replication
// (core.PacketizedPSD unless pc names an allocator). With the default
// SCFQ discipline the scheduler itself is part of the arena (its packet
// heap is retained across replications); a custom NewScheduler factory
// is invoked fresh on every reset so stateful or randomized disciplines
// start each replication clean.
func (s *Simulator) ResetPacketized(pc PacketizedConfig, seed uint64) error {
	if pc.Config.Allocator == nil {
		// The fluid default would systematically overshoot here; make
		// the packetized-correct allocator the default for this mode.
		pc.Config.Allocator = core.PacketizedPSD{}
	}
	return s.arm(pc.Config, seed, nil, &pc)
}

// arm validates cfg under seed and resets the runner. A non-nil trace
// selects trace replay; a non-nil pc the packetized discipline.
func (s *Simulator) arm(cfg Config, seed uint64, trace []TraceRequest, pc *PacketizedConfig) error {
	s.armed = false
	cfg = cfg.ApplyDefaults()
	cfg.Seed = seed
	if err := cfg.Validate(); err != nil {
		return err
	}
	if pc != nil && cfg.WorkConserving {
		return errors.New("simsrv: packetized mode is inherently work-conserving; WorkConserving flag is not applicable")
	}
	if trace != nil {
		sameTrace := len(trace) > 0 && len(s.validatedTrace) == len(trace) &&
			&s.validatedTrace[0] == &trace[0] &&
			s.validatedTraceClasses == len(cfg.Classes)
		if !sameTrace {
			if err := validateTrace(cfg, trace); err != nil {
				s.validatedTrace = nil
				return err
			}
			s.validatedTrace = trace
			s.validatedTraceClasses = len(cfg.Classes)
		}
	}
	w, err := core.WorkloadFromDist(cfg.Service)
	if err != nil {
		return err
	}
	if err := s.r.reset(cfg, w, pc); err != nil {
		return err
	}
	s.r.trace = trace
	s.armed = true
	return nil
}

// RunInto executes the armed replication and writes its outcome into res,
// reusing res's buffers. Each Reset* arms exactly one RunInto; calling it
// again without resetting is an error (the arena's state is consumed).
func (s *Simulator) RunInto(res *Result) error {
	if !s.armed {
		return errors.New("simsrv: RunInto requires a prior Reset (each Reset arms one run)")
	}
	s.armed = false
	s.r.start()
	s.r.sim.RunUntil(s.r.total)
	s.r.collectInto(res)
	return nil
}

// ReplicationSeed derives replication rep's seed from a scenario's base
// seed via an rng.Split of a base-seeded source. Unlike base+rep
// arithmetic, nearby base seeds cannot collide onto overlapping
// replication seed ranges, and the derivation is shared by
// RunReplications and internal/sweep so "replication rep of scenario s"
// names the same stream everywhere.
func ReplicationSeed(base uint64, rep int) uint64 {
	var src, child rng.Source
	src.Reseed(base)
	src.SplitInto(&child, uint64(rep))
	return child.Uint64()
}

// Run executes one replication and returns its Result. It is a
// convenience over a throwaway Simulator arena; batch callers should hold
// a Simulator (or use RunReplications / internal/sweep) to amortize
// construction.
func Run(cfg Config) (*Result, error) {
	var s Simulator
	if err := s.Reset(cfg, cfg.Seed); err != nil {
		return nil, err
	}
	res := new(Result)
	if err := s.RunInto(res); err != nil {
		return nil, err
	}
	return res, nil
}
