package simsrv

import (
	"psd/internal/rng"
	"psd/internal/sched"
)

// PacketizedConfig parametrizes a packetized-server simulation: one
// processor runs whole requests at full speed and a weighted-fair
// scheduler (internal/sched) picks the next request, with weights
// refreshed by the allocator every window. This mode validates that the
// paper's assumed proportional-share facility is realizable by practical
// packet-by-packet schedulers — and quantifies the slowdown-model
// correction (core.PacketizedPSD) that the run-to-completion service
// model requires.
type PacketizedConfig struct {
	// Config supplies classes, service law, windows, warmup, horizon and
	// seed, and its admission gate, feedback controller and load
	// schedule act exactly as in the fluid model; only WorkConserving is
	// rejected (this server is work-conserving by construction). Its
	// Allocator provides the weights; use core.PacketizedPSD for
	// proportional slowdowns on this server model (core.PSD's fluid
	// weights overshoot by design — see the ablation bench).
	Config
	// NewScheduler builds the discipline; it receives the class count
	// and a dedicated random stream (only Lottery uses it). Defaults to
	// SCFQ, in which case the scheduler is retained as part of the
	// simulation arena across replications.
	NewScheduler func(classes int, src *rng.Source) sched.Scheduler
}

// RunPacketized executes one packetized-server replication. Batch callers
// should hold a Simulator and use ResetPacketized to amortize arena
// construction.
func RunPacketized(pc PacketizedConfig) (*Result, error) {
	var s Simulator
	if err := s.ResetPacketized(pc, pc.Config.Seed); err != nil {
		return nil, err
	}
	res := new(Result)
	if err := s.RunInto(res); err != nil {
		return nil, err
	}
	return res, nil
}

// dispatch pulls the scheduler's next choice onto the processor, which
// serves it at full speed; the processor idles when nothing is queued.
// Only one request is ever in service, so its class's current slot holds
// it until the completion event.
func (r *runner) dispatch() {
	j, ok := r.scheduler.Dequeue()
	if !ok {
		r.busy = false
		return
	}
	r.busy = true
	cs := &r.classes[j.Class]
	cs.current = request{class: j.Class, size: j.Size, arrival: j.Arrival, serviceStart: r.sim.Now()}
	cs.completion = r.sim.Schedule(j.Size, r, evCompletion, cs.idx)
}

// setWeights installs an allocation as scheduler weights, floored
// positive (schedulers reject non-positive weights; an idle class's zero
// rate becomes a negligible share). On success the weights become the
// classes' rates, reported as Result.FinalRates.
func (r *runner) setWeights(rates []float64) error {
	floor := r.cfg.MinRate
	if floor <= 0 {
		floor = 1e-6
	}
	for i, w := range rates {
		r.allocWeights[i] = max(w, floor)
	}
	if err := r.scheduler.SetWeights(r.allocWeights); err != nil {
		return err
	}
	for i := range r.classes {
		r.classes[i].rate = r.allocWeights[i]
	}
	return nil
}
