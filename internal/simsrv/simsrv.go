// Package simsrv implements the paper's simulation model (§4.1, Fig. 1):
// an Internet server of normalized capacity 1 partitioned among per-class
// task servers, driven by Poisson request generators with Bounded Pareto
// (or any dist.Distribution) job sizes, with a windowed load estimator and
// a pluggable processing-rate allocator.
//
// Timing conventions follow the paper: one time unit is the processing
// time of an average-size request at full capacity when the size law is
// normalized to mean 1; more generally the server drains 1 work unit per
// time unit and sizes are in work units. Rates are reallocated every
// Window time units from the mean load of the past HistoryWindows windows;
// the simulator warms up for Warmup time units and then measures for
// Horizon time units; per-class slowdown is also aggregated per Window for
// the predictability analysis (Figures 5–8).
//
// One event loop runs every model. Its server discipline is either the
// paper's partitioned fluid server or a packetized server, where one
// full-speed processor runs whole requests in the order a
// sched.Scheduler picks; arrivals (Poisson or trace), admission, load
// phases and the reallocation tick are the same for both.
//
// The execution engine is arena-based: a Simulator owns every buffer a
// replication needs (event heap, request rings, estimator ring, per-class
// statistics, allocator scratch, the packetized scheduler) and replays
// them across replications via Reset+RunInto with single-digit heap
// allocations per run. Run, RunTrace, RunPacketized and RunReplications
// are conveniences over that arena; RunOrdered is the worker pipeline
// behind RunReplications, on which internal/sweep shards whole scenario
// grids.
package simsrv

import (
	"errors"
	"fmt"
	"math"

	"psd/internal/admission"
	"psd/internal/control"
	"psd/internal/core"
	"psd/internal/des"
	"psd/internal/dist"
	"psd/internal/obs"
	"psd/internal/rng"
	"psd/internal/sched"
	"psd/internal/stats"
)

// ClassConfig declares one request class.
type ClassConfig struct {
	// Delta is the differentiation parameter δ (smaller = better).
	Delta float64
	// Lambda is the Poisson arrival rate, requests per time unit.
	Lambda float64
	// Service optionally overrides the shared size distribution for this
	// class (nil = use Config.Service). Per-class laws exercise the
	// PSD-vs-PDD divergence; the paper's own experiments share one law.
	Service dist.Distribution
}

// Config parametrizes one simulation run. Zero fields take the paper's
// defaults via ApplyDefaults.
type Config struct {
	Classes []ClassConfig
	// Service is the shared job-size distribution (default: the paper's
	// BP(0.1, 100, 1.5)).
	Service dist.Distribution
	// Allocator computes the per-window rate split (default core.PSD).
	Allocator core.Allocator
	// Window is the estimation/reallocation/measurement period (default
	// 1000 time units, §4.1).
	Window float64
	// HistoryWindows is the number of past windows averaged by the load
	// estimator (default 5, §4.1).
	HistoryWindows int
	// Warmup is the discarded initial period (default 10000, §4.1).
	Warmup float64
	// Horizon is the measured duration after warmup (default 60000,
	// §4.1).
	Horizon float64
	// Seed selects the replication's random streams.
	Seed uint64
	// WorkConserving redistributes idle classes' capacity among busy
	// classes GPS-style. The paper's model is strictly partitioned
	// (false), which is what the closed forms assume; true is an
	// ablation.
	WorkConserving bool
	// Oracle feeds the allocator the true arrival rates instead of the
	// estimator's measurements, isolating estimation error (§4.4
	// attributes controllability gaps at large δ ratios to it).
	Oracle bool
	// MinRate floors the rate of any class with backlog so no in-flight
	// request is stranded by a zero allocation (default 1e-4).
	MinRate float64
	// Feedback enables the multiplicative-integral controller
	// (internal/control.RatioController) that trims the δ vector handed
	// to the allocator from *measured* per-window slowdown ratios — the
	// paper's future-work extension for short-timescale predictability.
	Feedback bool
	// FeedbackGain is the controller gain in (0,1] (default 0.3).
	FeedbackGain float64
	// Estimator selects the control plane's load-smoothing strategy:
	// control.Window (the paper's §4.1 default) or control.EWMA, which
	// reacts faster after the transients LoadSchedule injects.
	Estimator control.EstimatorKind
	// EWMAAlpha is the EWMA smoothing factor in (0,1] (default 0.3);
	// only used when Estimator is control.EWMA.
	EWMAAlpha float64
	// LoadSchedule modulates the Poisson arrival rates over time as a
	// piecewise-constant phase sequence (load step, flash crowd,
	// class-mix churn — see LoadStep, FlashCrowd, ClassMixChurn). Empty
	// means stationary arrivals, the paper's model. Phase switches
	// exploit exponential memorylessness: each pending arrival is
	// redrawn at the new rate, so the process is an exact
	// piecewise-homogeneous Poisson process. Ignored by trace replay,
	// whose arrivals are externally given.
	LoadSchedule []LoadPhase
	// Admission optionally guards the door (related work §5): arrivals
	// it rejects are dropped and counted per class instead of queued.
	// Required to keep Eq. 17 feasible under sustained overload (ρ ≥ 1).
	Admission admission.Controller
	// EstimateFromWork derives the allocator's per-class arrival rates
	// from measured *work* (λ̂_i = incurred load / E[X]) instead of
	// request counts. The paper's estimator measures both (§4.1); counts
	// are the lower-variance choice for plain M/G_B/1 traffic, but any
	// size-biased admission policy (e.g. a utilization bound, which
	// sheds large jobs first) decouples the admitted count rate from the
	// admitted work rate and makes count-based ρ̂ read phantom overload —
	// pair admission control with this flag.
	EstimateFromWork bool
	// RecordRequests captures every measured request's slowdown record
	// between RecordFrom and RecordTo (absolute simulation time), for the
	// short-timescale Figures 7–8.
	RecordRequests       bool
	RecordFrom, RecordTo float64
	// Recorder, when non-nil, flight-records every control tick (λ̂,
	// rates, effective δ, failure flags) through the shared control.Loop
	// hook — the same recorder type the live server dumps at
	// /debug/control, dumpable here via psdsim -flightrec. The run resets
	// it, so one recorder holds exactly the configured replication's tail
	// of ticks. Do not share one recorder across concurrent simulators
	// (internal/sweep replications run in parallel; attach a recorder to
	// a dedicated single run instead).
	Recorder *obs.FlightRecorder
}

// ApplyDefaults fills unset fields with the paper's §4.1 values and
// returns the completed config.
func (c Config) ApplyDefaults() Config {
	if c.Service == nil {
		c.Service = dist.PaperDefault()
	}
	if c.Allocator == nil {
		c.Allocator = core.PSD{}
	}
	if c.Window == 0 {
		c.Window = 1000
	}
	if c.HistoryWindows == 0 {
		c.HistoryWindows = 5
	}
	if c.Warmup == 0 {
		c.Warmup = 10000
	}
	if c.Horizon == 0 {
		c.Horizon = 60000
	}
	if c.MinRate == 0 {
		c.MinRate = 1e-4
	}
	if c.FeedbackGain == 0 {
		c.FeedbackGain = 0.3
	}
	if c.EWMAAlpha == 0 {
		c.EWMAAlpha = 0.3
	}
	return c
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	if len(c.Classes) == 0 {
		return errors.New("simsrv: no classes configured")
	}
	for i, cl := range c.Classes {
		if !(cl.Delta > 0) {
			return fmt.Errorf("simsrv: class %d delta %v must be positive", i, cl.Delta)
		}
		if cl.Lambda < 0 || math.IsNaN(cl.Lambda) || math.IsInf(cl.Lambda, 0) {
			return fmt.Errorf("simsrv: class %d lambda %v invalid", i, cl.Lambda)
		}
	}
	if !(c.Window > 0) || !(c.Horizon > 0) || c.Warmup < 0 {
		return fmt.Errorf("simsrv: window=%v warmup=%v horizon=%v must be positive (warmup >= 0)",
			c.Window, c.Warmup, c.Horizon)
	}
	if c.HistoryWindows < 1 {
		return fmt.Errorf("simsrv: history windows %d must be >= 1", c.HistoryWindows)
	}
	if c.RecordRequests && !(c.RecordTo > c.RecordFrom) {
		return fmt.Errorf("simsrv: record range [%v, %v) empty", c.RecordFrom, c.RecordTo)
	}
	if !c.Estimator.Valid() {
		return fmt.Errorf("simsrv: unknown estimator kind %d", int(c.Estimator))
	}
	if c.EWMAAlpha != 0 && (!(c.EWMAAlpha > 0) || c.EWMAAlpha > 1) {
		return fmt.Errorf("simsrv: EWMA alpha %v must be in (0, 1]", c.EWMAAlpha)
	}
	if err := validateSchedule(c.LoadSchedule, len(c.Classes)); err != nil {
		return err
	}
	return nil
}

// EqualLoadConfig builds the paper's standard scenario: len(deltas)
// classes with the given δ values, all offering the same load, with total
// utilization rho under the given (or default) size law.
func EqualLoadConfig(deltas []float64, rho float64, service dist.Distribution) Config {
	if service == nil {
		service = dist.PaperDefault()
	}
	classes := make([]ClassConfig, len(deltas))
	perClass := rho / (float64(len(deltas)) * service.Mean())
	for i, d := range deltas {
		classes[i] = ClassConfig{Delta: d, Lambda: perClass}
	}
	return Config{Classes: classes, Service: service}
}

// RequestRecord is one measured request, for short-timescale analysis.
type RequestRecord struct {
	Class        int
	Arrival      float64
	ServiceStart float64
	Completion   float64
	Size         float64
	Slowdown     float64
}

// ClassStats aggregates one class's measured requests in one run.
type ClassStats struct {
	Count int64
	// Rejected counts arrivals dropped by the admission controller
	// (zero without one).
	Rejected     int64
	MeanSlowdown float64
	StdSlowdown  float64
	MaxSlowdown  float64
	MeanDelay    float64
	MeanService  float64
	// WindowMeans[i] is the mean slowdown of requests completing in
	// measurement window i (NaN for empty windows).
	WindowMeans []float64
}

// Result is the outcome of one replication. A Result is a reusable
// buffer: RunInto overwrites every field, reusing slice capacity, so one
// Result can absorb thousands of replications without reallocating.
type Result struct {
	Classes []ClassStats
	// SystemSlowdown is the arrival-weighted mean slowdown across
	// classes (the "achieved system slowdown" of Figure 2).
	SystemSlowdown float64
	// ExpectedSlowdowns holds the Eq. 18 model predictions under the
	// true arrival rates, for sim-vs-model comparison (NaN if the
	// allocator is not PSD or the prediction is unavailable).
	ExpectedSlowdowns []float64
	// FinalRates is the last allocation in effect.
	FinalRates []float64
	// Reallocations counts allocator invocations that succeeded.
	Reallocations int
	// AllocFailures counts windows where the allocator errored and the
	// previous rates were retained.
	AllocFailures int
	// EventsProcessed is the DES event count (for performance tracking).
	EventsProcessed uint64
	// LadderEngagedAt is the sim time the downgrading allocator's
	// degradation ladder first stepped off level 0 (NaN when the run used
	// no ladder or it never engaged). Only core.Downgrading arms the
	// ladder; see runner.reset.
	LadderEngagedAt float64
	// FirstShedAt is the sim time of the first admission rejection (NaN
	// when nothing was shed). With a ladder armed this is necessarily
	// ≥ LadderEngagedAt: the gate stays open until the ladder maxes out.
	FirstShedAt float64
	// LadderMaxedOut reports whether the ladder ended the run with every
	// rung engaged (always false without a ladder).
	LadderMaxedOut bool
	// Records holds request-level samples if Config.RecordRequests.
	Records []RequestRecord
}

// WindowRatio returns the per-window achieved slowdown ratio of class i to
// class j, skipping windows where either class has no completions. Used
// for the percentile analysis of Figures 5 and 6.
func (r *Result) WindowRatio(i, j int) []float64 {
	var out []float64
	wi, wj := r.Classes[i].WindowMeans, r.Classes[j].WindowMeans
	n := len(wi)
	if len(wj) < n {
		n = len(wj)
	}
	for k := 0; k < n; k++ {
		a, b := wi[k], wj[k]
		if math.IsNaN(a) || math.IsNaN(b) || b == 0 {
			continue
		}
		out = append(out, a/b)
	}
	return out
}

// request is a job flowing through the model. Requests are plain values:
// they live in the per-class ring queues and never touch the GC heap.
type request struct {
	class        int
	size         float64
	arrival      float64
	serviceStart float64
}

// reqQueue is a growable power-of-two ring buffer of request values.
// Steady-state push/pop never allocates; the buffer only grows while a
// queue reaches a new high-water mark, and the capacity is retained
// across replication resets.
type reqQueue struct {
	buf  []request
	head int
	n    int
}

func (q *reqQueue) len() int { return q.n }

func (q *reqQueue) reset() {
	q.head = 0
	q.n = 0
}

func (q *reqQueue) push(r request) {
	if q.n == len(q.buf) {
		q.grow()
	}
	q.buf[(q.head+q.n)&(len(q.buf)-1)] = r
	q.n++
}

func (q *reqQueue) pop() request {
	r := q.buf[q.head]
	q.head = (q.head + 1) & (len(q.buf) - 1)
	q.n--
	return r
}

func (q *reqQueue) grow() {
	newCap := 8
	if len(q.buf) > 0 {
		newCap = len(q.buf) * 2
	}
	nb := make([]request, newCap)
	for i := 0; i < q.n; i++ {
		nb[i] = q.buf[(q.head+i)&(len(q.buf)-1)]
	}
	q.buf = nb
	q.head = 0
}

// classState is one class's queue, generator streams and metrics, plus
// its task server in the fluid model. Class states live by value in the
// runner's arena; every per-class buffer (queue ring, window series) is
// retained across resets.
type classState struct {
	idx     int32 // own index, the des event payload for this class
	cfg     ClassConfig
	service dist.Distribution

	arrivalRng rng.Source
	sizeRng    rng.Source

	// queue holds the fluid model's backlog (the packetized model queues
	// in its scheduler); current is the request in service.
	queue   reqQueue
	current request
	busy    bool

	// curLambda is the phase-adjusted Poisson rate (= cfg.Lambda while no
	// LoadSchedule phase is active); nextArrival is the pending arrival
	// event, cancellable at phase switches for the memoryless redraw.
	curLambda   float64
	nextArrival des.EventID

	// rate is the allocation in effect: the nominal rate of the fluid
	// task server, or the scheduler weight last installed (packetized).
	rate       float64
	effRate    float64 // effective rate (= rate unless work-conserving)
	remaining  float64 // unfinished work of current
	lastSync   float64 // sim time when remaining was last updated
	completion des.EventID

	slow    stats.Welford
	delay   stats.Welford
	svc     stats.Welford
	windows stats.WindowSeries
	// winSlow accumulates the current reallocation window's slowdowns
	// (including warmup) as the feedback controller's input; reset at
	// every reallocation tick.
	winSlow stats.Welford
	// rejected counts arrivals dropped by the admission controller.
	rejected int64
}

// Typed event kinds dispatched through runner.HandleEvent. The data
// payload is the class index (evArrival, evCompletion) or the trace
// index (evTraceArrival).
const (
	evArrival int32 = iota
	evCompletion
	evRealloc
	evTraceArrival
	evPhase
)

// runner wires the model together for one replication. It is the single
// des.Handler for all event kinds and both server disciplines, so
// scheduling an event costs no allocation, and every buffer it owns
// survives reset() — a runner is the body of a Simulator arena.
//
// The discipline is the scheduler field. Nil selects the paper's
// partitioned fluid model: every class drains its own queue at its
// allocated rate. Non-nil selects the packetized model: one processor
// runs whole requests at full speed, the scheduler picks the next one,
// and allocations become its weights. The models differ only at the
// start of service, in completion bookkeeping and when an allocation is
// installed; arrivals, admission, the ladder, load phases, the
// reallocation tick and result collection are shared.
type runner struct {
	cfg      Config
	sim      des.Simulator
	classes  []classState
	loop     control.Loop   // the shared estimate→control→allocate plane
	total    float64        // warmup + horizon
	trace    []TraceRequest // non-nil only in trace mode
	phaseIdx int            // next LoadSchedule phase to apply

	// Packetized discipline (see above). busy reports that the single
	// processor is serving a request. The default SCFQ scheduler and the
	// stream handed to a NewScheduler factory are retained arena state.
	scheduler   sched.Scheduler
	busy        bool
	ownSCFQ     *sched.SCFQ
	ownSCFQSize int // class count ownSCFQ was built for
	schedSrc    rng.Source

	// Reallocation scratch, reused every window tick (the loop owns its
	// own estimator/allocator buffers; these feed its Tick inputs).
	allocDeltas   []float64
	allocMeasured []float64
	allocLambdas  []float64
	allocWeights  []float64 // floored scheduler weights (packetized)

	// Degradation ladder, armed only when cfg.Allocator is downgrading
	// (core.IsDowngrading): the allocation side drives admission.Ladder
	// exactly like the live server does — δ multipliers into the tick,
	// ρ̂ + feasibility back into the state machine, and the admission
	// gate held open until every rung is engaged. nil otherwise, which
	// keeps every pre-existing policy's trajectory bit-identical.
	ladder          *admission.Ladder
	ladderDeltas    []float64 // deltas the retained ladder was built for
	ladderScale     []float64 // per-class δ multipliers fed to the tick
	ladderLoads     []float64 // per-class ρ̂ scratch for Observe
	ladderEngagedAt float64   // first time off level 0 (NaN = never)
	firstShedAt     float64   // first admission rejection (NaN = never)

	reallocOK   int
	reallocFail int
	records     []RequestRecord
}

// HandleEvent dispatches one fired event. It preserves the exact
// schedule-call ordering of the closure-based engine so that seeded
// replications reproduce bit-for-bit across the refactor (see
// TestGoldenDeterminism).
func (r *runner) HandleEvent(kind, data int32) {
	switch kind {
	case evArrival:
		r.onArrival(int(data))
	case evCompletion:
		cs := &r.classes[data]
		cs.completion = des.None
		r.finishService(cs)
	case evRealloc:
		r.onRealloc()
	case evTraceArrival:
		r.onTraceArrival(int(data))
	case evPhase:
		r.onPhase()
	}
}

// resizeFloat returns a length-n float slice reusing s's capacity.
// Contents are unspecified; callers overwrite every element.
func resizeFloat(s []float64, n int) []float64 {
	if cap(s) < n {
		return make([]float64, n)
	}
	return s[:n]
}

// floatsEqual reports exact element-wise equality (ladder-reuse check).
func floatsEqual(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// reset re-arms the runner for one replication of cfg (already defaulted
// and validated) with the given workload moments, reusing every retained
// buffer. pc selects the packetized discipline (nil for the fluid
// model). A reset runner is observationally identical to a freshly
// constructed one: the RNG streams are re-derived from cfg.Seed and the
// event core restarts its sequence numbering, so seeded replications stay
// bit-for-bit reproducible across arena reuse.
func (r *runner) reset(cfg Config, w core.Workload, pc *PacketizedConfig) error {
	r.cfg = cfg
	r.total = cfg.Warmup + cfg.Horizon
	r.trace = nil
	r.phaseIdx = 0
	r.sim.Reset()
	r.busy = false
	r.reallocOK = 0
	r.reallocFail = 0
	r.records = r.records[:0]

	nc := len(cfg.Classes)
	if cap(r.classes) < nc {
		old := r.classes
		r.classes = make([]classState, nc)
		copy(r.classes, old) // keep the retained queue/window buffers
	} else {
		r.classes = r.classes[:nc]
	}
	var src rng.Source
	src.Reseed(cfg.Seed)
	switch {
	case pc == nil:
		r.scheduler = nil
	case pc.NewScheduler != nil:
		// Re-derive the scheduler stream into a retained Source so a
		// factory that returns a retained scheduler keeps the reset
		// allocation-free (same derived state as src.Split(1000)).
		src.SplitInto(&r.schedSrc, 1000)
		r.scheduler = pc.NewScheduler(nc, &r.schedSrc)
	case r.ownSCFQ != nil && r.ownSCFQSize == nc:
		r.ownSCFQ.Reset()
		r.scheduler = r.ownSCFQ
	default:
		r.ownSCFQ = sched.NewSCFQ(nc)
		r.ownSCFQSize = nc
		r.scheduler = r.ownSCFQ
	}
	for i := range r.classes {
		cs := &r.classes[i]
		cc := cfg.Classes[i]
		svc := cc.Service
		if svc == nil {
			svc = cfg.Service
		}
		cs.idx = int32(i)
		cs.cfg = cc
		cs.service = svc
		src.SplitInto(&cs.arrivalRng, uint64(2*i+1))
		src.SplitInto(&cs.sizeRng, uint64(2*i+2))
		cs.queue.reset()
		cs.current = request{}
		cs.busy = false
		cs.curLambda = cc.Lambda
		cs.nextArrival = des.None
		cs.rate = 0
		cs.effRate = 0
		cs.remaining = 0
		cs.lastSync = 0
		cs.completion = des.None
		cs.slow = stats.Welford{}
		cs.delay = stats.Welford{}
		cs.svc = stats.Welford{}
		cs.winSlow = stats.Welford{}
		cs.windows.Width = cfg.Window
		cs.windows.Reset()
		cs.rejected = 0
	}
	r.allocDeltas = resizeFloat(r.allocDeltas, nc)
	r.allocMeasured = resizeFloat(r.allocMeasured, nc)
	r.allocLambdas = resizeFloat(r.allocLambdas, nc)
	r.allocWeights = resizeFloat(r.allocWeights, nc)
	for i, cc := range cfg.Classes {
		r.allocDeltas[i] = cc.Delta
	}
	// Note: with per-class service overrides the shared-law assumption of
	// Eq. 17 is already broken; the loop still gets the Config.Service
	// moments, which is precisely the mismatch the feedback ablation
	// studies.
	if err := r.loop.Reset(control.LoopConfig{
		Deltas:           r.allocDeltas,
		Window:           cfg.Window,
		Estimator:        cfg.Estimator,
		HistoryWindows:   cfg.HistoryWindows,
		EWMAAlpha:        cfg.EWMAAlpha,
		Allocator:        cfg.Allocator,
		Workload:         w,
		EstimateFromWork: cfg.EstimateFromWork,
		Feedback:         cfg.Feedback,
		FeedbackGain:     cfg.FeedbackGain,
		Recorder:         cfg.Recorder,
	}); err != nil {
		return err
	}

	// A downgrading allocator arms the degradation ladder (default
	// rungs/hysteresis, the live server's dimensioning); everything else
	// clears it so pre-existing policies keep their exact trajectories.
	// The ladder itself is retained across replications of the same class
	// vector — a reset replays thousands of reps without reallocating.
	r.ladderEngagedAt = math.NaN()
	r.firstShedAt = math.NaN()
	if core.IsDowngrading(cfg.Allocator) {
		if r.ladder != nil && floatsEqual(r.ladderDeltas, r.allocDeltas) {
			r.ladder.Reset()
		} else {
			ld, err := admission.NewLadder(admission.LadderConfig{}, r.allocDeltas)
			if err != nil {
				return err
			}
			r.ladder = ld
			r.ladderDeltas = resizeFloat(r.ladderDeltas, nc)
			copy(r.ladderDeltas, r.allocDeltas)
		}
		r.ladderScale = resizeFloat(r.ladderScale, nc)
		r.ladderLoads = resizeFloat(r.ladderLoads, nc)
	} else {
		r.ladder = nil
	}

	// Initial rates: the operator provisions from the declared arrival
	// rates (the estimator has no history yet); thereafter measurements
	// drive reallocation. Any error (e.g. declared overload or all-zero
	// lambdas) falls back to an equal split — the warmup discards the
	// transient either way.
	declared := r.allocLambdas // scratch; overwritten at the first tick
	for i, cc := range cfg.Classes {
		declared[i] = cc.Lambda
	}
	rates := declared
	if a, err := r.loop.AllocateDeclared(declared); err == nil {
		rates = a.Rates
	} else {
		for i := range declared {
			declared[i] = 1 / float64(nc)
		}
	}
	return r.install(rates)
}

// start schedules a replication's first events, in a fixed order:
// arrivals (Poisson or trace), the first reallocation tick, the first
// LoadSchedule phase switch.
func (r *runner) start() {
	if r.trace != nil {
		r.scheduleTrace(0)
	} else {
		for i := range r.classes {
			r.scheduleNextArrival(i)
		}
	}
	r.scheduleReallocation()
	r.scheduleNextPhase()
}

func (r *runner) scheduleNextArrival(i int) {
	cs := &r.classes[i]
	cs.nextArrival = des.None
	if cs.curLambda <= 0 {
		return
	}
	delay := cs.arrivalRng.ExpFloat64(cs.curLambda)
	cs.nextArrival = r.sim.Schedule(delay, r, evArrival, cs.idx)
}

// onArrival handles one Poisson arrival for class i: sample a size, pass
// the admission gate, enqueue, possibly start service, and schedule the
// next arrival of the class.
func (r *runner) onArrival(i int) {
	cs := &r.classes[i]
	now := r.sim.Now()
	size := cs.service.Sample(&cs.sizeRng)
	// With a degradation ladder armed, the admission gate stays open
	// until every rung is engaged — degrade first, shed only when
	// degradation has nothing left to give (same ordering as the live
	// server's admit path).
	if r.cfg.Admission != nil && (r.ladder == nil || r.ladder.MaxedOut()) &&
		!r.cfg.Admission.Admit(i, size, now) {
		cs.rejected++
		if math.IsNaN(r.firstShedAt) {
			r.firstShedAt = now
		}
		r.scheduleNextArrival(i)
		return
	}
	r.enqueue(cs, size, now)
	r.scheduleNextArrival(i)
}

// enqueue feeds an admitted request to the estimator and the server, and
// starts serving it when the server is idle.
func (r *runner) enqueue(cs *classState, size, now float64) {
	r.loop.Observe(int(cs.idx), size)
	if r.scheduler != nil {
		r.scheduler.Enqueue(sched.Job{Class: int(cs.idx), Size: size, Arrival: now})
		if !r.busy {
			r.dispatch()
		}
		return
	}
	cs.queue.push(request{class: int(cs.idx), size: size, arrival: now})
	if !cs.busy {
		r.startService(cs)
		if r.cfg.WorkConserving {
			r.recomputeEffectiveRates()
		}
	}
}

// startService moves the head-of-line request into fluid service.
// Callers must ensure the class is idle and the queue non-empty.
func (r *runner) startService(cs *classState) {
	req := cs.queue.pop()
	req.serviceStart = r.sim.Now()
	cs.current = req
	cs.busy = true
	cs.remaining = req.size
	cs.lastSync = r.sim.Now()
	r.scheduleCompletion(cs)
}

// syncRemaining folds elapsed service into the remaining-work counter.
func (r *runner) syncRemaining(cs *classState) {
	if !cs.busy {
		return
	}
	elapsed := r.sim.Now() - cs.lastSync
	if elapsed > 0 && cs.effRate > 0 {
		cs.remaining -= elapsed * cs.effRate
		if cs.remaining < 0 {
			cs.remaining = 0
		}
	}
	cs.lastSync = r.sim.Now()
}

// scheduleCompletion (re)schedules the in-service request's completion
// from the current remaining work and effective rate.
func (r *runner) scheduleCompletion(cs *classState) {
	if cs.completion != des.None {
		r.sim.Cancel(cs.completion)
		cs.completion = des.None
	}
	if !cs.busy {
		return
	}
	if cs.effRate <= 0 {
		// Starved: no completion until a rate change revives the class.
		return
	}
	dt := cs.remaining / cs.effRate
	cs.completion = r.sim.Schedule(dt, r, evCompletion, cs.idx)
}

func (r *runner) finishService(cs *classState) {
	now := r.sim.Now()
	req := cs.current
	cs.busy = false
	cs.remaining = 0

	delay := req.serviceStart - req.arrival
	var service, slowdown float64
	if r.scheduler != nil {
		// Full-speed service: the request held the processor for exactly
		// its size.
		service = req.size
		slowdown = delay / req.size
	} else {
		service = now - req.serviceStart
		if service > 0 {
			slowdown = delay / service
		}
	}
	cs.winSlow.Add(slowdown)
	if now >= r.cfg.Warmup {
		cs.slow.Add(slowdown)
		cs.delay.Add(delay)
		cs.svc.Add(service)
		cs.windows.Observe(now-r.cfg.Warmup, slowdown)
		if r.cfg.RecordRequests && now >= r.cfg.RecordFrom && now < r.cfg.RecordTo {
			r.records = append(r.records, RequestRecord{
				Class: req.class, Arrival: req.arrival,
				ServiceStart: req.serviceStart, Completion: now,
				Size: req.size, Slowdown: slowdown,
			})
		}
	}

	switch {
	case r.scheduler != nil:
		r.dispatch()
	case cs.queue.len() > 0:
		r.startService(cs)
	case r.cfg.WorkConserving:
		r.recomputeEffectiveRates()
	}
}

// install puts a new allocation into effect: the fluid model reschedules
// its in-flight completions at the new rates, the packetized model hands
// the vector to its scheduler as weights.
func (r *runner) install(rates []float64) error {
	if r.scheduler != nil {
		return r.setWeights(rates)
	}
	r.applyRates(rates)
	return nil
}

// applyRates installs a new nominal rate vector, flooring backlogged
// classes at MinRate, and reschedules all in-flight completions.
func (r *runner) applyRates(rates []float64) {
	for i := range r.classes {
		cs := &r.classes[i]
		r.syncRemaining(cs)
		rate := rates[i]
		if rate < r.cfg.MinRate && (cs.busy || cs.queue.len() > 0) {
			rate = r.cfg.MinRate
		}
		cs.rate = rate
	}
	r.recomputeEffectiveRates()
}

// recomputeEffectiveRates refreshes every class's effective service rate
// and reschedules completions. In partitioned mode eff = nominal. In
// work-conserving mode the whole capacity is redistributed GPS-style among
// busy classes in proportion to their nominal rates.
func (r *runner) recomputeEffectiveRates() {
	if !r.cfg.WorkConserving {
		for i := range r.classes {
			cs := &r.classes[i]
			r.syncRemaining(cs)
			if cs.effRate != cs.rate {
				cs.effRate = cs.rate
			}
			r.scheduleCompletion(cs)
		}
		return
	}
	busyRate := 0.0
	numBusy := 0
	for i := range r.classes {
		cs := &r.classes[i]
		if cs.busy {
			busyRate += cs.rate
			numBusy++
		}
	}
	for i := range r.classes {
		cs := &r.classes[i]
		r.syncRemaining(cs)
		switch {
		case !cs.busy:
			cs.effRate = cs.rate
		case busyRate > 0:
			cs.effRate = cs.rate / busyRate
		default:
			cs.effRate = 1 / float64(numBusy)
		}
		r.scheduleCompletion(cs)
	}
}

// scheduleReallocation ticks the estimator and allocator every Window.
func (r *runner) scheduleReallocation() {
	r.sim.Schedule(r.cfg.Window, r, evRealloc, 0)
}

// onRealloc drives one tick of the shared control plane: feed it this
// window's measured slowdowns (feedback mode) and the true rates (oracle
// mode), let control.Loop close the estimation window and re-run the
// allocator, and install the resulting rates. The loop owns every buffer
// it needs, so a window tick performs no steady-state allocation at all.
func (r *runner) onRealloc() {
	var in control.TickInput
	if r.cfg.Feedback {
		measured := r.allocMeasured
		for i := range r.classes {
			cs := &r.classes[i]
			if cs.winSlow.N() > 0 {
				measured[i] = cs.winSlow.Mean()
			} else {
				measured[i] = math.NaN()
			}
			cs.winSlow = stats.Welford{}
		}
		in.MeasuredSlowdowns = measured
	}
	if r.cfg.Oracle {
		oracle := r.allocLambdas
		for i := range r.classes {
			oracle[i] = r.classes[i].curLambda
		}
		in.OracleLambdas = oracle
	}
	if r.ladder != nil {
		r.ladder.ScaleInto(r.ladderScale)
		in.DeltaScale = r.ladderScale
		if r.ladder.Engaged() {
			// While degraded the ratio controller must not fight the
			// ladder (it trims toward the base targets the ladder is
			// deliberately scaling away from): skip its update this tick.
			in.MeasuredSlowdowns = nil
		}
	}
	rates, err := r.loop.Tick(in)
	if err == nil {
		err = r.install(rates)
	}
	if err == nil {
		r.reallocOK++
	} else {
		// Transient estimate infeasibility (ρ̂ ≥ 1 at very high loads)
		// or weights the scheduler refused: retain the previous
		// allocation for this window.
		r.reallocFail++
	}
	if r.ladder != nil {
		// Feed ρ̂ (+ feasibility) back into the degradation state
		// machine, mirroring the live server's tick.
		r.loop.LoadsInto(r.ladderLoads)
		rho := 0.0
		for _, l := range r.ladderLoads {
			rho += l
		}
		r.ladder.Observe(rho, errors.Is(err, core.ErrInfeasible))
		if math.IsNaN(r.ladderEngagedAt) && r.ladder.Engaged() {
			r.ladderEngagedAt = r.sim.Now()
		}
	}
	if r.sim.Now() < r.total {
		r.scheduleReallocation()
	}
}

// scheduleNextPhase arms the next LoadSchedule phase switch, if any lies
// within the run. Trace replay ignores the schedule: its arrivals are
// given.
func (r *runner) scheduleNextPhase() {
	if r.trace != nil || r.phaseIdx >= len(r.cfg.LoadSchedule) {
		return
	}
	next := r.cfg.LoadSchedule[r.phaseIdx]
	if next.Start > r.total {
		return
	}
	r.sim.ScheduleAt(next.Start, r, evPhase, 0)
}

// onPhase applies one LoadSchedule phase: rescale every class's arrival
// rate and redraw its pending arrival at the new rate (exact for Poisson
// processes by memorylessness — the residual exponential wait under the
// new rate is a fresh draw).
func (r *runner) onPhase() {
	ph := r.cfg.LoadSchedule[r.phaseIdx]
	r.phaseIdx++
	for i := range r.classes {
		cs := &r.classes[i]
		cs.curLambda = cs.cfg.Lambda * ph.scaleFor(i)
		if cs.nextArrival != des.None {
			r.sim.Cancel(cs.nextArrival)
			cs.nextArrival = des.None
		}
		r.scheduleNextArrival(i)
	}
	r.scheduleNextPhase()
}

// collectInto assembles the Result, reusing res's slice capacity.
func (r *runner) collectInto(res *Result) {
	nc := len(r.classes)
	if cap(res.Classes) < nc {
		res.Classes = make([]ClassStats, nc)
	} else {
		res.Classes = res.Classes[:nc]
	}
	res.ExpectedSlowdowns = resizeFloat(res.ExpectedSlowdowns, nc)
	res.FinalRates = resizeFloat(res.FinalRates, nc)
	res.Reallocations = r.reallocOK
	res.AllocFailures = r.reallocFail
	res.EventsProcessed = r.sim.Processed()
	res.SystemSlowdown = 0
	res.LadderEngagedAt = r.ladderEngagedAt
	res.FirstShedAt = r.firstShedAt
	res.LadderMaxedOut = r.ladder != nil && r.ladder.MaxedOut()
	// Hand the accumulated records to the Result and adopt its buffer
	// for the next replication (ping-pong, so neither side reallocates).
	r.records, res.Records = res.Records[:0], r.records

	numWindows := int(math.Ceil(r.cfg.Horizon / r.cfg.Window))
	var sysSlow, sysCount float64
	for i := range r.classes {
		cs := &r.classes[i]
		st := &res.Classes[i]
		st.Count = cs.slow.N()
		st.Rejected = cs.rejected
		st.MeanSlowdown = cs.slow.Mean()
		st.StdSlowdown = cs.slow.Std()
		st.MaxSlowdown = cs.slow.Max()
		st.MeanDelay = cs.delay.Mean()
		st.MeanService = cs.svc.Mean()
		st.WindowMeans = resizeFloat(st.WindowMeans, numWindows)
		for wi := 0; wi < numWindows; wi++ {
			if m, ok := cs.windows.WindowMean(wi); ok {
				st.WindowMeans[wi] = m
			} else {
				st.WindowMeans[wi] = math.NaN()
			}
		}
		if st.Count > 0 {
			sysSlow += st.MeanSlowdown * float64(st.Count)
			sysCount += float64(st.Count)
		}
		res.FinalRates[i] = cs.rate
	}
	if sysCount > 0 {
		res.SystemSlowdown = sysSlow / sysCount
	}
	// Model predictions under true (declared, base-phase) demand — Eq. 18
	// when PSD; otherwise Theorem 1 at the allocator's own rates.
	declared := r.allocLambdas
	for i, cc := range r.cfg.Classes {
		declared[i] = cc.Lambda
	}
	if a, err := r.loop.AllocateDeclared(declared); err == nil {
		copy(res.ExpectedSlowdowns, a.ExpectedSlowdowns)
	} else {
		for i := range res.ExpectedSlowdowns {
			res.ExpectedSlowdowns[i] = math.NaN()
		}
	}
}
