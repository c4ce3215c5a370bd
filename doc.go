// Package psd reproduces "Processing Rate Allocation for Proportional
// Slowdown Differentiation on Internet Servers" (Zhou, Wei, Xu — IPDPS
// 2004) as a production-quality Go library.
//
// # The problem
//
// Slowdown — a request's queueing delay divided by its service time — is
// the natural responsiveness metric for servers handling jobs of wildly
// different sizes: clients expect small requests to come back fast and
// tolerate proportionally longer waits for big ones. Proportional
// slowdown differentiation (PSD) keeps the *ratio* of average slowdowns
// between service classes pinned to operator-chosen parameters δ_i,
// independent of load:
//
//	E[S_i] / E[S_j] = δ_i / δ_j
//
// # The paper's solution, reproduced here
//
// Partition the server's capacity among per-class FCFS task servers. For
// M/G_B/1 traffic (Poisson arrivals, Bounded Pareto sizes) the expected
// slowdown of a task server has the closed form (Theorem 1)
//
//	E[S_i] = λ_i·E[X²]·E[1/X] / (2(r_i − λ_i·E[X]))
//
// and the rate vector (Eq. 17)
//
//	r_i = λ_i·E[X] + (λ_i/δ_i)·(1 − ρ)/Σ_j(λ_j/δ_j)
//
// yields exactly proportional slowdowns. This module implements the
// closed forms, the allocator, the paper's simulation model, a real
// net/http server applying the strategy, every substrate they need
// (random streams, heavy-tailed distributions, a DES engine,
// proportional-share schedulers, load estimators), and a harness that
// regenerates all eleven evaluation figures.
//
// # Layout
//
// This root package is a thin facade over the implementation packages:
//
//	internal/core      Eq. 17 allocator (the contribution) + the policy
//	                   zoo: a registry (Register/Parse/Names) of rival
//	                   allocation policies — baselines, the logarithmic-
//	                   weight allocator, the degradation-aware downgrading
//	                   allocator, heSRPT weights — with per-policy
//	                   capability flags (analytic-eligible, needs-size-
//	                   info, degradation-aware)
//	internal/queueing  Lemma 1/2, Theorem 1, Eq. 15 closed forms
//	internal/dist      job-size laws (Bounded Pareto & friends) with
//	                   closed-form E[X], E[X²], E[1/X] and seeded samplers
//	internal/rng       xoshiro256** PRNG with split/jump substreams
//	internal/des       allocation-free discrete-event core: 4-ary value
//	                   heap, generation-checked EventID handles, typed
//	                   (Handler, kind, data) dispatch
//	internal/stats     streaming moments, histograms, P² quantiles
//	internal/sched     GPS/WFQ/DRR/WRR/Lottery substrate + the size-aware
//	                   heSRPT (weighted shortest-job-first) discipline
//	internal/control   the shared control plane: one allocation-free
//	                   estimate→control→allocate Loop (window | EWMA
//	                   estimation, optional feedback trim) driven by both
//	                   the simulator and the live HTTP server
//	internal/admission overload protection complementing differentiation
//	                   (utilization bound, per-class token bucket), shared
//	                   by the simulator and the live server's pre-queue gate,
//	                   plus the graceful-degradation ladder (scale per-class
//	                   δ targets through rungs before shedding, hysteresis
//	                   recovery)
//	internal/chaos     seeded deterministic fault injection for the live
//	                   path: worker stalls, service spikes, corrupted tick
//	                   inputs, dropped/late ticks, clock jumps, slow-loris
//	                   clients — per-site rng streams, nil-safe hooks,
//	                   zero cost when absent
//	internal/analytic  closed-form steady-state evaluator (Theorem 1 at
//	                   the allocated rates): exact slowdowns/ratios for
//	                   stationary fixed-rate points in ~100ns with zero
//	                   allocations, ErrNeedsSimulation for everything else
//	internal/simsrv    the paper's simulation model (Fig. 1) as a
//	                   reusable arena: one event loop with two server
//	                   disciplines (partitioned fluid, or packetized
//	                   behind a sched.Scheduler), Simulator
//	                   Reset/RunInto, and the ordered worker pipeline
//	                   with streaming replication aggregation
//	internal/sweep     scenario-grid engine: (point, replication) task
//	                   queue over a pool of per-worker arenas, with an
//	                   Engine.Kind router (DES | Auto | Analytic) that
//	                   sends analytic-eligible points to closed forms,
//	                   plus the policy axis (Point.Policy, Tournament)
//	                   that races registered policies over one grid
//	internal/obs       allocation-free observability: atomic metrics
//	                   registry with log₂ histograms, Prometheus text
//	                   exposition, control-plane flight recorder
//	internal/workload  session-based e-commerce request streams
//	internal/loadgen   open-loop Poisson HTTP load driver with phased
//	                   (load-step) schedules and per-phase reports
//	internal/httpsrv   PSD on a real net/http server: a lock-free sharded
//	                   front door (atomic epoch-versioned rate publication,
//	                   striped Swap-drained window accounting, pooled jobs,
//	                   N pacing workers per class), rate-change-aware
//	                   worker pacing (GPS fluid model under rate churn),
//	                   pluggable admission gate, overload-honest estimation,
//	                   guarded control inputs, stale-tick watchdog, and the
//	                   degrade-before-shed ladder
//	internal/figures   Figures 2–12 regeneration (on internal/sweep) plus
//	                   the beyond-paper estimator transient (13) and
//	                   policy tournament (14) studies
//
// Start with AllocateRates for the analytic strategy, Simulate for the
// paper's experiment rig, or internal/httpsrv for a live server. The
// runnable examples under examples/ walk through each.
//
// # Performance
//
// Every paper result averages 100 replications of a 70,000-time-unit
// simulation, so events/sec of internal/des bounds how many scenarios
// the harness can explore — and every figure is a grid of such scenario
// points, which internal/sweep shards across a pool of reusable
// simulation arenas (simsrv.Simulator) with streaming Welford+P²
// aggregation. BenchmarkReplication (root package) runs full
// paper-fidelity replications through one arena and gates allocs/event
// (< 0.01, both server models) and allocs/replication (< 10);
// BenchmarkFigureSweep tracks full-figure throughput; cmd/psdbench runs
// the same scenarios — plus control-tick and obs-hotpath scenarios
// gating the shared control plane and the fully instrumented request
// path (metrics + flight recorder) at zero allocations, and a
// live-contention scenario storming the live server's sharded front
// door at GOMAXPROCS=1 vs min(NumCPU,8) with core-aware speedup and
// 0.01 allocs/request gates, and an analytic-sweep scenario gating the
// closed-form fast path (internal/analytic via the sweep router) at
// >= 100x over the DES sweep and < 0.01 allocs/point — writes the
// committed BENCH_psd.json baseline, and in -compare mode turns
// regressions into non-zero exits (CI runs it).
// For stationary fixed-rate points, EvaluateAnalytic (or -engine auto
// on the CLIs) skips simulation entirely and returns the paper's
// closed forms exactly.
// Seeded replications are reproducible bit-for-bit across engine
// versions and across arena reuse — the golden tests in internal/simsrv
// pin exact trajectories.
package psd
