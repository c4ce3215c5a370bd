package main

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand/v2"
	"net"
	"net/http"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"

	"psd/internal/core"
	"psd/internal/dist"
	"psd/internal/httpsrv"
)

// live is one running server: httpsrv behind net/http, speaking
// unencrypted HTTP/2 on a loopback port, plus the client that drives it.
type live struct {
	srv    *httpsrv.Server
	hs     *http.Server
	served chan error
	base   string
	cl     *client
}

// serverConfig is psdserver's default configuration (δ = (1, 2), the
// paper's Bounded Pareto, PSD allocation, window 100) at timeUnit.
func serverConfig(timeUnit time.Duration, seed uint64) (httpsrv.Config, error) {
	svc, err := dist.NewBoundedPareto(0.1, 100, 1.5)
	if err != nil {
		return httpsrv.Config{}, err
	}
	alloc, err := core.Parse("psd")
	if err != nil {
		return httpsrv.Config{}, err
	}
	return httpsrv.Config{
		Deltas:    []float64{1, 2},
		Service:   svc,
		Allocator: alloc,
		TimeUnit:  timeUnit,
		Window:    100,
		Seed:      seed,
	}, nil
}

// connCount is the number of client connections: no more than the
// processors the run may use.
func connCount() int { return min(runtime.GOMAXPROCS(0), runtime.NumCPU()) }

// startLive builds the server, serves it and connects the client: one
// request per connection completes before it returns.
func startLive(cfg httpsrv.Config, timeout time.Duration) (*live, error) {
	srv, err := httpsrv.New(cfg)
	if err != nil {
		return nil, fmt.Errorf("httpsrv.New: %w", err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return nil, fmt.Errorf("listen: %w", err)
	}
	var p http.Protocols
	p.SetUnencryptedHTTP2(true)
	l := &live{
		srv: srv,
		hs: &http.Server{
			Handler:   srv.Mux(),
			Protocols: &p,
			// Queues form in the class queues, not in the stream limit.
			HTTP2: &http.HTTP2Config{MaxConcurrentStreams: 1 << 16},
		},
		served: make(chan error, 1),
		base:   "http://" + ln.Addr().String(),
	}
	go func() { l.served <- l.hs.Serve(ln) }()
	l.cl = newClient(connCount(), timeout, srv)
	for i := range l.cl.conns {
		ctx, cancel := context.WithTimeout(context.Background(), timeout)
		_, status, err := l.cl.get(ctx, i, l.base+"/?class=0&size=0.01")
		cancel()
		if err == nil && status != http.StatusOK {
			err = fmt.Errorf("status %d", status)
		}
		if err != nil {
			l.close()
			return nil, fmt.Errorf("first request: %w", err)
		}
	}
	return l, nil
}

func (l *live) close() {
	l.cl.close()
	_ = l.hs.Close() // the Serve error below is what matters
	l.srv.Close()
	if err := <-l.served; err != nil && !errors.Is(err, http.ErrServerClosed) {
		fmt.Printf("serve: %v\n", err)
	}
}

// setupLive starts the server setupRounds times and keeps the last one;
// it returns the median set-up time.
func setupLive(cfg httpsrv.Config, timeout time.Duration) (*live, float64, error) {
	var times []float64
	var l *live
	for r := range setupRounds {
		t0 := time.Now()
		var err error
		l, err = startLive(cfg, timeout)
		if err != nil {
			return nil, 0, err
		}
		times = append(times, time.Since(t0).Seconds())
		if r < setupRounds-1 {
			l.close()
		}
	}
	return l, median(times), nil
}

// scraper reads /metrics/prom once a period, as a monitoring system
// would, beside the request traffic.
type scraper struct {
	mu       sync.Mutex
	times    []float64 // ms per scrape
	maxDepth float64
	failed   int
	bad      string
}

func (s *scraper) loop(l *live, every time.Duration, stop <-chan struct{}, traced *bool) {
	t := time.NewTicker(every)
	defer t.Stop()
	for {
		select {
		case <-stop:
			return
		case <-t.C:
		}
		t0 := time.Now()
		ctx, cancel := context.WithTimeout(context.Background(), l.cl.timeout)
		body, status, err := l.cl.get(ctx, 0, l.base+"/metrics/prom")
		cancel()
		t1 := time.Now()
		s.mu.Lock()
		switch {
		case err != nil || status != http.StatusOK:
			s.failed++
		case !bytes.Contains(body, []byte("psd_reallocations_total")):
			s.bad = "scrape lacks psd_reallocations_total"
		default:
			s.times = append(s.times, ms(t1.Sub(t0)))
			s.maxDepth = max(s.maxDepth, promSum(body, "psd_class_queue_depth{"))
			if *traced {
				l.cl.tr.record(l.cl.tr.newID(), 0, "obs.scrape", t0, t1)
			}
		}
		s.mu.Unlock()
	}
}

// promSum adds the values of every sample line starting with prefix.
func promSum(body []byte, prefix string) float64 {
	var sum float64
	sc := bufio.NewScanner(bytes.NewReader(body))
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, prefix) {
			continue
		}
		if i := strings.LastIndexByte(line, ' '); i >= 0 {
			if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
				sum += v
			}
		}
	}
	return sum
}

// phase is the client-side summary of the calls of one measured stretch.
type phase struct {
	calls   []call
	outs    []outcome
	span    time.Duration // how long the schedule offers load
	cpu     time.Duration // process CPU from the first send to the last reply
	goDelta goCounters
}

// drive runs calls and measures the process around them.
func drive(l *live, calls []call, span time.Duration, traced bool, maxInFlight int64) phase {
	c0, g0 := cpuTime(), readGoCounters()
	outs := l.cl.run(calls, traced, maxInFlight)
	g1 := readGoCounters()
	return phase{
		calls: calls, outs: outs, span: span,
		cpu:     cpuTime() - c0,
		goDelta: goCounters{mallocs: g1.mallocs - g0.mallocs, gcs: g1.gcs - g0.gcs},
	}
}

// phaseStats are the derived numbers of one phase.
type phaseStats struct {
	n, sent, ok, failed     int // offered, sent, answered, failed
	sentOnTime              int
	p50, p99                float64 // client latency from due, ms
	slowdown, ratioErr      float64 // client-observed
	srvRatioErr             float64 // from server-reported slowdowns
	lateP99                 float64
	ovhP50, ovhP99          float64 // rtt − delay − service, ms
	queueP50, queueP99      float64 // server-reported delay, ms
	overshootP99            float64 // µs
	cpuPerReq, allocsPerReq float64
	throughput              float64 // ok replies per offered second
	firstBad                string
}

func (p *phase) stats(deltas []float64, timeUnit time.Duration) phaseStats {
	st := phaseStats{n: len(p.calls)}
	var lat, late, ovh, queue, over []float64
	var cliSlow, srvSlow [2][]float64
	for i, o := range p.outs {
		c := &p.calls[i]
		if !o.sent {
			continue
		}
		st.sent++
		late = append(late, ms(o.late))
		if c.due+o.late <= p.span {
			st.sentOnTime++
		}
		if !o.ok {
			st.failed++
			if o.bad != "" && st.firstBad == "" {
				st.firstBad = o.bad
			}
			continue
		}
		st.ok++
		r := &o.resp
		lat = append(lat, ms(o.latency))
		ovh = append(ovh, ms(o.rtt)-r.DelayMs-r.ServiceMs)
		queue = append(queue, r.DelayMs)
		if r.ServiceMs > 0 {
			cliSlow[c.class] = append(cliSlow[c.class], (ms(o.latency)-r.ServiceMs)/r.ServiceMs)
			srvSlow[c.class] = append(srvSlow[c.class], r.Slowdown)
		}
		if o.stable && o.rate > 0 {
			want := c.size * float64(timeUnit) / o.rate
			over = append(over, (r.ServiceMs*float64(time.Millisecond)-want)/float64(time.Microsecond))
		}
	}
	st.p50, st.p99 = quantile(lat, 0.5), quantile(lat, 0.99)
	st.slowdown = mean(append(append([]float64(nil), cliSlow[0]...), cliSlow[1]...))
	st.ratioErr = ratioErr(mean(cliSlow[0]), mean(cliSlow[1]), deltas[0], deltas[1])
	st.srvRatioErr = ratioErr(mean(srvSlow[0]), mean(srvSlow[1]), deltas[0], deltas[1])
	st.lateP99 = quantile(late, 0.99)
	st.ovhP50, st.ovhP99 = quantile(ovh, 0.5), quantile(ovh, 0.99)
	st.queueP50, st.queueP99 = quantile(queue, 0.5), quantile(queue, 0.99)
	st.overshootP99 = quantile(over, 0.99)
	if st.sent > 0 {
		st.cpuPerReq = float64(p.cpu.Microseconds()) / float64(st.sent)
		st.allocsPerReq = float64(p.goDelta.mallocs) / float64(st.sent)
	}
	st.throughput = float64(st.ok) / p.span.Seconds()
	return st
}

// checkPhase records the phase's output checks in rep.
func checkPhase(rep *report, name string, p *phase, st phaseStats) {
	rep.attempted += int64(st.sent)
	rep.failed += int64(st.failed)
	rep.check(name+": every 200 echoes class and size, and 0 <= delay+service <= client latency", st.firstBad == "", st.firstBad)
	rep.check(name+": sent = ok + failed", st.ok+st.failed == st.sent, fmt.Sprintf("offered %d, sent %d, ok %d, failed %d", st.n, st.sent, st.ok, st.failed))
}

// serverLayers records the per-layer numbers read from the server's
// metrics document, and checks the client's connection count.
func serverLayers(rep *report, l *live, window float64, timeUnit time.Duration) {
	doc := l.srv.Snapshot()
	periods := doc.UptimeSeconds / (window * timeUnit.Seconds())
	rep.layer("control.tick_share", float64(doc.Reallocations)/periods)
	rep.layer("control.alloc_failures", float64(doc.AllocFailures))
	rep.layer("control.stale_ticks", float64(doc.WatchdogStaleTicks))
	var rejected int64
	for _, c := range doc.Classes {
		rejected += c.RejectedAdmission + c.RejectedQueueFull
	}
	rep.layer("admission.rejected", float64(rejected))
	dials := l.cl.dials.Load()
	rep.check("client used at most one TCP connection per processor", dials <= int64(len(l.cl.conns)),
		fmt.Sprintf("%d dials for %d connections", dials, len(l.cl.conns)))
}

const (
	psdRho        = 0.7
	psdTimeUnit   = 10 * time.Millisecond
	psdWarmup     = 6 * time.Second
	psdTimeout    = 30 * time.Second
	psdBlockPairs = 120 // about one second of arrival pairs
	scrapeEvery   = time.Second
	setupRounds   = 7
	ovhTimeUnit   = time.Millisecond
	ovhSize       = 0.01
	ovhRefRate    = 4000.0
	ovhFirstStep  = 4000.0
	ovhStepFactor = 1.5
	ovhMaxSteps   = 12
	ovhBisections = 2
	ovhBursts     = 8
	ovhBurstRate  = 40000.0
	ovhPause      = 300 * time.Millisecond
	ovhP99Limit   = 25.0 // ms
	ovhSlices     = 5
	// ovhMaxInFlight holds back calls of a step while this many are
	// outstanding: far past the knee, an uncapped open loop would pile
	// up a backlog whose memory and timeouts outlast the step.
	ovhMaxInFlight = 2000
	ovhTimeout     = 10 * time.Second
)

// runHTTPPSD is the http-psd workload: psdserver defaults under an open
// loop at ρ = 0.7 with client-declared Bounded Pareto sizes and a
// Prometheus scrape every second.
func runHTTPPSD(o options, rep *report) error {
	cfg, err := serverConfig(psdTimeUnit, o.seed)
	if err != nil {
		return err
	}
	l, setup, err := setupLive(cfg, psdTimeout)
	if err != nil {
		return err
	}
	defer l.close()
	rep.e2e("setup_s", setup)

	q, meanSize := boundedPareto(0.1, 100, 1.5)
	rate := psdRho / (meanSize * psdTimeUnit.Seconds())
	rng := rand.New(rand.NewPCG(o.seed, 0x5eed))
	draw := pairedMix(q, psdBlockPairs)

	stop := make(chan struct{})
	var sc scraper
	scTraced := false
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { defer wg.Done(); sc.loop(l, scrapeEvery, stop, &scTraced) }()

	warm := drive(l, schedule(rng, l.base, rate, psdWarmup, draw, true), psdWarmup, false, 0)
	checkPhase(rep, "warm-up", &warm, warm.stats(cfg.Deltas, psdTimeUnit))
	measure := o.seconds
	if o.trace {
		measure /= 2
	}
	p := drive(l, schedule(rng, l.base, rate, measure, draw, true), measure, false, 0)
	st := p.stats(cfg.Deltas, psdTimeUnit)
	checkPhase(rep, "measured", &p, st)
	clientMetrics(rep, st)
	rep.e2e("throughput_per_s", st.throughput)
	if o.trace {
		l.cl.tr = newTracer()
		sc.mu.Lock()
		scTraced, sc.times, sc.maxDepth = true, nil, 0
		sc.mu.Unlock()
		tp := drive(l, schedule(rng, l.base, rate, measure, draw, true), measure, true, 0)
		tst := tp.stats(cfg.Deltas, psdTimeUnit)
		checkPhase(rep, "traced", &tp, tst)
		httpLayers(rep, tp, tst, st)
	}
	close(stop)
	wg.Wait()
	rep.check("every /metrics/prom scrape succeeded", sc.failed == 0 && sc.bad == "", fmt.Sprintf("%d failed %s", sc.failed, sc.bad))
	if o.trace {
		rep.layer("obs.scrape_ms.p99", quantile(sc.times, 0.99))
		rep.layer("httpsrv.queue_depth.max", sc.maxDepth)
		serverLayers(rep, l, cfg.Window, psdTimeUnit)
		rep.writeTrace(o, l.cl.tr)
	}
	rep.e2e("rss_mb", peakRSSMB())
	return nil
}

// clientMetrics reports what the client saw in an untraced phase.
func clientMetrics(rep *report, st phaseStats) {
	rep.e2e("cpu_us_per_op", st.cpuPerReq)
	rep.layer("client.p50_ms", st.p50)
	rep.layer("client.p99_ms", st.p99)
	rep.layer("client.slowdown_mean", st.slowdown)
	rep.layer("client.ratio_err", st.ratioErr)
}

// httpLayers reports the per-layer numbers of a traced phase, with the
// tracing overhead measured against the untraced phase before it.
func httpLayers(rep *report, tp phase, tst, st phaseStats) {
	rep.layer("gen.late_ms.p99", tst.lateP99)
	rep.layer("net_http.overhead_ms.p50", tst.ovhP50)
	rep.layer("net_http.overhead_ms.p99", tst.ovhP99)
	rep.layer("httpsrv.queue_ms.p50", tst.queueP50)
	rep.layer("httpsrv.queue_ms.p99", tst.queueP99)
	rep.layer("httpsrv.ratio_err", tst.srvRatioErr)
	rep.layer("httpsrv.pace_overshoot_us.p99", tst.overshootP99)
	rep.layer("go.allocs_per_req", tst.allocsPerReq)
	rep.layer("go.gc_cycles", float64(tp.goDelta.gcs))
	rep.layer("trace.overhead_pct", 100*(tst.cpuPerReq-st.cpuPerReq)/st.cpuPerReq)
}

// runHTTPOverhead is the http-overhead workload: ~10 µs requests, so the
// per-request cost of the generator, net/http and the front door
// dominates; a fixed reference rate gives the latency figures, and a
// staircase of offered rates finds the knee.
func runHTTPOverhead(o options, rep *report) error {
	cfg, err := serverConfig(ovhTimeUnit, o.seed)
	if err != nil {
		return err
	}
	l, setup, err := setupLive(cfg, ovhTimeout)
	if err != nil {
		return err
	}
	defer l.close()
	rep.e2e("setup_s", setup)

	rng := rand.New(rand.NewPCG(o.seed, 0x0e7d))
	draw := uniformMix(ovhSize)
	warmSpan := time.Second
	warm := drive(l, schedule(rng, l.base, ovhRefRate, warmSpan, draw, false), warmSpan, false, 0)
	checkPhase(rep, "warm-up", &warm, warm.stats(cfg.Deltas, ovhTimeUnit))

	ref := o.seconds / 4
	p := drive(l, schedule(rng, l.base, ovhRefRate, ref, draw, false), ref, false, 0)
	st := p.stats(cfg.Deltas, ovhTimeUnit)
	checkPhase(rep, fmt.Sprintf("reference %g/s", ovhRefRate), &p, st)
	clientMetrics(rep, st)
	// Memory while serving the reference load; the overload bursts and
	// steps below probe capacity, not the process's size.
	rep.e2e("rss_mb", peakRSSMB())
	if o.trace {
		l.cl.tr = newTracer()
		tp := drive(l, schedule(rng, l.base, ovhRefRate, ref, draw, false), ref, true, 0)
		tst := tp.stats(cfg.Deltas, ovhTimeUnit)
		checkPhase(rep, "traced reference", &tp, tst)
		httpLayers(rep, tp, tst, st)
		serverLayers(rep, l, cfg.Window, ovhTimeUnit)
	}
	rep.e2e("throughput_per_s", saturation(l, rng, draw, cfg, rep))
	rep.layer("client.knee_rps", staircase(l, rng, draw, cfg, stepSpan(o.seconds), rep))
	if o.trace {
		rep.writeTrace(o, l.cl.tr)
	}
	return nil
}

// stepSpan is how long one staircase step offers its rate.
func stepSpan(seconds time.Duration) time.Duration {
	return max(time.Second, seconds/30)
}

// saturation offers far more than one process can answer, in ovhBursts
// one-second bursts with the in-flight cap closing the loop, and returns
// the median over the bursts of requests answered per second: the rate
// at which the process saturates. The median keeps a slow spell of the
// shared machine from setting the figure.
func saturation(l *live, rng *rand.Rand, draw func(*rand.Rand, int) ([]int, []float64), cfg httpsrv.Config, rep *report) float64 {
	var rates []float64
	for k := range ovhBursts {
		calls := schedule(rng, l.base, ovhBurstRate, time.Second, draw, false)
		t0 := time.Now()
		p := drive(l, calls, time.Second, false, ovhMaxInFlight)
		el := time.Since(t0)
		st := p.stats(cfg.Deltas, ovhTimeUnit)
		checkPhase(rep, fmt.Sprintf("burst %d", k), &p, st)
		rates = append(rates, float64(st.ok)/el.Seconds())
		fmt.Printf("  burst %d: answered %d in %v: %.0f/s\n", k, st.ok, el.Round(time.Millisecond), rates[k])
		time.Sleep(ovhPause)
	}
	return median(rates)
}

// slicedP99 splits the phase by due time into k equal slices and returns
// the median of the slices' p99 latencies (ms), so one scheduling stall
// of the shared machine fails a slice, not the whole step.
func slicedP99(p phase, k int) float64 {
	slices := make([][]float64, k)
	for i, o := range p.outs {
		if o.ok {
			j := min(k-1, int(int64(k)*int64(p.calls[i].due)/int64(p.span)))
			slices[j] = append(slices[j], ms(o.latency))
		}
	}
	p99s := make([]float64, k)
	for j, xs := range slices {
		p99s[j] = math.Inf(1)
		if len(xs) > 0 {
			p99s[j] = quantile(xs, 0.99)
		}
	}
	return median(p99s)
}

// staircase offers fixed rates for one step each, climbing by
// ovhStepFactor until a step misses the limit, then bisects between the
// last step that met it and the first that did not. A step meets the
// limit when nothing failed, at least 99% of its calls were sent on
// time, and the median p99 of its slices is within ovhP99Limit. It
// returns the highest offered rate that met the limit.
func staircase(l *live, rng *rand.Rand, draw func(*rand.Rand, int) ([]int, []float64), cfg httpsrv.Config, span time.Duration, rep *report) float64 {
	try := func(rate float64) bool {
		p := drive(l, schedule(rng, l.base, rate, span, draw, false), span, false, ovhMaxInFlight)
		st := p.stats(cfg.Deltas, ovhTimeUnit)
		checkPhase(rep, fmt.Sprintf("step %.0f/s", rate), &p, st)
		p99 := slicedP99(p, ovhSlices)
		pass := st.failed == 0 && p99 <= ovhP99Limit && float64(st.sentOnTime) >= 0.99*float64(st.n)
		fmt.Printf("  step %8.0f/s: p50 %.3f ms, p99 %.3f ms, sliced p99 %.3f ms, failed %d, sent on time %d/%d, late p99 %.3f ms, cpu %.1f us/req -> %v\n",
			rate, st.p50, st.p99, p99, st.failed, st.sentOnTime, st.n, st.lateP99, st.cpuPerReq, pass)
		time.Sleep(ovhPause) // let a missed step's backlog clear
		return pass
	}
	// A missed step is tried once more before it counts, so one stall of
	// the shared machine does not end the climb early.
	meets := func(rate float64) bool { return try(rate) || try(rate) }
	knee, fail := 0.0, 0.0
	for rate, k := ovhFirstStep, 0; k < ovhMaxSteps; rate, k = rate*ovhStepFactor, k+1 {
		if !meets(rate) {
			fail = rate
			break
		}
		knee = rate
	}
	if fail == 0 || knee == 0 {
		return knee
	}
	for range ovhBisections {
		mid := math.Sqrt(knee * fail)
		if meets(mid) {
			knee = mid
		} else {
			fail = mid
		}
	}
	return knee
}
