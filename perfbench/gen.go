package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand/v2"
	"net"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"psd/internal/httpsrv"
)

// call is one request of an open-loop schedule: the generator sends it
// at its due instant whether or not earlier calls have finished.
type call struct {
	due   time.Duration // offset from the schedule's start
	class int
	size  float64
	url   string
}

// outcome is what the client observed for one call.
type outcome struct {
	sent    bool // false when the in-flight cap held the call back
	ok      bool
	bad     string        // why a 200 response failed the output check
	late    time.Duration // send − due: how late the generator ran
	latency time.Duration // response read − due
	rtt     time.Duration // response read − send
	resp    httpsrv.Response
	// Set only on traced calls: the class rate at receipt and whether
	// it stayed unchanged over the whole call.
	rate   float64
	stable bool
}

// schedule draws a Poisson sequence of calls of the given rate (per
// second) over span from rng; paired calls arrive two at a time at half
// the rate. mix assigns the n calls their classes and sizes.
func schedule(rng *rand.Rand, base string, rate float64, span time.Duration, mix func(r *rand.Rand, n int) ([]int, []float64), paired bool) []call {
	per := 1 // calls per arrival instant
	if paired {
		per = 2
	}
	var dues []time.Duration
	for t := 0.0; ; {
		t += rng.ExpFloat64() * float64(per) / rate
		if t >= span.Seconds() {
			break
		}
		for range per {
			dues = append(dues, time.Duration(t*float64(time.Second)))
		}
	}
	classes, sizes := mix(rng, len(dues))
	calls := make([]call, len(dues))
	for i, due := range dues {
		calls[i] = call{
			due:   due,
			class: classes[i],
			size:  sizes[i],
			url:   base + "/?class=" + strconv.Itoa(classes[i]) + "&size=" + strconv.FormatFloat(sizes[i], 'g', -1, 64),
		}
	}
	return calls
}

// uniformMix sends size to a class drawn uniformly from two.
func uniformMix(size float64) func(*rand.Rand, int) ([]int, []float64) {
	return func(r *rand.Rand, n int) ([]int, []float64) {
		classes, sizes := make([]int, n), make([]float64, n)
		for i := range n {
			classes[i], sizes[i] = r.IntN(2), size
		}
		return classes, sizes
	}
}

// pairedMix is for two classes that replay one arrival and size
// sequence: each of n/2 arrivals becomes a class-0 and a class-1 call
// of the same size at the same instant (common random numbers), so the
// achieved class ratio compares the two classes' rates on identical
// traffic instead of two independent draws of a heavy tail.
//
// The m = n/2 sizes are the inverse CDF q at the stratum midpoints
// (k+½)/m, so every schedule holds the same multiset of sizes, and they
// are spread over time in blocks of blockPairs arrivals: of each run of
// consecutive strata as long as there are blocks, every block receives
// one, at random. Every block thus holds a like mix of small and large
// jobs, and seeds differ in which block gets which and in the order and
// timing within blocks, not in whether the largest jobs happen to
// arrive together.
func pairedMix(q func(u float64) float64, blockPairs int) func(*rand.Rand, int) ([]int, []float64) {
	return func(r *rand.Rand, n int) ([]int, []float64) {
		m := n / 2
		nb := max(1, (m+blockPairs-1)/blockPairs)
		blocks := make([][]int, nb)
		for row := 0; row*nb < m; row++ {
			for j, b := range r.Perm(nb) {
				if k := row*nb + j; k < m {
					blocks[b] = append(blocks[b], k)
				}
			}
		}
		order := make([]int, 0, m)
		for _, blk := range blocks {
			r.Shuffle(len(blk), func(i, j int) { blk[i], blk[j] = blk[j], blk[i] })
			order = append(order, blk...)
		}
		classes, sizes := make([]int, n), make([]float64, n)
		for i := range 2 * m {
			classes[i] = i % 2
			sizes[i] = q((float64(order[i/2]) + 0.5) / float64(m))
		}
		return classes, sizes
	}
}

// boundedPareto returns the inverse CDF of BP(k, p, alpha) and its mean,
// computed here so the inputs do not depend on the program.
func boundedPareto(k, p, alpha float64) (func(u float64) float64, float64) {
	tail := math.Pow(k/p, alpha)
	mean := math.Pow(k, alpha) / (1 - tail) * alpha / (alpha - 1) * (math.Pow(k, 1-alpha) - math.Pow(p, 1-alpha))
	return func(u float64) float64 {
		return k / math.Pow(1-u*(1-tail), 1/alpha)
	}, mean
}

// client sends the generated calls over at most len(conns) HTTP/2
// connections (unencrypted, prior knowledge) to one server.
type client struct {
	conns   []*http.Client
	dials   atomic.Int64
	timeout time.Duration
	live    *httpsrv.Server // read for traced per-call rate probes
	tr      *tracer
}

func newClient(n int, timeout time.Duration, live *httpsrv.Server) *client {
	c := &client{timeout: timeout, live: live}
	var p http.Protocols
	p.SetUnencryptedHTTP2(true)
	d := &net.Dialer{}
	for range n {
		tr := &http.Transport{
			Protocols: &p,
			// One connection per transport; the server's stream limit is
			// high enough that requests never wait for a stream.
			MaxConnsPerHost: 1,
			DialContext: func(ctx context.Context, network, addr string) (net.Conn, error) {
				c.dials.Add(1)
				return d.DialContext(ctx, network, addr)
			},
		}
		c.conns = append(c.conns, &http.Client{Transport: tr})
	}
	return c
}

func (c *client) close() {
	for _, hc := range c.conns {
		hc.CloseIdleConnections()
	}
}

// get performs one GET on connection i and returns the body.
func (c *client) get(ctx context.Context, i int, url string) ([]byte, int, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return nil, 0, err
	}
	resp, err := c.conns[i%len(c.conns)].Do(req)
	if err != nil {
		return nil, 0, err
	}
	defer resp.Body.Close()
	if resp.ProtoMajor != 2 {
		return nil, resp.StatusCode, fmt.Errorf("response over %s, want HTTP/2", resp.Proto)
	}
	body, err := io.ReadAll(resp.Body)
	return body, resp.StatusCode, err
}

// run sends every call at its due instant, open loop, and returns once
// each has finished. traced selects whether spans and rate probes are
// recorded for these calls. A call falling due while maxInFlight calls
// are outstanding is not sent (0: no cap), so a rate far beyond
// capacity cannot pile up an unbounded backlog.
func (c *client) run(calls []call, traced bool, maxInFlight int64) []outcome {
	outs := make([]outcome, len(calls))
	var wg sync.WaitGroup
	var inFlight atomic.Int64
	start := time.Now()
	for i := range calls {
		due := start.Add(calls[i].due)
		if w := time.Until(due); w > 0 {
			time.Sleep(w)
		}
		if maxInFlight > 0 && inFlight.Load() >= maxInFlight {
			continue
		}
		outs[i].sent = true
		inFlight.Add(1)
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer inFlight.Add(-1)
			c.fire(i, &calls[i], due, &outs[i], traced)
		}()
	}
	wg.Wait()
	return outs
}

func (c *client) fire(i int, cl *call, due time.Time, o *outcome, traced bool) {
	sent := time.Now()
	o.late = sent.Sub(due)
	var epoch uint64
	if traced {
		epoch = c.live.RateEpoch(cl.class)
	}
	ctx, cancel := context.WithTimeout(context.Background(), c.timeout)
	defer cancel()
	body, status, err := c.get(ctx, i, cl.url)
	done := time.Now()
	o.latency = done.Sub(due)
	o.rtt = done.Sub(sent)
	if err != nil || status != http.StatusOK {
		return
	}
	if err := json.Unmarshal(body, &o.resp); err != nil {
		o.bad = fmt.Sprintf("undecodable body %q: %v", body, err)
		return
	}
	r := &o.resp
	switch {
	case r.Class != cl.class || r.Size != cl.size:
		o.bad = fmt.Sprintf("echo class=%d size=%g, sent class=%d size=%g", r.Class, r.Size, cl.class, cl.size)
		return
	case r.DelayMs < 0 || r.ServiceMs < 0 || r.DelayMs+r.ServiceMs > ms(o.latency)+1e-6:
		o.bad = fmt.Sprintf("delay %gms + service %gms outside [0, client latency %gms]", r.DelayMs, r.ServiceMs, ms(o.latency))
		return
	}
	o.ok = true
	if !traced {
		return
	}
	o.rate = c.live.Rates()[cl.class]
	o.stable = c.live.RateEpoch(cl.class) == epoch
	probed := time.Now()
	id := c.tr.newID()
	c.tr.record(id, 0, "request", due, done)
	c.tr.record(c.tr.newID(), id, "gen.late", due, sent)
	c.tr.record(c.tr.newID(), id, "net_http.roundtrip", sent, done)
	// The server reports its queue wait and service time; the spans are
	// placed to end at response receipt.
	svc := time.Duration(r.ServiceMs * float64(time.Millisecond))
	q := time.Duration(r.DelayMs * float64(time.Millisecond))
	c.tr.record(c.tr.newID(), id, "httpsrv.queue", done.Add(-svc-q), done.Add(-svc))
	c.tr.record(c.tr.newID(), id, "httpsrv.service", done.Add(-svc), done)
	c.tr.record(c.tr.newID(), id, "httpsrv.Rates", done, probed)
}
