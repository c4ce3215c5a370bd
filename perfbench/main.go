// Command perfbench is the repository's benchmark: it runs one workload
// against the live PSD server or the sweep engine, checks every output,
// and prints the end-to-end metrics (or, with --trace 1, the per-layer
// metrics) as the last line of standard output. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"time"
)

// Metric catalogs, in print order; BENCHMARK.json lists the same names.
var (
	e2eUnits = []nameUnit{
		{"setup_s", "s"},
		{"ok_share", "share"},
		{"rss_mb", "MB"},
		{"cpu_us_per_op", "us"},
		{"throughput_per_s", "1/s"},
	}
	layerUnits = []nameUnit{
		{"gen.late_ms.p99", "ms"},
		{"net_http.overhead_ms.p50", "ms"},
		{"net_http.overhead_ms.p99", "ms"},
		{"client.p50_ms", "ms"},
		{"client.p99_ms", "ms"},
		{"client.slowdown_mean", "ratio"},
		{"client.ratio_err", "ratio"},
		{"client.knee_rps", "1/s"},
		{"httpsrv.queue_ms.p50", "ms"},
		{"httpsrv.queue_ms.p99", "ms"},
		{"httpsrv.ratio_err", "ratio"},
		{"httpsrv.pace_overshoot_us.p99", "us"},
		{"httpsrv.queue_depth.max", "count"},
		{"control.tick_share", "share"},
		{"control.alloc_failures", "count"},
		{"control.stale_ticks", "count"},
		{"admission.rejected", "count"},
		{"obs.scrape_ms.p99", "ms"},
		{"go.allocs_per_req", "count"},
		{"go.allocs_per_rep", "count"},
		{"go.gc_cycles", "count"},
		{"sweep.busy_share", "share"},
		{"sweep.hung_runs", "count"},
		{"sweep.run_ms.p50", "ms"},
		{"sweep.run_ms.p99", "ms"},
		{"simsrv.reset_us.fluid", "us"},
		{"simsrv.reset_us.packetized", "us"},
		{"simsrv.ns_per_event.fluid", "ns"},
		{"simsrv.ns_per_event.packetized", "ns"},
		{"simsrv.aggregate_us_per_rep", "us"},
		{"simsrv.events", "count"},
		{"simsrv.slowdown_mean", "ratio"},
		{"simsrv.ratio_err", "ratio"},
		{"trace.overhead_pct", "%"},
		{"trace.spans", "count"},
	}
)

type nameUnit struct{ name, unit string }

type options struct {
	workload string
	seed     uint64
	seconds  time.Duration
	trace    bool
	traceDir string
}

// report collects one run's checks, counts and metrics.
type report struct {
	correct   bool
	attempted int64
	failed    int64
	e2eVals   map[string]float64
	layerVals map[string]float64
}

func (r *report) check(name string, ok bool, detail string) {
	verdict := "ok"
	if !ok {
		verdict = "FAILED"
		r.correct = false
	}
	fmt.Printf("check %-6s %s  %s\n", verdict, name, detail)
}

func (r *report) e2e(name string, v float64)   { r.e2eVals[name] = v }
func (r *report) layer(name string, v float64) { r.layerVals[name] = v }

func (r *report) writeTrace(o options, tr *tracer) {
	r.layer("trace.spans", float64(tr.len()))
	path, err := tr.writeFile(o.traceDir, o.workload)
	if err != nil {
		r.check("trace written", false, err.Error())
		return
	}
	fmt.Printf("trace: %d spans in %s\n", tr.len(), path)
}

type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultOut struct {
	Correct   bool                 `json:"correct"`
	Attempted int64                `json:"attempted"`
	Failed    int64                `json:"failed"`
	Metrics   map[string]metricOut `json:"metrics"`
}

// emit prints the metrics of cat and returns them for the result line.
// With all set a missing metric reads 0 (the workload does not exercise
// that layer); otherwise only the measured ones are printed.
func (r *report) emit(title string, cat []nameUnit, vals map[string]float64, all bool) map[string]metricOut {
	out := make(map[string]metricOut, len(cat))
	fmt.Println(title)
	for _, nu := range cat {
		v, ok := vals[nu.name]
		if !ok && !all {
			continue
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			r.check(nu.name+" is finite", false, fmt.Sprint(v))
			v = 0
		}
		out[nu.name] = metricOut{Value: v, Unit: nu.unit}
		fmt.Printf("  %-32s %14.6g %s\n", nu.name, v, nu.unit)
	}
	return out
}

func main() {
	var o options
	var secs, traced int
	flag.StringVar(&o.workload, "workload", "", "http-psd | http-overhead | sim-sweep")
	flag.Uint64Var(&o.seed, "seed", 1, "input seed")
	flag.IntVar(&secs, "seconds", 30, "measured seconds")
	flag.IntVar(&traced, "trace", 0, "1: traced run reporting the per-layer metrics")
	flag.StringVar(&o.traceDir, "trace-dir", filepath.Join(".bench_build", "trace"), "where the traced run writes its spans")
	flag.Parse()
	o.seconds = time.Duration(secs) * time.Second
	o.trace = traced == 1
	if secs < 1 || (traced != 0 && traced != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be >= 1 and --trace 0 or 1")
		os.Exit(2)
	}

	rep := &report{correct: true, e2eVals: map[string]float64{}, layerVals: map[string]float64{}}
	var err error
	switch o.workload {
	case "http-psd":
		err = runHTTPPSD(o, rep)
	case "http-overhead":
		err = runHTTPOverhead(o, rep)
	case "sim-sweep":
		err = runSimSweep(o, rep)
	default:
		err = fmt.Errorf("unknown workload %q (want http-psd, http-overhead or sim-sweep)", o.workload)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", o.workload, err)
		os.Exit(1)
	}

	if rep.attempted > 0 {
		rep.e2e("ok_share", float64(rep.attempted-rep.failed)/float64(rep.attempted))
	}
	e2e := rep.emit("end-to-end metrics:", e2eUnits, rep.e2eVals, true)
	layers := rep.emit("per-layer metrics:", layerUnits, rep.layerVals, o.trace)
	res := resultOut{Correct: rep.correct, Attempted: rep.attempted, Failed: rep.failed, Metrics: e2e}
	if o.trace {
		res.Metrics = layers
	}
	if res.Attempted < 1 {
		fmt.Fprintln(os.Stderr, "perfbench: no operation was attempted")
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}
