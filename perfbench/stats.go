package main

import (
	"math"
	"runtime"
	"slices"
	"syscall"
	"time"
)

// quantile returns the nearest-rank q-quantile of xs (sorted in place);
// 0 for an empty sample.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	slices.Sort(xs)
	k := int(math.Ceil(q*float64(len(xs)))) - 1
	return xs[max(0, min(k, len(xs)-1))]
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// cpuTime is the process's user plus system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is the process's peak resident set size in MiB (Linux
// reports ru_maxrss in KiB).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// goCounters is a snapshot of the Go runtime's allocation and GC counts.
type goCounters struct{ mallocs, gcs uint64 }

func readGoCounters() goCounters {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return goCounters{mallocs: m.Mallocs, gcs: uint64(m.NumGC)}
}

// ratioErr is |(s1/s0) / (d1/d0) - 1|: how far the achieved slowdown
// ratio of class 1 to class 0 misses the target δ ratio.
func ratioErr(s0, s1, d0, d1 float64) float64 {
	return math.Abs((s1/s0)/(d1/d0) - 1)
}
