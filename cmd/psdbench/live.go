package main

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"psd/internal/httpsrv"
)

// live-contention storms the live server's front door in-process:
// liveClients goroutines each drive one request at a time through
// Server.Do's admitted path. liveSize (2⁻⁶) is tiny against the 2 ms
// reallocation window, so the storm stays on the contention path.
const (
	liveClients  = 16
	liveRequests = 96_000
	liveSize     = 0.015625
)

// liveSpeedupFloor is the minimum parallel/serial throughput ratio of a
// storm at `procs` on `cores` CPUs, or why one core has no floor.
func liveSpeedupFloor(procs, cores int) (floor float64, skip string) {
	switch {
	case cores >= 4:
		return 0.5 * float64(min(procs, cores)), ""
	case cores >= 2:
		return 1.0, ""
	default:
		return 0, fmt.Sprintf("%d core(s); a parallel storm measures only scheduling overhead", cores)
	}
}

// liveStorm runs one storm at the given GOMAXPROCS against a fresh server
// and returns its throughput and allocations per request.
func liveStorm(deltas []float64, procs int) (reqsPerSec, allocsPerReq float64, err error) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	srv, err := httpsrv.New(httpsrv.Config{Deltas: deltas, TimeUnit: time.Microsecond, Window: 2000, WorkersPerClass: 2})
	if err != nil {
		return 0, 0, err
	}
	defer srv.Close()
	ctx, nc := context.Background(), len(deltas)
	// Warm the job pool, the workers and the metric catalog.
	for i := 0; i < 2048; i++ {
		if _, st := srv.Do(ctx, i%nc, liveSize); st != httpsrv.Served {
			return 0, 0, fmt.Errorf("warmup request rejected: %v", st)
		}
	}
	var wg sync.WaitGroup
	var rejected atomic.Int64
	wall, mallocs, _ := measure(func() error {
		for g := 0; g < liveClients; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for i := 0; i < liveRequests/liveClients; i++ {
					if _, st := srv.Do(ctx, g%nc, liveSize); st != httpsrv.Served {
						rejected.Add(1)
					}
				}
			}(g)
		}
		wg.Wait()
		return nil
	})
	if n := rejected.Load(); n > 0 {
		return 0, 0, fmt.Errorf("%d of %d storm requests rejected", n, liveRequests)
	}
	reqsPerSec, allocsPerReq = per(liveRequests, wall, mallocs)
	return reqsPerSec, allocsPerReq, nil
}

// runLiveContention storms at GOMAXPROCS=1 and at min(NumCPU, 8), and
// reports the contended storm's allocations and speedup.
func runLiveContention(sc *scenario, _ []scenarioResult) (scenarioResult, error) {
	cores := runtime.NumCPU()
	procs := max(min(cores, 8), 2) // on 1 core, still storm oversubscribed
	serialRPS, _, err := liveStorm(sc.deltas, 1)
	if err != nil {
		return scenarioResult{}, err
	}
	parRPS, allocsPerReq, err := liveStorm(sc.deltas, procs)
	return scenarioResult{Requests: liveRequests, WallSeconds: liveRequests/serialRPS + liveRequests/parRPS,
		ReqsPerSec: parRPS, SerialReqsPerSec: serialRPS, Speedup: parRPS / serialRPS,
		StormProcs: procs, StormCores: cores, AllocsPerReq: allocsPerReq}, err
}
