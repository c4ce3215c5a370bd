package simsrv

import (
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

// TestRunOrderedNoHeadOfLineDeadlock drives two pipeline workers with
// cheap tasks while half of them yield and busy goroutines compete for
// more OS threads than there are CPUs, so a worker can be descheduled at
// any instruction. Those are the conditions under which a worker holding
// the head-of-line task could lose every pooled Result to later tasks;
// the pipeline must finish, folding every task in order.
func TestRunOrderedNoHeadOfLineDeadlock(t *testing.T) {
	const n = 100000
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(runtime.NumCPU() + 2))
	var stop atomic.Bool
	for i := 0; i < runtime.NumCPU(); i++ {
		go func() {
			for !stop.Load() {
			}
		}()
	}
	defer stop.Store(true)

	finished := make(chan error, 1)
	var next atomic.Int64
	var misordered atomic.Bool
	go func() {
		finished <- RunOrdered(n, 2, func(_ *Simulator, res *Result, task int) error {
			if task%2 == 0 {
				runtime.Gosched()
			}
			res.EventsProcessed = uint64(task)
			return nil
		}, func(task int, res *Result) {
			if int64(task) != next.Load() || res.EventsProcessed != uint64(task) {
				misordered.Store(true)
			}
			next.Add(1)
		})
	}()
	select {
	case err := <-finished:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(30 * time.Second):
		buf := make([]byte, 1<<16)
		t.Fatalf("pipeline hung at task %d of %d:\n%s", next.Load(), n, buf[:runtime.Stack(buf, true)])
	}
	if misordered.Load() || next.Load() != n {
		t.Fatalf("folded %d of %d tasks, in order: %v", next.Load(), n, !misordered.Load())
	}
}

// TestRunOrderedFirstErrorInTaskOrder: whichever worker fails first in
// wall time, the error of the earliest failing task is returned and no
// task from it on is folded.
func TestRunOrderedFirstErrorInTaskOrder(t *testing.T) {
	for _, workers := range []int{1, 3} {
		folded := 0
		err := RunOrdered(50, workers, func(_ *Simulator, _ *Result, task int) error {
			if task == 17 || task == 31 {
				return fmt.Errorf("task %d", task)
			}
			return nil
		}, func(int, *Result) { folded++ })
		if err == nil || err.Error() != "task 17" {
			t.Fatalf("workers=%d: err = %v, want task 17", workers, err)
		}
		if folded != 17 {
			t.Fatalf("workers=%d: folded %d tasks, want 17", workers, folded)
		}
	}
	if err := RunOrdered(0, 2, func(*Simulator, *Result, int) error {
		return errors.New("ran a task")
	}, func(int, *Result) {}); err != nil {
		t.Fatal(err)
	}
}
