package main

import (
	"bufio"
	"compress/gzip"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"
)

// span is one recorded interval around a call into a layer. Spans of one
// operation (an HTTP request, a replication) share the root's id as
// their parent.
type span struct {
	id, parent uint64
	name       string
	start, end int64 // nanoseconds since the tracer's epoch
}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so the untraced path pays one nil check per boundary.
type tracer struct {
	epoch time.Time
	ids   atomic.Uint64
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), spans: make([]span, 0, 1<<16)}
}

// newID returns a fresh span id (0 when tracing is off).
func (t *tracer) newID() uint64 {
	if t == nil {
		return 0
	}
	return t.ids.Add(1)
}

// record stores one span; parent 0 marks a root.
func (t *tracer) record(id, parent uint64, name string, start, end time.Time) {
	if t == nil {
		return
	}
	s := span{id: id, parent: parent, name: name, start: start.Sub(t.epoch).Nanoseconds(), end: end.Sub(t.epoch).Nanoseconds()}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// len reports how many spans were recorded.
func (t *tracer) len() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// writeFile writes every span as gzipped tab-separated lines
// (id, parent, name, start_ns, end_ns) to dir/<name>.tsv.gz, replacing
// the previous run's file.
func (t *tracer) writeFile(dir, name string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", fmt.Errorf("trace dir: %w", err)
	}
	path := filepath.Join(dir, name+".tsv.gz")
	f, err := os.Create(path)
	if err != nil {
		return "", fmt.Errorf("trace file: %w", err)
	}
	zw := gzip.NewWriter(f)
	bw := bufio.NewWriter(zw)
	fmt.Fprintln(bw, "id\tparent\tname\tstart_ns\tend_ns")
	t.mu.Lock()
	for _, s := range t.spans {
		fmt.Fprintf(bw, "%d\t%d\t%s\t%d\t%d\n", s.id, s.parent, s.name, s.start, s.end)
	}
	t.mu.Unlock()
	if err := bw.Flush(); err != nil {
		f.Close()
		return "", fmt.Errorf("trace write: %w", err)
	}
	if err := zw.Close(); err != nil {
		f.Close()
		return "", fmt.Errorf("trace write: %w", err)
	}
	if err := f.Close(); err != nil {
		return "", fmt.Errorf("trace write: %w", err)
	}
	return path, nil
}
