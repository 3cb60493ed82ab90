package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"htdp/internal/data"
)

// maxSpans bounds the spans kept in memory for the spans file. Counts
// and busy times are accumulated exactly beyond it; only the per-call
// records stop (dpsgd makes one RowAt call per sampled row).
const maxSpans = 200000

// span is one timed call into a layer, made from the benchmark's own
// code. Start and End are nanoseconds since the run began; Parent is 0
// for a root span. Spans of one request share Req.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Name   string `json:"name"`
	Layer  string `json:"layer"`
	Req    string `json:"req"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A disabled tracer
// records nothing, so untraced runs pay one branch per call.
type tracer struct {
	on      bool
	t0      time.Time
	nextID  atomic.Int64
	mu      sync.Mutex
	spans   []span
	dropped int64
	// selfNs is the self time per layer: a span's duration minus the
	// busy time of its children, summed over every span of the layer.
	selfNs map[string]int64
}

func newTracer(on bool, t0 time.Time) *tracer {
	return &tracer{on: on, t0: t0, selfNs: make(map[string]int64)}
}

func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }

// id reserves a span id, so children can name a parent that is still
// open.
func (t *tracer) id() int64 { return t.nextID.Add(1) }

// add records a finished span whose children were busy for childNs of
// its duration.
func (t *tracer) add(s span, childNs int64) {
	if !t.on {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.selfNs[s.Layer] += s.End - s.Start - childNs
	if len(t.spans) < maxSpans {
		t.spans = append(t.spans, s)
	} else {
		t.dropped++
	}
}

// write saves the spans as JSON lines.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// timedSource wraps a data.Source and times every Chunk and RowAt call:
// the data layer's busy time inside one algorithm run, seen from outside.
// Like any Source it serves one goroutine.
type timedSource struct {
	src    data.Source
	tr     *tracer
	parent int64
	req    string

	chunkNs, rowatNs int64
	chunks           int64
	rows             int64
}

func (s *timedSource) N() int       { return s.src.N() }
func (s *timedSource) D() int       { return s.src.D() }
func (s *timedSource) Close() error { return s.src.Close() }

func (s *timedSource) Chunk(t, T int) (*data.Dataset, error) {
	start := s.tr.now()
	ds, err := s.src.Chunk(t, T)
	end := s.tr.now()
	s.chunkNs += end - start
	s.chunks++
	if ds != nil {
		s.rows += int64(ds.N())
	}
	s.tr.add(span{ID: s.tr.id(), Parent: s.parent, Name: "data.Chunk", Layer: "data", Req: s.req, Start: start, End: end}, 0)
	return ds, err
}

func (s *timedSource) RowAt(i int, buf []float64) ([]float64, float64, error) {
	start := s.tr.now()
	x, y, err := s.src.RowAt(i, buf)
	end := s.tr.now()
	s.rowatNs += end - start
	s.rows++
	s.tr.add(span{ID: s.tr.id(), Parent: s.parent, Name: "data.RowAt", Layer: "data", Req: s.req, Start: start, End: end}, 0)
	return x, y, err
}

func (s *timedSource) busyNs() int64 { return s.chunkNs + s.rowatNs }

// spansPath names the spans file of one traced run.
func spansPath(dir, workload string, seed int64) string {
	return fmt.Sprintf("%s/spans-%s-seed%d.jsonl", dir, workload, seed)
}
