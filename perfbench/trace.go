package main

import (
	"bufio"
	"encoding/json"
	"os"
	"runtime/metrics"
	"sync"
	"time"
)

// The tracer records spans from the benchmark's own files, around each
// call into a layer: name, start, end, the span that caused it, and the
// heap bytes allocated while it was open. Spans of one operation share
// the operation's index as their ID. Everything stays in memory until
// the run ends, then goes to a JSON-lines file.

type span struct {
	Op     int    `json:"op"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // -1 for the operation's root span
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer was created
	End    int64  `json:"end_ns"`
	Alloc  uint64 `json:"alloc_bytes"`
}

type tracer struct {
	t0 time.Time

	mu     sync.Mutex
	spans  []span
	nextID int
	counts map[string]float64
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), counts: map[string]float64{}}
}

// opTrace is one operation's view of the tracer; nil in the untraced
// pass, where every method is a no-op apart from running fn.
type opTrace struct {
	t    *tracer
	op   int
	root *openSpan
}

type openSpan struct {
	t      *tracer
	s      span
	start  time.Time
	alloc0 uint64
}

func (t *tracer) begin(op, parent int, name string) *openSpan {
	t.mu.Lock()
	id := t.nextID
	t.nextID++
	t.mu.Unlock()
	return &openSpan{
		t:      t,
		s:      span{Op: op, ID: id, Parent: parent, Name: name},
		alloc0: heapAllocs(),
		start:  time.Now(),
	}
}

func (s *openSpan) end() {
	end := time.Now()
	s.s.Alloc = heapAllocs() - s.alloc0
	s.s.Start = int64(s.start.Sub(s.t.t0))
	s.s.End = int64(end.Sub(s.t.t0))
	s.t.mu.Lock()
	s.t.spans = append(s.t.spans, s.s)
	s.t.mu.Unlock()
}

func (t *tracer) beginOp(op int) *opTrace {
	if t == nil {
		return nil
	}
	return &opTrace{t: t, op: op, root: t.begin(op, -1, "op")}
}

func (o *opTrace) end() {
	if o != nil {
		o.root.end()
	}
}

// do runs fn inside a span named name, a child of the operation's root.
func (o *opTrace) do(name string, fn func()) {
	if o == nil {
		fn()
		return
	}
	s := o.t.begin(o.op, o.root.s.ID, name)
	fn()
	s.end()
}

// extra is do for work the untraced pass does not do — a second lexer
// run, a fresh lowering, the out-of-band analyses, a second
// fingerprinting. Its time is added to the trace.extra_ms counter,
// which trace.overhead_frac takes out of the traced wall time. It
// returns the recorded span (zero in the untraced pass).
func (o *opTrace) extra(name string, fn func()) span {
	if o == nil {
		fn()
		return span{}
	}
	s := o.t.begin(o.op, o.root.s.ID, name)
	fn()
	s.end()
	o.t.add("trace.extra_ms", float64(s.s.End-s.s.Start)/1e6)
	return s.s
}

// count adds v to a run-wide counter.
func (o *opTrace) count(name string, v float64) {
	if o != nil {
		o.t.add(name, v)
	}
}

func (t *tracer) add(name string, v float64) {
	t.mu.Lock()
	t.counts[name] += v
	t.mu.Unlock()
}

// totals sums the duration (ms) and allocation (MB) of every span with
// the given name.
func (t *tracer) totals() map[string][2]float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := map[string][2]float64{}
	for _, s := range t.spans {
		v := out[s.Name]
		v[0] += float64(s.End-s.Start) / 1e6
		v[1] += float64(s.Alloc) / (1 << 20)
		out[s.Name] = v
	}
	return out
}

func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
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

// heapAllocs is the process's cumulative heap allocation in bytes.
func heapAllocs() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}
