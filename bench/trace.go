package main

import (
	"bufio"
	"encoding/json"
	"os"
	"time"
)

// span is one timed call into a layer, recorded by the harness around the
// layer's public function. Times are nanoseconds since the tracer started.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0 = root
	Run    int    `json:"run"`    // spans of one traced unit share a run id
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory and writes them out when the benchmark
// ends. It is used from one goroutine: the layers the harness drives
// directly are single-threaded, and concurrent engines get one span
// around the whole call. A nil tracer records nothing, so untraced runs
// share the code path without paying for it.
type tracer struct {
	t0    time.Time
	spans []span
	stack []int // ids of the open spans
	run   int
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span under the innermost open one; the returned func ends it.
func (t *tracer) begin(name string) func() {
	if t == nil {
		return func() {}
	}
	parent := 0
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
	}
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Run: t.run, Name: name, Start: int64(time.Since(t.t0))})
	t.stack = append(t.stack, id)
	return func() {
		t.spans[id-1].End = int64(time.Since(t.t0))
		t.stack = t.stack[:len(t.stack)-1]
	}
}

// add records a span that was timed elsewhere — one batch of a
// concurrent load phase — under the innermost open span.
func (t *tracer) add(name string, run int, start, end time.Time) {
	if t == nil {
		return
	}
	parent := 0
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
	}
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Run: run, Name: name,
		Start: int64(start.Sub(t.t0)), End: int64(end.Sub(t.t0))})
}

// nextRun starts a new traced unit.
func (t *tracer) nextRun() {
	if t != nil {
		t.run++
	}
}

// total sums the durations, in seconds, of every span with the name.
func (t *tracer) total(name string) float64 {
	var ns int64
	for _, s := range t.spans {
		if s.Name == name {
			ns += s.End - s.Start
		}
	}
	return float64(ns) / 1e9
}

// selfTime returns each span name's self time in seconds: its duration
// minus the part its child spans cover.
func (t *tracer) selfTime() map[string]float64 {
	child := make([]int64, len(t.spans)+1)
	for _, s := range t.spans {
		child[s.Parent] += s.End - s.Start
	}
	self := make(map[string]float64)
	for _, s := range t.spans {
		self[s.Name] += float64(s.End-s.Start-child[s.ID]) / 1e9
	}
	return self
}

// writeJSONL writes one span per line.
func (t *tracer) writeJSONL(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
