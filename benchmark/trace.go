package main

import (
	"encoding/json"
	"os"
	"runtime/metrics"
	"time"
)

// span is one call into a layer, recorded by the benchmark around the call.
// Spans of one operation share OpID; Parent is the index of the enclosing
// span in the trace, -1 for an operation's root. Counts are taken at the
// same boundary as the times (rows in/out, allocations, and for core.*
// spans the engine's own context/transform/kernel split).
type span struct {
	Name    string           `json:"name"`
	StartNs int64            `json:"start_ns"`
	EndNs   int64            `json:"end_ns"`
	Parent  int              `json:"parent"`
	OpID    int              `json:"op_id"`
	Counts  map[string]int64 `json:"counts,omitempty"`
}

func (s *span) dur() time.Duration { return time.Duration(s.EndNs - s.StartNs) }

// tracer keeps the spans of a traced run in memory. It serves one
// goroutine. Every method is a no-op on a nil tracer, so a replay with
// tracing off runs the same code.
type tracer struct {
	t0    time.Time
	spans []span
	open  []int // stack of unfinished spans
	opID  int
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// beginOp opens the root span of the next operation.
func (t *tracer) beginOp() int {
	if t == nil {
		return -1
	}
	t.opID++
	return t.begin("op")
}

func (t *tracer) begin(name string) int {
	if t == nil {
		return -1
	}
	parent := -1
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	id := len(t.spans)
	t.spans = append(t.spans, span{Name: name, Parent: parent, OpID: t.opID})
	t.open = append(t.open, id)
	t.spans[id].StartNs = time.Since(t.t0).Nanoseconds()
	return id
}

// kv is one count attached to a span.
type kv struct {
	k string
	v int64
}

// end closes span id and attaches the counts taken at its boundary.
func (t *tracer) end(id int, counts ...kv) {
	if t == nil {
		return
	}
	s := &t.spans[id]
	s.EndNs = time.Since(t.t0).Nanoseconds()
	t.open = t.open[:len(t.open)-1]
	if len(counts) > 0 {
		s.Counts = make(map[string]int64, len(counts))
		for _, c := range counts {
			s.Counts[c.k] = c.v
		}
	}
}

// mallocs is the process's cumulative count of allocated heap objects, 0
// with tracing off. runtime/metrics reads it without stopping the world.
func (t *tracer) mallocs() uint64 {
	if t == nil {
		return 0
	}
	sample := []metrics.Sample{{Name: "/gc/heap/allocs:objects"}}
	metrics.Read(sample)
	return sample[0].Value.Uint64()
}

// selfTimes returns every span's self time: its duration minus the part
// its child spans cover.
func (t *tracer) selfTimes() []time.Duration {
	self := make([]time.Duration, len(t.spans))
	for i := range t.spans {
		self[i] += t.spans[i].dur()
		if p := t.spans[i].Parent; p >= 0 {
			self[p] -= t.spans[i].dur()
		}
	}
	return self
}

// perOp returns, per span name, the mean over the traced operations of the
// spans' total duration in ms, and likewise of every count.
func (t *tracer) perOp() (timeMs map[string]float64, counts map[string]float64) {
	timeMs, counts = map[string]float64{}, map[string]float64{}
	if t == nil || t.opID == 0 {
		return
	}
	for i := range t.spans {
		s := &t.spans[i]
		timeMs[s.Name] += ms(s.dur()) / float64(t.opID)
		for k, v := range s.Counts {
			counts[s.Name+"."+k] += float64(v) / float64(t.opID)
		}
	}
	return
}

// write stores the trace as JSON at path.
func (t *tracer) write(path, workload string, seed int64) error {
	self := t.selfTimes()
	type out struct {
		span
		SelfNs int64 `json:"self_ns"`
	}
	spans := make([]out, len(t.spans))
	for i := range t.spans {
		spans[i] = out{t.spans[i], self[i].Nanoseconds()}
	}
	b, err := json.Marshal(map[string]any{"workload": workload, "seed": seed, "ops": t.opID, "spans": spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
