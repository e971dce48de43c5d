package exec

import (
	"sync"
	"sync/atomic"
)

// This file carries the observability side of the streaming pipeline:
// per-stage batch/row counters and peak-held-bytes watermarks. The
// streaming operators in internal/sql report into a PipelineStats; the
// CLIs print the snapshot next to the tenant metrics so the
// max-per-stage memory shape of a streamed statement is visible.

// StageStats is the snapshot of one pipeline stage.
type StageStats struct {
	Name      string // operator label, e.g. "scan(t)", "join", "group", "topk"
	Batches   int64  // morsels emitted; for "topk", morsels folded
	Rows      int64  // rows emitted across all morsels
	PeakBytes int64  // high-water mark of bytes held by the stage at once
}

// PipelineStats collects the per-stage counters of one streamed
// statement. Stages register in pipeline order; Snapshot returns them
// in that order.
type PipelineStats struct {
	mu     sync.Mutex
	stages []*StageTracker
}

// NewPipelineStats returns an empty collector.
func NewPipelineStats() *PipelineStats { return &PipelineStats{} }

// Stage registers a named stage and returns its tracker. Nil-safe: on a
// nil collector it returns a nil tracker, whose methods are no-ops, so
// operators report unconditionally.
func (p *PipelineStats) Stage(name string) *StageTracker {
	if p == nil {
		return nil
	}
	t := &StageTracker{name: name}
	p.mu.Lock()
	p.stages = append(p.stages, t)
	p.mu.Unlock()
	return t
}

// Snapshot returns the per-stage stats in registration order.
func (p *PipelineStats) Snapshot() []StageStats {
	if p == nil {
		return nil
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make([]StageStats, len(p.stages))
	for i, t := range p.stages {
		out[i] = StageStats{
			Name:      t.name,
			Batches:   t.batches.Load(),
			Rows:      t.rows.Load(),
			PeakBytes: t.peak.Load(),
		}
	}
	return out
}

// StageTracker is the live counter set of one stage. All methods are
// nil-safe no-ops so un-instrumented runs cost nothing.
type StageTracker struct {
	name    string
	batches atomic.Int64
	rows    atomic.Int64
	held    atomic.Int64 // bytes currently held by the stage
	peak    atomic.Int64 // high-water mark of held
}

// Batch records one emitted morsel of the given row count and byte
// size, holding the bytes until Unhold.
func (t *StageTracker) Batch(rows int, bytes int64) {
	if t == nil {
		return
	}
	t.batches.Add(1)
	t.rows.Add(int64(rows))
	maxInt64(&t.peak, t.held.Add(bytes))
}

// Emit records rows a pipeline breaker emits once, at its end, beside
// the batches it folded.
func (t *StageTracker) Emit(rows int) {
	if t == nil {
		return
	}
	t.rows.Add(int64(rows))
}

// Unhold releases bytes previously recorded by Batch.
func (t *StageTracker) Unhold(bytes int64) {
	if t == nil || bytes == 0 {
		return
	}
	t.held.Add(-bytes)
}
