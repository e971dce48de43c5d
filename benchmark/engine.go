package main

import (
	"fmt"
	"math"
	"os"
	"strings"

	"repro/benchmark/gen"
	"repro/internal/bat"
	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/rel"
	"repro/internal/store"
)

// tenant is the accounting principal of the in-process workloads; its
// governor books give exec.peak_bytes and exec.pool_hit_rate.
const tenant = "bench"

// engineOptions are the options every in-process statement runs under:
// the explicit worker budget and a tenant on a private governor, default
// policy and sort mode.
func engineOptions(par int) *core.Options {
	return &core.Options{Parallelism: par, Tenant: tenant, Governor: exec.NewGovernor(0, 0)}
}

// toRelation wraps a generated table as an engine relation. The columns
// are shared, not copied: the engine never writes its inputs.
func toRelation(t *gen.Table) *rel.Relation {
	schema := make(rel.Schema, len(t.Cols))
	cols := make([]*bat.BAT, len(t.Cols))
	for k, c := range t.Cols {
		switch {
		case c.I != nil:
			schema[k], cols[k] = rel.Attr{Name: c.Name, Type: bat.Int}, bat.FromInts(c.I)
		case c.F != nil:
			schema[k], cols[k] = rel.Attr{Name: c.Name, Type: bat.Float}, bat.FromFloats(c.F)
		default:
			schema[k], cols[k] = rel.Attr{Name: c.Name, Type: bat.String}, bat.FromStrings(c.S)
		}
	}
	return rel.MustNew(t.Name, schema, cols)
}

// writeSegment stores a generated table as the segment file a persisted
// table of that name checkpoints to, and returns the file's size.
func writeSegment(path string, t *gen.Table) (int64, error) {
	specs := make([]store.ColSpec, len(t.Cols))
	data := make([]store.ColData, len(t.Cols))
	for k, c := range t.Cols {
		switch {
		case c.I != nil:
			specs[k], data[k] = store.ColSpec{Name: c.Name, Kind: store.KInt}, store.ColData{I: c.I}
		case c.F != nil:
			specs[k], data[k] = store.ColSpec{Name: c.Name, Kind: store.KFloat}, store.ColData{F: c.F}
		default:
			specs[k], data[k] = store.ColSpec{Name: c.Name, Kind: store.KString}, store.ColData{S: c.S}
		}
	}
	w, err := store.Create(path, t.Name, specs)
	if err != nil {
		return 0, err
	}
	if err := w.Append(t.Rows(), data); err != nil {
		w.Close()
		return 0, err
	}
	if err := w.Close(); err != nil {
		return 0, err
	}
	st, err := os.Stat(path)
	if err != nil {
		return 0, err
	}
	return st.Size(), nil
}

func floatsOf(r *rel.Relation, name string) ([]float64, error) {
	c, err := r.Col(name)
	if err != nil {
		return nil, err
	}
	return c.Floats()
}

func intsOf(r *rel.Relation, name string) ([]int64, error) {
	c, err := r.Col(name)
	if err != nil {
		return nil, err
	}
	if c.Type() != bat.Int {
		return nil, fmt.Errorf("column %s is %v, want int", name, c.Type())
	}
	return c.Vector().Ints(), nil
}

func stringsOf(r *rel.Relation, name string) ([]string, error) {
	c, err := r.Col(name)
	if err != nil {
		return nil, err
	}
	if c.Type() != bat.String {
		return nil, fmt.Errorf("column %s is %v, want string", name, c.Type())
	}
	return c.Vector().Strings(), nil
}

// relTol is the relative tolerance for results the engine may compute in
// another summation order than the plain-Go reference.
const relTol = 1e-9

// near reports |got-want| <= relTol*scale.
func near(got, want, scale float64) bool {
	return math.Abs(got-want) <= relTol*math.Abs(scale)
}

// sameBits compares float slices bitwise: what the engine promises for
// repeated executions and across worker counts.
func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// replayCtx is the execution context of one replayed operation: the worker
// budget and a fresh arena charging the same tenant a statement charges.
// done closes the arena, as the end of a statement does.
func replayCtx(opts *core.Options) (c *exec.Ctx, done func()) {
	arena := opts.Governor.ArenaFor(opts.Tenant, 0)
	return exec.NewCtx(opts.Parallelism, arena, nil), arena.Close
}

// rmaCall runs one relational matrix operation under the statement options
// inside a span that carries the engine's own context/transform/kernel
// split as counts. Stats are only requested with tracing on, as a
// statement does not request them.
func rmaCall(tr *tracer, name string, base *core.Options, call func(*core.Options) (*rel.Relation, error)) (*rel.Relation, error) {
	opts := *base
	if tr != nil {
		opts.Stats = &core.Stats{}
	}
	id := tr.begin(name)
	r, err := call(&opts)
	if st := opts.Stats; st != nil {
		tr.end(id, kv{"context_ns", st.Context.Nanoseconds()}, kv{"transform_ns", st.Transform.Nanoseconds()},
			kv{"kernel_ns", st.Kernel.Nanoseconds()})
	}
	return r, err
}

// joinCall runs rel.HashJoin inside a rel.join span. With allocs set, the
// span also carries the heap objects the join allocated (the process-wide
// count, so only meaningful where nothing else runs beside the join).
func joinCall(tr *tracer, c *exec.Ctx, l, r *rel.Relation, lk, rk []string, allocs bool) (*rel.Relation, error) {
	var before uint64
	if allocs {
		before = tr.mallocs()
	}
	s := tr.begin("rel.join")
	out, err := rel.HashJoin(c, l, r, lk, rk, rel.Inner)
	if err != nil {
		return nil, err
	}
	counts := []kv{{"rows_in", int64(l.NumRows() + r.NumRows())}, {"rows_out", int64(out.NumRows())}}
	if allocs {
		counts = append(counts, kv{"allocs", int64(tr.mallocs() - before)})
	}
	tr.end(s, counts...)
	return out, nil
}

// coreSplit sums the context/transform/kernel counts of every core.* span
// into the three per-layer metrics, in ms per operation.
func coreSplit(counts map[string]float64, m map[string]float64) {
	for name, v := range counts {
		if !strings.HasPrefix(name, "core.") {
			continue
		}
		for _, part := range []string{"context", "transform", "kernel"} {
			if strings.HasSuffix(name, "."+part+"_ns") {
				m["core."+part+"_ms"] += v / 1e6
			}
		}
	}
}
