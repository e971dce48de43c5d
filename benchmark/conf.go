package main

import (
	"fmt"
	"math"
	"strings"
	"time"

	"repro/benchmark/gen"
	"repro/internal/bat"
	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/rel"
	"repro/rma"
)

// confCov is the paper's §8.6(3) / Fig. 17 analysis: centre the author x
// conference publication counts, CPD(pubs BY author, pubs BY author),
// scale to a covariance, join the ranking and keep the A++ conferences.
// One operation centres the columns with the engine's vectorised column
// arithmetic (as the paper's RMA+ does), registers the result and runs one
// SQL statement for the rest. The matrix part dominates; almost no rel.
type confCov struct {
	opts          *core.Options
	db            *rma.DB
	pubs, ranking *rel.Relation
	sql           string
	confs         []string
	want          map[string][]float64 // covariance row of every A++ conference
	scale         map[string][]float64 // sqrt(var_j*var_k): what relTol is relative to
	first         []float64
}

func (w *confCov) setup(e *env) error {
	pt, rt := gen.Publications(e.sz.authors, e.sz.confs, e.seed)
	e.track(pt, rt)
	w.opts, w.first = engineOptions(e.par), nil
	w.pubs, w.ranking = toRelation(pt), toRelation(rt)
	w.db = rma.NewDB()
	w.db.SetRMAOptions(w.opts)
	w.db.Register("ranking", w.ranking)

	w.confs = w.pubs.Schema.Names()[1:]
	scaled := make([]string, len(w.confs))
	for k, c := range w.confs {
		scaled[k] = fmt.Sprintf("c.%s / %d AS %s", c, e.sz.authors-1, c)
	}
	w.sql = "SELECT c.C AS conf, r.rating AS rating, " + strings.Join(scaled, ", ") +
		" FROM CPD(centred BY author, centred BY author) c JOIN ranking r ON c.C = r.conf WHERE r.rating = 'A++'"
	w.reference(pt, rt)
	return nil
}

// reference computes, in plain Go and two passes, the covariance of every
// A++ conference with every conference.
func (w *confCov) reference(pubs, ranking *gen.Table) {
	n := float64(pubs.Rows())
	cols := pubs.Cols[1:]
	mean := make([]float64, len(cols))
	for k, c := range cols {
		for _, v := range c.F {
			mean[k] += v
		}
		mean[k] /= n
	}
	cov := func(j, k int) float64 {
		var s float64
		for i, v := range cols[j].F {
			s += (v - mean[j]) * (cols[k].F[i] - mean[k])
		}
		return s / (n - 1)
	}
	sd := make([]float64, len(cols))
	for k := range cols {
		sd[k] = math.Sqrt(cov(k, k))
	}
	w.want, w.scale = map[string][]float64{}, map[string][]float64{}
	conf, rating := ranking.Col("conf").S, ranking.Col("rating").S
	for r := range conf {
		if rating[r] != "A++" {
			continue
		}
		j := 0
		for cols[j].Name != conf[r] {
			j++
		}
		row, scale := make([]float64, len(cols)), make([]float64, len(cols))
		for k := range cols {
			row[k], scale[k] = cov(j, k), sd[j]*sd[k]
		}
		w.want[conf[r]], w.scale[conf[r]] = row, scale
	}
}

func (w *confCov) clients() int { return 1 }
func (w *confCov) warmup() int  { return 5 }
func (w *confCov) tuples() int  { return w.pubs.NumRows() + w.ranking.NumRows() }
func (w *confCov) audit() error { return nil }
func (w *confCov) close() error { return w.db.Close() }

func (w *confCov) sqlOp(i int) (time.Duration, error) { return w.op(0, i) }

// centre subtracts every column's mean.
func (w *confCov) centre(c *exec.Ctx) (*rel.Relation, error) {
	n := float64(w.pubs.NumRows())
	cols := make([]*bat.BAT, len(w.pubs.Cols))
	cols[0] = w.pubs.Cols[0]
	for k := 1; k < len(cols); k++ {
		cols[k] = bat.AddScalar(c, w.pubs.Cols[k], -bat.Sum(c, w.pubs.Cols[k])/n)
	}
	return rel.New("centred", w.pubs.Schema, cols)
}

func (w *confCov) op(_, _ int) (time.Duration, error) {
	t0 := time.Now()
	centred, err := w.centre(exec.New(w.opts.Parallelism))
	if err != nil {
		return 0, err
	}
	w.db.Register("centred", centred)
	res, err := w.db.Query(w.sql)
	took := time.Since(t0)
	if err != nil {
		return 0, err
	}
	return took, w.verify(res, "conf", true)
}

// verify checks every returned covariance against the reference, relative
// to the two standard deviations, and the SQL answer bitwise against the
// first one.
func (w *confCov) verify(res *rel.Relation, key string, repeatable bool) error {
	names, err := stringsOf(res, key)
	if err != nil {
		return err
	}
	if len(names) != len(w.want) {
		return fmt.Errorf("%d A++ conferences returned, want %d", len(names), len(w.want))
	}
	var all []float64
	for k, c := range w.confs {
		got, err := floatsOf(res, c)
		if err != nil {
			return err
		}
		for r, name := range names {
			want, ok := w.want[name]
			if !ok {
				return fmt.Errorf("conference %s returned but not rated A++", name)
			}
			if !near(got[r], want[k], w.scale[name][k]) {
				return fmt.Errorf("cov(%s,%s) = %v, reference %v", name, c, got[r], want[k])
			}
		}
		all = append(all, got...)
	}
	if !repeatable {
		return nil
	}
	if w.first == nil {
		w.first = all
	} else if !sameBits(all, w.first) {
		return fmt.Errorf("covariances differ bitwise from the first answer")
	}
	return nil
}

func (w *confCov) replay(tr *tracer, _ int) error {
	c, done := replayCtx(w.opts)
	defer done()
	op := tr.beginOp()

	s := tr.begin("bat.centre")
	centred, err := w.centre(c)
	if err != nil {
		return err
	}
	tr.end(s, kv{"rows_in", int64(centred.NumRows())})

	cov, err := rmaCall(tr, "core.cpd", w.opts, func(o *core.Options) (*rel.Relation, error) {
		return core.Cpd(centred, []string{"author"}, centred.WithName("centred2"), []string{"author"}, o)
	})
	if err != nil {
		return err
	}

	s = tr.begin("bat.scale")
	scale := 1 / float64(w.pubs.NumRows()-1)
	for k := 1; k < cov.NumCols(); k++ {
		cov.Cols[k] = bat.MulScalar(c, cov.Cols[k], scale)
	}
	tr.end(s)

	joined, err := joinCall(tr, c, cov, w.ranking, []string{"C"}, []string{"conf"}, false)
	if err != nil {
		return err
	}

	s = tr.begin("rel.select")
	pred, err := joined.StringPred("rating", func(r string) bool { return r == "A++" })
	if err != nil {
		return err
	}
	top := joined.Select(c, pred)
	tr.end(s, kv{"rows_in", int64(joined.NumRows())}, kv{"rows_out", int64(top.NumRows())})

	tr.end(op)
	return w.verify(top, "C", false)
}

// probe times the same CPD under both of the paper's implementation
// policies, so that Fig. 17b stays a diffable fact: the dense SYRK kernel
// (with its computed flop rate) against the no-copy BAT kernel.
func (w *confCov) probe(m map[string]float64) error {
	dbMetrics(w.db.DB, m)
	centred, err := w.centre(exec.New(w.opts.Parallelism))
	if err != nil {
		return err
	}
	kernel := func(p core.Policy) (float64, error) {
		var runs []float64
		for r := 0; r < 3; r++ {
			st := &core.Stats{}
			_, err := core.Cpd(centred, []string{"author"}, centred.WithName("centred2"), []string{"author"},
				&core.Options{Parallelism: w.opts.Parallelism, Policy: p, Stats: st})
			if err != nil {
				return 0, err
			}
			runs = append(runs, ms(st.Kernel))
		}
		return median(runs), nil
	}
	if m["linalg.syrk_ms"], err = kernel(core.PolicyDense); err != nil {
		return err
	}
	if m["batlin.cpd_ms"], err = kernel(core.PolicyBAT); err != nil {
		return err
	}
	// A symmetric rank-k update of an n x k matrix: k(k+1)/2 dot products
	// of length n, one multiply and one add each.
	n, k := float64(w.pubs.NumRows()), float64(len(w.confs))
	m["linalg.gflops"] = n * k * (k + 1) / (m["linalg.syrk_ms"] * 1e6)
	return nil
}
