package main

import (
	"fmt"
	"time"

	"repro/benchmark/gen"
	"repro/internal/bat"
	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/rel"
	"repro/rma"
)

// tripCount is the paper's §8.6(4) / Fig. 18 (and Fig. 13) analysis:
// ADD(y1 BY rider, y2 BY rider2) over two rider x destination relations
// whose rows the seed shuffled, so nearly all the time goes into handling
// contextual information (sorting both arguments by their order schema);
// the kernel is a few ms.
type tripCount struct {
	opts   *core.Options
	db     *rma.DB
	y1, y2 *rel.Relation
	want   [][]float64 // want[d][rider] = y1.dest_d + y2.dest_d of that rider
}

const tripCountSQL = "SELECT * FROM ADD(y1 BY rider, y2 BY rider2)"

func (w *tripCount) setup(e *env) error {
	t1, t2 := gen.RiderCounts(e.sz.riders, e.sz.dests, e.seed)
	e.track(t1, t2)
	w.opts = engineOptions(e.par)
	w.y1, w.y2 = toRelation(t1), toRelation(t2)
	w.db = rma.NewDB()
	w.db.SetRMAOptions(w.opts)
	w.db.Register("y1", w.y1)
	w.db.Register("y2", w.y2)

	// The elementwise sum in plain Go, indexed by rider.
	w.want = make([][]float64, e.sz.dests)
	for d := range w.want {
		w.want[d] = make([]float64, e.sz.riders)
		for _, t := range []*gen.Table{t1, t2} {
			riders, counts := t.Cols[0].I, t.Cols[1+d].F
			for i, r := range riders {
				w.want[d][r] += counts[i]
			}
		}
	}
	return nil
}

func (w *tripCount) clients() int { return 1 }
func (w *tripCount) warmup() int  { return 5 }
func (w *tripCount) tuples() int  { return w.y1.NumRows() + w.y2.NumRows() }
func (w *tripCount) audit() error { return nil }
func (w *tripCount) close() error { return w.db.Close() }

func (w *tripCount) sqlOp(i int) (time.Duration, error) { return w.op(0, i) }

func (w *tripCount) op(_, _ int) (time.Duration, error) {
	t0 := time.Now()
	sum, err := w.db.Query(tripCountSQL)
	took := time.Since(t0)
	if err != nil {
		return 0, err
	}
	return took, w.verify(sum)
}

// verify compares every cell of the sum; the counts are small integers, so
// the float sums are exact.
func (w *tripCount) verify(sum *rel.Relation) error {
	riders, err := intsOf(sum, "rider")
	if err != nil {
		return err
	}
	riders2, err := intsOf(sum, "rider2")
	if err != nil {
		return err
	}
	if len(riders) != len(w.want[0]) {
		return fmt.Errorf("%d rows in the sum, want %d", len(riders), len(w.want[0]))
	}
	for i, r := range riders {
		if riders2[i] != r {
			return fmt.Errorf("row %d pairs rider %d with rider2 %d", i, r, riders2[i])
		}
	}
	for d, want := range w.want {
		got, err := floatsOf(sum, fmt.Sprintf("dest%d", d))
		if err != nil {
			return err
		}
		for i, r := range riders {
			if got[i] != want[r] {
				return fmt.Errorf("dest%d of rider %d = %v, want %v", d, r, got[i], want[r])
			}
		}
	}
	return nil
}

func (w *tripCount) replay(tr *tracer, _ int) error {
	op := tr.beginOp()
	sum, err := rmaCall(tr, "core.add", w.opts, func(o *core.Options) (*rel.Relation, error) {
		return core.Add(w.y1, []string{"rider"}, w.y2, []string{"rider2"}, o)
	})
	if err != nil {
		return err
	}
	tr.end(op)
	return w.verify(sum)
}

// probe times bat.SortIndex on the operation's two order columns: the part
// of core.context_ms a faster sort can remove.
func (w *tripCount) probe(m map[string]float64) error {
	dbMetrics(w.db.DB, m)
	c := exec.New(w.opts.Parallelism)
	var runs []float64
	for r := 0; r < 5; r++ {
		t0 := time.Now()
		for _, col := range []*bat.BAT{w.y1.Cols[0], w.y2.Cols[0]} {
			c.Arena().FreeInts(bat.SortIndex(c, []*bat.BAT{col}))
		}
		runs = append(runs, ms(time.Since(t0)))
	}
	m["bat.sort_ms"] = median(runs)
	return nil
}
