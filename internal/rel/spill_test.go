package rel

import (
	"errors"
	"fmt"
	"math"
	"testing"

	"repro/internal/bat"
	"repro/internal/exec"
)

// bitwiseSame compares two relations cell by cell with floats compared
// by bit pattern.
func bitwiseSame(t testing.TB, label string, a, b *Relation) {
	t.Helper()
	if a.NumRows() != b.NumRows() || a.NumCols() != b.NumCols() {
		t.Fatalf("%s: shape %dx%d != %dx%d", label, a.NumRows(), a.NumCols(), b.NumRows(), b.NumCols())
	}
	for j := range a.Cols {
		av, bv := a.Cols[j].Vector(), b.Cols[j].Vector()
		if av.Type() != bv.Type() {
			t.Fatalf("%s: col %d type %v != %v", label, j, av.Type(), bv.Type())
		}
		for i := 0; i < a.NumRows(); i++ {
			switch av.Type() {
			case bat.Float:
				if math.Float64bits(av.Floats()[i]) != math.Float64bits(bv.Floats()[i]) {
					t.Fatalf("%s: col %d row %d: %x != %x", label, j, i,
						math.Float64bits(av.Floats()[i]), math.Float64bits(bv.Floats()[i]))
				}
			case bat.Int:
				if av.Ints()[i] != bv.Ints()[i] {
					t.Fatalf("%s: col %d row %d: %d != %d", label, j, i, av.Ints()[i], bv.Ints()[i])
				}
			default:
				if av.Strings()[i] != bv.Strings()[i] {
					t.Fatalf("%s: col %d row %d: %q != %q", label, j, i, av.Strings()[i], bv.Strings()[i])
				}
			}
		}
	}
}

// spillCtx returns a context whose spill manager stages every eligible
// operator under a test temp dir (one-byte threshold), plus the manager
// for stats assertions.
func spillCtx(t *testing.T, workers int) (*exec.Ctx, *exec.Spill) {
	t.Helper()
	sp := exec.NewSpill(t.TempDir(), 1)
	t.Cleanup(sp.Cleanup)
	return exec.NewCtx(workers, nil, nil).WithSpill(sp), sp
}

// joinRels builds a probe/build pair with duplicate int keys (fan-out
// matches), a string attribute, and unmatched rows on both sides.
func joinRels(n, m int) (*Relation, *Relation) {
	rk := make([]int64, n)
	rv := make([]float64, n)
	rs := make([]string, n)
	for i := range rk {
		rk[i] = int64((i * 13) % (m + m/2)) // some keys miss the build side
		rv[i] = float64(i)*0.75 - 3
		rs[i] = fmt.Sprintf("p%d", i%11)
	}
	sk := make([]int64, m)
	sv := make([]float64, m)
	for j := range sk {
		sk[j] = int64(j % m) // duplicate-free here, fan-out via probe dups
		sv[j] = float64(j) * 1.5
	}
	r, err := New("r", Schema{
		{Name: "ka", Type: bat.Int}, {Name: "va", Type: bat.Float}, {Name: "ta", Type: bat.String},
	}, []*bat.BAT{bat.FromInts(rk), bat.FromFloats(rv), bat.FromStrings(rs)})
	if err != nil {
		panic(err)
	}
	s, err := New("s", Schema{
		{Name: "kb", Type: bat.Int}, {Name: "vb", Type: bat.Float},
	}, []*bat.BAT{bat.FromInts(sk), bat.FromFloats(sv)})
	if err != nil {
		panic(err)
	}
	return r, s
}

func TestHashJoinSpillBitwise(t *testing.T) {
	r, s := joinRels(3*bat.SerialCutoff+17, bat.SerialCutoff)
	for _, jt := range []JoinType{Inner, Left} {
		base, err := HashJoin(exec.New(4), r, s, []string{"ka"}, []string{"kb"}, jt)
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{1, 2, 8} {
			c, sp := spillCtx(t, workers)
			got, err := HashJoin(c, r, s, []string{"ka"}, []string{"kb"}, jt)
			if err != nil {
				t.Fatal(err)
			}
			label := fmt.Sprintf("join jt=%d workers=%d", jt, workers)
			bitwiseSame(t, label, base, got)
			// The join holds no pair list to stage: its footprint beyond
			// the inputs is the build index, the offsets and the result.
			if st := sp.Stats(); st.SpilledBytes != 0 || st.Events != 0 {
				t.Fatalf("%s: join spilled: %+v", label, st)
			}
		}
	}
}

// fanoutRels builds a high-fanout join: 8Ki probe rows and 2Ki build
// rows over 16 shared key values — 1Mi pairs — with width float payload
// columns on the probe side. Narrow, the pair arrays dominate the join's
// footprint; wide, the gathered result columns do.
func fanoutRels(width int) (*Relation, *Relation) {
	const pn, bn = 1 << 13, 2048
	pk := make([]int64, pn)
	for i := range pk {
		pk[i] = int64(i % 16)
	}
	schema := Schema{{Name: "k", Type: bat.Int}}
	cols := []*bat.BAT{bat.FromInts(pk)}
	for v := 0; v < width; v++ {
		f := make([]float64, pn)
		for i := range f {
			f[i] = float64((i*31+v*7)%257) / 16
		}
		schema = append(schema, Attr{Name: fmt.Sprintf("v%d", v), Type: bat.Float})
		cols = append(cols, bat.FromFloats(f))
	}
	return MustNew("p", schema, cols), MustNew("b", Schema{{Name: "kb", Type: bat.Int}}, []*bat.BAT{bat.FromInts(pk[:bn])})
}

// resultBytes returns the arena bytes a relation's dense columns hold:
// their full capacities, which is what the arena charged for them.
func resultBytes(r *Relation) int64 {
	var total int64
	for _, col := range r.Cols {
		switch v := col.Vector(); v.Type() {
		case bat.Float:
			total += int64(cap(v.Floats())) * 8
		case bat.Int:
			total += int64(cap(v.Ints())) * 8
		default:
			total += int64(cap(v.Strings())) * 16
		}
	}
	return total
}

// TestHashJoinSpillSelfCalibrated holds the join to its result budget,
// calibrated against the machine instead of hard-coded byte counts: for
// a narrow and a wide fan-out join it measures R, the bytes of the
// reference result columns. Under a budget of R + 1 MiB the join must
// succeed at workers 1, 2 and 8, with and without a spill manager,
// bitwise identical, without spilling, and peak within the budget.
// Under R - 1 it must fail with the typed error, and the tenant's live
// bytes must be back at 0 before the arena closes: a result column not
// handed back when the budget panic unwinds fails this leg.
func TestHashJoinSpillSelfCalibrated(t *testing.T) {
	type outcome struct {
		res               *Relation
		peak, live, spill int64
		err               error
	}
	for _, width := range []int{0, 6} {
		r, s := fanoutRels(width)
		join := func(workers int, budget int64, spill bool) outcome {
			tn := exec.NewGovernor(0, 0).Tenant("calib", budget)
			arena := tn.NewArena()
			c := exec.NewCtx(workers, arena, nil)
			var sp *exec.Spill
			if spill {
				sp = exec.NewSpill(t.TempDir(), 1)
				c = c.WithSpill(sp)
			}
			res, err := HashJoin(c, r, s, []string{"k"}, []string{"kb"}, Inner)
			live := tn.LiveBytes()
			if res != nil {
				live -= resultBytes(res)
			}
			sp.Cleanup()
			arena.Close()
			return outcome{res, tn.PeakBytes(), live, sp.Stats().SpilledBytes, err}
		}
		label := fmt.Sprintf("width=%d", width)

		ref := join(1, 0, false)
		if ref.err != nil {
			t.Fatalf("%s: reference join failed: %v", label, ref.err)
		}
		R := resultBytes(ref.res)
		budget := R + 1<<20
		t.Logf("%s: result %d bytes, unbudgeted serial peak %d", label, R, ref.peak)
		for _, workers := range []int{1, 2, 8} {
			for _, spill := range []bool{false, true} {
				at := fmt.Sprintf("%s workers=%d spill=%v", label, workers, spill)
				got := join(workers, budget, spill)
				if got.err != nil {
					t.Fatalf("%s: join failed under budget %d: %v", at, budget, got.err)
				}
				bitwiseSame(t, at, ref.res, got.res)
				if got.spill != 0 || got.peak > budget || got.live != 0 {
					t.Fatalf("%s: spilled %d bytes, peak %d against budget %d, %d live bytes beside the result",
						at, got.spill, got.peak, budget, got.live)
				}
				t.Logf("%s: peak %d", at, got.peak)

				tight := join(workers, R-1, spill)
				if !errors.Is(tight.err, exec.ErrMemoryBudget) {
					t.Fatalf("%s: join under %d bytes: err = %v, want ErrMemoryBudget", at, R-1, tight.err)
				}
				if tight.live != 0 {
					t.Fatalf("%s: tenant live = %d after the failed join, want 0", at, tight.live)
				}
			}
		}
	}
}

func TestGroupBySpillBitwise(t *testing.T) {
	aggs := []AggSpec{
		{Func: Count, As: "n"},
		{Func: Sum, Attr: "a", As: "sa"},
		{Func: Avg, Attr: "b", As: "ab"},
		{Func: Min, Attr: "a", As: "ma"},
		{Func: Max, Attr: "b", As: "xb"},
	}
	// Three-plus chunks so the replay must reproduce chunk-partial
	// combines; cardinality high enough for many spilled keys.
	r := aggRel(3*bat.SerialCutoff+257, 4096)
	base, err := GroupBy(exec.New(4), r, []string{"k", "tag"}, aggs)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 2, 8} {
		c, sp := spillCtx(t, workers)
		got, err := GroupBy(c, r, []string{"k", "tag"}, aggs)
		if err != nil {
			t.Fatal(err)
		}
		label := fmt.Sprintf("groupby workers=%d", workers)
		bitwiseSame(t, label, base, got)
		if st := sp.Stats(); st.SpilledBytes == 0 {
			t.Fatalf("%s: group by did not spill: %+v", label, st)
		}
	}
}

// TestStreamAggSpillMatchesGroupBy drives the spilling accumulator one
// unaligned morsel at a time — the streaming grouped path — against the
// materializing GroupBy.
func TestStreamAggSpillMatchesGroupBy(t *testing.T) {
	aggs := []AggSpec{
		{Func: Count, As: "n"},
		{Func: Sum, Attr: "a", As: "sa"},
		{Func: Min, Attr: "b", As: "mb"},
	}
	n := 2*bat.SerialCutoff + 999
	r := aggRel(n, 1031)
	base, err := GroupBy(exec.New(4), r, []string{"k", "tag"}, aggs)
	if err != nil {
		t.Fatal(err)
	}
	kcol, _ := r.Col("k")
	tcol, _ := r.Col("tag")
	acol, _ := r.Col("a")
	bcol, _ := r.Col("b")
	ints := kcol.Vector().Ints()
	tags := tcol.Vector().Strings()
	af := acol.Vector().Floats()
	bf := bcol.Vector().Floats()

	c, sp := spillCtx(t, 4)
	sa, err := NewStreamAgg(c, "r", []string{"k", "tag"}, []bat.Type{bat.Int, bat.String}, aggs)
	if err != nil {
		t.Fatal(err)
	}
	for lo := 0; lo < n; {
		hi := min(lo+1000, n)
		keys := []*bat.Vector{bat.NewIntVector(ints[lo:hi]), bat.NewStringVector(tags[lo:hi])}
		aggIn := [][]float64{nil, af[lo:hi], bf[lo:hi]}
		if err := sa.Consume(keys, aggIn, hi-lo); err != nil {
			t.Fatal(err)
		}
		lo = hi
	}
	got, err := sa.Finish()
	if err != nil {
		t.Fatal(err)
	}
	bitwiseSame(t, "streamagg spill", base, got)
	if st := sp.Stats(); st.SpilledBytes == 0 {
		t.Fatalf("streaming aggregation did not spill: %+v", st)
	}
}
