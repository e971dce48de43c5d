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
			if st := sp.Stats(); st.SpilledBytes == 0 || st.Partitions == 0 {
				t.Fatalf("%s: join did not spill: %+v", label, st)
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

// TestHashJoinSpillSelfCalibrated is the out-of-core join oracle,
// calibrated against the machine instead of hard-coded byte counts: for
// a narrow and a wide fan-out join it measures the serial peaks P in
// memory and S with a one-byte spill threshold, requires S < P, and at
// the midpoint budget requires the in-memory join to fail at workers 8
// with the typed error and no stranded bytes, and the spilling join to
// succeed at workers 1, 2 and 8, bitwise identical, under the budget.
// The threshold is explicit because the automatic one (half the budget)
// never sends these joins to disk: joinSpillEst counts probe rows before
// fan-out.
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
			sp.Cleanup()
			arena.Close()
			return outcome{res, tn.PeakBytes(), tn.LiveBytes(), sp.Stats().SpilledBytes, err}
		}
		label := fmt.Sprintf("width=%d", width)

		mem := join(1, 0, false)
		shed := join(1, 0, true)
		if mem.err != nil || shed.err != nil {
			t.Fatalf("%s: calibration runs failed: %v / %v", label, mem.err, shed.err)
		}
		bitwiseSame(t, label+" spilled calibration", mem.res, shed.res)
		if shed.spill == 0 || shed.peak >= mem.peak {
			t.Fatalf("%s: spilling %d bytes did not reduce the resident peak: %d spilled vs %d in-memory",
				label, shed.spill, shed.peak, mem.peak)
		}
		budget := (mem.peak + shed.peak) / 2
		t.Logf("%s: serial peaks %d in-memory, %d spilled; midpoint budget %d", label, mem.peak, shed.peak, budget)

		tight := join(8, budget, false)
		if !errors.Is(tight.err, exec.ErrMemoryBudget) {
			t.Fatalf("%s: in-memory join under %d bytes: err = %v, want ErrMemoryBudget", label, budget, tight.err)
		}
		if tight.live != 0 {
			t.Fatalf("%s: tenant live = %d after the failed join, want 0", label, tight.live)
		}
		for _, workers := range []int{1, 2, 8} {
			got := join(workers, budget, true)
			if got.err != nil {
				t.Fatalf("%s workers=%d: spilled join failed under budget %d: %v", label, workers, budget, got.err)
			}
			bitwiseSame(t, fmt.Sprintf("%s workers=%d", label, workers), mem.res, got.res)
			if got.spill == 0 || got.peak > budget {
				t.Fatalf("%s workers=%d: spilled %d bytes, peak %d against budget %d", label, workers, got.spill, got.peak, budget)
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
