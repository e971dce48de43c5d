package core

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"testing"

	"repro/internal/bat"
	"repro/internal/rel"
)

// denseRel builds a rows×cols relation with a shuffled int key and float
// application columns holding negatives, exact zeros (the kernels'
// zero-skip) and magnitude spread.
func denseRel(name, key string, rows, cols int, seed int64) *rel.Relation {
	rng := rand.New(rand.NewSource(seed))
	keys := make([]int64, rows)
	for i, k := range rng.Perm(rows) {
		keys[i] = int64(k)
	}
	schema := rel.Schema{{Name: key, Type: bat.Int}}
	bats := []*bat.BAT{bat.FromInts(keys)}
	for j := 0; j < cols; j++ {
		f := make([]float64, rows)
		for i := range f {
			switch rng.Intn(8) {
			case 0:
			case 1:
				f[i] = -rng.Float64() * 100
			default:
				f[i] = (rng.Float64() - 0.5) * 10
			}
		}
		schema = append(schema, rel.Attr{Name: fmt.Sprintf("%s%03d", name, j), Type: bat.Float})
		bats = append(bats, bat.FromFloats(f))
	}
	return rel.MustNew(name, schema, bats)
}

// relationHash folds a relation's schema and every cell's bits into
// one FNV-1a digest.
func relationHash(r *rel.Relation) string {
	h := fnv.New64a()
	var buf [8]byte
	word := func(u uint64) {
		binary.LittleEndian.PutUint64(buf[:], u)
		h.Write(buf[:])
	}
	for k, attr := range r.Schema {
		fmt.Fprintf(h, "%s:%d;", attr.Name, attr.Type)
		for i := 0; i < r.NumRows(); i++ {
			v := r.Cols[k].Get(i)
			switch v.Type {
			case bat.Float:
				word(math.Float64bits(v.F))
			case bat.Int:
				word(uint64(v.I))
			default:
				fmt.Fprintf(h, "%d:%s", len(v.S), v.S)
			}
		}
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// TestDenseResultBitsPinned pins the result bits of the dense products
// and the QR factors at small shapes (inner dimension, output columns
// and QR columns past 256, rows past one row strip) and shuffled keys.
// The digests were recorded when shapes this small still ran on
// separate flat kernels (the cpd-self-7/9/130/257 ones while the cross
// product still ran on 256×256 tiles), so a change in any kernel's
// accumulation order fails here, at every worker budget.
func TestDenseResultBitsPinned(t *testing.T) {
	tall := denseRel("t", "K", 600, 5, 1)
	tall2 := denseRel("u", "K2", 600, 3, 2)
	small := denseRel("s", "Ks", 5, 4, 3)
	left := denseRel("l", "Kl", 20, 300, 4)
	right := denseRel("r", "Kr", 300, 3, 5)
	wide := denseRel("w", "Kw", 530, 262, 6)
	wide2 := denseRel("v", "Kv", 530, 3, 8)
	opdR := denseRel("o", "Ko", 260, 5, 7)
	// Self cross products of output widths ≡ 3 and 1 mod 4 (the
	// kernel's four-wide body and its tail), 130 paired rows, and an
	// output wider than 256.
	cov7 := denseRel("c", "Kc", 300, 7, 9)
	cov9 := denseRel("d", "Kd", 300, 9, 10)
	cov130 := denseRel("e", "Ke", 700, 130, 11)
	cov257 := denseRel("g", "Kg", 530, 257, 12)
	k := []string{"K"}
	cases := []struct {
		name string
		run  func(*Options) (*rel.Relation, error)
		want string
	}{
		{"mmu", func(o *Options) (*rel.Relation, error) { return Mmu(tall, k, small, []string{"Ks"}, o) }, "f8de38bac63b0484"},
		{"mmu-inner300", func(o *Options) (*rel.Relation, error) { return Mmu(left, []string{"Kl"}, right, []string{"Kr"}, o) }, "c434a80678de1a5b"},
		{"cpd-self", func(o *Options) (*rel.Relation, error) { return Cpd(tall, k, tall, k, o) }, "ef25f67f5a6bdce4"},
		{"cpd-self-wide", func(o *Options) (*rel.Relation, error) { return Cpd(wide, []string{"Kw"}, wide, []string{"Kw"}, o) }, "0776db04e7c06267"},
		{"cpd-self-7", func(o *Options) (*rel.Relation, error) { return Cpd(cov7, []string{"Kc"}, cov7, []string{"Kc"}, o) }, "2964ae979bdc9220"},
		{"cpd-self-9", func(o *Options) (*rel.Relation, error) { return Cpd(cov9, []string{"Kd"}, cov9, []string{"Kd"}, o) }, "572ad854357ffbe1"},
		{"cpd-self-130", func(o *Options) (*rel.Relation, error) { return Cpd(cov130, []string{"Ke"}, cov130, []string{"Ke"}, o) }, "736ca361386732d1"},
		{"cpd-self-257", func(o *Options) (*rel.Relation, error) { return Cpd(cov257, []string{"Kg"}, cov257, []string{"Kg"}, o) }, "58b105fa778d8b9b"},
		{"cpd", func(o *Options) (*rel.Relation, error) { return Cpd(tall, k, tall2, []string{"K2"}, o) }, "30c8c26f880f6eca"},
		{"cpd-wide", func(o *Options) (*rel.Relation, error) { return Cpd(wide, []string{"Kw"}, wide2, []string{"Kv"}, o) }, "8ab9f68bdeed25e7"},
		{"opd", func(o *Options) (*rel.Relation, error) { return Opd(tall, k, opdR, []string{"Ko"}, o) }, "77d3fce5fe4121ec"},
		{"qqr", func(o *Options) (*rel.Relation, error) { return Qqr(tall, k, o) }, "575671a5fdd93c63"},
		{"rqr", func(o *Options) (*rel.Relation, error) { return Rqr(tall, k, o) }, "85f8176abb3be50b"},
		{"qqr-wide", func(o *Options) (*rel.Relation, error) { return Qqr(wide, []string{"Kw"}, o) }, "f9f682ad40126fe0"},
		{"rqr-wide", func(o *Options) (*rel.Relation, error) { return Rqr(wide, []string{"Kw"}, o) }, "1d7c89024ca18892"},
	}
	for _, tc := range cases {
		for _, workers := range []int{1, 2, 3, 8} {
			res, err := tc.run(&Options{Policy: PolicyDense, Parallelism: workers})
			if err != nil {
				t.Fatalf("%s workers=%d: %v", tc.name, workers, err)
			}
			if got := relationHash(res); got != tc.want {
				t.Errorf("%s workers=%d: digest %s, want %s", tc.name, workers, got, tc.want)
			}
		}
	}
}

// TestCpdNarrowerThanStripGoroutines pins the goroutines a self cross
// product spawns. One whose work is less than one parallel grain of the
// column kernel (600×5: 9 000 multiply-adds against linalg's 1<<15)
// runs on the calling goroutine at every budget, and with its operand
// read in place there is no copy-in or copy-out to fan out either; a
// wider one (600×64) deals its paired output rows to every worker.
func TestCpdNarrowerThanStripGoroutines(t *testing.T) {
	for _, tc := range []struct {
		cols int
		want map[int]int64
	}{
		{5, map[int]int64{1: 0, 2: 0, 3: 0, 8: 0}},
		{64, map[int]int64{1: 0, 2: 2, 3: 3, 8: 8}},
	} {
		r := denseRel("n", "Kn", 600, tc.cols, 13)
		for _, workers := range []int{1, 2, 3, 8} {
			var st Stats
			if _, err := Cpd(r, []string{"Kn"}, r, []string{"Kn"}, &Options{Policy: PolicyDense, Parallelism: workers, Stats: &st}); err != nil {
				t.Fatal(err)
			}
			if st.ParallelGoroutines != tc.want[workers] {
				t.Errorf("600x%d, workers=%d: %d goroutines, want %d", tc.cols, workers, st.ParallelGoroutines, tc.want[workers])
			}
		}
	}
}

// mixedSquareRel builds an n×n relation in shuffled key order whose
// application columns cycle through a dense Float, an Int and a sparse
// Float column, strictly diagonally dominant when ordered by the key,
// so the BAT elimination starts from every tail kind.
func mixedSquareRel(n int, seed int64) *rel.Relation {
	rng := rand.New(rand.NewSource(seed))
	perm := rng.Perm(n)
	keys := make([]int64, n)
	for r, i := range perm {
		keys[r] = int64(i)
	}
	schema := rel.Schema{{Name: "Km", Type: bat.Int}}
	bats := []*bat.BAT{bat.FromInts(keys)}
	for j := 0; j < n; j++ {
		f := make([]float64, n)
		for r, i := range perm {
			if i == j {
				f[r] = float64(4 * n)
			} else if rng.Intn(3) == 0 {
				f[r] = float64(rng.Intn(7) - 3)
			}
		}
		name := fmt.Sprintf("m%02d", j)
		switch j % 3 {
		case 0:
			schema = append(schema, rel.Attr{Name: name, Type: bat.Float})
			bats = append(bats, bat.FromFloats(f))
		case 1:
			xs := make([]int64, n)
			for r, v := range f {
				xs[r] = int64(v)
			}
			schema = append(schema, rel.Attr{Name: name, Type: bat.Int})
			bats = append(bats, bat.FromInts(xs))
		default:
			schema = append(schema, rel.Attr{Name: name, Type: bat.Float})
			bats = append(bats, bat.FromSparse(bat.Compress(f)))
		}
	}
	return rel.MustNew("m", schema, bats)
}

// TestBATInvDetBitsPinned pins the result bits of the BAT-policy
// Gauss-Jordan inversion and elimination determinant, on a dense float
// input and on one mixing dense, Int and sparse tails. The digests were
// recorded while every pivot step still allocated a fresh column per
// update, so updating the work columns in place must keep the bits.
func TestBATInvDetBitsPinned(t *testing.T) {
	sq := squareRel(rand.New(rand.NewSource(31)), 96)
	mixed := mixedSquareRel(24, 32)
	kq, km := []string{"Kq"}, []string{"Km"}
	cases := []struct {
		name string
		run  func(*Options) (*rel.Relation, error)
		want string
	}{
		{"inv-96", func(o *Options) (*rel.Relation, error) { return Inv(sq, kq, o) }, "6912969620c91543"},
		{"det-96", func(o *Options) (*rel.Relation, error) { return Det(sq, kq, o) }, "e1efa5e34acfbfd0"},
		{"inv-mixed", func(o *Options) (*rel.Relation, error) { return Inv(mixed, km, o) }, "c802f802f30df9b2"},
		{"det-mixed", func(o *Options) (*rel.Relation, error) { return Det(mixed, km, o) }, "0a12533292d3d348"},
	}
	for _, tc := range cases {
		for _, workers := range []int{1, 2, 8} {
			res, err := tc.run(&Options{Policy: PolicyBAT, Parallelism: workers})
			if err != nil {
				t.Fatalf("%s workers=%d: %v", tc.name, workers, err)
			}
			if got := relationHash(res); got != tc.want {
				t.Errorf("%s workers=%d: digest %s, want %s", tc.name, workers, got, tc.want)
			}
		}
	}
}
