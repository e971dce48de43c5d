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

// squareMatrixRel builds a relation whose rows, ordered by the int key
// (0..n-1, in row order), are the given rows.
func squareMatrixRel(name, key string, rows [][]float64) *rel.Relation {
	schema := rel.Schema{{Name: key, Type: bat.Int}}
	keys := make([]int64, len(rows))
	for i := range keys {
		keys[i] = int64(i)
	}
	bats := []*bat.BAT{bat.FromInts(keys)}
	for j := range rows[0] {
		f := make([]float64, len(rows))
		for i, row := range rows {
			f[i] = row[j]
		}
		schema = append(schema, rel.Attr{Name: fmt.Sprintf("%s%03d", name, j), Type: bat.Float})
		bats = append(bats, bat.FromFloats(f))
	}
	return rel.MustNew(name, schema, bats)
}

// spdRows returns BᵀB + I for a random n×n B: symmetric positive
// definite.
func spdRows(n int, seed int64) [][]float64 {
	rng := rand.New(rand.NewSource(seed))
	b := make([][]float64, n)
	for i := range b {
		b[i] = make([]float64, n)
		for j := range b[i] {
			b[i][j] = rng.NormFloat64()
		}
	}
	out := make([][]float64, n)
	for i := range out {
		out[i] = make([]float64, n)
		for j := range out[i] {
			var s float64
			for r := 0; r < n; r++ {
				s += b[r][i] * b[r][j]
			}
			out[i][j] = s
		}
		out[i][i]++
	}
	return out
}

// realSpectrumRows returns a non-symmetric n×n matrix with a real
// spectrum near 1..n: upper triangular with that diagonal, plus small
// entries below it.
func realSpectrumRows(n int, seed int64) [][]float64 {
	rng := rand.New(rand.NewSource(seed))
	out := make([][]float64, n)
	for i := range out {
		out[i] = make([]float64, n)
		for j := range out[i] {
			switch {
			case i == j:
				out[i][j] = float64(i + 1)
			case i < j:
				out[i][j] = rng.NormFloat64()
			default:
				out[i][j] = 1e-3 * rng.NormFloat64()
			}
		}
	}
	return out
}

// rankDeficientRel returns an n×cols relation in shuffled key order
// (key Kd) whose columns past the first rank are sums of two earlier
// columns.
func rankDeficientRel(n, cols, rank int, seed int64) *rel.Relation {
	base := denseRel("d", "Kd", n, rank, seed)
	schema := append(rel.Schema(nil), base.Schema...)
	bats := append([]*bat.BAT(nil), base.Cols...)
	for j := rank; j < cols; j++ {
		a, _ := bats[j-rank+1].Floats()
		b, _ := bats[j-rank+2].Floats()
		f := make([]float64, n)
		for i := range f {
			f[i] = a[i] + b[i]
		}
		schema = append(schema, rel.Attr{Name: fmt.Sprintf("d%03d", j), Type: bat.Float})
		bats = append(bats, bat.FromFloats(f))
	}
	return rel.MustNew("d", schema, bats)
}

// TestDenseResultBitsPinned pins the result bits of the dense products
// and the QR factors at small shapes (inner dimension, output columns
// and QR columns past 256, rows past one row strip) and shuffled keys.
// The digests were recorded when shapes this small still ran on
// separate flat kernels (the cpd-self-7/9/130/257 ones while the cross
// product still ran on 256×256 tiles), so a change in any kernel's
// accumulation order fails here, at every worker budget. The usv and
// vsv-wide digests cover the orthonormal complement that extends U (V)
// to a square factor; they were re-recorded when that complement came
// to be formed from the Householder QR of the thin factor instead of
// by Gram-Schmidt over identity vectors (a different basis of the same
// space; the leading columns kept their bits).
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
	// The factorisations: a diagonally dominant square operand and
	// right-hand sides for SOL; a symmetric positive definite operand
	// (Cholesky and the Jacobi eigensolver) and a non-symmetric one with
	// a real spectrum (Hessenberg QR and inverse iteration); the
	// elementwise family's second operand; a tall operand wide enough
	// for the parallel Jacobi SVD, one with fewer rows than columns (the
	// SVD of the transpose), and one of rank 5 with 7 columns.
	sq := squareRel(rand.New(rand.NewSource(41)), 70)
	rhsSq := denseRel("b", "Kb", 70, 1, 42)
	rhsTall := denseRel("y", "Ky", 600, 1, 43)
	spd := shuffledRows(squareMatrixRel("p", "Kp", spdRows(40, 44)), 45)
	gen := shuffledRows(squareMatrixRel("h", "Kh", realSpectrumRows(12, 46)), 47)
	tallB := denseRel("x", "Kx", 600, 5, 48)
	svd := denseRel("z", "Kz", 300, 60, 49)
	flat := denseRel("f", "Kf", 6, 14, 50)
	deficient := rankDeficientRel(80, 7, 5, 51)
	k := []string{"K"}
	kq, kp, kg := []string{"Kq"}, []string{"Kp"}, []string{"Kh"}
	ks, kf := []string{"Kz"}, []string{"Kf"}
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
		{"inv", func(o *Options) (*rel.Relation, error) { return Inv(sq, kq, o) }, "0e7751bef2172d9f"},
		{"det", func(o *Options) (*rel.Relation, error) { return Det(sq, kq, o) }, "7aff58132d5eceec"},
		{"sol-square", func(o *Options) (*rel.Relation, error) { return Sol(sq, kq, rhsSq, []string{"Kb"}, o) }, "b77415fd29a7c3e8"},
		{"sol-lstsq", func(o *Options) (*rel.Relation, error) { return Sol(tall, k, rhsTall, []string{"Ky"}, o) }, "2b2a8f2394da423e"},
		{"chf", func(o *Options) (*rel.Relation, error) { return Chf(spd, kp, o) }, "6199725019bb4edb"},
		{"evc-sym", func(o *Options) (*rel.Relation, error) { return Evc(spd, kp, o) }, "5804848a8e44c575"},
		{"evl-sym", func(o *Options) (*rel.Relation, error) { return Evl(spd, kp, o) }, "8605b87cc234c936"},
		{"evc-general", func(o *Options) (*rel.Relation, error) { return Evc(gen, kg, o) }, "03fd342d5735dc3c"},
		{"evl-general", func(o *Options) (*rel.Relation, error) { return Evl(gen, kg, o) }, "3de0094561912cd9"},
		{"tra", func(o *Options) (*rel.Relation, error) { return Tra(tall, k, o) }, "14a870a6c4379a95"},
		{"add", func(o *Options) (*rel.Relation, error) { return Add(tall, k, tallB, []string{"Kx"}, o) }, "d42a70bb16439083"},
		{"sub", func(o *Options) (*rel.Relation, error) { return Sub(tall, k, tallB, []string{"Kx"}, o) }, "0654e94e56cd660d"},
		{"emu", func(o *Options) (*rel.Relation, error) { return Emu(tall, k, tallB, []string{"Kx"}, o) }, "c674dfa928f29d55"},
		{"dsv", func(o *Options) (*rel.Relation, error) { return Dsv(svd, ks, o) }, "2b82879eb374e1d4"},
		{"usv", func(o *Options) (*rel.Relation, error) { return Usv(svd, ks, o) }, "1aa74794f564127d"},
		{"vsv", func(o *Options) (*rel.Relation, error) { return Vsv(svd, ks, o) }, "1bae069f7808ccae"},
		{"rnk", func(o *Options) (*rel.Relation, error) { return Rnk(svd, ks, o) }, "a7313ce2cd5fdd9c"},
		{"dsv-wide", func(o *Options) (*rel.Relation, error) { return Dsv(flat, kf, o) }, "d094456717fed707"},
		{"usv-wide", func(o *Options) (*rel.Relation, error) { return Usv(flat, kf, o) }, "d64f41c83f2c6e54"},
		{"vsv-wide", func(o *Options) (*rel.Relation, error) { return Vsv(flat, kf, o) }, "668e0e3d64026d74"},
		{"rnk-deficient", func(o *Options) (*rel.Relation, error) { return Rnk(deficient, []string{"Kd"}, o) }, "8f64a1cccbeb0c20"},
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
// The Gram-Schmidt QQR, RQR and SOL digests were recorded while every
// projection still allocated a fresh column.
func TestBATInvDetBitsPinned(t *testing.T) {
	sq := squareRel(rand.New(rand.NewSource(31)), 96)
	mixed := mixedSquareRel(24, 32)
	tall := denseRel("t", "K", 600, 5, 1)
	rhsTall := denseRel("y", "Ky", 600, 1, 43)
	rhsMixed := denseRel("b", "Kb", 24, 1, 33)
	kq, km, kt := []string{"Kq"}, []string{"Km"}, []string{"K"}
	cases := []struct {
		name string
		run  func(*Options) (*rel.Relation, error)
		want string
	}{
		{"inv-96", func(o *Options) (*rel.Relation, error) { return Inv(sq, kq, o) }, "6912969620c91543"},
		{"det-96", func(o *Options) (*rel.Relation, error) { return Det(sq, kq, o) }, "e1efa5e34acfbfd0"},
		{"inv-mixed", func(o *Options) (*rel.Relation, error) { return Inv(mixed, km, o) }, "c802f802f30df9b2"},
		{"det-mixed", func(o *Options) (*rel.Relation, error) { return Det(mixed, km, o) }, "0a12533292d3d348"},
		{"qqr-tall", func(o *Options) (*rel.Relation, error) { return Qqr(tall, kt, o) }, "862690983524b433"},
		{"rqr-tall", func(o *Options) (*rel.Relation, error) { return Rqr(tall, kt, o) }, "ebc4b2ada8a94588"},
		{"sol-tall", func(o *Options) (*rel.Relation, error) { return Sol(tall, kt, rhsTall, []string{"Ky"}, o) }, "8a487103e86ef751"},
		{"qqr-mixed", func(o *Options) (*rel.Relation, error) { return Qqr(mixed, km, o) }, "7a6948fdfdfd2ae1"},
		{"rqr-mixed", func(o *Options) (*rel.Relation, error) { return Rqr(mixed, km, o) }, "ce8cc954378d8db0"},
		{"sol-mixed", func(o *Options) (*rel.Relation, error) { return Sol(mixed, km, rhsMixed, []string{"Kb"}, o) }, "90a9b9f241ab42bc"},
	}
	for _, tc := range cases {
		for _, workers := range []int{1, 2, 3, 8} {
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
