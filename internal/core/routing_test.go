package core

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/rel"
)

// TestOpRouting pins, for every operation, which engine computes the
// base result and whether any argument is sorted, under each policy and
// sort mode at workers 1 and 8. The literal columns are transcribed from
// the paper: §7.3 gives a BAT algorithm to TRA, INV, QQR, RQR, DET and the
// binary operations (the rest fall back to the dense kernel under
// PolicyBAT), and PolicyAuto keeps only the elementwise family on BATs;
// §8.1 lets QQR, RQR, DSV, USV, VSV and RNK skip sorting, while every
// other operation sorts at least one argument.
func TestOpRouting(t *testing.T) {
	rng := rand.New(rand.NewSource(50))
	inputs := map[string]*rel.Relation{
		"Kr": randRelation(rng, "r", 12, 3),
		"Ks": randRelation(rng, "s", 12, 3),
		"Km": randRelation(rng, "m", 3, 2),
		"Ko": randRelation(rng, "o", 5, 3),
		"Kv": randRelation(rng, "v", 12, 1),
		"Kq": squareRel(rng, 5),
		"K":  spdRelation(rng, 5),
	}
	ops := []struct {
		op        Op
		args      []string // the key of each argument
		batDense  bool     // PolicyBAT falls back to the dense kernel
		autoDense bool     // PolicyAuto delegates to the dense kernel
		optSorted bool     // SortOptimized still sorts an argument
	}{
		{OpEMU, []string{"Kr", "Ks"}, false, false, true},
		{OpMMU, []string{"Kr", "Km"}, false, true, true},
		{OpOPD, []string{"Kr", "Ko"}, false, true, true},
		{OpCPD, []string{"Kr", "Ks"}, false, true, true},
		{OpADD, []string{"Kr", "Ks"}, false, false, true},
		{OpSUB, []string{"Kr", "Ks"}, false, false, true},
		{OpTRA, []string{"Kr"}, false, true, true},
		{OpSOL, []string{"Kr", "Kv"}, false, true, true},
		{OpINV, []string{"Kq"}, false, true, true},
		{OpEVC, []string{"K"}, true, true, true},
		{OpEVL, []string{"K"}, true, true, true},
		{OpQQR, []string{"Kr"}, false, true, false},
		{OpRQR, []string{"Kr"}, false, true, false},
		{OpDSV, []string{"Kr"}, true, true, false},
		{OpUSV, []string{"Kr"}, true, true, false},
		{OpVSV, []string{"Kr"}, true, true, false},
		{OpDET, []string{"Kq"}, false, true, true},
		{OpRNK, []string{"Kr"}, true, true, false},
		{OpCHF, []string{"K"}, true, true, true},
	}
	if len(ops) != len(Ops) {
		t.Fatalf("%d operations under test, want all %d", len(ops), len(Ops))
	}
	for _, tc := range ops {
		for _, p := range []Policy{PolicyAuto, PolicyBAT, PolicyDense} {
			wantDense := map[Policy]bool{PolicyAuto: tc.autoDense, PolicyBAT: tc.batDense, PolicyDense: true}[p]
			for _, mode := range []SortMode{SortFull, SortOptimized} {
				wantSorted := mode == SortFull || tc.optSorted
				for _, workers := range []int{1, 8} {
					name := fmt.Sprintf("%s %v mode=%d workers=%d", tc.op, p, mode, workers)
					st := &Stats{}
					o := &Options{Policy: p, SortMode: mode, Parallelism: workers, Stats: st}
					var err error
					if len(tc.args) == 1 {
						_, err = Unary(tc.op, inputs[tc.args[0]], []string{tc.args[0]}, o)
					} else {
						_, err = Binary(tc.op, inputs[tc.args[0]], []string{tc.args[0]}, inputs[tc.args[1]], []string{tc.args[1]}, o)
					}
					if err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					if st.UsedDense != wantDense || st.Sorted != wantSorted {
						t.Errorf("%s: UsedDense=%v Sorted=%v, want %v and %v", name, st.UsedDense, st.Sorted, wantDense, wantSorted)
					}
				}
			}
		}
	}
}
