package core

import (
	"testing"

	"maskedspgemm/internal/gen"
	"maskedspgemm/internal/semiring"
	"maskedspgemm/internal/sparse"
)

// spvmOracle computes the masked vector product via the dense matrix
// oracle on a 1×k "matrix" u.
func spvmOracle(mask []int32, u *sparse.Vector[float64], b *sparse.CSR[float64], complement bool) *sparse.Vector[float64] {
	um := &sparse.CSR[float64]{
		Pattern: sparse.Pattern{Rows: 1, Cols: u.N, RowPtr: []int64{0, int64(u.NNZ())}, ColIdx: u.Idx},
		Val:     u.Val,
	}
	mm := &sparse.Pattern{Rows: 1, Cols: b.Cols, RowPtr: []int64{0, int64(len(mask))}, ColIdx: mask}
	sr := semiring.PlusTimes[float64]{}
	c := sparse.DenseMaskedMultiply(mm, um, b, complement, sr.Add, sr.Mul, sr.Zero())
	return &sparse.Vector[float64]{N: b.Cols, Idx: c.Row(0), Val: c.RowVals(0)}
}

func vecEqual(a, b *sparse.Vector[float64]) bool {
	if a.N != b.N || a.NNZ() != b.NNZ() {
		return false
	}
	eq := sparse.FloatEq(1e-9)
	for k := range a.Idx {
		if a.Idx[k] != b.Idx[k] || !eq(a.Val[k], b.Val[k]) {
			return false
		}
	}
	return true
}

// TestMaskedSpVMAgainstOracle runs MaskedSpVM over the whole scheme
// registry × {plain, complement} × {1P, 2P}: every combination either
// matches the dense oracle or fails with exactly the registry's
// documented complement error. One executor serves the whole sweep, as
// in a BFS loop, and the first result must survive every later call —
// results never alias executor scratch.
func TestMaskedSpVMAgainstOracle(t *testing.T) {
	sr := semiring.PlusTimes[float64]{}
	b := gen.Random(60, 60, 8, 51)
	u := sparse.RowVector(gen.Random(1, 60, 12, 52), 0)
	mask := gen.Random(1, 60, 10, 53).Row(0)
	exec := NewExecutor[float64](sr)
	var first, firstWant *sparse.Vector[float64]
	for _, info := range Schemes() {
		for _, complement := range []bool{false, true} {
			want := spvmOracle(mask, u, b, complement)
			for _, ph := range []Phases{OnePhase, TwoPhase} {
				opt := Options{Algorithm: info.Algo, Phases: ph, Complement: complement}
				name := opt.SchemeName()
				got, err := MaskedSpVMWith(exec, mask, u, b, opt)
				if complement && !info.Complement {
					if err == nil || err.Error() != info.ComplementNote {
						t.Errorf("%s complement: error %v, want documented %q", name, err, info.ComplementNote)
					}
					continue
				}
				if err != nil {
					t.Errorf("%s complement=%v: %v", name, complement, err)
					continue
				}
				if !vecEqual(want, got) {
					t.Errorf("%s complement=%v: mismatch (got %v/%v, want %v/%v)",
						name, complement, got.Idx, got.Val, want.Idx, want.Val)
				}
				if first == nil {
					first, firstWant = got, want
				}
			}
		}
	}
	if first != nil && !vecEqual(firstWant, first) {
		t.Error("an earlier result changed under later calls on the same executor")
	}
}

func TestMaskedSpVMErrors(t *testing.T) {
	sr := semiring.PlusTimes[float64]{}
	b := gen.Random(10, 10, 3, 1)
	u := sparse.NewVector[float64](11) // wrong dimension
	if _, err := MaskedSpVM(sr, nil, u, b, Options{}); err == nil {
		t.Error("want dimension error")
	}
	u2 := sparse.NewVector[float64](10)
	if _, err := MaskedSpVM(sr, nil, u2, b, Options{Algorithm: Algorithm(200)}); err == nil {
		t.Error("want unknown-algorithm error")
	}
	if _, err := MaskedSpVM(sr, nil, u2, b, Options{Algorithm: AlgoMCA, Complement: true}); err == nil {
		t.Error("want unsupported-algorithm error for complemented MCA")
	}
}

func TestMaskedSpVMEmpty(t *testing.T) {
	sr := semiring.PlusTimes[float64]{}
	b := gen.Random(10, 10, 3, 2)
	u := sparse.NewVector[float64](10)
	got, err := MaskedSpVM(sr, []int32{0, 5}, u, b, Options{Algorithm: AlgoMSA})
	if err != nil {
		t.Fatal(err)
	}
	if got.NNZ() != 0 {
		t.Error("empty vector times matrix must be empty")
	}
	got, err = MaskedSpVM(sr, nil, sparse.RowVector(gen.Random(1, 10, 5, 3), 0), b, Options{Algorithm: AlgoMSA})
	if err != nil {
		t.Fatal(err)
	}
	if got.NNZ() != 0 {
		t.Error("empty mask must produce empty output")
	}
}

func TestHybridRowStats(t *testing.T) {
	// Dense inputs + sparse mask → mostly pull rows.
	aD := gen.Random(64, 64, 32, 61)
	mSparse := gen.Random(64, 64, 1, 62).PatternView()
	pull, push := pullPushRows(HybridFamilyRows(mSparse, aD, aD, Options{}))
	if pull+push != 64 {
		t.Fatalf("rows don't add up: %d+%d", pull, push)
	}
	if pull == 0 {
		t.Error("dense inputs + sparse mask should produce pull rows")
	}
	// Sparse inputs + dense mask → mostly push rows.
	aS := gen.Random(64, 64, 2, 63)
	mDense := gen.Random(64, 64, 48, 64).PatternView()
	_, push2 := pullPushRows(HybridFamilyRows(mDense, aS, aS, Options{}))
	if push2 == 0 {
		t.Error("sparse inputs + dense mask should produce push rows")
	}
}

// pullPushRows splits HybridFamilyRows into the rows bound to FamPull
// and the rows bound to any push family.
func pullPushRows(rows [NumFamilies]int) (pull, push int) {
	for f, n := range rows {
		if Family(f) == FamPull {
			pull += n
		} else {
			push += n
		}
	}
	return pull, push
}

// TestHybridMixedRegime builds a matrix whose rows straddle the
// crossover and checks Hybrid still matches the oracle (the per-row
// switch must not corrupt boundaries).
func TestHybridMixedRegime(t *testing.T) {
	sr := semiring.PlusTimes[float64]{}
	n := 100
	// Mask: first half rows dense, second half nearly empty.
	coo := sparse.NewCOO[float64](n, n, 0)
	rng := gen.NewRNG(65)
	for i := 0; i < n; i++ {
		deg := 40
		if i >= n/2 {
			deg = 1
		}
		for d := 0; d < deg; d++ {
			coo.Append(int32(i), int32(rng.Intn(n)), 1)
		}
	}
	maskM, err := coo.ToCSR(nil)
	if err != nil {
		t.Fatal(err)
	}
	mask := maskM.PatternView()
	a := gen.Random(n, n, 20, 66)
	b := gen.Random(n, n, 20, 67)
	want := sparse.DenseMaskedMultiply(mask, a, b, false, sr.Add, sr.Mul, sr.Zero())
	for _, ph := range []Phases{OnePhase, TwoPhase} {
		got, err := MaskedSpGEMM(sr, mask, a, b, Options{Algorithm: AlgoHybrid, Phases: ph})
		if err != nil {
			t.Fatal(err)
		}
		if d := sparse.Diff(want, got, sparse.FloatEq(1e-9)); d != "" {
			t.Fatalf("hybrid %v: %s", ph, d)
		}
	}
	pull, push := pullPushRows(HybridFamilyRows(mask, a, b, Options{}))
	if pull == 0 || push == 0 {
		t.Errorf("mixed regime should use both paths (pull=%d push=%d)", pull, push)
	}
}
