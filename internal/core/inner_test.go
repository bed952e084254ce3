package core

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"maskedspgemm/internal/semiring"
	"maskedspgemm/internal/sparse"
)

// The dense-row dot (inner.go) must compute the products of a sorted
// merge of A_i* against B_*j, in the same order, with the first product
// assigned. These tests check it bit for bit against a merge kept here
// as the reference.

// mergeDot is the sorted-merge dot product of one A row and one B
// column; hit is false when no index matched.
func mergeDot[T any, S semiring.Semiring[T]](sr S, aCols []int32, aVals []T, bRows []int32, bVals []T) (acc T, hit bool) {
	p, q := 0, 0
	for p < len(aCols) && q < len(bRows) {
		switch {
		case aCols[p] < bRows[q]:
			p++
		case aCols[p] > bRows[q]:
			q++
		default:
			prod := sr.Mul(aVals[p], bVals[q])
			if !hit {
				acc, hit = prod, true
			} else {
				acc = sr.Add(acc, prod)
			}
			p++
			q++
		}
	}
	return acc, hit
}

// mergeProduct is the masked product computed with one merge dot per
// admitted column: the mask row's columns, or every other column under
// a complement.
func mergeProduct[T any, S semiring.Semiring[T]](sr S, mask *sparse.Pattern, a, b *sparse.CSR[T], complement bool) *sparse.CSR[T] {
	bt := sparse.ToCSC(b)
	out := sparse.NewCSR[T](mask.Rows, mask.Cols)
	for i := 0; i < mask.Rows; i++ {
		admitted := mask.Row(i)
		if complement {
			admitted = nil
			for j := int32(0); j < int32(mask.Cols); j++ {
				if _, in := slices.BinarySearch(mask.Row(i), j); !in {
					admitted = append(admitted, j)
				}
			}
		}
		for _, j := range admitted {
			lo, hi := bt.ColPtr[j], bt.ColPtr[j+1]
			if v, hit := mergeDot(sr, a.Row(i), a.RowVals(i), bt.RowIdx[lo:hi], bt.Val[lo:hi]); hit {
				out.ColIdx = append(out.ColIdx, j)
				out.Val = append(out.Val, v)
			}
		}
		out.RowPtr[i+1] = int64(len(out.ColIdx))
	}
	return out
}

// dropEntries returns m without the entries drop selects, which empties
// whole rows or columns.
func dropEntries(m *sparse.CSR[float64], drop func(i, j int) bool) *sparse.CSR[float64] {
	out := sparse.NewCSR[float64](m.Rows, m.Cols)
	for i := 0; i < m.Rows; i++ {
		vals := m.RowVals(i)
		for t, j := range m.Row(i) {
			if !drop(i, int(j)) {
				out.ColIdx = append(out.ColIdx, j)
				out.Val = append(out.Val, vals[t])
			}
		}
		out.RowPtr[i+1] = int64(len(out.ColIdx))
	}
	return out
}

// pullValues are specialValues plus NaNs with payloads and fractions
// whose sums round differently in another order. Go leaves the payload
// of a NaN result unspecified (sameBits), so the checks below count any
// two NaNs alike; the payloads still make sure that NaN operands land
// on the same entries.
var pullValues = append(slices.Clone(specialValues),
	math.Float64frombits(0x7ff8_0000_0000_0001), math.Float64frombits(0xfff8_0000_0000_0002),
	0.1, 1.0/3, -2.0/7, 1e10+0.3, -1e-7, 0.7, -0.3, 5.0/11)

// pullSchemes are the options that run the pull kernels: Inner, the
// SS:DOT baseline, and Hybrid restricted to Pull.
var pullSchemes = []Options{
	{Algorithm: AlgoInner},
	{Algorithm: AlgoDotTranspose},
	{Algorithm: AlgoHybrid, HybridFamilies: Families(FamPull)},
}

// checkSameBits compares got with the reference want entry for entry.
func checkSameBits(t *testing.T, name string, want, got *sparse.CSR[float64]) {
	t.Helper()
	if d := sparse.Diff(want, got, sameBits); d != "" {
		t.Fatalf("%s: %s", name, d)
	}
}

// checkPullBits runs every pull scheme over sr at widths 1, 2 and 4,
// in every phase it runs (schemePhases), plain and complemented, and
// compares each result with the merge reference.
func checkPullBits[S semiring.Semiring[float64]](t *testing.T, sr S, name string, mask *sparse.Pattern, a, b *sparse.CSR[float64]) {
	t.Helper()
	for _, complement := range []bool{false, true} {
		want := mergeProduct(sr, mask, a, b, complement)
		for _, base := range pullSchemes {
			for _, ph := range schemePhases(base.Algorithm) {
				for _, threads := range []int{1, 2, 4} {
					opt := base
					opt.Complement, opt.Phases, opt.Threads = complement, ph, threads
					got, err := MaskedSpGEMM(sr, mask, a, b, opt)
					if err != nil {
						t.Fatal(err)
					}
					checkSameBits(t, fmt.Sprintf("%s/%s/complement=%v/%v/t%d", name, opt.SchemeName(), complement, ph, threads), want, got)
				}
			}
		}
	}
}

// TestPullDotBitIdentity checks the pull kernels against the merge
// reference on inputs with NaN, ±0, ±Inf and the other special values,
// empty A rows and empty B columns, for the served float64 kernel and
// the generic one (plusTimesTwin).
func TestPullDotBitIdentity(t *testing.T) {
	const m, k, n = 70, 90, 80
	r := rand.New(rand.NewSource(31))
	// Every ninth row of A is empty.
	a := dropEntries(specialMatrix(r, m, k, 16, pullValues), func(i, _ int) bool { return i%9 == 2 })
	// Every fifth column of B is empty. Its last two columns hold
	// two thirds of its rows, so their dots run past one dotChunk.
	b := dropEntries(specialMatrix(r, k, n, 12, pullValues), func(_, j int) bool { return j%5 == 0 || j >= n-2 })
	for i := range k {
		if i%3 != 1 {
			setRow(b, i, append(slices.Clone(b.Row(i)), n-2, n-1), append(slices.Clone(b.RowVals(i)), 0.5, 3))
		}
	}
	mask := specialMatrix(r, m, n, 20, []float64{1}).PatternView()
	checkPullBits(t, semiring.PlusTimes[float64]{}, "float64", mask, a, b)
	checkPullBits(t, plusTimesTwin{}, "generic", mask, a, b)
}

// TestPullDotBitIdentityHalves runs the pull schemes on symmetric
// self-products, which compute one triangle and mirror it, against the
// merge reference of the full product, with special values placed
// symmetrically.
func TestPullDotBitIdentityHalves(t *testing.T) {
	for _, hubsLast := range []bool{false, true} {
		a := symGraph(7, hubsLast, true)
		r := rand.New(rand.NewSource(7))
		for t := range a.Val {
			if r.Intn(3) == 0 {
				a.Val[t] = specialValues[r.Intn(len(specialValues))]
			}
		}
		for i := 0; i < a.Rows; i++ {
			vals := a.RowVals(i)
			for t, j := range a.Row(i) {
				if int(j) > i {
					vals[t] = lookup(a, int(j), i)
				}
			}
		}
		name := fmt.Sprintf("hubsLast=%v", hubsLast)
		checkPullHalves(t, semiring.PlusTimes[float64]{}, name+"/float64", a)
		checkPullHalves(t, plusTimesTwin{}, name+"/generic", a)
	}
}

// checkPullHalves runs every pull scheme over sr on the self-product
// a ⊙ (a·a) at widths 1, 2 and 4 and compares each result with the
// merge reference. Inner and Hybrid must compute one triangle; SS:DOT
// rebuilds its transpose per call and runs the full product.
func checkPullHalves[S semiring.Semiring[float64]](t *testing.T, sr S, name string, a *sparse.CSR[float64]) {
	t.Helper()
	want := mergeProduct(sr, a.PatternView(), a, a, false)
	for _, base := range pullSchemes {
		for _, threads := range []int{1, 2, 4} {
			opt := base
			opt.Threads = threads
			p, err := NewPlan(sr, a.PatternView(), a, a, opt, nil)
			if err != nil {
				t.Fatal(err)
			}
			got, err := p.Execute(a, a)
			if err != nil {
				t.Fatal(err)
			}
			run := fmt.Sprintf("%s/%s/t%d", name, opt.SchemeName(), threads)
			if !ranHalf(p.exec) && opt.Algorithm != AlgoDotTranspose {
				t.Fatalf("%s: ran the full product", run)
			}
			checkSameBits(t, run, want, got)
		}
	}
}

// lookup returns the value of entry (i, j) of m, which must exist.
func lookup(m *sparse.CSR[float64], i, j int) float64 {
	cols := m.Row(i)
	t, ok := slices.BinarySearch(cols, int32(j))
	if !ok {
		panic(fmt.Sprintf("no entry (%d, %d)", i, j))
	}
	return m.RowVals(i)[t]
}
