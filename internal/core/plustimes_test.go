package core

import (
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"slices"
	"testing"

	"maskedspgemm/internal/semiring"
	"maskedspgemm/internal/sparse"
)

// plusTimesTwin is semiring.PlusTimes[float64] under another type: the
// same Add, Mul and Zero, and the Commutative marker. It fails the binders' type check, so every
// scheme binds its generic kernels for it, and comparing the two
// semirings compares the float64 plus-times kernels with the generic
// ones on identical inputs.
type plusTimesTwin struct{}

func (plusTimesTwin) Add(x, y float64) float64 { return x + y }
func (plusTimesTwin) Mul(x, y float64) float64 { return x * y }
func (plusTimesTwin) Zero() float64            { return 0 }
func (plusTimesTwin) CommutativeMul()          {}

// specialValues are the inputs where a reordered or fused multiply-add
// would show: signed zeros, infinities, NaN, subnormals, magnitudes that
// overflow, small integers of either sign, and 1+2⁻⁵² against
// −(1+2⁻⁵¹), whose product and sum differ in the last bit when the
// multiply-add is fused.
var specialValues = []float64{
	0, math.Copysign(0, -1), 1, -1, 2, -2, 0.5, 3,
	math.Inf(1), math.Inf(-1), math.NaN(),
	5e-324, -5e-324, 0x1p-1060, 1e308, -1e308,
	1 + 0x1p-52, -(1 + 0x1p-51),
}

// specialMatrix draws a rows×cols matrix with perRow distinct sorted
// columns per row (fewer when cols is smaller) and values from vals.
func specialMatrix(r *rand.Rand, rows, cols, perRow int, vals []float64) *sparse.CSR[float64] {
	m := sparse.NewCSR[float64](rows, cols)
	m.RowPtr = make([]int64, rows+1)
	for i := range rows {
		row := r.Perm(cols)[:min(cols, r.Intn(perRow+1))]
		slices.Sort(row)
		for _, j := range row {
			m.ColIdx = append(m.ColIdx, int32(j))
			m.Val = append(m.Val, vals[r.Intn(len(vals))])
		}
		m.RowPtr[i+1] = int64(len(m.ColIdx))
	}
	return m
}

// setRow replaces row i of m with the given columns and values.
func setRow(m *sparse.CSR[float64], i int, cols []int32, vals []float64) {
	lo, hi := m.RowPtr[i], m.RowPtr[i+1]
	m.ColIdx = slices.Concat(m.ColIdx[:lo], cols, m.ColIdx[hi:])
	m.Val = slices.Concat(m.Val[:lo], vals, m.Val[hi:])
	shift := int64(len(cols)) - (hi - lo)
	for r := i + 1; r < len(m.RowPtr); r++ {
		m.RowPtr[r] += shift
	}
}

// cancelProduct draws C = M ⊙ (A·B) operands over specialValues, with
// rows 0 and 1 rigged to cancel: A(i,0) = 1 and A(i,1) = −1 for both
// rows, and B rows 0 and 1 are identical, so every entry of those output
// rows is 2 + (−2), an exact zero. Mask row 0 admits exactly those
// entries and mask row 1 is empty, so the plain product cancels on row 0
// and the complemented one on row 1. The other mask rows range from
// empty to dense, so Hybrid binds both MSA and MaskedBit rows.
func cancelProduct(seed int64) (mask *sparse.Pattern, a, b *sparse.CSR[float64], cancelCols []int32) {
	r := rand.New(rand.NewSource(seed))
	const m, k, n = 48, 40, 300
	a = specialMatrix(r, m, k, 8, specialValues)
	b = specialMatrix(r, k, n, 24, specialValues)
	cancelCols = []int32{3, 64, 65, 130, 299}
	twos := []float64{2, 2, 2, 2, 2}
	setRow(b, 0, cancelCols, twos)
	setRow(b, 1, cancelCols, twos)
	setRow(a, 0, []int32{0, 1}, []float64{1, -1})
	setRow(a, 1, []int32{0, 1}, []float64{1, -1})
	mk := sparse.NewCSR[float64](m, n)
	mk.RowPtr = make([]int64, m+1)
	for i := range m {
		var row []int32
		switch {
		case i == 0:
			row = cancelCols
		case i == 1:
		default:
			for j := range n {
				if r.Intn(8) < i%9 {
					row = append(row, int32(j))
				}
			}
		}
		mk.ColIdx = append(mk.ColIdx, row...)
		mk.RowPtr[i+1] = int64(len(mk.ColIdx))
	}
	mk.Val = make([]float64, len(mk.ColIdx))
	return mk.PatternView(), a, b, cancelCols
}

// TestPlusTimesBitIdentical checks that the float64 plus-times kernels
// produce output bit-identical to the generic kernels (run through
// plusTimesTwin) for every scheme that binds them — MSA, MaskedBit and
// Hybrid on plain masks, MaskedBit (MaskedBitC) and Hybrid on
// complemented ones — in every phase each runs (two-phase cells of the
// one-phase-only schemes check the refusal), at 1 and 4 threads, on
// inputs with signed zeros, infinities, NaN, subnormals and exact
// cancellation. NaN results must land on the same entries (sameBits).
// Cancelled entries must be emitted as stored zeros.
func TestPlusTimesBitIdentical(t *testing.T) {
	msaBit := Families(FamMSA, FamMaskedBit)
	type scheme struct {
		algo       Algorithm
		complement bool
		menu       FamilySet
	}
	schemes := []scheme{
		{AlgoMSA, false, 0},
		{AlgoMaskedBit, false, 0},
		{AlgoHybrid, false, 0},
		{AlgoHybrid, false, msaBit},
		{AlgoMaskedBit, true, 0},
		{AlgoHybrid, true, 0},
		{AlgoHybrid, true, msaBit},
	}
	for seed := int64(1); seed <= 3; seed++ {
		mask, a, b, cancelCols := cancelProduct(seed)
		for _, s := range schemes {
			for _, ph := range []Phases{OnePhase, TwoPhase} {
				for _, threads := range []int{1, 4} {
					opt := Options{Algorithm: s.algo, Complement: s.complement, HybridFamilies: s.menu, Phases: ph, Threads: threads}
					name := fmt.Sprintf("seed=%d/%v/complement=%v/menu=%#x/%v/threads=%d", seed, s.algo, s.complement, s.menu, ph, threads)
					t.Run(name, func(t *testing.T) {
						got, err := MaskedSpGEMM(semiring.PlusTimes[float64]{}, mask, a, b, opt)
						if rejectsTwoPhase(t, opt, err) {
							return
						}
						if err != nil {
							t.Fatal(err)
						}
						want, err := MaskedSpGEMM(plusTimesTwin{}, mask, a, b, opt)
						if err != nil {
							t.Fatal(err)
						}
						if !slices.Equal(got.RowPtr, want.RowPtr) || !slices.Equal(got.ColIdx, want.ColIdx) {
							t.Fatalf("pattern differs from the generic kernels")
						}
						for i, v := range got.Val {
							if !sameBits(v, want.Val[i]) {
								t.Fatalf("value %d (column %d) = %v (%#x), generic %v (%#x)",
									i, got.ColIdx[i], v, math.Float64bits(v), want.Val[i], math.Float64bits(want.Val[i]))
							}
						}
						row := 0
						if s.complement {
							row = 1
						}
						lo, hi := got.RowPtr[row], got.RowPtr[row+1]
						if !slices.Equal(got.ColIdx[lo:hi], cancelCols) {
							t.Fatalf("cancelled row %d has columns %v, want %v", row, got.ColIdx[lo:hi], cancelCols)
						}
						for _, v := range got.Val[lo:hi] {
							if math.Float64bits(v) != 0 {
								t.Fatalf("cancelled row %d holds %v, want +0", row, v)
							}
						}
					})
				}
			}
		}
	}
}

// denseRowsProduct builds an n-column C = M ⊙ (A·B) whose rows
// straddle both terms of msaDenseRow, and reports for each row whether
// MSAPlusTimes runs it on its dense loop. The mask rows of rows 0, 2,
// 3, 5, 6, 7 and 8 hold exactly ⌈n/msaDenseRatio⌉ entries, and rows 1
// and 4 one fewer. Every row but 1, 4 and 8 also scans B row 4, whose
// msaScanRatio·⌈n/msaDenseRatio⌉ entries from column n/2 up no mask
// admits, so all of them are dense; row 8 is mask-dense but scans too
// little. Mask rows are padded to length with the columns from n/16 up,
// which no product reaches except through B row 3; for n = 4096 they
// are the columns just past a 256-wide product, where its sinks would
// sit if they followed the product's width rather than the arrays'.
//
//   - Rows 0, 1 and 8 have one admitted product, 1 · −0 at column 5,
//     which must be emitted as −0.
//   - Row 2 scatters +Inf, −Inf and NaN into columns 20–22, which its
//     mask rules out; row 3 admits those columns and must read exactly
//     the 1, 2, 3 B row 2 puts there.
//   - Row 4 admits the same columns on the sparse loop, and row 5
//     scatters B row 3 (every third column) over a dense mask, so most
//     of its products go to the sinks.
//   - Row 5 admits column 6, row 6 scatters a product into it without
//     admitting it, and row 7 admits it without a product: row 7 must
//     come out empty, which it does only if each dense row returns its
//     columns to the sinks.
func denseRowsProduct(n int) (mask *sparse.Pattern, a, b *sparse.CSR[float64], dense []bool) {
	d := (n + msaDenseRatio - 1) / msaDenseRatio
	pad := func(cols []int32, length int) []int32 {
		for j := n / 16; len(cols) < length; j++ {
			cols = append(cols, int32(j))
		}
		slices.Sort(cols)
		return cols
	}
	negZero := math.Copysign(0, -1)
	var b3Cols, b4Cols []int32
	var b3Vals, b4Vals []float64
	for j := 0; j < n; j += 3 {
		b3Cols = append(b3Cols, int32(j))
		b3Vals = append(b3Vals, float64(j%7-3))
	}
	for j := range msaScanRatio * d {
		b4Cols = append(b4Cols, int32(n/2+j))
		b4Vals = append(b4Vals, float64(j%5+1))
	}
	b = csrFromRows(5, n,
		[][]int32{{5}, {6, 20, 21, 22}, {20, 21, 22}, b3Cols, b4Cols},
		[][]float64{{negZero}, {2, math.Inf(1), math.Inf(-1), math.NaN()}, {1, 2, 3}, b3Vals, b4Vals})
	a = csrFromRows(9, 5,
		[][]int32{{0, 4}, {0, 4}, {1, 3, 4}, {2, 4}, {1, 2, 3}, {3, 4}, {1, 4}, {0, 4}, {0}},
		[][]float64{{1, 1}, {1, 1}, {1, 1, 1}, {1, 1}, {1, 1, -1}, {-1, 1}, {1, 1}, {1, 1}, {1}})
	m := csrFromRows(9, n, [][]int32{
		pad([]int32{5}, d),
		pad([]int32{5}, d-1),
		pad([]int32{6}, d),
		pad([]int32{20, 21, 22}, d),
		pad([]int32{20, 21, 22}, d-1),
		pad([]int32{6, 20}, d),
		pad(nil, d),
		pad([]int32{6}, d),
		pad([]int32{5}, d),
	}, nil)
	return m.PatternView(), a, b, []bool{true, false, true, true, false, true, true, true, false}
}

// csrFromRows builds a CSR matrix from sorted column lists; vals may be
// nil for a pattern, whose values are then zero.
func csrFromRows(rows, cols int, idx [][]int32, vals [][]float64) *sparse.CSR[float64] {
	m := sparse.NewCSR[float64](rows, cols)
	m.RowPtr = make([]int64, rows+1)
	for i, row := range idx {
		m.ColIdx = append(m.ColIdx, row...)
		if vals != nil {
			m.Val = append(m.Val, vals[i]...)
		} else {
			m.Val = append(m.Val, make([]float64, len(row))...)
		}
		m.RowPtr[i+1] = int64(len(m.ColIdx))
	}
	return m
}

// checkDenseRows checks a denseRowsProduct result bit for bit against
// the generic kernels' want, and pins the entries the rows are rigged
// for: −0 on rows 0, 1 and 8, exactly 1, 2, 3 on row 3, and nothing on
// rows 6 and 7.
func checkDenseRows(t *testing.T, got, want *sparse.CSR[float64]) {
	t.Helper()
	if !slices.Equal(got.RowPtr, want.RowPtr) || !slices.Equal(got.ColIdx, want.ColIdx) {
		t.Fatalf("pattern differs from the generic kernels")
	}
	for i, v := range got.Val {
		if !sameBits(v, want.Val[i]) {
			t.Fatalf("value %d (column %d) = %v (%#x), generic %v (%#x)",
				i, got.ColIdx[i], v, math.Float64bits(v), want.Val[i], math.Float64bits(want.Val[i]))
		}
	}
	negZero := math.Copysign(0, -1)
	for _, r := range []struct {
		row  int
		cols []int32
		vals []float64
	}{
		{0, []int32{5}, []float64{negZero}},
		{1, []int32{5}, []float64{negZero}},
		{3, []int32{20, 21, 22}, []float64{1, 2, 3}},
		{6, nil, nil},
		{7, nil, nil},
		{8, []int32{5}, []float64{negZero}},
	} {
		row, cols, wantRow := r.row, r.cols, r.vals
		lo, hi := got.RowPtr[row], got.RowPtr[row+1]
		if !slices.Equal(got.ColIdx[lo:hi], cols) {
			t.Fatalf("row %d has columns %v, want %v", row, got.ColIdx[lo:hi], cols)
		}
		for k, v := range got.Val[lo:hi] {
			if math.Float64bits(v) != math.Float64bits(wantRow[k]) {
				t.Fatalf("row %d column %d = %v (%#x), want %v (%#x)", row, cols[k], v, math.Float64bits(v), wantRow[k], math.Float64bits(wantRow[k]))
			}
		}
	}
}

// TestPlusTimesDenseRowsBitIdentical runs MSA's float64 kernels on rows
// at both sides of each term of the dense-row rule (denseRowsProduct)
// and checks them bit for bit against the generic kernels: under MSA
// (one- and two-phase) and under Hybrid binding MSA on every row
// (one-phase; its two-phase cells check the refusal), at 1 and 4
// threads. It then reuses one executor across a
// narrow product, a wide one, the narrow one and the wide one again, so
// each dense row runs on slots left behind by a product of the other
// width.
func TestPlusTimesDenseRowsBitIdentical(t *testing.T) {
	const narrow, wide = 256, 4096
	for _, n := range []int{narrow, wide} {
		mask, a, b, dense := denseRowsProduct(n)
		for i, want := range dense {
			if got := msaDenseRow(mask.Row(i), a.Row(i), bClip{}, b.RowPtr, b.Cols); got != want {
				t.Fatalf("n=%d row %d: msaDenseRow = %v, want %v", n, i, got, want)
			}
		}
		for _, algo := range []Algorithm{AlgoMSA, AlgoHybrid} {
			for _, ph := range []Phases{OnePhase, TwoPhase} {
				for _, threads := range []int{1, 4} {
					opt := Options{Algorithm: algo, HybridFamilies: Families(FamMSA), Phases: ph, Threads: threads}
					t.Run(fmt.Sprintf("n=%d/%v/%v/threads=%d", n, algo, ph, threads), func(t *testing.T) {
						got, err := MaskedSpGEMM(semiring.PlusTimes[float64]{}, mask, a, b, opt)
						if rejectsTwoPhase(t, opt, err) {
							return
						}
						if err != nil {
							t.Fatal(err)
						}
						want, err := MaskedSpGEMM(plusTimesTwin{}, mask, a, b, opt)
						if err != nil {
							t.Fatal(err)
						}
						checkDenseRows(t, got, want)
					})
				}
			}
		}
	}
	exec := NewExecutor[float64](semiring.PlusTimes[float64]{})
	for step, n := range []int{narrow, wide, narrow, wide} {
		mask, a, b, _ := denseRowsProduct(n)
		opt := Options{Algorithm: AlgoMSA, Threads: 1}
		plan, err := NewPlan(semiring.PlusTimes[float64]{}, mask, a, b, opt, exec)
		if err != nil {
			t.Fatal(err)
		}
		got, err := plan.ExecuteOn(exec, a, b)
		if err != nil {
			t.Fatal(err)
		}
		want, err := MaskedSpGEMM(plusTimesTwin{}, mask, a, b, opt)
		if err != nil {
			t.Fatal(err)
		}
		t.Run(fmt.Sprintf("reused/step=%d/n=%d", step, n), func(t *testing.T) { checkDenseRows(t, got, want) })
	}
}

// sameBits reports whether x and y have the same bits, counting any two
// NaNs alike. Go, like IEEE 754, leaves the payload of a NaN result
// unspecified: when both operands of an add are NaN, the one x86
// propagates is the first register operand, and the compiler orders the
// operands of a commutative add as it allocates registers.
func sameBits(x, y float64) bool {
	return math.Float64bits(x) == math.Float64bits(y) || math.IsNaN(x) && math.IsNaN(y)
}

// TestServedKernelsBindOnlyPlusTimes checks the binders' one type check:
// servedKernels takes the float64 path for semiring.PlusTimes[float64]
// and declines its twin and every other float64 semiring.
func TestServedKernelsBindOnlyPlusTimes(t *testing.T) {
	mask, a, b, _ := cancelProduct(1)
	called := false
	served := func(*sparse.Pattern, *sparse.CSR[float64], *sparse.CSR[float64], func(int) int) kernels[float64] {
		called = true
		return kernels[float64]{}
	}
	getAcc := func(int) int { return 0 }
	check := func(name string, ok, want bool) {
		t.Helper()
		if ok != want || called != want {
			t.Errorf("%s: servedKernels ok=%v served called=%v, want %v", name, ok, called, want)
		}
		called = false
	}
	opt := Options{Algorithm: AlgoMSA}
	pt, err := newDetachedPlan(semiring.PlusTimes[float64]{}, mask, a, b, opt, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	_, ok := servedKernels(pt, mask, a, b, getAcc, served)
	check("PlusTimes[float64]", ok, true)
	twin, err := newDetachedPlan(plusTimesTwin{}, mask, a, b, opt, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	_, ok = servedKernels(twin, mask, a, b, getAcc, served)
	check("plusTimesTwin", ok, false)
	minPlus, err := newDetachedPlan(semiring.MinPlusF64{}, mask, a, b, opt, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	_, ok = servedKernels(minPlus, mask, a, b, getAcc, served)
	check("MinPlusF64", ok, false)
}

// complDenseRowsProduct builds an n-column C = ¬M ⊙ (A·B) whose rows
// straddle maskedBitCDenseRow, and reports for each row whether
// MaskedBitCPlusTimes runs it on its dense loop. B row 3 holds
// ⌈n/maskedBitCDenseRatio⌉ entries from column min(n/2, 256) up, so the
// rows that scatter it are dense; rows 3 and 4 scatter only a short B
// row, so they are dense at n = 256 and sparse at n = 4096. For
// n = 4096 B row 3's columns are the ones just past a 256-wide product.
//
//   - Row 0 scatters 1 · −0 into admitted column 5: the value starts at
//     −0 (accum.restValue) and −0 + −0 is −0, so it emits −0 on every
//     loop, as every other complemented family does.
//   - Row 1 scatters 2, +Inf, −Inf and NaN into columns 6 and 20–22,
//     and its mask bans 20–22; row 2 admits them and must read exactly
//     the 1, 2, 3 B row 2 puts there, and must not emit column 6, which
//     row 1 set and row 2 does not touch.
//   - Rows 3 and 4 repeat rows 1 and 2 without B row 3.
//   - Row 5 bans column 6 and row 6 bans column 5, where it scatters
//     −0; row 7 bans nothing and scatters neither, so it must come out
//     without columns 5, 6 and 20–22.
func complDenseRowsProduct(n int) (mask *sparse.Pattern, a, b *sparse.CSR[float64], dense []bool) {
	d := (n + maskedBitCDenseRatio - 1) / maskedBitCDenseRatio
	var padCols []int32
	var padVals []float64
	for j := range d {
		padCols = append(padCols, int32(min(n/2, 256)+j))
		padVals = append(padVals, float64(j%5+1))
	}
	b = csrFromRows(5, n,
		[][]int32{{5}, {6, 20, 21, 22}, {20, 21, 22}, padCols, {7}},
		[][]float64{{math.Copysign(0, -1)}, {2, math.Inf(1), math.Inf(-1), math.NaN()}, {1, 2, 3}, padVals, {1}})
	a = csrFromRows(8, 5,
		[][]int32{{0, 3}, {1, 3}, {2, 3}, {1}, {2}, {3, 4}, {0, 3}, {3, 4}},
		[][]float64{{1, 1}, {1, 1}, {1, 1}, {1}, {1}, {1, 1}, {1, 1}, {1, 1}})
	m := csrFromRows(8, n, [][]int32{nil, {20, 21, 22}, {6}, {20, 21, 22}, {6}, {6}, {5}, nil}, nil)
	dense = make([]bool, a.Rows)
	for i := range dense {
		dense[i] = maskedBitCDenseRow(int(rowGen(a.Row(i), b.RowPtr)), n)
	}
	return m.PatternView(), a, b, dense
}

// checkComplDenseRows checks a complDenseRowsProduct result bit for bit
// against the generic kernels' want, and pins the entries its rows are
// rigged for; a NaN that is absent from its pinned row reads as absent.
func checkComplDenseRows(t *testing.T, got, want *sparse.CSR[float64]) {
	t.Helper()
	if !slices.Equal(got.RowPtr, want.RowPtr) || !slices.Equal(got.ColIdx, want.ColIdx) {
		t.Fatalf("pattern differs from the generic kernels")
	}
	for i, v := range got.Val {
		if !sameBits(v, want.Val[i]) {
			t.Fatalf("value %d (column %d) = %v (%#x), generic %v (%#x)",
				i, got.ColIdx[i], v, math.Float64bits(v), want.Val[i], math.Float64bits(want.Val[i]))
		}
	}
	absent := math.NaN()
	for _, r := range []struct {
		row  int
		cols []int32
		vals []float64
	}{
		{0, []int32{5}, []float64{math.Copysign(0, -1)}},
		{1, []int32{6, 20, 21, 22}, []float64{2, absent, absent, absent}},
		{2, []int32{6, 20, 21, 22}, []float64{absent, 1, 2, 3}},
		{3, []int32{6, 20, 21, 22}, []float64{2, absent, absent, absent}},
		{4, []int32{6, 20, 21, 22}, []float64{absent, 1, 2, 3}},
		{5, []int32{5, 6, 7}, []float64{absent, absent, 1}},
		{6, []int32{5}, []float64{absent}},
		{7, []int32{5, 6, 7, 20, 21, 22}, []float64{absent, absent, 1, absent, absent, absent}},
	} {
		lo, hi := got.RowPtr[r.row], got.RowPtr[r.row+1]
		cols, vals := got.ColIdx[lo:hi], got.Val[lo:hi]
		for k, j := range r.cols {
			at, found := slices.BinarySearch(cols, j)
			switch wantV := r.vals[k]; {
			case math.IsNaN(wantV) && found:
				t.Fatalf("row %d emits column %d = %v, want it absent", r.row, j, vals[at])
			case !math.IsNaN(wantV) && !found:
				t.Fatalf("row %d lacks column %d, want %v", r.row, j, wantV)
			case !math.IsNaN(wantV) && math.Float64bits(vals[at]) != math.Float64bits(wantV):
				t.Fatalf("row %d column %d = %v (%#x), want %v (%#x)", r.row, j, vals[at], math.Float64bits(vals[at]), wantV, math.Float64bits(wantV))
			}
		}
	}
}

// TestPlusTimesDenseComplementRowsBitIdentical runs MaskedBitC's float64
// kernels on rows at both sides of maskedBitCDenseRow
// (complDenseRowsProduct) and checks them bit for bit against the
// generic kernels: under MaskedBit and under Hybrid binding MaskedBit
// on every row, complemented, at 1 and 4 threads (one-phase, the only
// phase either runs; the two-phase cells check the refusal). It then reuses one executor across a narrow
// product, a wide one, the narrow one and the wide one again, so each
// dense row's Gather runs on arrays wider than its product, left by
// the other.
func TestPlusTimesDenseComplementRowsBitIdentical(t *testing.T) {
	const narrow, wide = 256, 4096
	for _, n := range []int{narrow, wide} {
		mask, a, b, dense := complDenseRowsProduct(n)
		want := []bool{true, true, true, n == narrow, n == narrow, true, true, true}
		if !slices.Equal(dense, want) {
			t.Fatalf("n=%d: dense rows %v, want %v", n, dense, want)
		}
		for _, algo := range []Algorithm{AlgoMaskedBit, AlgoHybrid} {
			for _, ph := range []Phases{OnePhase, TwoPhase} {
				for _, threads := range []int{1, 4} {
					opt := Options{Algorithm: algo, Complement: true, HybridFamilies: Families(FamMaskedBit), Phases: ph, Threads: threads}
					t.Run(fmt.Sprintf("n=%d/%v/%v/threads=%d", n, algo, ph, threads), func(t *testing.T) {
						got, err := MaskedSpGEMM(semiring.PlusTimes[float64]{}, mask, a, b, opt)
						if rejectsTwoPhase(t, opt, err) {
							return
						}
						if err != nil {
							t.Fatal(err)
						}
						want, err := MaskedSpGEMM(plusTimesTwin{}, mask, a, b, opt)
						if err != nil {
							t.Fatal(err)
						}
						checkComplDenseRows(t, got, want)
					})
				}
			}
		}
	}
	exec := NewExecutor[float64](semiring.PlusTimes[float64]{})
	for step, n := range []int{narrow, wide, narrow, wide} {
		mask, a, b, _ := complDenseRowsProduct(n)
		opt := Options{Algorithm: AlgoMaskedBit, Complement: true, Threads: 1}
		plan, err := NewPlan(semiring.PlusTimes[float64]{}, mask, a, b, opt, exec)
		if err != nil {
			t.Fatal(err)
		}
		got, err := plan.ExecuteOn(exec, a, b)
		if err != nil {
			t.Fatal(err)
		}
		want, err := MaskedSpGEMM(plusTimesTwin{}, mask, a, b, opt)
		if err != nil {
			t.Fatal(err)
		}
		t.Run(fmt.Sprintf("reused/step=%d/n=%d", step, n), func(t *testing.T) { checkComplDenseRows(t, got, want) })
	}
}

// TestMaskedBitCWideSparseRowSorts pins the other side of
// maskedBitCDenseRow on a 2¹⁶-column product: a row with two products
// 65535 columns apart stays on the sparse loop, whose inserted keys
// span more words than MaskedBitC.Gather walks for two keys, so the row
// is gathered by the sort fallback, and matches the generic kernels.
// Its neighbours are dense rows, run on the same accumulator.
func TestMaskedBitCWideSparseRowSorts(t *testing.T) {
	const n = 1 << 16
	d := n / maskedBitCDenseRatio
	var padCols []int32
	var padVals []float64
	for j := range d {
		padCols = append(padCols, int32(3*j))
		padVals = append(padVals, float64(j%3-1))
	}
	b := csrFromRows(2, n, [][]int32{{0, n - 1}, padCols}, [][]float64{{1, 2}, padVals})
	a := csrFromRows(3, 2, [][]int32{{1}, {0}, {0, 1}}, [][]float64{{1}, {3}, {1, 1}})
	mask := csrFromRows(3, n, [][]int32{{3}, {1}, {n - 1}}, nil).PatternView()
	for i, want := range []bool{true, false, true} {
		if got := maskedBitCDenseRow(int(rowGen(a.Row(i), b.RowPtr)), n); got != want {
			t.Fatalf("row %d: maskedBitCDenseRow = %v, want %v", i, got, want)
		}
	}
	// The sparse row's two keys span (n-1)/64 words; Gather walks a span
	// below out·bits.Len(out) words, 4 for two keys.
	if span := (n - 1) >> 6; span < 2*bits.Len(2) {
		t.Fatalf("span %d words is narrow enough to walk", span)
	}
	for _, threads := range []int{1, 2} {
		opt := Options{Algorithm: AlgoMaskedBit, Complement: true, Threads: threads}
		got, err := MaskedSpGEMM(semiring.PlusTimes[float64]{}, mask, a, b, opt)
		if err != nil {
			t.Fatal(err)
		}
		want, err := MaskedSpGEMM(plusTimesTwin{}, mask, a, b, opt)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(got.RowPtr, want.RowPtr) || !slices.Equal(got.ColIdx, want.ColIdx) || !slices.Equal(got.Val, want.Val) {
			t.Fatalf("threads=%d: differs from the generic kernels", threads)
		}
		lo, hi := got.RowPtr[1], got.RowPtr[2]
		if !slices.Equal(got.ColIdx[lo:hi], []int32{0, n - 1}) || !slices.Equal(got.Val[lo:hi], []float64{3, 6}) {
			t.Fatalf("threads=%d: sparse row is %v %v, want [0 %d] [3 6]", threads, got.ColIdx[lo:hi], got.Val[lo:hi], n-1)
		}
	}
}
