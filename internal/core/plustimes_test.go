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

// plusTimesTwin is semiring.PlusTimes[float64] under another type: the
// same Add, Mul and Zero. It fails the binders' type check, so every
// scheme binds its generic kernels for it, and comparing the two
// semirings compares the float64 plus-times kernels with the generic
// ones on identical inputs.
type plusTimesTwin struct{}

func (plusTimesTwin) Add(x, y float64) float64 { return x + y }
func (plusTimesTwin) Mul(x, y float64) float64 { return x * y }
func (plusTimesTwin) Zero() float64            { return 0 }

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
// complemented ones — one-phase and two-phase, at 1 and 4 threads, on
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
	pt, err := newDetachedPlan(semiring.PlusTimes[float64]{}, mask, a, b, opt)
	if err != nil {
		t.Fatal(err)
	}
	_, ok := servedKernels(pt, a, b, getAcc, served)
	check("PlusTimes[float64]", ok, true)
	twin, err := newDetachedPlan(plusTimesTwin{}, mask, a, b, opt)
	if err != nil {
		t.Fatal(err)
	}
	_, ok = servedKernels(twin, a, b, getAcc, served)
	check("plusTimesTwin", ok, false)
	minPlus, err := newDetachedPlan(semiring.MinPlusF64{}, mask, a, b, opt)
	if err != nil {
		t.Fatal(err)
	}
	_, ok = servedKernels(minPlus, a, b, getAcc, served)
	check("MinPlusF64", ok, false)
}
