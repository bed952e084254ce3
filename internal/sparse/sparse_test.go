package sparse

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"testing/quick"
)

// randomCSR builds a random valid CSR via COO for property tests.
func randomCSR(r *rand.Rand, rows, cols, nnz int) *CSR[float64] {
	coo := NewCOO[float64](rows, cols, nnz)
	for k := 0; k < nnz; k++ {
		coo.Append(int32(r.Intn(rows)), int32(r.Intn(cols)), r.Float64())
	}
	m, err := coo.ToCSR(func(a, b float64) float64 { return a + b })
	if err != nil {
		panic(err)
	}
	return m
}

// quickCSR adapts randomCSR to testing/quick's Generator protocol.
type quickCSR struct{ M *CSR[float64] }

func (quickCSR) Generate(r *rand.Rand, size int) reflect.Value {
	rows := 1 + r.Intn(20)
	cols := 1 + r.Intn(20)
	nnz := r.Intn(rows*cols + 1)
	return reflect.ValueOf(quickCSR{randomCSR(r, rows, cols, nnz)})
}

func TestCOOToCSRBasics(t *testing.T) {
	coo := NewCOO[float64](3, 4, 8)
	coo.Append(2, 1, 5)
	coo.Append(0, 3, 1)
	coo.Append(0, 0, 2)
	coo.Append(2, 1, 7) // duplicate
	m, err := coo.ToCSR(func(a, b float64) float64 { return a + b })
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	if m.NNZ() != 3 {
		t.Fatalf("nnz = %d, want 3", m.NNZ())
	}
	if v, ok := m.At(2, 1); !ok || v != 12 {
		t.Errorf("At(2,1) = %v,%v want 12,true", v, ok)
	}
	if v, ok := m.At(0, 0); !ok || v != 2 {
		t.Errorf("At(0,0) = %v,%v", v, ok)
	}
	if _, ok := m.At(1, 1); ok {
		t.Error("At(1,1) should be absent")
	}
	// keep-last combine
	coo2 := NewCOO[float64](1, 2, 2)
	coo2.Append(0, 1, 3)
	coo2.Append(0, 1, 9)
	m2, err := coo2.ToCSR(nil)
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := m2.At(0, 1); v != 9 {
		t.Errorf("keep-last got %v, want 9", v)
	}
}

func TestCOOOutOfRange(t *testing.T) {
	coo := NewCOO[float64](2, 2, 1)
	coo.Append(2, 0, 1)
	if _, err := coo.ToCSR(nil); err == nil {
		t.Error("want error for out-of-range row")
	}
	coo2 := NewCOO[float64](2, 2, 1)
	coo2.Append(0, -1, 1)
	if _, err := coo2.ToCSR(nil); err == nil {
		t.Error("want error for negative column")
	}
}

func TestValidateRejectsCorruption(t *testing.T) {
	m := randomCSR(rand.New(rand.NewSource(1)), 5, 5, 10)
	bad := m.Clone()
	if len(bad.ColIdx) > 1 {
		bad.ColIdx[0], bad.ColIdx[1] = bad.ColIdx[1], bad.ColIdx[0]
	}
	// After the swap either ordering or range is broken in row 0 unless
	// row 0 had < 2 entries; construct an explicit corruption instead.
	explicit := &CSR[float64]{
		Pattern: Pattern{Rows: 1, Cols: 3, RowPtr: []int64{0, 2}, ColIdx: []int32{2, 1}},
		Val:     []float64{1, 2},
	}
	if err := explicit.Validate(); err == nil {
		t.Error("want error for unsorted columns")
	}
	badPtr := &CSR[float64]{
		Pattern: Pattern{Rows: 2, Cols: 3, RowPtr: []int64{0, 2, 1}, ColIdx: []int32{0, 1}},
		Val:     []float64{1, 2},
	}
	if err := badPtr.Validate(); err == nil {
		t.Error("want error for non-monotone RowPtr")
	}
	badCol := &CSR[float64]{
		Pattern: Pattern{Rows: 1, Cols: 2, RowPtr: []int64{0, 1}, ColIdx: []int32{5}},
		Val:     []float64{1},
	}
	if err := badCol.Validate(); err == nil {
		t.Error("want error for out-of-range column")
	}
	badVal := &CSR[float64]{
		Pattern: Pattern{Rows: 1, Cols: 2, RowPtr: []int64{0, 1}, ColIdx: []int32{1}},
	}
	if err := badVal.Validate(); err == nil {
		t.Error("want error for short value array")
	}
}

func TestTransposeInvolution(t *testing.T) {
	f := func(q quickCSR) bool {
		tt := Transpose(Transpose(q.M))
		return Equal(q.M, tt) && tt.Validate() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestTransposeMovesEntries(t *testing.T) {
	f := func(q quickCSR) bool {
		tr := Transpose(q.M)
		for i := 0; i < q.M.Rows; i++ {
			vals := q.M.RowVals(i)
			for k, j := range q.M.Row(i) {
				v, ok := tr.At(int(j), int32(i))
				if !ok || v != vals[k] {
					return false
				}
			}
		}
		return tr.NNZ() == q.M.NNZ()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// TestCSCMatchesTranspose checks ToCSC against Transpose: the CSC
// arrays of A are the CSR arrays of Aᵀ.
func TestCSCMatchesTranspose(t *testing.T) {
	f := func(q quickCSR) bool {
		csc := ToCSC(q.M)
		if csc.Validate() != nil {
			return false
		}
		tr := Transpose(q.M)
		return csc.Rows == q.M.Rows && csc.Cols == q.M.Cols &&
			slices.Equal(csc.ColPtr, tr.RowPtr) && slices.Equal(csc.RowIdx, tr.ColIdx) && slices.Equal(csc.Val, tr.Val)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestTransposePatternAgrees(t *testing.T) {
	f := func(q quickCSR) bool {
		p := TransposePattern(&q.M.Pattern)
		tr := Transpose(q.M)
		return PatternEqual(p, &tr.Pattern)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestTril(t *testing.T) {
	f := func(q quickCSR) bool {
		l := Tril(q.M)
		if l.Validate() != nil {
			return false
		}
		// Tril keeps exactly the entries below the diagonal, values
		// included.
		var below int64
		for i := 0; i < q.M.Rows; i++ {
			vals := q.M.RowVals(i)
			for k, j := range q.M.Row(i) {
				if int(j) >= i {
					continue
				}
				below++
				if v, ok := l.At(i, j); !ok || v != vals[k] {
					return false
				}
			}
		}
		return l.NNZ() == below
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestPermuteSymRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	m := randomCSR(r, 12, 12, 40)
	perm := r.Perm(12)
	p32 := make([]int32, 12)
	for i, v := range perm {
		p32[i] = int32(v)
	}
	inv := make([]int32, 12)
	for i, v := range p32 {
		inv[v] = int32(i)
	}
	back := PermuteSym(PermuteSym(m, p32), inv)
	if !Equal(m, back) {
		t.Fatal("PermuteSym(inv ∘ perm) != identity")
	}
}

func TestEWiseAddMult(t *testing.T) {
	a, _ := FromRows(2, 3, map[int]map[int]float64{0: {0: 1, 2: 3}, 1: {1: 5}})
	b, _ := FromRows(2, 3, map[int]map[int]float64{0: {0: 10, 1: 20}, 1: {1: 2}})
	sum, err := EWiseAdd(a, b, func(x, y float64) float64 { return x + y })
	if err != nil {
		t.Fatal(err)
	}
	want, _ := FromRows(2, 3, map[int]map[int]float64{0: {0: 11, 1: 20, 2: 3}, 1: {1: 7}})
	if !Equal(want, sum) {
		t.Errorf("EWiseAdd: %s", Diff(want, sum, func(x, y float64) bool { return x == y }))
	}
	prod, err := EWiseMultParallel(a, b, func(x, y float64) float64 { return x * y }, 2)
	if err != nil {
		t.Fatal(err)
	}
	wantP, _ := FromRows(2, 3, map[int]map[int]float64{0: {0: 10}, 1: {1: 10}})
	if !Equal(wantP, prod) {
		t.Errorf("EWiseMultParallel: %s", Diff(wantP, prod, func(x, y float64) bool { return x == y }))
	}
	if _, err := EWiseAdd(a, randomCSR(rand.New(rand.NewSource(1)), 3, 3, 2), nil); err == nil {
		t.Error("want shape error")
	}
}

func TestEWiseProperties(t *testing.T) {
	add := func(x, y float64) float64 { return x + y }
	f := func(q1, q2 quickCSR) bool {
		a := q1.M
		// Force same shape.
		b := randomCSR(rand.New(rand.NewSource(int64(q2.M.NNZ()))), a.Rows, a.Cols, int(q2.M.NNZ()))
		ab, err1 := EWiseAdd(a, b, add)
		ba, err2 := EWiseAdd(b, a, add)
		if err1 != nil || err2 != nil {
			return false
		}
		// Commutativity, nnz bounds, validity.
		if !EqualFunc(ab, ba, FloatEq(1e-12)) {
			return false
		}
		if ab.NNZ() > a.NNZ()+b.NNZ() {
			return false
		}
		inter, err := EWiseMultParallel(a, b, func(x, y float64) float64 { return x * y }, 1)
		if err != nil || inter.Validate() != nil {
			return false
		}
		return inter.NNZ()+ab.NNZ() == a.NNZ()+b.NNZ()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestSelectApplyReduce(t *testing.T) {
	m, _ := FromRows(2, 4, map[int]map[int]float64{0: {0: -1, 1: 2}, 1: {2: -3, 3: 4}})
	pos := Select(m, func(_ int, _ int32, v float64) bool { return v > 0 })
	if pos.NNZ() != 2 {
		t.Fatalf("Select kept %d, want 2", pos.NNZ())
	}
	doubled := Apply(m, func(v float64) float64 { return 2 * v })
	if got := Reduce(doubled, 0, func(x, y float64) float64 { return x + y }); got != 4 {
		t.Errorf("Reduce = %v, want 4", got)
	}
	cols := ReduceCols(m, 0, func(x, y float64) float64 { return x + y })
	if cols[0] != -1 || cols[1] != 2 || cols[2] != -3 || cols[3] != 4 {
		t.Errorf("ReduceCols = %v", cols)
	}
	ints := Apply(m, func(v float64) int { return int(v) })
	if ints.Val[0] != -1 {
		t.Errorf("Apply type change failed: %v", ints.Val)
	}
}

func TestApplyMask(t *testing.T) {
	m, _ := FromRows(2, 3, map[int]map[int]float64{0: {0: 1, 1: 2, 2: 3}, 1: {0: 4}})
	mask, _ := FromRows(2, 3, map[int]map[int]float64{0: {1: 1}, 1: {0: 1, 2: 1}})
	kept, err := ApplyMask(m, mask.PatternView(), false)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := FromRows(2, 3, map[int]map[int]float64{0: {1: 2}, 1: {0: 4}})
	if !Equal(want, kept) {
		t.Errorf("ApplyMask: %s", Diff(want, kept, func(x, y float64) bool { return x == y }))
	}
	comp, err := ApplyMask(m, mask.PatternView(), true)
	if err != nil {
		t.Fatal(err)
	}
	wantC, _ := FromRows(2, 3, map[int]map[int]float64{0: {0: 1, 2: 3}})
	if !Equal(wantC, comp) {
		t.Errorf("ApplyMask complement: %s", Diff(wantC, comp, func(x, y float64) bool { return x == y }))
	}
}

func TestDenseRoundTrip(t *testing.T) {
	f := func(q quickCSR) bool {
		d, occ := ToDense(q.M)
		back := FromDense(d, occ)
		return Equal(q.M, back)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestPatternHelpers(t *testing.T) {
	m, _ := FromRows(3, 5, map[int]map[int]float64{0: {1: 1, 3: 1}, 2: {0: 1, 1: 1, 4: 1}})
	p := m.PatternView()
	if !p.Has(0, 3) || p.Has(0, 2) || p.Has(1, 0) {
		t.Error("Has gave wrong answers")
	}
	if p.RowNNZ(1) != 0 {
		t.Errorf("RowNNZ(1) = %d", p.RowNNZ(1))
	}
	c := p.Clone()
	c.ColIdx[0] = 2
	if p.ColIdx[0] == 2 {
		t.Error("Clone aliases storage")
	}
}

func TestEqualAndDiff(t *testing.T) {
	a, _ := FromRows(2, 2, map[int]map[int]float64{0: {0: 1}})
	b, _ := FromRows(2, 2, map[int]map[int]float64{0: {0: 1}})
	if !Equal(a, b) || Diff(a, b, FloatEq(0)) != "" {
		t.Error("identical matrices reported different")
	}
	c, _ := FromRows(2, 2, map[int]map[int]float64{0: {1: 1}})
	if Equal(a, c) || Diff(a, c, FloatEq(0)) == "" {
		t.Error("different matrices reported equal")
	}
	d, _ := FromRows(2, 2, map[int]map[int]float64{0: {0: 2}})
	if Diff(a, d, FloatEq(0)) == "" {
		t.Error("value difference not reported")
	}
	e, _ := FromRows(3, 2, map[int]map[int]float64{})
	if Diff(a, e, FloatEq(0)) == "" {
		t.Error("shape difference not reported")
	}
}

func TestFloatEq(t *testing.T) {
	eq := FloatEq(1e-9)
	if !eq(1, 1+1e-12) {
		t.Error("near-equal floats rejected")
	}
	if eq(1, 1.1) {
		t.Error("distant floats accepted")
	}
	if !eq(0, 0) {
		t.Error("zeros rejected")
	}
}
