package sparse

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// ewiseMultRef is the serial intersection oracle: a sorted two-pointer
// merge per row.
func ewiseMultRef(a, b *CSR[float64], mul func(x, y float64) float64) *CSR[float64] {
	out := &CSR[float64]{Pattern: Pattern{Rows: a.Rows, Cols: a.Cols, RowPtr: make([]int64, a.Rows+1)}}
	for i := 0; i < a.Rows; i++ {
		ra, va := a.Row(i), a.RowVals(i)
		rb, vb := b.Row(i), b.RowVals(i)
		for p, q := 0, 0; p < len(ra) && q < len(rb); {
			switch {
			case ra[p] < rb[q]:
				p++
			case ra[p] > rb[q]:
				q++
			default:
				out.ColIdx = append(out.ColIdx, ra[p])
				out.Val = append(out.Val, mul(va[p], vb[q]))
				p++
				q++
			}
		}
		out.RowPtr[i+1] = int64(len(out.ColIdx))
	}
	return out
}

// TestParallelEWiseMatchesSerial cross-checks the two-pass parallel
// kernels against the serial oracles (EWiseAdd, ewiseMultRef) on random
// inputs and thread counts.
func TestParallelEWiseMatchesSerial(t *testing.T) {
	add := func(x, y float64) float64 { return x + y }
	mul := func(x, y float64) float64 { return x * y }
	f := func(seed int64, threadsRaw uint8) bool {
		r := rand.New(rand.NewSource(seed))
		rows := 1 + r.Intn(50)
		cols := 1 + r.Intn(50)
		a := randomCSR(r, rows, cols, r.Intn(rows*cols+1))
		b := randomCSR(r, rows, cols, r.Intn(rows*cols+1))
		threads := int(threadsRaw%4) + 1
		wantAdd, err1 := EWiseAdd(a, b, add)
		gotAdd, err2 := EWiseAddParallel(a, b, add, threads)
		if err1 != nil || err2 != nil {
			return false
		}
		if !EqualFunc(wantAdd, gotAdd, FloatEq(0)) {
			return false
		}
		gotMul, err := EWiseMultParallel(a, b, mul, threads)
		if err != nil {
			return false
		}
		return EqualFunc(ewiseMultRef(a, b, mul), gotMul, FloatEq(0)) &&
			gotAdd.Validate() == nil && gotMul.Validate() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestParallelEWiseShapeErrors(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	a := randomCSR(r, 3, 3, 4)
	b := randomCSR(r, 4, 3, 4)
	if _, err := EWiseAddParallel(a, b, nil, 2); err == nil {
		t.Error("want shape error (add)")
	}
	if _, err := EWiseMultParallel(a, b, nil, 2); err == nil {
		t.Error("want shape error (mult)")
	}
}

func TestUnionIntersectCounts(t *testing.T) {
	cases := []struct {
		a, b         []int32
		union, inter int
	}{
		{nil, nil, 0, 0},
		{[]int32{1}, nil, 1, 0},
		{[]int32{1, 2, 3}, []int32{2, 3, 4}, 4, 2},
		{[]int32{1, 3}, []int32{2, 4}, 4, 0},
		{[]int32{5}, []int32{5}, 1, 1},
	}
	for _, c := range cases {
		if got := unionCount(c.a, c.b); got != c.union {
			t.Errorf("unionCount(%v,%v) = %d, want %d", c.a, c.b, got, c.union)
		}
		if got := intersectCount(c.a, c.b); got != c.inter {
			t.Errorf("intersectCount(%v,%v) = %d, want %d", c.a, c.b, got, c.inter)
		}
	}
}
