package sparse

import "fmt"

// Element-wise operations over CSR matrices. These are the GraphBLAS
// eWiseAdd/eWiseMult primitives the benchmark applications need around
// the masked products: k-truss filters supports, betweenness centrality
// accumulates dependencies (§8.3–8.4). All operate row-wise with sorted
// two-pointer merges, so outputs keep the sorted-CSR invariant. The
// intersection form is row-parallel only (EWiseMultParallel).

func checkSameShape(ar, ac, br, bc int) error {
	if ar != br || ac != bc {
		return fmt.Errorf("sparse: shape mismatch %dx%d vs %dx%d", ar, ac, br, bc)
	}
	return nil
}

// EWiseAdd returns the union combination of a and b: entries present in
// only one operand are copied, entries present in both are combined with
// add.
func EWiseAdd[T any](a, b *CSR[T], add func(x, y T) T) (*CSR[T], error) {
	if err := checkSameShape(a.Rows, a.Cols, b.Rows, b.Cols); err != nil {
		return nil, err
	}
	out := &CSR[T]{Pattern: Pattern{Rows: a.Rows, Cols: a.Cols, RowPtr: make([]int64, a.Rows+1)}}
	out.ColIdx = make([]int32, 0, a.NNZ()+b.NNZ())
	out.Val = make([]T, 0, a.NNZ()+b.NNZ())
	for i := 0; i < a.Rows; i++ {
		ra, va := a.Row(i), a.RowVals(i)
		rb, vb := b.Row(i), b.RowVals(i)
		p, q := 0, 0
		for p < len(ra) && q < len(rb) {
			switch {
			case ra[p] < rb[q]:
				out.ColIdx = append(out.ColIdx, ra[p])
				out.Val = append(out.Val, va[p])
				p++
			case ra[p] > rb[q]:
				out.ColIdx = append(out.ColIdx, rb[q])
				out.Val = append(out.Val, vb[q])
				q++
			default:
				out.ColIdx = append(out.ColIdx, ra[p])
				out.Val = append(out.Val, add(va[p], vb[q]))
				p++
				q++
			}
		}
		for ; p < len(ra); p++ {
			out.ColIdx = append(out.ColIdx, ra[p])
			out.Val = append(out.Val, va[p])
		}
		for ; q < len(rb); q++ {
			out.ColIdx = append(out.ColIdx, rb[q])
			out.Val = append(out.Val, vb[q])
		}
		out.RowPtr[i+1] = int64(len(out.ColIdx))
	}
	return out, nil
}

// Apply returns a copy of a with f applied to every stored value.
func Apply[T, U any](a *CSR[T], f func(T) U) *CSR[U] {
	out := &CSR[U]{Pattern: *a.Pattern.Clone(), Val: make([]U, len(a.Val))}
	for k, v := range a.Val {
		out.Val[k] = f(v)
	}
	return out
}

// Select returns the entries of a for which keep returns true; the
// GraphBLAS GxB_select analogue. k-truss uses it to prune edges whose
// support falls below k−2.
func Select[T any](a *CSR[T], keep func(i int, j int32, v T) bool) *CSR[T] {
	out := &CSR[T]{Pattern: Pattern{Rows: a.Rows, Cols: a.Cols, RowPtr: make([]int64, a.Rows+1)}}
	for i := 0; i < a.Rows; i++ {
		vals := a.RowVals(i)
		for k, j := range a.Row(i) {
			if keep(i, j, vals[k]) {
				out.ColIdx = append(out.ColIdx, j)
				out.Val = append(out.Val, vals[k])
			}
		}
		out.RowPtr[i+1] = int64(len(out.ColIdx))
	}
	return out
}

// Reduce folds all stored values with add starting from init.
func Reduce[T any](a *CSR[T], init T, add func(x, y T) T) T {
	acc := init
	for _, v := range a.Val {
		acc = add(acc, v)
	}
	return acc
}

// ReduceCols folds each column's stored values, producing a dense vector
// of length Cols. Betweenness centrality sums the per-source dependency
// rows into one centrality vector this way.
func ReduceCols[T any](a *CSR[T], init T, add func(x, y T) T) []T {
	out := make([]T, a.Cols)
	for j := range out {
		out[j] = init
	}
	for i := 0; i < a.Rows; i++ {
		vals := a.RowVals(i)
		for k, j := range a.Row(i) {
			out[j] = add(out[j], vals[k])
		}
	}
	return out
}

// ApplyMask filters a through a mask pattern: with complement == false
// only entries at mask positions survive; with complement == true only
// entries *off* the mask survive. This is the "multiply first, mask
// later" post-processing step the naive baseline uses (Figure 1).
func ApplyMask[T any](a *CSR[T], mask *Pattern, complement bool) (*CSR[T], error) {
	if err := checkSameShape(a.Rows, a.Cols, mask.Rows, mask.Cols); err != nil {
		return nil, err
	}
	out := &CSR[T]{Pattern: Pattern{Rows: a.Rows, Cols: a.Cols, RowPtr: make([]int64, a.Rows+1)}}
	for i := 0; i < a.Rows; i++ {
		ra, va := a.Row(i), a.RowVals(i)
		rm := mask.Row(i)
		q := 0
		for p, j := range ra {
			for q < len(rm) && rm[q] < j {
				q++
			}
			onMask := q < len(rm) && rm[q] == j
			if onMask != complement {
				out.ColIdx = append(out.ColIdx, j)
				out.Val = append(out.Val, va[p])
			}
		}
		out.RowPtr[i+1] = int64(len(out.ColIdx))
	}
	return out, nil
}
