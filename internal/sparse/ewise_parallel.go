package sparse

import "maskedspgemm/internal/parallel"

// Parallel element-wise kernels. The serial EWiseAdd in ewise.go is
// kept for small operands and as a test oracle; these two-pass variants
// (count rows in parallel → prefix-sum → fill rows in parallel) are
// what betweenness centrality calls between its masked products, where
// the b×n operands grow with the batch size.

// EWiseAddParallel is EWiseAdd with row-parallel execution.
func EWiseAddParallel[T any](a, b *CSR[T], add func(x, y T) T, threads int) (*CSR[T], error) {
	if err := checkSameShape(a.Rows, a.Cols, b.Rows, b.Cols); err != nil {
		return nil, err
	}
	rows := a.Rows
	rowPtr := make([]int64, rows+1)
	parallel.ForEachBlock(rows, threads, parallel.DefaultGrain, func(lo, hi, _ int) {
		for i := lo; i < hi; i++ {
			rowPtr[i] = int64(unionCount(a.Row(i), b.Row(i)))
		}
	})
	parallel.PrefixSumParallel(rowPtr, threads)
	out := &CSR[T]{
		Pattern: Pattern{Rows: rows, Cols: a.Cols, RowPtr: rowPtr, ColIdx: make([]int32, rowPtr[rows])},
		Val:     make([]T, rowPtr[rows]),
	}
	parallel.ForEachBlock(rows, threads, parallel.DefaultGrain, func(lo, hi, _ int) {
		for i := lo; i < hi; i++ {
			fillUnionRow(out.ColIdx[rowPtr[i]:rowPtr[i+1]], out.Val[rowPtr[i]:rowPtr[i+1]],
				a.Row(i), a.RowVals(i), b.Row(i), b.RowVals(i), add)
		}
	})
	return out, nil
}

// EWiseMultParallel returns the intersection combination of a and b,
// row-parallel: only coordinates present in both survive, combined
// with mul.
func EWiseMultParallel[T any](a, b *CSR[T], mul func(x, y T) T, threads int) (*CSR[T], error) {
	if err := checkSameShape(a.Rows, a.Cols, b.Rows, b.Cols); err != nil {
		return nil, err
	}
	rows := a.Rows
	rowPtr := make([]int64, rows+1)
	parallel.ForEachBlock(rows, threads, parallel.DefaultGrain, func(lo, hi, _ int) {
		for i := lo; i < hi; i++ {
			rowPtr[i] = int64(intersectCount(a.Row(i), b.Row(i)))
		}
	})
	parallel.PrefixSumParallel(rowPtr, threads)
	out := &CSR[T]{
		Pattern: Pattern{Rows: rows, Cols: a.Cols, RowPtr: rowPtr, ColIdx: make([]int32, rowPtr[rows])},
		Val:     make([]T, rowPtr[rows]),
	}
	parallel.ForEachBlock(rows, threads, parallel.DefaultGrain, func(lo, hi, _ int) {
		for i := lo; i < hi; i++ {
			fillIntersectRow(out.ColIdx[rowPtr[i]:rowPtr[i+1]], out.Val[rowPtr[i]:rowPtr[i+1]],
				a.Row(i), a.RowVals(i), b.Row(i), b.RowVals(i), mul)
		}
	})
	return out, nil
}

// unionCount returns |a ∪ b| for sorted sets.
func unionCount(a, b []int32) int {
	n, p, q := 0, 0, 0
	for p < len(a) && q < len(b) {
		switch {
		case a[p] < b[q]:
			p++
		case a[p] > b[q]:
			q++
		default:
			p++
			q++
		}
		n++
	}
	return n + (len(a) - p) + (len(b) - q)
}

// intersectCount returns |a ∩ b| for sorted sets.
func intersectCount(a, b []int32) int {
	n, p, q := 0, 0, 0
	for p < len(a) && q < len(b) {
		switch {
		case a[p] < b[q]:
			p++
		case a[p] > b[q]:
			q++
		default:
			n++
			p++
			q++
		}
	}
	return n
}

// fillUnionRow merges one row pair into pre-sized output slices.
func fillUnionRow[T any](outIdx []int32, outVal []T, ra []int32, va []T, rb []int32, vb []T, add func(x, y T) T) {
	n, p, q := 0, 0, 0
	for p < len(ra) && q < len(rb) {
		switch {
		case ra[p] < rb[q]:
			outIdx[n] = ra[p]
			outVal[n] = va[p]
			p++
		case ra[p] > rb[q]:
			outIdx[n] = rb[q]
			outVal[n] = vb[q]
			q++
		default:
			outIdx[n] = ra[p]
			outVal[n] = add(va[p], vb[q])
			p++
			q++
		}
		n++
	}
	for ; p < len(ra); p++ {
		outIdx[n] = ra[p]
		outVal[n] = va[p]
		n++
	}
	for ; q < len(rb); q++ {
		outIdx[n] = rb[q]
		outVal[n] = vb[q]
		n++
	}
}

// fillIntersectRow intersects one row pair into pre-sized output
// slices.
func fillIntersectRow[T any](outIdx []int32, outVal []T, ra []int32, va []T, rb []int32, vb []T, mul func(x, y T) T) {
	n, p, q := 0, 0, 0
	for p < len(ra) && q < len(rb) {
		switch {
		case ra[p] < rb[q]:
			p++
		case ra[p] > rb[q]:
			q++
		default:
			outIdx[n] = ra[p]
			outVal[n] = mul(va[p], vb[q])
			n++
			p++
			q++
		}
	}
}
