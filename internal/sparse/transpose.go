package sparse

// Transpose returns Aᵀ as a new CSR matrix. The classic two-pass
// counting-sort transpose: count column occurrences, prefix-sum, scatter.
// Output rows come out sorted because input rows are scanned in order.
func Transpose[T any](a *CSR[T]) *CSR[T] {
	nnz := a.NNZ()
	t := &CSR[T]{
		Pattern: Pattern{
			Rows:   a.Cols,
			Cols:   a.Rows,
			RowPtr: make([]int64, a.Cols+1),
			ColIdx: make([]int32, nnz),
		},
		Val: make([]T, nnz),
	}
	for _, j := range a.ColIdx {
		t.RowPtr[j+1]++
	}
	for j := 0; j < a.Cols; j++ {
		t.RowPtr[j+1] += t.RowPtr[j]
	}
	next := append([]int64(nil), t.RowPtr...)
	for i := 0; i < a.Rows; i++ {
		vals := a.RowVals(i)
		for k, j := range a.Row(i) {
			p := next[j]
			t.ColIdx[p] = int32(i)
			t.Val[p] = vals[k]
			next[j]++
		}
	}
	return t
}

// TransposePattern returns the transpose of a pattern.
func TransposePattern(p *Pattern) *Pattern {
	nnz := p.NNZ()
	t := &Pattern{
		Rows:   p.Cols,
		Cols:   p.Rows,
		RowPtr: make([]int64, p.Cols+1),
		ColIdx: make([]int32, nnz),
	}
	for _, j := range p.ColIdx {
		t.RowPtr[j+1]++
	}
	for j := 0; j < p.Cols; j++ {
		t.RowPtr[j+1] += t.RowPtr[j]
	}
	next := append([]int64(nil), t.RowPtr...)
	for i := 0; i < p.Rows; i++ {
		for _, j := range p.Row(i) {
			t.ColIdx[next[j]] = int32(i)
			next[j]++
		}
	}
	return t
}

// ToCSCStructure computes the CSC *structure* of a — column pointers,
// row indices, and the scatter permutation — without materializing
// values. Shareable execution plans cache exactly this: the structure
// is immutable for the plan's lifetime, while values are refreshed
// through perm into an executor-owned buffer on every execution
// (Val[p] = a.Val[perm[p]]).
func ToCSCStructure[T any](a *CSR[T]) (colPtr []int64, rowIdx []int32, perm []int64) {
	nnz := a.NNZ()
	colPtr = make([]int64, a.Cols+1)
	rowIdx = make([]int32, nnz)
	perm = make([]int64, nnz)
	for _, j := range a.ColIdx {
		colPtr[j+1]++
	}
	for j := 0; j < a.Cols; j++ {
		colPtr[j+1] += colPtr[j]
	}
	next := append([]int64(nil), colPtr...)
	for i := 0; i < a.Rows; i++ {
		lo := a.RowPtr[i]
		for k, j := range a.Row(i) {
			p := next[j]
			rowIdx[p] = int32(i)
			perm[p] = lo + int64(k)
			next[j]++
		}
	}
	return colPtr, rowIdx, perm
}

// ToCSC converts a CSR matrix to CSC. Structurally this is the transpose
// scatter with row/column roles swapped, so the result represents the
// same matrix.
func ToCSC[T any](a *CSR[T]) *CSC[T] {
	nnz := a.NNZ()
	c := &CSC[T]{
		Rows:   a.Rows,
		Cols:   a.Cols,
		ColPtr: make([]int64, a.Cols+1),
		RowIdx: make([]int32, nnz),
		Val:    make([]T, nnz),
	}
	for _, j := range a.ColIdx {
		c.ColPtr[j+1]++
	}
	for j := 0; j < a.Cols; j++ {
		c.ColPtr[j+1] += c.ColPtr[j]
	}
	next := append([]int64(nil), c.ColPtr...)
	for i := 0; i < a.Rows; i++ {
		vals := a.RowVals(i)
		for k, j := range a.Row(i) {
			p := next[j]
			c.RowIdx[p] = int32(i)
			c.Val[p] = vals[k]
			next[j]++
		}
	}
	return c
}

// Tril returns the strictly lower triangular part of a (entries with
// column < row). Triangle counting relabels by degree and then works on
// L = tril(A) (§8.2).
func Tril[T any](a *CSR[T]) *CSR[T] {
	out := &CSR[T]{Pattern: Pattern{Rows: a.Rows, Cols: a.Cols, RowPtr: make([]int64, a.Rows+1)}}
	for i := 0; i < a.Rows; i++ {
		row := a.Row(i)
		vals := a.RowVals(i)
		for k, j := range row {
			if int(j) < i {
				out.ColIdx = append(out.ColIdx, j)
				out.Val = append(out.Val, vals[k])
			}
		}
		out.RowPtr[i+1] = int64(len(out.ColIdx))
	}
	return out
}

// PermuteSym applies the symmetric permutation P·A·Pᵀ: entry (i,j) moves
// to (perm[i], perm[j]). perm must be a bijection on [0, Rows); the matrix
// must be square. Triangle counting uses this with a degree-sorting
// permutation (§8.2).
func PermuteSym[T any](a *CSR[T], perm []int32) *CSR[T] {
	coo := NewCOO[T](a.Rows, a.Cols, int(a.NNZ()))
	for i := 0; i < a.Rows; i++ {
		vals := a.RowVals(i)
		for k, j := range a.Row(i) {
			coo.Append(perm[i], perm[j], vals[k])
		}
	}
	out, err := coo.ToCSR(nil)
	if err != nil {
		// perm out of range is a programmer error on an internal path.
		panic(err)
	}
	return out
}
