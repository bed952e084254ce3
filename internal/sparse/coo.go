package sparse

import (
	"fmt"
	"sort"
)

// COO is a coordinate-format triple list, the interchange format used by
// the generators and Matrix Market I/O before compression to CSR.
// Entries may be unsorted and may contain duplicates until Compact is
// called; ToCSR handles both.
type COO[T any] struct {
	// Rows and Cols are the matrix dimensions.
	Rows, Cols int
	// RowIdx holds each entry's row index, parallel to ColIdx and Val.
	RowIdx []int32
	// ColIdx holds each entry's column index.
	ColIdx []int32
	// Val holds each entry's value.
	Val []T
}

// NewCOO returns an empty triple list with the given shape and capacity
// hint.
func NewCOO[T any](rows, cols, capHint int) *COO[T] {
	return &COO[T]{
		Rows:   rows,
		Cols:   cols,
		RowIdx: make([]int32, 0, capHint),
		ColIdx: make([]int32, 0, capHint),
		Val:    make([]T, 0, capHint),
	}
}

// Append adds one triple.
func (c *COO[T]) Append(i, j int32, v T) {
	c.RowIdx = append(c.RowIdx, i)
	c.ColIdx = append(c.ColIdx, j)
	c.Val = append(c.Val, v)
}

// Len returns the number of stored triples (before deduplication).
func (c *COO[T]) Len() int { return len(c.RowIdx) }

// ToCSR compresses the triple list to CSR, sorting each row's columns and
// combining duplicate coordinates with the combine function (pass nil to
// keep the last occurrence). The COO is left unmodified.
func (c *COO[T]) ToCSR(combine func(a, b T) T) (*CSR[T], error) {
	for k := range c.RowIdx {
		if c.RowIdx[k] < 0 || int(c.RowIdx[k]) >= c.Rows {
			return nil, fmt.Errorf("sparse: COO row %d out of range [0,%d)", c.RowIdx[k], c.Rows)
		}
		if c.ColIdx[k] < 0 || int(c.ColIdx[k]) >= c.Cols {
			return nil, fmt.Errorf("sparse: COO col %d out of range [0,%d)", c.ColIdx[k], c.Cols)
		}
	}
	nnz := len(c.RowIdx)
	// Counting sort by row, stable on insertion order so that "keep last"
	// and commutative combines are well defined.
	counts := make([]int64, c.Rows+1)
	for _, i := range c.RowIdx {
		counts[i+1]++
	}
	for i := 0; i < c.Rows; i++ {
		counts[i+1] += counts[i]
	}
	perm := make([]int32, nnz)
	next := append([]int64(nil), counts...)
	for k := 0; k < nnz; k++ {
		i := c.RowIdx[k]
		perm[next[i]] = int32(k)
		next[i]++
	}
	out := &CSR[T]{
		Pattern: Pattern{
			Rows:   c.Rows,
			Cols:   c.Cols,
			RowPtr: make([]int64, c.Rows+1),
			ColIdx: make([]int32, 0, nnz),
		},
		Val: make([]T, 0, nnz),
	}
	type kv struct {
		j int32
		k int32 // original triple index, for stability
	}
	var scratch []kv
	for i := 0; i < c.Rows; i++ {
		lo, hi := counts[i], counts[i+1]
		scratch = scratch[:0]
		for _, k := range perm[lo:hi] {
			scratch = append(scratch, kv{c.ColIdx[k], k})
		}
		sort.Slice(scratch, func(a, b int) bool {
			if scratch[a].j != scratch[b].j {
				return scratch[a].j < scratch[b].j
			}
			return scratch[a].k < scratch[b].k
		})
		for t := 0; t < len(scratch); {
			j := scratch[t].j
			v := c.Val[scratch[t].k]
			t++
			for t < len(scratch) && scratch[t].j == j {
				if combine != nil {
					v = combine(v, c.Val[scratch[t].k])
				} else {
					v = c.Val[scratch[t].k]
				}
				t++
			}
			out.ColIdx = append(out.ColIdx, j)
			out.Val = append(out.Val, v)
		}
		out.RowPtr[i+1] = int64(len(out.ColIdx))
	}
	return out, nil
}

// FromRows builds a CSR matrix from dense-indexed row maps; convenient in
// tests. Rows are map[column]value.
func FromRows[T any](rows, cols int, data map[int]map[int]T) (*CSR[T], error) {
	coo := NewCOO[T](rows, cols, 0)
	for i, row := range data {
		for j, v := range row {
			coo.Append(int32(i), int32(j), v)
		}
	}
	return coo.ToCSR(nil)
}
