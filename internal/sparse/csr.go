// Package sparse provides the sparse-matrix substrate for masked SpGEMM:
// CSR/CSC/COO storage, pattern (structure-only) matrices, conversions,
// transposition, element-wise operations, and dense reference helpers.
//
// Conventions, following the paper (§2.1):
//
//   - CSR is the primary format. CSC appears only where the pull-based
//     inner-product algorithm needs column access to B.
//   - Column indices within a row are sorted ascending and duplicate-free.
//     All constructors either verify or establish this invariant.
//   - Row pointers are int64 (nnz may exceed 2^31); column indices are
//     int32 (dimensions stay below 2^31), which halves index traffic in
//     the accumulators.
package sparse

import (
	"fmt"
	"math"
)

// Pattern is the structure (sparsity pattern) of an m×n sparse matrix in
// CSR layout: RowPtr has length Rows+1 and ColIdx[RowPtr[i]:RowPtr[i+1]]
// holds the sorted column indices of row i. A Pattern is what a mask is:
// the paper's Masked SpGEMM uses only the positions of the mask, never
// its values (§2).
type Pattern struct {
	// Rows and Cols are the matrix dimensions.
	Rows, Cols int
	// RowPtr has Rows+1 monotone entries; row i occupies
	// ColIdx[RowPtr[i]:RowPtr[i+1]].
	RowPtr []int64
	// ColIdx holds sorted, duplicate-free column indices per row.
	ColIdx []int32
}

// NNZ returns the number of stored entries.
func (p *Pattern) NNZ() int64 {
	if len(p.RowPtr) == 0 {
		return 0
	}
	return p.RowPtr[p.Rows]
}

// Row returns the sorted column indices of row i. The returned slice
// aliases the pattern's storage.
func (p *Pattern) Row(i int) []int32 {
	return p.ColIdx[p.RowPtr[i]:p.RowPtr[i+1]]
}

// RowNNZ returns the number of stored entries in row i.
func (p *Pattern) RowNNZ(i int) int {
	return int(p.RowPtr[i+1] - p.RowPtr[i])
}

// Validate checks the CSR invariants: monotone row pointers, in-range and
// strictly increasing column indices per row.
func (p *Pattern) Validate() error {
	if p.Rows < 0 || p.Cols < 0 {
		return fmt.Errorf("sparse: negative dimension %dx%d", p.Rows, p.Cols)
	}
	if p.Cols > math.MaxInt32 {
		return fmt.Errorf("sparse: cols %d exceeds int32 index range", p.Cols)
	}
	if len(p.RowPtr) != p.Rows+1 {
		return fmt.Errorf("sparse: RowPtr length %d, want %d", len(p.RowPtr), p.Rows+1)
	}
	if p.RowPtr[0] != 0 {
		return fmt.Errorf("sparse: RowPtr[0] = %d, want 0", p.RowPtr[0])
	}
	for i := 0; i < p.Rows; i++ {
		lo, hi := p.RowPtr[i], p.RowPtr[i+1]
		if lo > hi {
			return fmt.Errorf("sparse: RowPtr not monotone at row %d (%d > %d)", i, lo, hi)
		}
		// Range before slicing: a decoded RowPtr can point anywhere, and
		// Validate is the guard untrusted input crosses — it must report
		// corruption, never index by it.
		if lo < 0 || hi > int64(len(p.ColIdx)) {
			return fmt.Errorf("sparse: RowPtr range [%d,%d) at row %d exceeds %d stored entries", lo, hi, i, len(p.ColIdx))
		}
		prev := int32(-1)
		for _, j := range p.ColIdx[lo:hi] {
			if j < 0 || int(j) >= p.Cols {
				return fmt.Errorf("sparse: column %d out of range [0,%d) in row %d", j, p.Cols, i)
			}
			if j <= prev {
				return fmt.Errorf("sparse: row %d columns not strictly increasing (%d after %d)", i, j, prev)
			}
			prev = j
		}
	}
	if p.RowPtr[p.Rows] != int64(len(p.ColIdx)) {
		return fmt.Errorf("sparse: RowPtr[last] = %d, want len(ColIdx) = %d", p.RowPtr[p.Rows], len(p.ColIdx))
	}
	return nil
}

// Clone returns a deep copy of the pattern.
func (p *Pattern) Clone() *Pattern {
	q := &Pattern{
		Rows:   p.Rows,
		Cols:   p.Cols,
		RowPtr: append([]int64(nil), p.RowPtr...),
		ColIdx: append([]int32(nil), p.ColIdx...),
	}
	return q
}

// Has reports whether entry (i, j) is stored, via binary search in row i.
func (p *Pattern) Has(i int, j int32) bool {
	row := p.Row(i)
	lo, hi := 0, len(row)
	for lo < hi {
		mid := (lo + hi) / 2
		if row[mid] < j {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo < len(row) && row[lo] == j
}

// CSR is an m×n sparse matrix over element type T in compressed sparse
// row format. Pattern invariants apply; Val runs parallel to ColIdx.
type CSR[T any] struct {
	Pattern
	// Val holds the stored values, parallel to Pattern.ColIdx.
	Val []T
}

// NewCSR constructs an empty (all-zero) rows×cols matrix.
func NewCSR[T any](rows, cols int) *CSR[T] {
	return &CSR[T]{Pattern: Pattern{Rows: rows, Cols: cols, RowPtr: make([]int64, rows+1)}}
}

// RowVals returns the values of row i, parallel to Row(i). The returned
// slice aliases the matrix storage.
func (a *CSR[T]) RowVals(i int) []T {
	return a.Val[a.RowPtr[i]:a.RowPtr[i+1]]
}

// Validate checks CSR invariants including value-array length.
func (a *CSR[T]) Validate() error {
	if err := a.Pattern.Validate(); err != nil {
		return err
	}
	if len(a.Val) != len(a.ColIdx) {
		return fmt.Errorf("sparse: Val length %d, want %d", len(a.Val), len(a.ColIdx))
	}
	return nil
}

// Clone returns a deep copy of the matrix.
func (a *CSR[T]) Clone() *CSR[T] {
	return &CSR[T]{
		Pattern: *a.Pattern.Clone(),
		Val:     append([]T(nil), a.Val...),
	}
}

// PatternView returns the structure of the matrix. The view shares
// storage with a; it is the natural way to use a matrix as a mask.
func (a *CSR[T]) PatternView() *Pattern { return &a.Pattern }

// At returns the stored value at (i, j) and whether it is present.
func (a *CSR[T]) At(i int, j int32) (T, bool) {
	row := a.Row(i)
	lo, hi := 0, len(row)
	for lo < hi {
		mid := (lo + hi) / 2
		if row[mid] < j {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(row) && row[lo] == j {
		return a.RowVals(i)[lo], true
	}
	var zero T
	return zero, false
}

// CSC is an m×n sparse matrix in compressed sparse column format. It is
// used by the pull-based Inner algorithm, which walks columns of B
// (§4.1: "A stored in CSR and B in CSC").
type CSC[T any] struct {
	// Rows and Cols are the matrix dimensions.
	Rows, Cols int
	// ColPtr has Cols+1 monotone entries; column j occupies
	// RowIdx[ColPtr[j]:ColPtr[j+1]].
	ColPtr []int64
	// RowIdx holds sorted, duplicate-free row indices per column.
	RowIdx []int32
	// Val holds the stored values, parallel to RowIdx.
	Val []T
}

// NNZ returns the number of stored entries.
func (a *CSC[T]) NNZ() int64 {
	if len(a.ColPtr) == 0 {
		return 0
	}
	return a.ColPtr[a.Cols]
}

// Validate checks the CSC invariants (mirror of Pattern.Validate).
func (a *CSC[T]) Validate() error {
	if len(a.ColPtr) != a.Cols+1 {
		return fmt.Errorf("sparse: ColPtr length %d, want %d", len(a.ColPtr), a.Cols+1)
	}
	if a.ColPtr[0] != 0 {
		return fmt.Errorf("sparse: ColPtr[0] = %d, want 0", a.ColPtr[0])
	}
	for j := 0; j < a.Cols; j++ {
		lo, hi := a.ColPtr[j], a.ColPtr[j+1]
		if lo > hi {
			return fmt.Errorf("sparse: ColPtr not monotone at col %d", j)
		}
		prev := int32(-1)
		for _, i := range a.RowIdx[lo:hi] {
			if i < 0 || int(i) >= a.Rows {
				return fmt.Errorf("sparse: row %d out of range [0,%d) in col %d", i, a.Rows, j)
			}
			if i <= prev {
				return fmt.Errorf("sparse: col %d rows not strictly increasing", j)
			}
			prev = i
		}
	}
	if a.ColPtr[a.Cols] != int64(len(a.RowIdx)) {
		return fmt.Errorf("sparse: ColPtr[last] = %d, want %d", a.ColPtr[a.Cols], len(a.RowIdx))
	}
	if len(a.Val) != len(a.RowIdx) {
		return fmt.Errorf("sparse: Val length %d, want %d", len(a.Val), len(a.RowIdx))
	}
	return nil
}
