// Package stats computes the structural matrix properties the paper's
// analysis reasons about: degree distributions (the skew that separates
// R-MAT from Erdős-Rényi workloads) and matrix bandwidth β(A) (the §4.2
// memory-model assumption "β(A) > Z"). The mspgemm-app CLI surfaces
// these for any input.
package stats

import (
	"fmt"
	"io"
	"math"
	"sort"

	"maskedspgemm/internal/sparse"
)

// MatrixStats summarizes one sparse matrix's structure.
type MatrixStats struct {
	// Rows and Cols are the matrix dimensions.
	Rows, Cols int
	// NNZ is the stored entry count.
	NNZ int64
	// Density is nnz / (rows·cols).
	Density float64
	// MinDegree and MaxDegree bound the row sizes.
	MinDegree, MaxDegree int
	// MeanDegree is the average row size.
	MeanDegree float64
	// MedianDegree is the median row size.
	MedianDegree int
	// DegreeP99 is the 99th-percentile row size; the skew indicator.
	DegreeP99 int
	// EmptyRows counts rows with no entries (hypersparsity signal).
	EmptyRows int
	// Bandwidth is β(A): the smallest k with A_ij = 0 for |i−j| > k
	// (§4.2's matrix bandwidth).
	Bandwidth int
	// Symmetric reports pattern symmetry (square matrices only).
	Symmetric bool
}

// Collect computes MatrixStats in one pass plus a transpose for the
// symmetry check.
func Collect[T any](a *sparse.CSR[T]) MatrixStats {
	s := MatrixStats{Rows: a.Rows, Cols: a.Cols, NNZ: a.NNZ(), MinDegree: math.MaxInt}
	if a.Rows == 0 || a.Cols == 0 {
		s.MinDegree = 0
		return s
	}
	s.Density = float64(s.NNZ) / (float64(a.Rows) * float64(a.Cols))
	degrees := make([]int, a.Rows)
	for i := 0; i < a.Rows; i++ {
		d := a.RowNNZ(i)
		degrees[i] = d
		if d < s.MinDegree {
			s.MinDegree = d
		}
		if d > s.MaxDegree {
			s.MaxDegree = d
		}
		if d == 0 {
			s.EmptyRows++
		}
		for _, j := range a.Row(i) {
			if bw := int(j) - i; bw > s.Bandwidth {
				s.Bandwidth = bw
			} else if bw = i - int(j); bw > s.Bandwidth {
				s.Bandwidth = bw
			}
		}
	}
	s.MeanDegree = float64(s.NNZ) / float64(a.Rows)
	sort.Ints(degrees)
	s.MedianDegree = degrees[len(degrees)/2]
	s.DegreeP99 = degrees[(len(degrees)*99)/100]
	if a.Rows == a.Cols {
		s.Symmetric = sparse.PatternEqual(a.PatternView(), sparse.TransposePattern(a.PatternView()))
	}
	return s
}

// Write renders the stats as an aligned key-value block.
func (s MatrixStats) Write(w io.Writer) {
	fmt.Fprintf(w, "  shape        %d x %d\n", s.Rows, s.Cols)
	fmt.Fprintf(w, "  nnz          %d (density %.3g)\n", s.NNZ, s.Density)
	fmt.Fprintf(w, "  degree       min %d / median %d / mean %.2f / p99 %d / max %d\n",
		s.MinDegree, s.MedianDegree, s.MeanDegree, s.DegreeP99, s.MaxDegree)
	fmt.Fprintf(w, "  empty rows   %d\n", s.EmptyRows)
	fmt.Fprintf(w, "  bandwidth    %d\n", s.Bandwidth)
	fmt.Fprintf(w, "  symmetric    %v\n", s.Symmetric)
}
