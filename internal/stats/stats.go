// Package stats computes the structural matrix properties the paper's
// analysis reasons about: degree distributions (the skew that separates
// R-MAT from Erdős-Rényi workloads), matrix bandwidth β(A) (the §4.2
// memory-model assumption "β(A) > Z"), and masked-work summaries
// (Figure 1's wasted-flops argument). The mspgemm-app CLI surfaces
// these for any input.
package stats

import (
	"fmt"
	"io"
	"math"
	"sort"

	"maskedspgemm/internal/core"
	"maskedspgemm/internal/parallel"
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

// DegreeHistogram buckets row degrees into powers of two: bucket k
// counts rows with degree in [2^k, 2^(k+1)) (bucket 0 additionally
// holds degree-0 rows at index -1 semantics folded into bucket 0).
func DegreeHistogram[T any](a *sparse.CSR[T]) []int64 {
	var hist []int64
	bump := func(b int) {
		for len(hist) <= b {
			hist = append(hist, 0)
		}
		hist[b]++
	}
	for i := 0; i < a.Rows; i++ {
		d := a.RowNNZ(i)
		b := 0
		for d > 1 {
			d >>= 1
			b++
		}
		bump(b)
	}
	return hist
}

// WriteSchedStats renders one execution's scheduler telemetry
// (parallel.SchedStats, collected under Options.CollectSchedStats) as
// an aligned per-worker table plus the aggregate imbalance factor —
// the diagnostic view of the load-balance skew this package's degree
// statistics predict.
// The share column decomposes the imbalance factor: each worker's
// fraction of total busy time, where every participant at 1/P reads
// imbalance 1.00 and one worker hoarding the row mass shows up
// directly. This is the same max-busy / mean-busy signal the
// trajectory benchmark reports as parallel.imbalance (DESIGN.md §9).
func WriteSchedStats(w io.Writer, st parallel.SchedStats) {
	fmt.Fprintf(w, "  %-8s %12s %7s %10s\n", "worker", "busy", "share", "claimed")
	total := st.Busy()
	for tid, ws := range st.Workers {
		share := 0.0
		if total > 0 {
			share = float64(ws.Busy) / float64(total)
		}
		fmt.Fprintf(w, "  %-8d %12s %6.1f%% %10d\n", tid, ws.Busy, 100*share, ws.Claimed)
	}
	fmt.Fprintf(w, "  total busy %s over %d blocks, imbalance %.2f\n",
		total, st.Claimed(), st.Imbalance())
}

// MaskedWork summarizes Figure 1's argument for one masked product:
// how much of the unmasked flop count actually lands on the mask.
type MaskedWork struct {
	// Flops is the unmasked multiply–add count of A·B.
	Flops int64
	// OnMask is the count landing on admitted positions.
	OnMask int64
	// Wasted is the fraction a mask-oblivious algorithm throws away.
	Wasted float64
	// MaskCoverage is nnz(C) / nnz(M): how much of the mask receives a
	// value ("mask may contain entries for which the multiplication
	// does not produce an output").
	MaskCoverage float64
}

// AnalyzeMaskedWork measures the work split of C = M ⊙ (A·B).
func AnalyzeMaskedWork[T any](mask *sparse.Pattern, a, b *sparse.CSR[T], outNNZ int64) MaskedWork {
	w := MaskedWork{
		Flops:  core.Flops(a, b),
		OnMask: core.MaskedFlops(mask, a, b, false),
	}
	if w.Flops > 0 {
		w.Wasted = 1 - float64(w.OnMask)/float64(w.Flops)
	}
	if mask.NNZ() > 0 {
		w.MaskCoverage = float64(outNNZ) / float64(mask.NNZ())
	}
	return w
}
