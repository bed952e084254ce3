package core

import (
	"sync/atomic"

	"maskedspgemm/internal/parallel"
	"maskedspgemm/internal/sparse"
)

// flopsSerialCutoff is the nnz(A) bound below which the flop counters
// run inline on the calling goroutine: a straight loop with no
// goroutines, no closure, and zero heap allocations (asserted by
// TestFlopsAllocFree). Above it, per-block partial sums fold into one
// atomic total — one Add per scheduled block, never an O(rows) slice.
const flopsSerialCutoff = 1 << 15

// Flops returns the multiply–add count of the unmasked product A·B in
// Gustavson form: Σ_{(i,k) ∈ A} nnz(B_k*). The paper's GFLOPS figures
// (Figs 10, 14) use 2·Flops (one multiply + one add per partial
// product); see internal/bench.
func Flops[T any](a, b *sparse.CSR[T]) int64 {
	if a.NNZ() <= flopsSerialCutoff {
		return flopsRange(a, b, 0, a.Rows)
	}
	var total atomic.Int64
	parallel.ForEachBlock(a.Rows, 0, parallel.DefaultGrain, func(lo, hi, _ int) {
		total.Add(flopsRange(a, b, lo, hi))
	})
	return total.Load()
}

// flopsRange sums the Gustavson flops of rows [lo, hi).
func flopsRange[T any](a, b *sparse.CSR[T], lo, hi int) int64 {
	var f int64
	for i := lo; i < hi; i++ {
		f += rowGen(a.Row(i), b.RowPtr)
	}
	return f
}

// MaskedFlops returns the multiply–add count that actually lands on
// admitted mask positions: Σ over (i,k) ∈ A of |{j ∈ B_k* : M_ij
// admitted}|. This is the useful work of a masked multiply; the gap
// between Flops and MaskedFlops is the waste a mask-oblivious algorithm
// pays (Figure 1).
func MaskedFlops[T any](mask *sparse.Pattern, a, b *sparse.CSR[T], complement bool) int64 {
	if maskedFlopsSerialOK(mask, a, b) {
		return maskedFlopsRange(mask, a, b, complement, 0, a.Rows)
	}
	var total atomic.Int64
	parallel.ForEachBlock(a.Rows, 0, parallel.DefaultGrain, func(lo, hi, _ int) {
		total.Add(maskedFlopsRange(mask, a, b, complement, lo, hi))
	})
	return total.Load()
}

// maskedFlopsSerialOK reports whether the masked count is cheap enough
// to run inline. Unlike Flops, whose work is O(nnz(A)), the masked
// count merges each A entry's B row against its mask row, so the real
// work is Σ_i nnz(A_i*)·nnz(m_i) plus the generated flops — a
// small-nnz(A) matrix against dense B rows or masks must still go
// parallel. The bound is estimated in one O(rows + nnz(A)) sweep with
// early exit, allocation-free.
func maskedFlopsSerialOK[T any](mask *sparse.Pattern, a, b *sparse.CSR[T]) bool {
	var work int64
	for i := 0; i < a.Rows; i++ {
		aRow := a.Row(i)
		work += int64(len(aRow)) * int64(mask.RowNNZ(i))
		for _, k := range aRow {
			work += b.RowPtr[k+1] - b.RowPtr[k]
		}
		if work > flopsSerialCutoff {
			return false
		}
	}
	return true
}

// maskedFlopsRange counts the on-mask flops of rows [lo, hi).
func maskedFlopsRange[T any](mask *sparse.Pattern, a, b *sparse.CSR[T], complement bool, lo, hi int) int64 {
	var total int64
	for i := lo; i < hi; i++ {
		maskRow := mask.Row(i)
		var f int64
		for _, k := range a.Row(i) {
			bCols := b.ColIdx[b.RowPtr[k]:b.RowPtr[k+1]]
			if complement {
				q := 0
				for _, j := range bCols {
					for q < len(maskRow) && maskRow[q] < j {
						q++
					}
					if q >= len(maskRow) || maskRow[q] != j {
						f++
					}
				}
			} else {
				p, q := 0, 0
				for p < len(bCols) && q < len(maskRow) {
					switch {
					case bCols[p] < maskRow[q]:
						p++
					case bCols[p] > maskRow[q]:
						q++
					default:
						f++
						p++
						q++
					}
				}
			}
		}
		total += f
	}
	return total
}
