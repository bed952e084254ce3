package core

import (
	"maskedspgemm/internal/accum"
	"maskedspgemm/internal/semiring"
	"maskedspgemm/internal/sparse"
)

// mcaRowNumeric is Algorithm 3: for each nonzero u_k of the A row, merge
// the sorted row B_k* against the sorted mask row; matches are inserted
// into the MCA under their *position within the mask row*, which is what
// lets the accumulator arrays be compressed to nnz(mask row) (§5.4).
func mcaRowNumeric[T any, S semiring.Semiring[T]](acc *accum.MCA[T, S], maskRow []int32, aCols []int32, aVals []T, b *sparse.CSR[T], outIdx []int32, outVal []T) int {
	acc.Grow(len(maskRow))
	for k, col := range aCols {
		lo, hi := b.RowPtr[col], b.RowPtr[col+1]
		bCols := b.ColIdx[lo:hi]
		bVals := b.Val[lo:hi]
		av := aVals[k]
		p, q := 0, 0
		for p < len(bCols) && q < len(maskRow) {
			switch {
			case bCols[p] < maskRow[q]:
				p++
			case bCols[p] > maskRow[q]:
				q++
			default:
				acc.Insert(int32(q), av, bVals[p])
				p++
				q++
			}
		}
	}
	return acc.Gather(maskRow, outIdx, outVal)
}

// mcaRowSymbolic is the pattern-only variant of Algorithm 3.
func mcaRowSymbolic[T any, S semiring.Semiring[T]](acc *accum.MCA[T, S], maskRow []int32, aCols []int32, b *sparse.CSR[T]) int {
	acc.Grow(len(maskRow))
	for _, col := range aCols {
		lo, hi := b.RowPtr[col], b.RowPtr[col+1]
		bCols := b.ColIdx[lo:hi]
		p, q := 0, 0
		for p < len(bCols) && q < len(maskRow) {
			switch {
			case bCols[p] < maskRow[q]:
				p++
			case bCols[p] > maskRow[q]:
				q++
			default:
				acc.InsertPattern(int32(q))
				p++
				q++
			}
		}
	}
	return acc.EndSymbolic(maskRow)
}

// bindMCA registers the MCA scheme (§5.4). MCA requires sorted mask
// and B rows (guaranteed by the CSR invariant) and does not support
// complemented masks — with a complemented mask there is no compressed
// index space to map columns into (see its registry entry). A half row
// of a symmetric self-product merges against its half mask row; the
// merge stops where either runs out, so B rows are not clipped.
func bindMCA[T any, S semiring.Semiring[T]](p *Plan[T, S], e *Executor[T, S], a, b *sparse.CSR[T], h *symHalf) kernels[T] {
	exec, m := e, maskRows{p.mask, h}
	return kernels[T]{
		numeric: func(tid, i int, outIdx []int32, outVal []T) int {
			return mcaRowNumeric(exec.worker(tid).MCA(), m.row(i), a.Row(i), a.RowVals(i), b, outIdx, outVal)
		},
		symbolic: func(tid, i int) int {
			return mcaRowSymbolic(exec.worker(tid).MCA(), m.row(i), a.Row(i), b)
		},
	}
}
