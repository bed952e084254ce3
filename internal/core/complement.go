package core

import (
	"maskedspgemm/internal/accum"
	"maskedspgemm/internal/semiring"
	"maskedspgemm/internal/sparse"
)

// Complemented-mask push drivers (§5.2): C = ¬M ⊙ (A·B). The default
// accumulator state flips to ALLOWED, mask keys are excluded, and
// because the admitted key set is not enumerable the accumulators track
// inserted keys and emit them in ascending order at gather: MSAC and
// HashC sort the tracked list, MaskedBitC walks its set bitset over the
// keys' word span and sorts only when that span is too sparse. One-phase
// output slabs are sized by the per-row bound
// min(cols − nnz(m_i), Σ nnz(B_k*)).

// pushAccC is the complement accumulator protocol shared by MSAC, HashC
// and MaskedBitC.
type pushAccC[T any] interface {
	accum.ComplementNumeric[T]
	accum.ComplementSymbolic
}

// rowGenBound returns Σ_{k : A_ik ≠ 0} nnz(B_k*), the population bound
// for row i's complement accumulator.
func rowGenBound[T any](aCols []int32, b *sparse.CSR[T]) int {
	rowPtr := b.RowPtr
	var gen int64
	for _, k := range aCols {
		c := int(uint32(k))
		rp := rowPtr[c : c+2]
		gen += rp[1] - rp[0]
	}
	return int(gen)
}

// pushRowNumericC computes one complemented output row, one Scatter per
// A entry as in pushRowNumeric, with the same bounds-check-elimination
// hints.
//
//mspgemm:hotpath
func pushRowNumericC[T any, A pushAccC[T]](acc A, maskRow []int32, aCols []int32, aVals []T, b *sparse.CSR[T], outIdx []int32, outVal []T) int {
	acc.BeginSized(maskRow, rowGenBound(aCols, b))
	aVals = aVals[:len(aCols)]
	rowPtr := b.RowPtr
	colIdx := b.ColIdx
	vals := b.Val[:len(colIdx)]
	for k, col := range aCols {
		c := int(uint32(col))
		rp := rowPtr[c : c+2]
		lo, hi := rp[0], rp[1]
		acc.Scatter(aVals[k], colIdx[lo:hi], vals[lo:hi])
	}
	return acc.Gather(outIdx, outVal)
}

// pushRowSymbolicC counts one complemented output row.
//
//mspgemm:hotpath
func pushRowSymbolicC[T any, A pushAccC[T]](acc A, maskRow []int32, aCols []int32, b *sparse.CSR[T]) int {
	acc.BeginSymbolicSized(maskRow, rowGenBound(aCols, b))
	rowPtr := b.RowPtr
	colIdx := b.ColIdx
	for _, col := range aCols {
		c := int(uint32(col))
		rp := rowPtr[c : c+2]
		acc.ScatterPattern(colIdx[rp[0]:rp[1]])
	}
	return acc.EndSymbolic()
}

// pushKernelsC builds the row kernels of a complement push scheme over
// any accumulator obtained per worker from getAcc.
func pushKernelsC[T any, A pushAccC[T]](mask *sparse.Pattern, a, b *sparse.CSR[T], getAcc func(tid int) A) kernels[T] {
	return kernels[T]{
		numeric: func(tid, i int, outIdx []int32, outVal []T) int {
			return pushRowNumericC(getAcc(tid), mask.Row(i), a.Row(i), a.RowVals(i), b, outIdx, outVal)
		},
		symbolic: func(tid, i int) int {
			return pushRowSymbolicC[T](getAcc(tid), mask.Row(i), a.Row(i), b)
		},
	}
}

// bindMSAC registers complemented MSA (§5.2).
func bindMSAC[T any, S semiring.Semiring[T]](p *Plan[T, S], e *Executor[T, S], a, b *sparse.CSR[T]) kernels[T] {
	exec, ncols := e, b.Cols
	return pushKernelsC(p.mask, a, b, func(tid int) *accum.MSAC[T, S] {
		return exec.worker(tid).MSAC(ncols)
	})
}

// bindMaskedBitC registers the complemented bitmap-state variant
// (DESIGN.md §12). Like MSAC it is a dense-array accumulator, so the
// per-row bound only feeds the shared protocol, never a resize.
func bindMaskedBitC[T any, S semiring.Semiring[T]](p *Plan[T, S], e *Executor[T, S], a, b *sparse.CSR[T]) kernels[T] {
	exec, ncols := e, b.Cols
	return pushKernelsC(p.mask, a, b, func(tid int) *accum.MaskedBitC[T, S] {
		return exec.worker(tid).MaskedBitC(ncols)
	})
}

// bindHashC registers the complemented hash scheme. Tables grow per
// row to the row's population bound.
func bindHashC[T any, S semiring.Semiring[T]](p *Plan[T, S], e *Executor[T, S], a, b *sparse.CSR[T]) kernels[T] {
	exec, lf := e, p.opt.HashLoadFactor
	return pushKernelsC(p.mask, a, b, func(tid int) *accum.HashC[T, S] {
		return exec.worker(tid).HashC(lf)
	})
}
