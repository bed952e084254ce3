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

// pushAccC is the complement accumulator protocol of the complement
// push schemes that run two-phase; MSAC and HashC satisfy it.
type pushAccC[T any] interface {
	accum.ComplementNumeric[T]
	accum.ComplementSymbolic
}

// pushRowNumericC computes one complemented output row, one Scatter per
// A entry as in pushRowNumeric, with the same bounds-check-elimination
// hints. bound is the row's rowGen, the population bound of its
// complement accumulator.
//
//mspgemm:hotpath
func pushRowNumericC[T any, A accum.ComplementNumeric[T]](acc A, maskRow []int32, bound int, aCols []int32, aVals []T, b *sparse.CSR[T], outIdx []int32, outVal []T) int {
	acc.BeginSized(maskRow, bound)
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
	acc.BeginSymbolicSized(maskRow, int(rowGen(aCols, b.RowPtr)))
	rowPtr := b.RowPtr
	colIdx := b.ColIdx
	for _, col := range aCols {
		c := int(uint32(col))
		rp := rowPtr[c : c+2]
		acc.ScatterPattern(colIdx[rp[0]:rp[1]])
	}
	return acc.EndSymbolic()
}

// pushNumericKernelsC builds the numeric row kernel of a complement
// push scheme over any accumulator obtained per worker from getAcc. It
// is the whole binding of a scheme that runs one-phase only.
func pushNumericKernelsC[T any, A accum.ComplementNumeric[T]](mask *sparse.Pattern, a, b *sparse.CSR[T], getAcc func(tid int) A) kernels[T] {
	return kernels[T]{
		numeric: func(tid, i int, outIdx []int32, outVal []T) int {
			aCols := a.Row(i)
			return pushRowNumericC(getAcc(tid), mask.Row(i), int(rowGen(aCols, b.RowPtr)), aCols, a.RowVals(i), b, outIdx, outVal)
		},
	}
}

// pushKernelsC is pushNumericKernelsC plus the symbolic row kernel of a
// complement push scheme that runs two-phase.
func pushKernelsC[T any, A pushAccC[T]](mask *sparse.Pattern, a, b *sparse.CSR[T], getAcc func(tid int) A) kernels[T] {
	k := pushNumericKernelsC(mask, a, b, getAcc)
	k.symbolic = func(tid, i int) int {
		return pushRowSymbolicC[T](getAcc(tid), mask.Row(i), a.Row(i), b)
	}
	return k
}

// bindMSAC registers complemented MSA (§5.2).
func bindMSAC[T any, S semiring.Semiring[T]](p *Plan[T, S], e *Executor[T, S], a, b *sparse.CSR[T], _ *symHalf) kernels[T] {
	exec, ncols := e, b.Cols
	return pushKernelsC(p.mask, a, b, func(tid int) *accum.MSAC[T, S] {
		return exec.worker(tid).MSAC(ncols)
	})
}

// bindMaskedBitC registers the complemented bitmap-state variant
// (DESIGN.md §12), numeric only like bindMaskedBit. Like MSAC it is a
// dense-array accumulator, so the per-row bound only feeds the shared
// protocol, never a resize.
func bindMaskedBitC[T any, S semiring.Semiring[T]](p *Plan[T, S], e *Executor[T, S], a, b *sparse.CSR[T], _ *symHalf) kernels[T] {
	exec, ncols := e, b.Cols
	getAcc := func(tid int) *accum.MaskedBitC[T, S] { return exec.worker(tid).MaskedBitC(ncols) }
	if k, ok := servedKernels(p, p.mask, a, b, getAcc, maskedBitCPlusTimesKernels); ok {
		return k
	}
	return pushNumericKernelsC(p.mask, a, b, getAcc)
}

// maskedBitCPlusTimesKernels is MaskedBitC's row kernels over the served
// semiring. The numeric kernel picks each row's scatter loop with
// maskedBitCDenseRow.
func maskedBitCPlusTimesKernels(mask *sparse.Pattern, a, b *sparse.CSR[float64], getAcc func(tid int) *accum.MaskedBitC[float64, accum.PlusTimes64]) kernels[float64] {
	ncols := b.Cols
	return kernels[float64]{
		numeric: func(tid, i int, outIdx []int32, outVal []float64) int {
			aCols := a.Row(i)
			bound := int(rowGen(aCols, b.RowPtr))
			acc := accum.MaskedBitCPlusTimes{MaskedBitC: getAcc(tid), Dense: maskedBitCDenseRow(bound, ncols), Cols: ncols}
			return pushRowNumericC(acc, mask.Row(i), bound, aCols, a.RowVals(i), b, outIdx, outVal)
		},
	}
}

// maskedBitCDenseRatio is the dense-row rule of MaskedBitCPlusTimes: a
// row whose rowGen is at least ncols/maskedBitCDenseRatio runs the
// dense loop. DESIGN.md §12, "Dense complemented rows", has the
// crossover it was chosen from; BenchmarkScatterPlusTimes sweeps it.
const maskedBitCDenseRatio = 256

// maskedBitCDenseRow reports whether a complemented row whose products
// number at most bound, in a product ncols wide, runs
// MaskedBitCPlusTimes' dense loop. The bound stands in for the row's
// inserted keys: the dense loop saves a branch and a list append per
// product, and its Gather pays one word per 64 columns of the product.
func maskedBitCDenseRow(bound, ncols int) bool {
	return bound*maskedBitCDenseRatio >= ncols
}

// bindHashC registers the complemented hash scheme. Tables grow per
// row to the row's population bound.
func bindHashC[T any, S semiring.Semiring[T]](p *Plan[T, S], e *Executor[T, S], a, b *sparse.CSR[T], _ *symHalf) kernels[T] {
	return pushKernelsC(p.mask, a, b, func(tid int) *accum.HashC[T, S] {
		return e.worker(tid).HashC()
	})
}
