package core

import (
	"maskedspgemm/internal/accum"
	"maskedspgemm/internal/semiring"
	"maskedspgemm/internal/sparse"
)

// pushAcc is the combined numeric+symbolic accumulator protocol the
// generic push drivers need; MSA, MaskedBit and Hash all satisfy it.
type pushAcc[T any] interface {
	accum.Numeric[T]
	accum.Symbolic
}

// pushRowNumeric is Algorithm 2 generalized over the accumulator: scale
// and merge the rows B_k* selected by A_i*, filtered through the mask
// row, into one output row. Each selected B row is handed to the
// accumulator whole: acc is a type parameter of pointer shape, so every
// method call on it is a dictionary call, and Scatter is where the
// masked-out products are discarded before the multiplication happens
// (§5.1), once per A entry rather than once per product.
//
//mspgemm:hotpath
func pushRowNumeric[T any, A pushAcc[T]](acc A, maskRow []int32, aCols []int32, aVals []T, b *sparse.CSR[T], outIdx []int32, outVal []T) int {
	if len(maskRow) == 0 {
		// Nothing is admitted, so every product would be discarded.
		return 0
	}
	acc.Begin(maskRow)
	// Bounds-check elimination hints: aVals walks in lockstep with
	// aCols, and b.Val in lockstep with b.ColIdx, so reslicing each to
	// its partner's length lets one check per iteration cover both;
	// the two-element rowPtr window makes one check cover lo and hi.
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
	return acc.Gather(maskRow, outIdx, outVal)
}

// pushRowSymbolic is the pattern-only pass of the same computation,
// used by the two-phase variants (§6).
//
//mspgemm:hotpath
func pushRowSymbolic[T any, A pushAcc[T]](acc A, maskRow []int32, aCols []int32, b *sparse.CSR[T]) int {
	if len(maskRow) == 0 {
		return 0
	}
	acc.BeginSymbolic(maskRow)
	rowPtr := b.RowPtr
	colIdx := b.ColIdx
	for _, col := range aCols {
		c := int(uint32(col))
		rp := rowPtr[c : c+2]
		acc.ScatterPattern(colIdx[rp[0]:rp[1]])
	}
	return acc.EndSymbolic(maskRow)
}

// pushKernels builds the row kernels of a push-family scheme over any
// accumulator obtained per worker from getAcc (a pooled-workspace
// getter on the plan's executor).
func pushKernels[T any, A pushAcc[T]](mask *sparse.Pattern, a, b *sparse.CSR[T], getAcc func(tid int) A) kernels[T] {
	return kernels[T]{
		numeric: func(tid, i int, outIdx []int32, outVal []T) int {
			return pushRowNumeric(getAcc(tid), mask.Row(i), a.Row(i), a.RowVals(i), b, outIdx, outVal)
		},
		symbolic: func(tid, i int) int {
			return pushRowSymbolic[T](getAcc(tid), mask.Row(i), a.Row(i), b)
		},
	}
}

// bindMSA registers the MSA scheme (§5.2).
func bindMSA[T any, S semiring.Semiring[T]](p *Plan[T, S], e *Executor[T, S], a, b *sparse.CSR[T]) kernels[T] {
	exec, ncols := e, b.Cols
	return pushKernels(p.mask, a, b, func(tid int) *accum.MSA[T, S] {
		return exec.worker(tid).MSA(ncols)
	})
}

// bindMaskedBit registers the bitmap-state MSA variant (DESIGN.md
// §12).
func bindMaskedBit[T any, S semiring.Semiring[T]](p *Plan[T, S], e *Executor[T, S], a, b *sparse.CSR[T]) kernels[T] {
	exec, ncols := e, b.Cols
	return pushKernels(p.mask, a, b, func(tid int) *accum.MaskedBit[T, S] {
		return exec.worker(tid).MaskedBit(ncols)
	})
}

// bindHash registers the hash scheme (§5.3). Tables are sized per
// worker by the densest mask row, precomputed at plan time.
func bindHash[T any, S semiring.Semiring[T]](p *Plan[T, S], e *Executor[T, S], a, b *sparse.CSR[T]) kernels[T] {
	exec, maxRow, lf := e, p.maxMaskRow, p.opt.HashLoadFactor
	return pushKernels(p.mask, a, b, func(tid int) *accum.Hash[T, S] {
		return exec.worker(tid).Hash(maxRow, lf)
	})
}
