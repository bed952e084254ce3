package core

import (
	"maskedspgemm/internal/accum"
	"maskedspgemm/internal/parallel"
	"maskedspgemm/internal/semiring"
	"maskedspgemm/internal/sparse"
)

// Baselines standing in for the SuiteSparse:GraphBLAS comparison points
// (§3, §8). They are real, tuned implementations of the *strategies*
// SS:GB uses, so the paper's qualitative comparisons can be reproduced
// without linking the C library:
//
//   - SaxpyThenMask: the "plain SpGEMM, then apply the mask" flow of
//     Figure 1 — a hash-accumulator Gustavson multiply that ignores the
//     mask while computing and filters afterwards. It pays for every
//     masked-out flop, which is exactly the waste the paper's algorithms
//     avoid.
//   - DotTranspose: SS:DOT-style pull algorithm that re-transposes B on
//     every call (§8.4 notes "the matrix B is transposed in the library
//     before each Masked SpGEMM, increasing overhead").

// unmaskedRowNumeric computes one unmasked Gustavson row with the
// complement hash accumulator and an empty exclusion set.
func unmaskedRowNumeric[T any, S semiring.Semiring[T]](acc *accum.HashC[T, S], aCols []int32, aVals []T, b *sparse.CSR[T], outIdx []int32, outVal []T) int {
	acc.BeginSized(nil, int(rowGen(aCols, b.RowPtr)))
	for k, col := range aCols {
		lo, hi := b.RowPtr[col], b.RowPtr[col+1]
		acc.Scatter(aVals[k], b.ColIdx[lo:hi], b.Val[lo:hi])
	}
	return acc.Gather(outIdx, outVal)
}

// unmaskedRowSymbolic counts one unmasked Gustavson row.
func unmaskedRowSymbolic[T any, S semiring.Semiring[T]](acc *accum.HashC[T, S], aCols []int32, b *sparse.CSR[T]) int {
	acc.BeginSymbolicSized(nil, int(rowGen(aCols, b.RowPtr)))
	for _, col := range aCols {
		lo, hi := b.RowPtr[col], b.RowPtr[col+1]
		acc.ScatterPattern(b.ColIdx[lo:hi])
	}
	return acc.EndSymbolic()
}

// SpGEMM computes the plain (unmasked) product A·B with a row-parallel
// hash-accumulator Gustavson algorithm. Exported because the
// applications and tests need an ordinary SpGEMM as a substrate, and it
// is the first half of the SaxpyThenMask baseline.
func SpGEMM[T any, S semiring.Semiring[T]](sr S, a, b *sparse.CSR[T], opt Options) (*sparse.CSR[T], error) {
	if a.Cols != b.Rows {
		return nil, errInnerDim(a, b)
	}
	opt.Threads = parallel.Threads(opt.Threads)
	slots := newLazySlots(opt.Threads, func() *accum.HashC[T, S] {
		return accum.NewHashC[T](sr, 16)
	})
	numeric := func(tid, i int, outIdx []int32, outVal []T) int {
		return unmaskedRowNumeric(slots.get(tid), a.Row(i), a.RowVals(i), b, outIdx, outVal)
	}
	// The per-row flops bounds, prefix-summed, are both the one-phase
	// slab layout and the cost profile the partitions are cut from.
	offsets := make([]int64, a.Rows+1)
	for i := 0; i < a.Rows; i++ {
		offsets[i] = rowGen(a.Row(i), b.RowPtr)
	}
	parallel.PrefixSum(offsets)
	sch := rowSched{threads: opt.Threads, bounds: partitions(offsets, opt.Threads, nil)}
	if opt.Phases == TwoPhase {
		symbolic := func(tid, i int) int {
			return unmaskedRowSymbolic(slots.get(tid), a.Row(i), b)
		}
		return twoPhase(a.Rows, b.Cols, sch, kernels[T]{numeric: numeric, symbolic: symbolic}, nil)
	}
	return onePhase(a.Rows, b.Cols, offsets, sch, kernels[T]{numeric: numeric}, nil, nil)
}

func errInnerDim[T any](a, b *sparse.CSR[T]) error {
	return &dimError{ar: a.Rows, ac: a.Cols, br: b.Rows, bc: b.Cols}
}

type dimError struct{ ar, ac, br, bc int }

// Error implements the error interface.
func (e *dimError) Error() string {
	return "core: inner dimensions differ in SpGEMM"
}

// directSaxpyThenMask is the naive baseline as a registry direct
// executor: full SpGEMM, then mask. It does not decompose into masked
// row kernels — the mask only enters after the whole product exists,
// which is precisely the waste being measured.
func directSaxpyThenMask[T any, S semiring.Semiring[T]](p *Plan[T, S], a, b *sparse.CSR[T], threads int) (*sparse.CSR[T], error) {
	opt := p.opt
	opt.Threads = threads
	full, err := SpGEMM(p.sr, a, b, opt)
	if err != nil {
		return nil, err
	}
	return sparse.ApplyMask(full, p.mask, p.opt.Complement)
}
