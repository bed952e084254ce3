package core

import (
	"errors"

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

// SpGEMM computes the plain (unmasked) product A·B. An unmasked
// product is the complement of an empty mask, so SpGEMM runs the
// complemented Hash plan over an empty a.Rows×b.Cols pattern: the
// row-parallel hash-accumulator Gustavson algorithm, with the engine's
// slab bounds, partitions and checkpoints. Exported because the
// applications and tests need an ordinary SpGEMM as a substrate, and it
// is the first half of the SaxpyThenMask baseline.
func SpGEMM[T any, S semiring.Semiring[T]](sr S, a, b *sparse.CSR[T], opt Options) (*sparse.CSR[T], error) {
	return spGEMMOpts(sr, a, b, opt, ExecOptions{Threads: opt.Threads})
}

// spGEMMOpts is SpGEMM executed under eo. The plan has a fresh
// executor, so the result is freshly allocated.
func spGEMMOpts[T any, S semiring.Semiring[T]](sr S, a, b *sparse.CSR[T], opt Options, eo ExecOptions) (*sparse.CSR[T], error) {
	opt.Algorithm, opt.Complement = AlgoHash, true
	empty := &sparse.Pattern{Rows: a.Rows, Cols: b.Cols, RowPtr: make([]int64, a.Rows+1)}
	p, err := NewPlan(sr, empty, a, b, opt, nil)
	if err != nil {
		return nil, err
	}
	return p.ExecuteOnOpts(p.exec, a, b, eo)
}

// directSaxpyThenMask is the naive baseline as a registry direct
// executor: full SpGEMM, then mask. It does not decompose into masked
// row kernels — the mask only enters after the whole product exists,
// which is precisely the waste being measured. The SpGEMM runs under
// eo, and a kernel panic in it is reported under this plan's scheme.
func directSaxpyThenMask[T any, S semiring.Semiring[T]](p *Plan[T, S], a, b *sparse.CSR[T], eo ExecOptions) (*sparse.CSR[T], error) {
	full, err := spGEMMOpts(p.sr, a, b, p.opt, eo)
	if err != nil {
		var kp *KernelPanicError
		if errors.As(err, &kp) {
			kp.Family = p.opt.SchemeName()
		}
		return nil, err
	}
	return sparse.ApplyMask(full, p.mask, p.opt.Complement)
}
