package core

import (
	"fmt"

	"maskedspgemm/internal/semiring"
	"maskedspgemm/internal/sparse"
)

// Masked SpGEVM — the single-row form v⊺ = m⊺ ⊙ (u⊺B) the paper uses
// to present all of §5's algorithms. It is exposed because masked
// vector-matrix products are the building block of frontier-style
// graph traversals (§4's push/pull motivation); internal/graph's
// direction-optimized BFS is built on it. It is a one-row execution of
// the scheme registry, so every scheme runs here exactly as it runs one
// row of MaskedSpGEMM.

// MaskedSpVM computes v = m ⊙ (u⊺B) (complement: v = ¬m ⊙ (u⊺B))
// where mask holds the admitted (sorted) positions. Every registered
// scheme is supported; a complemented mask on a scheme without
// complement support fails with the registry's ComplementNote. The
// call is serial — a single row has no row-level parallelism to
// exploit (§3: the paper deliberately does not parallelize single-row
// formation).
func MaskedSpVM[T any, S semiring.Semiring[T]](sr S, mask []int32, u *sparse.Vector[T], b *sparse.CSR[T], opt Options) (*sparse.Vector[T], error) {
	return MaskedSpVMWith(NewExecutor[T](sr), mask, u, b, opt)
}

// MaskedSpVMWith is MaskedSpVM executed on exec, whose pooled
// accumulators and scratch carry over between calls, so a traversal
// loop (one masked SpVM per BFS level) keeps its O(n) accumulator
// across levels. The result is freshly allocated and never aliases
// executor memory, so one level's output can be the next level's
// frontier. exec must not be used concurrently.
func MaskedSpVMWith[T any, S semiring.Semiring[T]](exec *Executor[T, S], mask []int32, u *sparse.Vector[T], b *sparse.CSR[T], opt Options) (*sparse.Vector[T], error) {
	if u.N != b.Rows {
		return nil, fmt.Errorf("core: vector has dimension %d but B has %d rows", u.N, b.Rows)
	}
	a := &sparse.CSR[T]{
		Pattern: sparse.Pattern{Rows: 1, Cols: u.N, RowPtr: []int64{0, int64(len(u.Idx))}, ColIdx: u.Idx},
		Val:     u.Val,
	}
	m := &sparse.Pattern{Rows: 1, Cols: b.Cols, RowPtr: []int64{0, int64(len(mask))}, ColIdx: mask}
	// One row has no cost skew to schedule around, so the plan skips
	// the cost profile.
	opt.Schedule = SchedFixedGrain
	p, err := newDetachedPlan(exec.sr, m, a, b, opt)
	if err != nil {
		return nil, err
	}
	c, err := p.ExecuteOnOpts(exec, a, b, ExecOptions{Threads: 1})
	if err != nil {
		return nil, err
	}
	return &sparse.Vector[T]{N: b.Cols, Idx: c.Row(0), Val: c.RowVals(0)}, nil
}
