package core

import (
	"maskedspgemm/internal/accum"
	"maskedspgemm/internal/parallel"
	"maskedspgemm/internal/semiring"
	"maskedspgemm/internal/sparse"
)

// Executor owns ALL mutable execution state of masked products: one
// workspace of lazily-constructed accumulators per worker, the
// one-phase tmp slabs, the refreshed CSC values of B for pull-based
// plans, the bound-kernel cache, and (opt-in) pooled output buffers.
// Everything is grow-only, so after a warm-up execution on the largest
// structure, repeated executions allocate approximately nothing.
//
// One Executor may back many Plans — the iterative applications
// (k-truss pruning, betweenness levels) build a fresh Plan per
// iteration because the operand structure changes, while the
// accumulators and slabs carry over. Conversely, one immutable Plan
// may be executed on many Executors (ExecuteOn), which is how a
// PlanCache serves concurrent requests. An Executor is NOT safe for
// concurrent use: executions sharing one must be sequential, and a
// pooled executor belongs to exactly one goroutine between checkout
// and return (DESIGN.md §8).
type Executor[T any, S semiring.Semiring[T]] struct {
	sr      S
	workers []*workspace[T, S]
	scratch engineScratch[T]

	// bt is the executor's CSC view of the current execution's B: plan
	// structure, executor values. The pointee is updated in place by
	// prepareCSC so bound kernels can keep reading exec.bt across
	// executions without re-binding. btVal is the grow-only backing
	// value buffer.
	bt    *sparse.CSC[T]
	btVal []T

	// Bound kernels are cached per (plan, A, B) identity so steady-state
	// executions allocate no closures.
	lastPlan  *Plan[T, S]
	lastA     *sparse.CSR[T]
	lastB     *sparse.CSR[T]
	bound     kernels[T]
	haveBound bool

	// schedStats is the telemetry target of executions run with
	// Options.CollectSchedStats; reset at the start of each such
	// execution, accumulated across its row passes.
	schedStats parallel.SchedStats
	// partBounds is the grow-only buffer a cost-partitioned execution
	// cuts its plan's partition bounds into (Plan.partitions).
	partBounds []int
}

// SchedStats returns a copy of the per-worker scheduler telemetry
// (busy time, blocks claimed/stolen) recorded by the most recent
// execution on this executor that ran with Options.CollectSchedStats.
// Executions without the option leave the previous record in place.
func (e *Executor[T, S]) SchedStats() parallel.SchedStats {
	return e.schedStats.Clone()
}

// NewExecutor returns an empty executor over the given semiring.
func NewExecutor[T any, S semiring.Semiring[T]](sr S) *Executor[T, S] {
	return &Executor[T, S]{sr: sr}
}

// ensureWorkers grows the per-worker workspace slice to threads slots.
func (e *Executor[T, S]) ensureWorkers(threads int) {
	for len(e.workers) < threads {
		e.workers = append(e.workers, &workspace[T, S]{sr: e.sr})
	}
}

// worker returns worker tid's workspace. Safe without synchronization
// because each tid is owned by one goroutine and the slice is sized
// before the parallel region starts.
func (e *Executor[T, S]) worker(tid int) *workspace[T, S] {
	return e.workers[tid]
}

// prepareCSC brings the executor's CSC view of B up to date for one
// execution of p. For the SS:DOT baseline the transpose is rebuilt
// wholesale every call — its defining overhead (§8.4); otherwise the
// plan's cached CSC structure is combined with the executor's pooled
// value buffer and the values are refreshed through the recorded
// permutation. The refresh cannot be skipped on pointer identity: the
// Execute contract lets callers mutate B's values in place between
// executions, so identity proves nothing about value freshness, and
// the O(nnz) copy is within every pull scheme's numeric work anyway.
func (e *Executor[T, S]) prepareCSC(p *Plan[T, S], b *sparse.CSR[T]) {
	if !p.needsCSC() {
		return
	}
	if p.info.TransposePerExecute {
		if e.bt == nil {
			e.bt = &sparse.CSC[T]{}
		}
		*e.bt = *sparse.ToCSC(b)
		return
	}
	nnz := len(p.btIdx)
	if cap(e.btVal) < nnz {
		e.btVal = make([]T, nnz)
	}
	if e.bt == nil {
		e.bt = &sparse.CSC[T]{}
	}
	*e.bt = sparse.CSC[T]{
		Rows: p.bRows, Cols: p.bCols,
		ColPtr: p.btPtr, RowIdx: p.btIdx, Val: e.btVal[:nnz],
	}
	for i, q := range p.btPerm {
		e.bt.Val[i] = b.Val[q]
	}
}

// kernelsFor returns p's row kernels bound to (a, b) on this executor,
// reusing the previous binding when plan and operands are unchanged.
// Rebinding is cheap (two closures); the cache only exists so
// steady-state repeated executions allocate nothing.
func (e *Executor[T, S]) kernelsFor(p *Plan[T, S], a, b *sparse.CSR[T]) kernels[T] {
	if e.haveBound && e.lastPlan == p && e.lastA == a && e.lastB == b {
		return e.bound
	}
	e.bound = p.reg.binder(p.opt.Complement)(p, e, a, b)
	e.lastPlan, e.lastA, e.lastB = p, a, b
	e.haveBound = true
	return e.bound
}

// releaseBindings drops the executor's references to the last plan and
// operands so a pooled idle executor does not pin cache-evicted plans
// or caller matrices in memory. Accumulators and buffers — the state
// worth pooling — are kept.
func (e *Executor[T, S]) releaseBindings() {
	e.lastPlan, e.lastA, e.lastB = nil, nil, nil
	e.bound = kernels[T]{}
	e.haveBound = false
}

// workspace is one worker's pooled accumulator set. Each accumulator
// family is constructed on first use by a scheme that needs it and
// grown in place when a later product is wider.
type workspace[T any, S semiring.Semiring[T]] struct {
	sr    S
	msa   *accum.MSA[T, S]
	hash  *accum.Hash[T, S]
	mca   *accum.MCA[T, S]
	heap  *accum.IterHeap
	msac  *accum.MSAC[T, S]
	hashC *accum.HashC[T, S]

	maskedBit  *accum.MaskedBit[T, S]
	maskedBitC *accum.MaskedBitC[T, S]
}

// MSA returns the worker's MSA sized for rows of width ncols.
func (w *workspace[T, S]) MSA(ncols int) *accum.MSA[T, S] {
	if w.msa == nil {
		w.msa = accum.NewMSA[T](w.sr, ncols)
	} else {
		w.msa.EnsureCols(ncols)
	}
	return w.msa
}

// Hash returns the worker's hash accumulator configured for the given
// densest-mask-row hint and load factor.
func (w *workspace[T, S]) Hash(maxMaskRow int, loadFactor float64) *accum.Hash[T, S] {
	if w.hash == nil {
		w.hash = accum.NewHash[T](w.sr, maxMaskRow, loadFactor)
	} else {
		w.hash.Reconfigure(maxMaskRow, loadFactor)
	}
	return w.hash
}

// MCA returns the worker's mask-compressed accumulator.
func (w *workspace[T, S]) MCA(maxMaskRow int) *accum.MCA[T, S] {
	if w.mca == nil {
		w.mca = accum.NewMCA[T](w.sr, maxMaskRow)
	} else {
		w.mca.Grow(maxMaskRow)
	}
	return w.mca
}

// Heap returns the worker's iterator heap sized for maxARow iterators.
func (w *workspace[T, S]) Heap(maxARow int) *accum.IterHeap {
	if w.heap == nil {
		w.heap = accum.NewIterHeap(maxARow)
	} else {
		w.heap.Grow(maxARow)
	}
	return w.heap
}

// MSAC returns the worker's complemented MSA.
func (w *workspace[T, S]) MSAC(ncols int) *accum.MSAC[T, S] {
	if w.msac == nil {
		w.msac = accum.NewMSAC[T](w.sr, ncols)
	} else {
		w.msac.EnsureCols(ncols)
	}
	return w.msac
}

// MaskedBit returns the worker's bitmap-state accumulator sized for
// rows of width ncols.
func (w *workspace[T, S]) MaskedBit(ncols int) *accum.MaskedBit[T, S] {
	if w.maskedBit == nil {
		w.maskedBit = accum.NewMaskedBit[T](w.sr, ncols)
	} else {
		w.maskedBit.EnsureCols(ncols)
	}
	return w.maskedBit
}

// MaskedBitC returns the worker's complemented bitmap-state
// accumulator.
func (w *workspace[T, S]) MaskedBitC(ncols int) *accum.MaskedBitC[T, S] {
	if w.maskedBitC == nil {
		w.maskedBitC = accum.NewMaskedBitC[T](w.sr, ncols)
	} else {
		w.maskedBitC.EnsureCols(ncols)
	}
	return w.maskedBitC
}

// HashC returns the worker's complemented hash accumulator.
func (w *workspace[T, S]) HashC(loadFactor float64) *accum.HashC[T, S] {
	if w.hashC == nil {
		w.hashC = accum.NewHashC[T](w.sr, 16, loadFactor)
	} else {
		w.hashC.Reconfigure(loadFactor)
	}
	return w.hashC
}

// engineScratch pools the engine drivers' transient arrays: the
// one-phase slab (tmpIdx/tmpVal) that never escapes, and — only when
// reuseOut is set — the output triple (RowPtr/ColIdx/Val) that the
// returned matrix is built from. All buffers are grow-only. Methods
// tolerate a nil receiver, which means "allocate fresh every time"
// (the behaviour of the pre-plan engine).
type engineScratch[T any] struct {
	tmpIdx   []int32
	tmpVal   []T
	rowPtr   []int64
	colIdx   []int32
	val      []T
	reuseOut bool
}

// slab returns an n-entry tmp slab (pooled when pooling is available).
func (es *engineScratch[T]) slab(n int64) ([]int32, []T) {
	if es == nil {
		return make([]int32, n), make([]T, n)
	}
	if int64(cap(es.tmpIdx)) < n {
		es.tmpIdx = make([]int32, n)
		es.tmpVal = make([]T, n)
	}
	return es.tmpIdx[:n], es.tmpVal[:n]
}

// rowPtrBuf returns the n-entry array that will become the output
// RowPtr. It is pooled only under reuseOut — otherwise it escapes into
// the result and must be fresh.
func (es *engineScratch[T]) rowPtrBuf(n int) []int64 {
	if es == nil || !es.reuseOut {
		return make([]int64, n)
	}
	if cap(es.rowPtr) < n {
		es.rowPtr = make([]int64, n)
	}
	return es.rowPtr[:n]
}

// outBufs returns the nnz-entry ColIdx/Val arrays of the output,
// pooled only under reuseOut.
func (es *engineScratch[T]) outBufs(nnz int64) ([]int32, []T) {
	if es == nil || !es.reuseOut {
		return make([]int32, nnz), make([]T, nnz)
	}
	if int64(cap(es.colIdx)) < nnz {
		es.colIdx = make([]int32, nnz)
		es.val = make([]T, nnz)
	}
	return es.colIdx[:nnz], es.val[:nnz]
}
