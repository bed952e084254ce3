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

	// Bound kernels, a hit's too, are cached per (plan, A, B, halves)
	// identity so steady-state executions allocate no closures. hitRec
	// is the record the bound hit runs by, nil when there is none.
	lastPlan  *Plan[T, S]
	lastA     *sparse.CSR[T]
	lastB     *sparse.CSR[T]
	lastHalf  *symHalf
	bound     kernels[T]
	haveBound bool
	hit       rowsHitFn[T]
	hitRec    *hitRecord

	// schedStats and passTimes are the telemetry targets of executions
	// run with Options.CollectSchedStats; reset at the start of each such
	// execution, accumulated across its row passes and its passes. clock
	// times the passes and wraps them in runtime/trace regions.
	schedStats parallel.SchedStats
	passTimes  PassTimes
	clock      passClock
	// partBounds is the grow-only buffer an execution cuts its plan's
	// partition bounds into (partitions).
	partBounds []int
}

// SchedStats returns a copy of the per-worker scheduler telemetry
// (busy time, blocks claimed) recorded by the most recent
// execution on this executor that ran with Options.CollectSchedStats.
// Executions without the option leave the previous record in place.
func (e *Executor[T, S]) SchedStats() parallel.SchedStats {
	return e.schedStats.Clone()
}

// PassTimes returns the wall time of each engine pass (Pass) of the
// most recent execution on this executor that ran with
// Options.CollectSchedStats. Executions without the option leave the
// previous record in place.
func (e *Executor[T, S]) PassTimes() PassTimes {
	return e.passTimes
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
//
// A symmetric self-product's B is its own CSC structure, with the
// plan's mirror map as the permutation; when the execution computes
// one triangle (h non-nil), its values are symmetric too, and the CSC
// view reads B's value array itself. The caller decides whether the
// execution reads B by column at all: when the plan's binding pulls
// (Plan.needsCSC), and on every bitmap hit.
func (e *Executor[T, S]) prepareCSC(p *Plan[T, S], b *sparse.CSR[T], h *symHalf) {
	if e.bt == nil {
		e.bt = &sparse.CSC[T]{}
	}
	if p.info.TransposePerExecute {
		*e.bt = *sparse.ToCSC(b)
		return
	}
	if p.sym != nil {
		val := b.Val
		if h == nil {
			val = gatherInto(&e.btVal, b.Val, p.sym.mirror)
		}
		*e.bt = sparse.CSC[T]{Rows: p.bRows, Cols: p.bCols, ColPtr: p.mask.RowPtr, RowIdx: p.mask.ColIdx, Val: val}
		return
	}
	*e.bt = sparse.CSC[T]{
		Rows: p.bRows, Cols: p.bCols,
		ColPtr: p.btPtr, RowIdx: p.btIdx, Val: gatherInto(&e.btVal, b.Val, p.btPerm),
	}
}

// gatherInto gathers B's values into CSC order — CSC position i takes
// val[perm[i]] — in the grow-only buffer *buf, and returns the filled
// prefix.
func gatherInto[T any, P int32 | int64](buf *[]T, val []T, perm []P) []T {
	if cap(*buf) < len(perm) {
		*buf = make([]T, len(perm))
	}
	out := (*buf)[:len(perm)]
	for i, q := range perm {
		out[i] = val[q]
	}
	return out
}

// kernelsFor returns p's row kernels bound to (a, b) on this executor
// — to the computed halves h of a symmetric self-product when h is
// non-nil — reusing the previous binding when plan, operands and
// halves are unchanged. Rebinding is cheap (two closures); the cache
// only exists so steady-state repeated executions allocate nothing.
func (e *Executor[T, S]) kernelsFor(p *Plan[T, S], a, b *sparse.CSR[T], h *symHalf) kernels[T] {
	if !e.bindingOf(p, a, b, h) || !e.haveBound {
		e.bound = p.reg.binder(p.opt.Complement)(p, e, a, b, h)
		e.haveBound = true
	}
	return e.bound
}

// hitKernelFor is kernelsFor for a plan hit by the record rec
// (bindHit), which names the binding: a plan's two kinds may hold two.
func (e *Executor[T, S]) hitKernelFor(p *Plan[T, S], a, b *sparse.CSR[T], rec *hitRecord) rowsHitFn[T] {
	if !e.bindingOf(p, a, b, rec.half) || e.hitRec != rec {
		e.hit, e.hitRec = bindHit(p, e, a, b, rec), rec
	}
	return e.hit
}

// bindingOf reports whether the cached bindings are of (p, a, b, h),
// and drops them when they are not.
func (e *Executor[T, S]) bindingOf(p *Plan[T, S], a, b *sparse.CSR[T], h *symHalf) bool {
	if e.lastPlan == p && e.lastA == a && e.lastB == b && e.lastHalf == h {
		return true
	}
	e.lastPlan, e.lastA, e.lastB, e.lastHalf = p, a, b, h
	e.bound, e.hit = kernels[T]{}, nil
	e.haveBound, e.hitRec = false, nil
	return false
}

// releaseBindings drops the executor's references to the last plan and
// operands so a pooled idle executor does not pin cache-evicted plans
// or caller matrices in memory — the CSC view included, which may read
// a plan's structure and B's own values. Accumulators and buffers —
// the state worth pooling — are kept.
func (e *Executor[T, S]) releaseBindings() {
	e.bindingOf(nil, nil, nil, nil)
	if e.bt != nil {
		*e.bt = sparse.CSC[T]{}
	}
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

	// pull is the dense A row the pull family dots against (inner.go).
	pull *denseRow[T]
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

// Hash returns the worker's hash accumulator; Begin sizes its table
// per row.
func (w *workspace[T, S]) Hash() *accum.Hash[T, S] {
	if w.hash == nil {
		w.hash = accum.NewHash[T](w.sr)
	}
	return w.hash
}

// MCA returns the worker's mask-compressed accumulator; the row
// kernels grow it per row.
func (w *workspace[T, S]) MCA() *accum.MCA[T, S] {
	if w.mca == nil {
		w.mca = accum.NewMCA[T](w.sr)
	}
	return w.mca
}

// Heap returns the worker's iterator heap, which grows by append.
func (w *workspace[T, S]) Heap() *accum.IterHeap {
	if w.heap == nil {
		w.heap = accum.NewIterHeap()
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

// Pull returns the worker's dense A row sized for an inner dimension
// of inner.
func (w *workspace[T, S]) Pull(inner int) *denseRow[T] {
	if w.pull == nil {
		w.pull = new(denseRow[T])
	}
	w.pull.ensure(inner)
	return w.pull
}

// HashC returns the worker's complemented hash accumulator.
func (w *workspace[T, S]) HashC() *accum.HashC[T, S] {
	if w.hashC == nil {
		w.hashC = accum.NewHashC[T](w.sr, 16)
	}
	return w.hashC
}

// engineScratch pools the engine drivers' transient arrays: the
// one-phase slab (tmpIdx/tmpVal) that never escapes, and — only when
// reuseOut is set — the output triple (RowPtr/ColIdx/Val) that the
// returned matrix is built from. All buffers are grow-only.
type engineScratch[T any] struct {
	tmpIdx   []int32
	tmpVal   []T
	rowPtr   []int64
	colIdx   []int32
	val      []T
	chunks   []int
	mirror   []int32
	reuseOut bool
}

// slab returns an n-entry pooled tmp slab.
func (es *engineScratch[T]) slab(n int64) ([]int32, []T) {
	if int64(cap(es.tmpIdx)) < n {
		es.tmpIdx = make([]int32, n)
	}
	if int64(cap(es.tmpVal)) < n {
		es.tmpVal = make([]T, n)
	}
	return es.tmpIdx[:n], es.tmpVal[:n]
}

// mirrorBufs returns the mirror pass's pooled scratch: the bounds of
// at most threads row chunks of near-equal entry counts (chunkRows),
// and one int32 per row for each chunk and one more.
func (es *engineScratch[T]) mirrorBufs(counts []int64, threads int) ([]int, []int32) {
	es.chunks = chunkRows(es.chunks, counts, threads)
	n := len(es.chunks) * len(counts)
	if cap(es.mirror) < n {
		es.mirror = make([]int32, n)
	}
	return es.chunks, es.mirror[:n]
}

// rowPtrBuf returns the n-entry array that will become the output
// RowPtr. It is pooled only under reuseOut — otherwise it escapes into
// the result and must be fresh.
func (es *engineScratch[T]) rowPtrBuf(n int) []int64 {
	if !es.reuseOut {
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
	if !es.reuseOut {
		return make([]int32, nnz), make([]T, nnz)
	}
	if int64(cap(es.colIdx)) < nnz {
		es.colIdx = make([]int32, nnz)
	}
	return es.colIdx[:nnz], es.outVals(nnz)
}

// outVals returns the nnz-entry Val array of the output, pooled only
// under reuseOut. It is all a plan hit (knownPhase) allocates.
func (es *engineScratch[T]) outVals(nnz int64) []T {
	if !es.reuseOut {
		return make([]T, nnz)
	}
	if int64(cap(es.val)) < nnz {
		es.val = make([]T, nnz)
	}
	return es.val[:nnz]
}
