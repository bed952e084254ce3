package core

import (
	"maskedspgemm/internal/faultinject"
	"maskedspgemm/internal/parallel"
	"maskedspgemm/internal/sparse"
)

// The execution engine shared by every algorithm family. An algorithm
// contributes a numeric row kernel — and, if it runs two-phase, a
// symbolic one — and the engine supplies the drivers around them (§6):
//
//   - One-phase: output rows are written into a pre-sized scratch slab
//     (for plain masks, the mask's own CSR layout — nnz(C_i*) ≤
//     nnz(M_i*) — which is exactly the paper's observation that the mask
//     approximates the output structure), then compacted with a prefix
//     sum.
//   - Two-phase: a symbolic pass counts each output row, a prefix sum
//     sizes the result exactly, and the numeric pass writes in place.
//     Only the paper's own schemes and the unmasked SpGEMM run it, so
//     its kernels are always uniform.
//   - Known pattern: a cached plan remembers the output pattern of its
//     second one-phase full-product execution (Plan.rememberPattern),
//     and every later one writes each row's values straight into its
//     exact range of that pattern — the two-phase numeric pass without
//     the symbolic pass, and one-phase without the slab and compact. A
//     one-triangle plan remembers its known half instead
//     (Plan.rememberHalf), with the full output pattern and a transpose
//     map, and later half executions write each half row's values into
//     that pattern, then copy them to their transposes (knownHalfPhase).
//
// Kernels receive a tid to index per-worker accumulator scratch.

// rowNumericFn computes output row i into out slices (capacity ≥ the
// row's bound) and returns the entry count.
type rowNumericFn[T any] func(tid, i int, outIdx []int32, outVal []T) int

// rowSymbolicFn counts output row i without computing values.
type rowSymbolicFn func(tid, i int) int

// rowKnownFn computes the values of output row i, whose columns cols
// are known, into outVal (len(outVal) == len(cols)).
type rowKnownFn[T any] func(tid, i int, cols []int32, outVal []T)

// findRun returns the index of the run containing row i: the first
// run whose exclusive end exceeds i (binary search; runEnds is
// strictly increasing and covers every row).
func findRun(runEnds []int32, i int) int {
	lo, hi := 0, len(runEnds)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if int(runEnds[mid]) <= i {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// segment returns the end of the longest prefix of [lo, hi) whose rows
// share one kernel binding, together with that binding's family, or −1
// for a uniform plan, whose binding is the whole range. Poly plans split
// at the run boundaries of the plan's per-row family binding, so
// dispatch is amortized per run ∩ block, never per row.
func (k *kernels[T]) segment(lo, hi int) (int, int) {
	if k.runEnds == nil {
		return hi, -1
	}
	r := findRun(k.runEnds, lo)
	return min(int(k.runEnds[r]), hi), int(k.runFam[r])
}

// numericSegment returns segment's end together with its numeric
// kernel.
func (k *kernels[T]) numericSegment(lo, hi int) (int, rowNumericFn[T]) {
	end, f := k.segment(lo, hi)
	if f < 0 {
		return end, k.numeric
	}
	return end, k.numFam[f]
}

// knownSegment is numericSegment for knownPhase: it also returns the
// segment's known-pattern kernel, nil when its family has none.
func (k *kernels[T]) knownSegment(lo, hi int) (int, rowNumericFn[T], rowKnownFn[T]) {
	end, f := k.segment(lo, hi)
	if f < 0 {
		return end, k.numeric, k.known
	}
	return end, k.numFam[f], k.knownFam[f]
}

// needsSlab reports whether some bound family has no known-pattern
// kernel, so that knownPhase runs its numeric kernel and needs a slab
// for the columns it writes.
func (k *kernels[T]) needsSlab() bool {
	if k.runEnds == nil {
		return k.known == nil
	}
	for f, numeric := range k.numFam {
		if numeric != nil && k.knownFam[f] == nil {
			return true
		}
	}
	return false
}

// onePhase runs the numeric kernel once per row into a slab laid out by
// offsets (len rows+1, offsets[i+1]-offsets[i] ≥ row i's worst case),
// then compacts. Row passes run over sch's equal-cost partitions
// (DESIGN.md §9) and follow the kernel binding's run boundaries. es
// supplies pooled scratch; nil allocates fresh. Cancellation
// (sch.cancel) is checked at pass checkpoints and partition claims; an
// interrupted execution returns *CanceledError and no partial result. With h, the kernels compute
// the halves of a symmetric self-product: the slab takes h's layout,
// and the mirror pass replaces compact.
func onePhase[T any](rows, cols int, offsets []int64, sch rowSched, k kernels[T], es *engineScratch[T], h *symHalf) (*sparse.CSR[T], error) {
	if err := sch.enterPass(faultinject.PassNumeric); err != nil {
		return nil, err
	}
	if h != nil {
		offsets = h.off
	}
	slab := offsets[rows]
	tmpIdx, tmpVal := es.slab(slab)
	counts := es.rowPtrBuf(rows + 1)
	fi := sch.fi
	sch.run(func(lo, hi, tid int) {
		for lo < hi {
			seg, numeric := k.numericSegment(lo, hi)
			for i := lo; i < seg; i++ {
				if fi != nil {
					fi.Row(faultinject.PassNumeric, i)
				}
				base, end := offsets[i], offsets[i+1]
				counts[i] = int64(numeric(tid, i, tmpIdx[base:end], tmpVal[base:end]))
			}
			lo = seg
		}
	})
	if err := sch.passCanceled(faultinject.PassNumeric); err != nil {
		return nil, err
	}
	if h != nil {
		return mirrorPass(rows, cols, h, counts, tmpIdx, tmpVal, sch, es)
	}
	return compact(rows, cols, offsets, counts, tmpIdx, tmpVal, sch, es)
}

// compact gathers per-row segments (counts[i] entries starting at
// offsets[i]) into a tight CSR result.
func compact[T any](rows, cols int, offsets, counts []int64, tmpIdx []int32, tmpVal []T, sch rowSched, es *engineScratch[T]) (*sparse.CSR[T], error) {
	if err := sch.enterPass(faultinject.PassCompact); err != nil {
		return nil, err
	}
	rowPtr := counts // reuse: becomes the exclusive prefix sum
	parallel.PrefixSumParallel(rowPtr[:rows+1], sch.threads)
	colIdx, val := es.outBufs(rowPtr[rows])
	out := &sparse.CSR[T]{
		Pattern: sparse.Pattern{
			Rows:   rows,
			Cols:   cols,
			RowPtr: rowPtr,
			ColIdx: colIdx,
		},
		Val: val,
	}
	sch.run(func(lo, hi, _ int) {
		for i := lo; i < hi; i++ {
			n := rowPtr[i+1] - rowPtr[i]
			src := offsets[i]
			copy(out.ColIdx[rowPtr[i]:rowPtr[i+1]], tmpIdx[src:src+n])
			copy(out.Val[rowPtr[i]:rowPtr[i+1]], tmpVal[src:src+n])
		}
	})
	if err := sch.passCanceled(faultinject.PassCompact); err != nil {
		return nil, err
	}
	return out, nil
}

// knownPhase runs a plan whose output pattern pat is remembered: each
// row's values go straight into its exact range [RowPtr[i],
// RowPtr[i+1]) of a fresh value array, with no slab, no counts, no
// prefix sum and no compaction, and the result shares pat's arrays.
// A row whose family has a known-pattern kernel reads its columns from
// pat; any other runs its numeric kernel, which writes the row's
// columns into the pooled slab, where nothing reads them. The numeric
// pass keeps onePhase's checkpoints and row hooks. es supplies pooled
// scratch, and the value array under reuseOut.
func knownPhase[T any](rows, cols int, pat *knownPattern, sch rowSched, k kernels[T], es *engineScratch[T]) (*sparse.CSR[T], error) {
	if err := sch.enterPass(faultinject.PassNumeric); err != nil {
		return nil, err
	}
	rowPtr, colIdx := pat.rowPtr, pat.colIdx
	val := es.outVals(int64(len(colIdx)))
	var slab []int32
	if k.needsSlab() {
		slab = es.idxSlab(int64(len(colIdx)))
	}
	fi := sch.fi
	sch.run(func(lo, hi, tid int) {
		for lo < hi {
			seg, numeric, known := k.knownSegment(lo, hi)
			for i := lo; i < seg; i++ {
				if fi != nil {
					fi.Row(faultinject.PassNumeric, i)
				}
				base, end := rowPtr[i], rowPtr[i+1]
				if known != nil {
					known(tid, i, colIdx[base:end], val[base:end])
				} else if numeric(tid, i, slab[base:end], val[base:end]) != int(end-base) {
					panic(errPatternChanged)
				}
			}
			lo = seg
		}
	})
	if err := sch.passCanceled(faultinject.PassNumeric); err != nil {
		return nil, err
	}
	return &sparse.CSR[T]{
		Pattern: sparse.Pattern{Rows: rows, Cols: cols, RowPtr: rowPtr, ColIdx: colIdx},
		Val:     val,
	}, nil
}

// knownHalfPhase runs a one-triangle plan whose known half kh is
// remembered: it is knownPhase over the half rows. Each row's kernel
// writes its values straight into the row's own range of a fresh value
// array over kh's output pattern (symHalf.span), and its columns into
// the pooled slab, where nothing reads them; the shared ColIdx is never
// written. A second pass, under compact's checkpoint name, then copies
// every half value to its transpose's position (copyTransposes): the
// writes land outside every row's own range, each position once, so
// the rows need no ordering. The result shares kh's pattern. The
// numeric pass keeps onePhase's checkpoints and row hooks, and a row
// that emits a different count than its half holds panics
// errPatternChanged.
func knownHalfPhase[T any](rows, cols int, kh *knownHalf, sch rowSched, k kernels[T], es *engineScratch[T]) (*sparse.CSR[T], error) {
	if err := sch.enterPass(faultinject.PassNumeric); err != nil {
		return nil, err
	}
	h := &kh.half
	rowPtr, colIdx, off := h.outPtr, h.cols, h.off
	val := es.outVals(int64(len(colIdx)))
	slab := es.idxSlab(off[rows])
	fi := sch.fi
	sch.run(func(lo, hi, tid int) {
		for lo < hi {
			seg, numeric := k.numericSegment(lo, hi)
			for i := lo; i < seg; i++ {
				if fi != nil {
					fi.Row(faultinject.PassNumeric, i)
				}
				at, end := h.span(rowPtr, i)
				if numeric(tid, i, slab[off[i]:off[i+1]], val[at:end]) != int(end-at) {
					panic(errPatternChanged)
				}
			}
			lo = seg
		}
	})
	if err := sch.passCanceled(faultinject.PassNumeric); err != nil {
		return nil, err
	}
	if err := sch.enterPass(faultinject.PassCompact); err != nil {
		return nil, err
	}
	sch.run(func(lo, hi, _ int) {
		for i := lo; i < hi; i++ {
			at, end := h.span(rowPtr, i)
			copyTransposes(val, val[at:end], kh.tpos[off[i]:off[i+1]])
		}
	})
	if err := sch.passCanceled(faultinject.PassCompact); err != nil {
		return nil, err
	}
	return &sparse.CSR[T]{
		Pattern: sparse.Pattern{Rows: rows, Cols: cols, RowPtr: rowPtr, ColIdx: colIdx},
		Val:     val,
	}, nil
}

// twoPhase runs the symbolic kernel to size every row, prefix-sums, and
// lets the numeric kernel write directly into the exact-size result.
// k is a uniform binding: no poly plan runs two-phase. Both passes are
// scheduled by sch. es supplies pooled output buffers; nil allocates
// fresh. Cancellation follows the onePhase contract.
func twoPhase[T any](rows, cols int, sch rowSched, k kernels[T], es *engineScratch[T]) (*sparse.CSR[T], error) {
	if err := sch.enterPass(faultinject.PassSymbolic); err != nil {
		return nil, err
	}
	rowPtr := es.rowPtrBuf(rows + 1)
	fi := sch.fi
	symbolic, numeric := k.symbolic, k.numeric
	sch.run(func(lo, hi, tid int) {
		for i := lo; i < hi; i++ {
			if fi != nil {
				fi.Row(faultinject.PassSymbolic, i)
			}
			rowPtr[i] = int64(symbolic(tid, i))
		}
	})
	if err := sch.passCanceled(faultinject.PassSymbolic); err != nil {
		return nil, err
	}
	rowPtr[rows] = 0
	parallel.PrefixSumParallel(rowPtr, sch.threads)
	colIdx, val := es.outBufs(rowPtr[rows])
	out := &sparse.CSR[T]{
		Pattern: sparse.Pattern{
			Rows:   rows,
			Cols:   cols,
			RowPtr: rowPtr,
			ColIdx: colIdx,
		},
		Val: val,
	}
	if err := sch.enterPass(faultinject.PassNumeric); err != nil {
		return nil, err
	}
	sch.run(func(lo, hi, tid int) {
		for i := lo; i < hi; i++ {
			if fi != nil {
				fi.Row(faultinject.PassNumeric, i)
			}
			numeric(tid, i, out.ColIdx[rowPtr[i]:rowPtr[i+1]], out.Val[rowPtr[i]:rowPtr[i+1]])
		}
	})
	if err := sch.passCanceled(faultinject.PassNumeric); err != nil {
		return nil, err
	}
	return out, nil
}

// lazySlots hands out one lazily-constructed scratch value per worker.
type lazySlots[A any] struct {
	slots []*A
	make  func() *A
}

func newLazySlots[A any](threads int, mk func() *A) *lazySlots[A] {
	return &lazySlots[A]{slots: make([]*A, threads), make: mk}
}

// get returns worker tid's scratch, constructing it on first use. Safe
// without synchronization because each tid is owned by one goroutine.
func (l *lazySlots[A]) get(tid int) *A {
	if l.slots[tid] == nil {
		l.slots[tid] = l.make()
	}
	return l.slots[tid]
}

// complementBounds computes, for every output row, the §5.2 upper bound
// on a complemented-mask output row: min(cols − nnz(m_i),
// Σ_{k : A_ik ≠ 0} nnz(B_k*)), returned as exclusive prefix offsets
// (len rows+1). The second term also bounds the accumulator population.
func complementBounds[T any](mask *sparse.Pattern, a, b *sparse.CSR[T], threads int) []int64 {
	rows := mask.Rows
	offsets := make([]int64, rows+1)
	parallel.ForEachBlock(rows, threads, parallel.DefaultGrain, func(lo, hi, _ int) {
		for i := lo; i < hi; i++ {
			free := int64(mask.Cols) - int64(mask.RowNNZ(i))
			offsets[i] = min(rowScan(a.Row(i), bClip{}, b.RowPtr), free)
		}
	})
	parallel.PrefixSumParallel(offsets, threads)
	return offsets
}
