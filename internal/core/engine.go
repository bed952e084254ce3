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
//     Only the paper's own schemes run it (the unmasked SpGEMM among
//     them, as complemented Hash), so its kernels are always uniform.
//   - Known pattern: a cached plan publishes, from its second one-phase
//     execution of each kind, full product or one triangle, the record
//     that kind's hits run by (Plan.remember): the output pattern with
//     the full product's schedule, both kinds' record, or with a known
//     half or none and the dot bitmap. Every later one is a hit: each
//     row's values go straight into its exact range of that pattern,
//     replayed from the record's schedule, walked from its bitmap, or
//     computed by push or Pull under the plan's binding, and a known
//     half's hit then copies them to their transposes (knownPhase).
//
// Kernels receive a tid to index per-worker accumulator scratch.

// rowNumericFn computes output row i into out slices (capacity ≥ the
// row's bound) and returns the entry count.
type rowNumericFn[T any] func(tid, i int, outIdx []int32, outVal []T) int

// rowSymbolicFn counts output row i without computing values.
type rowSymbolicFn func(tid, i int) int

// rowsHitFn is one bound plan hit (bindHit): it writes the values of
// the output rows [lo, hi) into their ranges of val, the result's value
// array, on worker tid, firing fi's row hook for each row.
type rowsHitFn[T any] func(lo, hi, tid int, val []T, fi *faultinject.Hooks)

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

// runSegment returns the end of the longest prefix of [lo, hi) whose
// rows share one run of (runEnds, runFam), and the run's family, or −1
// for a uniform plan: dispatch is paid per run ∩ block, never per row.
func runSegment(runEnds []int32, runFam []uint8, lo, hi int) (int, int) {
	if runEnds == nil {
		return hi, -1
	}
	r := findRun(runEnds, lo)
	return min(int(runEnds[r]), hi), int(runFam[r])
}

// onePhase runs the numeric kernel once per row into a slab laid out by
// offsets (len rows+1, offsets[i+1]-offsets[i] ≥ row i's worst case),
// then compacts. Row passes run over sch's equal-cost partitions
// (DESIGN.md §9) and follow the kernel binding's run boundaries. es
// supplies pooled scratch. Cancellation (sch.cancel) is checked at pass
// checkpoints and partition claims; an interrupted execution returns
// *CanceledError and no partial result. With h, the kernels compute
// the halves of a symmetric self-product: the slab takes h's layout,
// and the mirror pass replaces compact.
func onePhase[T any](rows, cols int, offsets []int64, sch rowSched, k kernels[T], es *engineScratch[T], h *symHalf) (*sparse.CSR[T], error) {
	if err := sch.enterPass(PassNumeric); err != nil {
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
			seg, f := runSegment(k.runEnds, k.runFam, lo, hi)
			numeric := k.numeric
			if f >= 0 {
				numeric = k.numFam[f]
			}
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
	if err := sch.passCanceled(PassNumeric); err != nil {
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
	if err := sch.enterPass(PassCompact); err != nil {
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
	if err := sch.passCanceled(PassCompact); err != nil {
		return nil, err
	}
	return out, nil
}

// knownPhase runs a plan hit by the record rec over its remembered
// output pattern: the hit's kernel k writes each partition's rows
// straight into their ranges of a fresh value array — [RowPtr[i],
// RowPtr[i+1]), or their own halves (symHalf.span) over a known half —
// with no slab and no compaction, and the result shares the pattern's
// arrays. A hit over a known half then copies every half value to its
// transpose's position by the record's tpos (copyTransposes) under
// compact's checkpoint name: each lands outside every row's own range,
// once, so the rows need no order. es supplies Val under reuseOut.
func knownPhase[T any](rows, cols int, rec *hitRecord, sch rowSched, k rowsHitFn[T], es *engineScratch[T]) (*sparse.CSR[T], error) {
	if err := sch.enterPass(PassHitNumeric); err != nil {
		return nil, err
	}
	rowPtr, colIdx, h, tpos := rec.pat.rowPtr, rec.pat.colIdx, rec.half, rec.tpos
	val := es.outVals(int64(len(colIdx)))
	fi := sch.fi
	sch.run(func(lo, hi, tid int) {
		k(lo, hi, tid, val, fi)
	})
	if err := sch.passCanceled(PassHitNumeric); err != nil {
		return nil, err
	}
	if h != nil {
		if err := sch.enterPass(PassTranspose); err != nil {
			return nil, err
		}
		sch.run(func(lo, hi, _ int) {
			for i := lo; i < hi; i++ {
				at, end := h.span(rowPtr, i)
				copyTransposes(val, val[at:end], tpos[h.off[i]:h.off[i+1]])
			}
		})
		if err := sch.passCanceled(PassTranspose); err != nil {
			return nil, err
		}
	}
	return &sparse.CSR[T]{
		Pattern: sparse.Pattern{Rows: rows, Cols: cols, RowPtr: rowPtr, ColIdx: colIdx},
		Val:     val,
	}, nil
}

// twoPhase runs the symbolic kernel to size every row, prefix-sums, and
// lets the numeric kernel write directly into the exact-size result.
// k is a uniform binding: no poly plan runs two-phase. Both passes are
// scheduled by sch. es supplies pooled output buffers. Cancellation
// follows the onePhase contract.
func twoPhase[T any](rows, cols int, sch rowSched, k kernels[T], es *engineScratch[T]) (*sparse.CSR[T], error) {
	if err := sch.enterPass(PassSymbolic); err != nil {
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
	if err := sch.passCanceled(PassSymbolic); err != nil {
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
	if err := sch.enterPass(PassNumeric); err != nil {
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
	if err := sch.passCanceled(PassNumeric); err != nil {
		return nil, err
	}
	return out, nil
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
