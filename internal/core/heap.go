package core

import (
	"math"

	"maskedspgemm/internal/accum"
	"maskedspgemm/internal/semiring"
	"maskedspgemm/internal/sparse"
)

// The heap (multi-way merge) masked SpGEVM of §5.5 / Algorithms 4–5.
// A min-heap holds one iterator per selected row B_k*, ordered by the
// column the iterator currently points at; popping in sequence streams
// the multiset S = {B_kj | u_k ≠ 0} in sorted column order, which is
// 2-way merged against the sorted mask row. NInspect controls how much
// of the mask the Insert procedure inspects before (re-)pushing an
// iterator: 1 = check the current mask element ("Heap"), ∞ = scan until
// a provable match or the iterator dies ("HeapDot"). Complemented masks
// push blindly (NInspect = 0) through their own kernels.

// heapInspectInf is the sentinel for NInspect = ∞.
const heapInspectInf = math.MaxInt

// heapInsert is Algorithm 5. it.Pos must be the next unread position of
// the iterator; mPos is the caller's current position in the mask row
// (inspected copy-by-value, so the caller's cursor is unaffected).
// Iterators that provably cannot contribute are dropped instead of
// pushed.
func heapInsert(pq *accum.IterHeap, it accum.RowIter, bCols []int32, maskRow []int32, mPos, nInspect int) {
	toInspect := nInspect
	for it.Pos < it.End && mPos < len(maskRow) {
		it.Col = bCols[it.Pos]
		mc := maskRow[mPos]
		switch {
		case it.Col == mc:
			pq.Push(it)
			return
		case it.Col < mc:
			// This column is not in the remaining mask; skipping it here
			// saves a heap round trip.
			it.Pos++
		default:
			mPos++
			toInspect--
			if toInspect == 0 {
				pq.Push(it)
				return
			}
		}
	}
	// Either the iterator or the mask ran out: nothing this iterator
	// still points at can be admitted; drop it.
}

// heapRowNumeric is Algorithm 4: compute one output row by merging the
// heap stream against the mask row. A non-zero clip starts each
// iterator on its cut of B_k* (a half row of a symmetric
// self-product, DESIGN.md §5).
func heapRowNumeric[T any, S semiring.Semiring[T]](sr S, pq *accum.IterHeap, nInspect int, maskRow []int32, aCols []int32, aVals []T, clip bClip, b *sparse.CSR[T], outIdx []int32, outVal []T) int {
	pq.Reset()
	mPos := 0
	for k, col := range aCols {
		it := accum.RowIter{AIdx: int32(k), Pos: b.RowPtr[col], End: b.RowPtr[col+1]}
		if clip.ends != nil {
			if e := int64(clip.ends[k]); clip.upper {
				it.Pos = e
			} else {
				it.End = e + 1
			}
		}
		heapInsert(pq, it, b.ColIdx, maskRow, mPos, nInspect)
	}
	n := 0
	prevKey := int32(-1)
	for pq.Len() > 0 {
		it := pq.PopMin()
		for mPos < len(maskRow) && maskRow[mPos] < it.Col {
			mPos++
		}
		if mPos >= len(maskRow) {
			break // mask exhausted: no later column can match
		}
		if maskRow[mPos] == it.Col {
			prod := sr.Mul(aVals[it.AIdx], b.Val[it.Pos])
			if n > 0 && prevKey == it.Col {
				outVal[n-1] = sr.Add(outVal[n-1], prod)
			} else {
				outIdx[n] = it.Col
				outVal[n] = prod
				prevKey = it.Col
				n++
			}
		}
		it.Pos++
		heapInsert(pq, it, b.ColIdx, maskRow, mPos, nInspect)
	}
	return n
}

// heapRowSymbolic counts the distinct admitted columns of one row. It
// is generic-free: the symbolic pass needs only B's pattern arrays.
func heapRowSymbolic(pq *accum.IterHeap, nInspect int, maskRow []int32, aCols []int32, bCols []int32, bRowPtr []int64) int {
	pq.Reset()
	mPos := 0
	for k, col := range aCols {
		heapInsert(pq, accum.RowIter{AIdx: int32(k), Pos: bRowPtr[col], End: bRowPtr[col+1]}, bCols, maskRow, mPos, nInspect)
	}
	n := 0
	prevKey := int32(-1)
	for pq.Len() > 0 {
		it := pq.PopMin()
		for mPos < len(maskRow) && maskRow[mPos] < it.Col {
			mPos++
		}
		if mPos >= len(maskRow) {
			break
		}
		if maskRow[mPos] == it.Col && it.Col != prevKey {
			prevKey = it.Col
			n++
		}
		it.Pos++
		heapInsert(pq, it, bCols, maskRow, mPos, nInspect)
	}
	return n
}

// heapRowNumericComplement computes one row of ¬m ⊙ (uᵀB): the products
// for columns in S \ m (§5.5). NInspect is always 0 for complemented
// masks — there is no mask intersection to pre-check against.
func heapRowNumericComplement[T any, S semiring.Semiring[T]](sr S, pq *accum.IterHeap, maskRow []int32, aCols []int32, aVals []T, b *sparse.CSR[T], outIdx []int32, outVal []T) int {
	pq.Reset()
	for k, col := range aCols {
		if b.RowPtr[col] < b.RowPtr[col+1] {
			pq.Push(accum.RowIter{Col: b.ColIdx[b.RowPtr[col]], AIdx: int32(k), Pos: b.RowPtr[col], End: b.RowPtr[col+1]})
		}
	}
	n := 0
	prevKey := int32(-1)
	mPos := 0
	for pq.Len() > 0 {
		it := pq.PopMin()
		for mPos < len(maskRow) && maskRow[mPos] < it.Col {
			mPos++
		}
		if mPos >= len(maskRow) || maskRow[mPos] != it.Col {
			prod := sr.Mul(aVals[it.AIdx], b.Val[it.Pos])
			if n > 0 && prevKey == it.Col {
				outVal[n-1] = sr.Add(outVal[n-1], prod)
			} else {
				outIdx[n] = it.Col
				outVal[n] = prod
				prevKey = it.Col
				n++
			}
		}
		it.Pos++
		if it.Pos < it.End {
			it.Col = b.ColIdx[it.Pos]
			pq.Push(it)
		}
	}
	return n
}

// heapRowSymbolicComplement counts distinct columns of S \ m.
func heapRowSymbolicComplement(pq *accum.IterHeap, maskRow []int32, aCols []int32, bCols []int32, bRowPtr []int64) int {
	pq.Reset()
	for _, col := range aCols {
		if bRowPtr[col] < bRowPtr[col+1] {
			pq.Push(accum.RowIter{Col: bCols[bRowPtr[col]], Pos: bRowPtr[col], End: bRowPtr[col+1]})
		}
	}
	n := 0
	prevKey := int32(-1)
	mPos := 0
	for pq.Len() > 0 {
		it := pq.PopMin()
		for mPos < len(maskRow) && maskRow[mPos] < it.Col {
			mPos++
		}
		if (mPos >= len(maskRow) || maskRow[mPos] != it.Col) && it.Col != prevKey {
			prevKey = it.Col
			n++
		}
		it.Pos++
		if it.Pos < it.End {
			it.Col = bCols[it.Pos]
			pq.Push(it)
		}
	}
	return n
}

// bindHeap registers the heap scheme: NInspect is ∞ for HeapDot and 1
// for Heap, including the heap rows a Hybrid plan binds.
func bindHeap[T any, S semiring.Semiring[T]](p *Plan[T, S], e *Executor[T, S], a, b *sparse.CSR[T], h *symHalf) kernels[T] {
	sr, exec, m := p.sr, e, maskRows{p.mask, h}
	nInspect := 1
	if p.opt.Algorithm == AlgoHeapDot {
		nInspect = heapInspectInf
	}
	return kernels[T]{
		numeric: func(tid, i int, outIdx []int32, outVal []T) int {
			return heapRowNumeric(sr, exec.worker(tid).Heap(), nInspect, m.row(i), a.Row(i), a.RowVals(i), m.clip(i), b, outIdx, outVal)
		},
		symbolic: func(tid, i int) int {
			return heapRowSymbolic(exec.worker(tid).Heap(), nInspect, m.row(i), a.Row(i), b.ColIdx, b.RowPtr)
		},
	}
}

// bindHeapComplement registers the complemented heap scheme (NInspect
// fixed at 0, §5.5).
func bindHeapComplement[T any, S semiring.Semiring[T]](p *Plan[T, S], e *Executor[T, S], a, b *sparse.CSR[T], _ *symHalf) kernels[T] {
	sr, exec, mask := p.sr, e, p.mask
	return kernels[T]{
		numeric: func(tid, i int, outIdx []int32, outVal []T) int {
			return heapRowNumericComplement(sr, exec.worker(tid).Heap(), mask.Row(i), a.Row(i), a.RowVals(i), b, outIdx, outVal)
		},
		symbolic: func(tid, i int) int {
			return heapRowSymbolicComplement(exec.worker(tid).Heap(), mask.Row(i), a.Row(i), b.ColIdx, b.RowPtr)
		},
	}
}
