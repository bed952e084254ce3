package core

import (
	"maskedspgemm/internal/semiring"
	"maskedspgemm/internal/sparse"
)

// The pull-based inner-product algorithm (§4.1): for every admitted
// mask entry (i, j) compute the sparse dot product A_i* · B_*j. A is
// read in CSR, B in CSC (its transpose is taken once per call, or
// supplied pre-transposed by callers that reuse it). Parallelism is
// across mask rows, giving the ≥ O(nnz(M))-way parallelism the paper
// notes.

// dotNumeric computes the sorted-merge sparse dot product of one A row
// and one B column; hit is false when no index matched (no output
// entry).
func dotNumeric[T any, S semiring.Semiring[T]](sr S, aCols []int32, aVals []T, bRows []int32, bVals []T) (acc T, hit bool) {
	p, q := 0, 0
	for p < len(aCols) && q < len(bRows) {
		switch {
		case aCols[p] < bRows[q]:
			p++
		case aCols[p] > bRows[q]:
			q++
		default:
			prod := sr.Mul(aVals[p], bVals[q])
			if !hit {
				acc = prod
				hit = true
			} else {
				acc = sr.Add(acc, prod)
			}
			p++
			q++
		}
	}
	return acc, hit
}

// dotNumericGalloping is the skewed-length variant: when one operand
// is much shorter, binary-search (gallop) the longer one instead of
// stepping through it. The ablation BenchmarkInnerGallop measures the
// crossover; correctness is identical to dotNumeric.
func dotNumericGalloping[T any, S semiring.Semiring[T]](sr S, aCols []int32, aVals []T, bRows []int32, bVals []T) (acc T, hit bool) {
	// Keep the shorter list on the outside.
	if len(aCols) > len(bRows) {
		return dotNumericGalloping(sr, bRows, bVals, aCols, aVals)
	}
	lo := 0
	for p, key := range aCols {
		lo = gallopTo(bRows, key, lo)
		if lo >= len(bRows) {
			break
		}
		if bRows[lo] == key {
			prod := sr.Mul(aVals[p], bVals[lo])
			if !hit {
				acc = prod
				hit = true
			} else {
				acc = sr.Add(acc, prod)
			}
			lo++
		}
	}
	return acc, hit
}

// gallopTo returns the first index ≥ from whose value is ≥ key,
// doubling the step then binary-searching the bracket.
func gallopTo(s []int32, key int32, from int) int {
	if from >= len(s) || s[from] >= key {
		return from
	}
	step := 1
	lo := from
	hi := from + step
	for hi < len(s) && s[hi] < key {
		lo = hi
		step <<= 1
		hi = from + step
	}
	if hi > len(s) {
		hi = len(s)
	}
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if s[mid] < key {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// dotSymbolic reports whether the dot product has at least one matching
// index; it early-exits on the first match, which is what makes the
// Inner symbolic phase cheaper than its numeric phase.
func dotSymbolic(aCols, bRows []int32) bool {
	p, q := 0, 0
	for p < len(aCols) && q < len(bRows) {
		switch {
		case aCols[p] < bRows[q]:
			p++
		case aCols[p] > bRows[q]:
			q++
		default:
			return true
		}
	}
	return false
}

// innerRowNumeric computes output row i: one dot product per admitted
// mask entry.
func innerRowNumeric[T any, S semiring.Semiring[T]](sr S, maskRow []int32, aCols []int32, aVals []T, bt *sparse.CSC[T], outIdx []int32, outVal []T) int {
	n := 0
	for _, j := range maskRow {
		if v, hit := dotNumeric(sr, aCols, aVals, bt.Col(int(j)), bt.ColVals(int(j))); hit {
			outIdx[n] = j
			outVal[n] = v
			n++
		}
	}
	return n
}

// innerRowNumericGallop is innerRowNumeric over the galloping dot; the
// two are interchangeable, selected by Options.InnerGallop.
func innerRowNumericGallop[T any, S semiring.Semiring[T]](sr S, maskRow []int32, aCols []int32, aVals []T, bt *sparse.CSC[T], outIdx []int32, outVal []T) int {
	n := 0
	for _, j := range maskRow {
		if v, hit := dotNumericGalloping(sr, aCols, aVals, bt.Col(int(j)), bt.ColVals(int(j))); hit {
			outIdx[n] = j
			outVal[n] = v
			n++
		}
	}
	return n
}

// innerRowSymbolic counts output row i with early-exit dots.
func innerRowSymbolic(maskRow []int32, aCols []int32, btColPtr []int64, btRowIdx []int32) int {
	n := 0
	for _, j := range maskRow {
		lo, hi := btColPtr[j], btColPtr[j+1]
		if dotSymbolic(aCols, btRowIdx[lo:hi]) {
			n++
		}
	}
	return n
}

// bindInner registers the pull scheme. The CSC view of B lives on the
// executor (structure from the plan, values refreshed per execution;
// rebuilt wholesale per call for the SS:DOT baseline's
// TransposePerExecute) — which is why the kernels read e.bt at row
// time instead of capturing it. A half row of a symmetric
// self-product takes one dot per entry of its half mask row.
func bindInner[T any, S semiring.Semiring[T]](p *Plan[T, S], e *Executor[T, S], a, b *sparse.CSR[T], h *symHalf) kernels[T] {
	sr, m := p.sr, maskRows{p.mask, h}
	numeric := func(_, i int, outIdx []int32, outVal []T) int {
		return innerRowNumeric(sr, m.row(i), a.Row(i), a.RowVals(i), e.bt, outIdx, outVal)
	}
	if p.opt.InnerGallop {
		numeric = func(_, i int, outIdx []int32, outVal []T) int {
			return innerRowNumericGallop(sr, m.row(i), a.Row(i), a.RowVals(i), e.bt, outIdx, outVal)
		}
	}
	return kernels[T]{
		numeric: numeric,
		symbolic: func(_, i int) int {
			return innerRowSymbolic(m.row(i), a.Row(i), e.bt.ColPtr, e.bt.RowIdx)
		},
	}
}

// innerRowNumericComplement computes one complemented row: a dot
// product for every column *not* in the mask row. This is Θ(ncols) dots
// per row — the reason the paper excludes pull-based schemes from the
// complemented-mask benchmark (§8.4); provided for completeness and for
// cross-validation in tests.
func innerRowNumericComplement[T any, S semiring.Semiring[T]](sr S, cols int, maskRow []int32, aCols []int32, aVals []T, bt *sparse.CSC[T], outIdx []int32, outVal []T) int {
	n := 0
	q := 0
	for j := 0; j < cols; j++ {
		for q < len(maskRow) && int(maskRow[q]) < j {
			q++
		}
		if q < len(maskRow) && int(maskRow[q]) == j {
			continue
		}
		if v, hit := dotNumeric(sr, aCols, aVals, bt.Col(j), bt.ColVals(j)); hit {
			outIdx[n] = int32(j)
			outVal[n] = v
			n++
		}
	}
	return n
}

// innerRowSymbolicComplement counts one complemented row.
func innerRowSymbolicComplement(cols int, maskRow []int32, aCols []int32, btColPtr []int64, btRowIdx []int32) int {
	n := 0
	q := 0
	for j := 0; j < cols; j++ {
		for q < len(maskRow) && int(maskRow[q]) < j {
			q++
		}
		if q < len(maskRow) && int(maskRow[q]) == j {
			continue
		}
		lo, hi := btColPtr[j], btColPtr[j+1]
		if dotSymbolic(aCols, btRowIdx[lo:hi]) {
			n++
		}
	}
	return n
}

// bindInnerComplement registers the pull scheme for complemented
// masks.
func bindInnerComplement[T any, S semiring.Semiring[T]](p *Plan[T, S], e *Executor[T, S], a, b *sparse.CSR[T], _ *symHalf) kernels[T] {
	sr, mask := p.sr, p.mask
	return kernels[T]{
		numeric: func(_, i int, outIdx []int32, outVal []T) int {
			return innerRowNumericComplement(sr, mask.Cols, mask.Row(i), a.Row(i), a.RowVals(i), e.bt, outIdx, outVal)
		},
		symbolic: func(_, i int) int {
			return innerRowSymbolicComplement(mask.Cols, mask.Row(i), a.Row(i), e.bt.ColPtr, e.bt.RowIdx)
		},
	}
}
