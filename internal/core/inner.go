package core

import (
	"maskedspgemm/internal/accum"
	"maskedspgemm/internal/semiring"
	"maskedspgemm/internal/sparse"
)

// The pull-based inner-product algorithm (§4.1): for every admitted
// mask entry (i, j) compute the sparse dot product A_i* · B_*j. A is
// read in CSR, B in CSC (its transpose is taken once per call, or
// supplied pre-transposed by callers that reuse it). Parallelism is
// across mask rows, giving the ≥ O(nnz(M))-way parallelism the paper
// notes.
//
// Each dot runs against a dense copy of A_i* (denseRow): the row is
// scattered into a bitset and a value array over the inner dimension
// once, and every admitted column j then walks B_*j alone, testing
// each k against the bitset. A dot costs nnz(B_*j) reads whatever the
// A row's length, and the test has no branch on the data
// (DESIGN.md §4). The hits are summed in ascending k, the first
// product assigned — the products and the order of a sorted merge of
// A_i* against B_*j, so the results are bit-identical to one for
// every semiring.

// denseRow is one worker's dense copy of the A row its pull rows dot
// against, over the inner dimension: bit k of bits is set when A_i*
// holds column k, and vals[k] is that entry's value. Between rows
// every bit is clear; vals keeps stale values, which only set bits
// read.
type denseRow[T any] struct {
	bits []uint64
	vals []T
}

// ensure grows the arrays to cover an inner dimension of inner. Fresh
// bits start clear, so growing between rows is always safe.
func (r *denseRow[T]) ensure(inner int) {
	if inner > len(r.vals) {
		r.bits = make([]uint64, (inner+63)/64)
		r.vals = make([]T, inner)
	}
}

// load scatters one A row into the bitset and the value array.
//
//mspgemm:hotpath
func (r *denseRow[T]) load(aCols []int32, aVals []T) {
	bits, vals := r.bits, r.vals
	aVals = aVals[:len(aCols)]
	for t, k := range aCols {
		c := uint32(k)
		bits[c>>6] |= 1 << (c & 63)
		vals[c] = aVals[t]
	}
}

// loadVals writes one A row's values into the value array alone: a
// bitmap hit (dotWalk64) reads only the values its bits name, and
// leaves the bitset clear.
//
//mspgemm:hotpath
func (r *denseRow[T]) loadVals(aCols []int32, aVals []T) {
	vals := r.vals
	aVals = aVals[:len(aCols)]
	for t, k := range aCols {
		vals[uint32(k)] = aVals[t]
	}
}

// loadPattern sets the bits of one A row; the symbolic kernels read no
// values.
//
//mspgemm:hotpath
func (r *denseRow[T]) loadPattern(aCols []int32) {
	bits := r.bits
	for _, k := range aCols {
		c := uint32(k)
		bits[c>>6] |= 1 << (c & 63)
	}
}

// clear returns the bitset to all clear after the row aCols.
//
//mspgemm:hotpath
func (r *denseRow[T]) clear(aCols []int32) {
	bits := r.bits
	for _, k := range aCols {
		bits[uint32(k)>>6] = 0
	}
}

// dotChunk is how many entries of B_*j a dot tests before it sums the
// hits among them: the hit positions are compacted into a fixed
// array of this length.
const dotChunk = 64

// hitsIn writes the positions in chunk of the row indices set in bits
// to hits[:n] and returns n. Every position is written and the cursor
// advances by the bit, so the loop has no branch on the data.
//
//mspgemm:hotpath
func hitsIn(bits []uint64, chunk []int32, hits *[dotChunk]uint8) int {
	n := 0
	for t, k := range chunk {
		c := uint32(k)
		hits[n&(dotChunk-1)] = uint8(t)
		n += int(bits[c>>6] >> (c & 63) & 1)
	}
	return n
}

// denseDot computes A_i* · B_*j for the loaded row (bits, aDense) and
// the column (bRows, bVals). Each chunk of the column is compacted to
// its hits (hitsIn), whose products are then summed in ascending k.
// hit is false when no index matched (no output entry). It is the
// generic kernels' dot, one Mul and one Add dictionary call per hit;
// the served semiring runs denseDot64 (DESIGN.md §12 measures the
// difference).
func denseDot[T any, S semiring.Semiring[T]](sr S, bits []uint64, aDense []T, bRows []int32, bVals []T) (acc T, hit bool) {
	var hits [dotChunk]uint8
	bVals = bVals[:len(bRows)]
	for len(bRows) > 0 {
		m := len(bRows)
		if m > dotChunk {
			m = dotChunk
		}
		chunk, vals := bRows[:m], bVals[:m]
		n := hitsIn(bits, chunk, &hits)
		for h := 0; h < n; h++ {
			t := hits[h&(dotChunk-1)]
			prod := sr.Mul(aDense[uint32(chunk[t])], vals[t])
			if !hit {
				acc, hit = prod, true
			} else {
				acc = sr.Add(acc, prod)
			}
		}
		bRows, bVals = bRows[m:], bVals[m:]
	}
	return acc, hit
}

// denseDot64 is denseDot over the served semiring, with Mul and Add
// written out. Each product is rounded explicitly (float64(a*b)), so
// the compiler cannot fuse it into the sum, and the sum is the generic
// one bit for bit (DESIGN.md §12, "The served semiring, specialised").
//
//mspgemm:hotpath
func denseDot64(bits []uint64, aDense []float64, bRows []int32, bVals []float64) (acc float64, hit bool) {
	var hits [dotChunk]uint8
	bVals = bVals[:len(bRows)]
	for len(bRows) > 0 {
		m := len(bRows)
		if m > dotChunk {
			m = dotChunk
		}
		chunk, vals := bRows[:m], bVals[:m]
		n := hitsIn(bits, chunk, &hits)
		for h := 0; h < n; h++ {
			t := hits[h&(dotChunk-1)]
			prod := float64(aDense[uint32(chunk[t])] * vals[t])
			if !hit {
				acc, hit = prod, true
			} else {
				acc += prod
			}
		}
		bRows, bVals = bRows[m:], bVals[m:]
	}
	return acc, hit
}

// denseHit reports whether B_*j's row indices bRows meet the loaded
// row's bitset; it exits at the first hit, which is what makes the
// Inner symbolic phase cheaper than its numeric phase.
//
//mspgemm:hotpath
func denseHit(bits []uint64, bRows []int32) bool {
	for _, k := range bRows {
		c := uint32(k)
		if bits[c>>6]>>(c&63)&1 != 0 {
			return true
		}
	}
	return false
}

// dotFn is one dot product against a loaded row: denseDot bound to a
// semiring, or denseDot64.
type dotFn[T any] func(bits []uint64, aDense []T, bRows []int32, bVals []T) (T, bool)

// pullKernels builds the plain-mask pull kernels on e over the dot
// product dot. They read B through e.bt, the executor's CSC view,
// whose pointee prepareCSC refreshes in place before every execution
// (and before binding, so the pointer is set). A row with an empty A
// row or an empty mask row has no output and loads nothing: the run
// encoding folds rows with no work into pull runs (resolveTrivial).
func pullKernels[T any, S semiring.Semiring[T]](m maskRows, a *sparse.CSR[T], e *Executor[T, S], dot dotFn[T]) kernels[T] {
	bt, inner := e.bt, a.Cols
	return kernels[T]{
		numeric: func(tid, i int, outIdx []int32, outVal []T) int {
			aCols, maskRow := a.Row(i), m.row(i)
			if len(aCols) == 0 || len(maskRow) == 0 {
				return 0
			}
			r := e.worker(tid).Pull(inner)
			r.load(aCols, a.RowVals(i))
			colPtr, rowIdx, val := bt.ColPtr, bt.RowIdx, bt.Val
			n := 0
			for _, j := range maskRow {
				lo, hi := colPtr[j], colPtr[j+1]
				if v, hit := dot(r.bits, r.vals, rowIdx[lo:hi], val[lo:hi]); hit {
					outIdx[n] = j
					outVal[n] = v
					n++
				}
			}
			r.clear(aCols)
			return n
		},
		symbolic: func(tid, i int) int {
			aCols, maskRow := a.Row(i), m.row(i)
			if len(aCols) == 0 || len(maskRow) == 0 {
				return 0
			}
			r := e.worker(tid).Pull(inner)
			r.loadPattern(aCols)
			colPtr, rowIdx := bt.ColPtr, bt.RowIdx
			n := 0
			for _, j := range maskRow {
				if denseHit(r.bits, rowIdx[colPtr[j]:colPtr[j+1]]) {
					n++
				}
			}
			r.clear(aCols)
			return n
		},
	}
}

// pullRowKnown computes one Pull row of a push/Pull plan hit
// (bindPushPull), the A row (aCols, aVals) loaded into r: one dot per
// known column of cols, into outVal. A dot that finds no product panics
// errPatternChanged.
//
//mspgemm:hotpath
func pullRowKnown(r *denseRow[float64], aCols []int32, aVals []float64, bt *sparse.CSC[float64], cols []int32, outVal []float64) {
	r.load(aCols, aVals)
	// Bounds-check elimination hint, as in pushRowNumeric: the
	// two-element colPtr window makes one check cover lo and hi.
	colPtr, rowIdx, val := bt.ColPtr, bt.RowIdx, bt.Val
	outVal = outVal[:len(cols)]
	for q, j := range cols {
		c := int(uint32(j))
		cp := colPtr[c : c+2]
		lo, hi := cp[0], cp[1]
		v, hit := denseDot64(r.bits, r.vals, rowIdx[lo:hi], val[lo:hi])
		if !hit {
			panic(errPatternChanged)
		}
		outVal[q] = v
	}
	r.clear(aCols)
}

// pullPlusTimesKernels is the pull kernels over the served semiring.
func pullPlusTimesKernels(m maskRows, a, _ *sparse.CSR[float64], e *Executor[float64, accum.PlusTimes64]) kernels[float64] {
	return pullKernels(m, a, e, denseDot64)
}

// bindInner registers the pull scheme. The CSC view of B lives on the
// executor (structure from the plan, values refreshed per execution;
// rebuilt wholesale per call for the SS:DOT baseline's
// TransposePerExecute), so the kernels read it through the pointer at
// row time. A half row of a symmetric self-product takes one dot per
// entry of its half mask row.
func bindInner[T any, S semiring.Semiring[T]](p *Plan[T, S], e *Executor[T, S], a, b *sparse.CSR[T], h *symHalf) kernels[T] {
	m := maskRows{p.mask, h}
	if k, ok := servedKernels(p, m, a, b, e, pullPlusTimesKernels); ok {
		return k
	}
	sr := p.sr
	return pullKernels(m, a, e, func(bits []uint64, aDense []T, bRows []int32, bVals []T) (T, bool) {
		return denseDot(sr, bits, aDense, bRows, bVals)
	})
}

// pullKernelsC builds the complemented pull kernels on e over the dot
// product dot: a dot for every column *not* in the mask row. This is
// Θ(ncols) dots per row — the reason the paper excludes pull-based
// schemes from the complemented-mask benchmark (§8.4); provided for
// completeness and for cross-validation in tests.
func pullKernelsC[T any, S semiring.Semiring[T]](mask *sparse.Pattern, a *sparse.CSR[T], e *Executor[T, S], dot dotFn[T]) kernels[T] {
	bt, inner, cols := e.bt, a.Cols, mask.Cols
	return kernels[T]{
		numeric: func(tid, i int, outIdx []int32, outVal []T) int {
			aCols := a.Row(i)
			if len(aCols) == 0 {
				return 0
			}
			r := e.worker(tid).Pull(inner)
			r.load(aCols, a.RowVals(i))
			colPtr, rowIdx, val := bt.ColPtr, bt.RowIdx, bt.Val
			maskRow := mask.Row(i)
			n, q := 0, 0
			for j := 0; j < cols; j++ {
				if q < len(maskRow) && int(maskRow[q]) == j {
					q++
					continue
				}
				lo, hi := colPtr[j], colPtr[j+1]
				if v, hit := dot(r.bits, r.vals, rowIdx[lo:hi], val[lo:hi]); hit {
					outIdx[n] = int32(j)
					outVal[n] = v
					n++
				}
			}
			r.clear(aCols)
			return n
		},
		symbolic: func(tid, i int) int {
			aCols := a.Row(i)
			if len(aCols) == 0 {
				return 0
			}
			r := e.worker(tid).Pull(inner)
			r.loadPattern(aCols)
			colPtr, rowIdx := bt.ColPtr, bt.RowIdx
			maskRow := mask.Row(i)
			n, q := 0, 0
			for j := 0; j < cols; j++ {
				if q < len(maskRow) && int(maskRow[q]) == j {
					q++
					continue
				}
				if denseHit(r.bits, rowIdx[colPtr[j]:colPtr[j+1]]) {
					n++
				}
			}
			r.clear(aCols)
			return n
		},
	}
}

// pullPlusTimesKernelsC is the complemented pull kernels over the
// served semiring.
func pullPlusTimesKernelsC(mask *sparse.Pattern, a, _ *sparse.CSR[float64], e *Executor[float64, accum.PlusTimes64]) kernels[float64] {
	return pullKernelsC(mask, a, e, denseDot64)
}

// bindInnerComplement registers the pull scheme for complemented
// masks.
func bindInnerComplement[T any, S semiring.Semiring[T]](p *Plan[T, S], e *Executor[T, S], a, b *sparse.CSR[T], _ *symHalf) kernels[T] {
	if k, ok := servedKernels(p, p.mask, a, b, e, pullPlusTimesKernelsC); ok {
		return k
	}
	sr := p.sr
	return pullKernelsC(p.mask, a, e, func(bits []uint64, aDense []T, bRows []int32, bVals []T) (T, bool) {
		return denseDot(sr, bits, aDense, bRows, bVals)
	})
}
