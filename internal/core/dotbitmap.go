package core

import (
	"math"
	"math/bits"
	"sync/atomic"

	"maskedspgemm/internal/accum"
	"maskedspgemm/internal/faultinject"
	"maskedspgemm/internal/parallel"
	"maskedspgemm/internal/sparse"
)

// Bitmap hits (DESIGN.md §5, "Bitmap hits"). A hit's Pull dot for a
// computed entry (i, j) scans all of B's column j to find the k that
// A's row i holds, and a push row scans every B row its A row names to
// find the products that land on its known columns: both find the same
// products on every hit. A plan whose hits break the replay rule
// (schedProductsPerEntry) but which holds B's CSC structure (cscOfB)
// therefore records, in the record of each kind of hit it publishes
// (Plan.remember), a dot bitmap: for every computed entry, one bit per
// entry of its B column, set where A's row holds that entry's row
// index. A hit walks the set bits alone, in ascending k, the first
// product added to −0, so it is bit-identical to push and Pull while it
// costs its products and one word per 64 bits, not its scans. A bitmap
// costs memory in proportion to the column lengths of the computed
// entries, so a record keeps one only under the memory rule
// (dotBitsPerEntry); the hits of every other record run push and Pull.

// dotBitsPerEntry is the memory rule of dot bitmaps: a record keeps
// one only if it holds at most this many bits per computed entry, that
// is at most 8 bytes, twice the 4-byte column index the output pattern
// already holds for the entry. It is a memory cap and a constant, not a
// knob; it does not mark where the bitmap stops saving time, which it
// still does just over the cap (DESIGN.md §5, "The memory rule").
const dotBitsPerEntry = 64

// dotBitmap is the dot bitmap of one kind of hit: computed entry
// (i, j), in the order of hitRecord.row, owns one bit per entry of B's
// column j in the plan's CSC structure, in column order, and bit t of
// the entry is set when A's row i holds the column's t-th row index.
//
//mspgemm:immutable
type dotBitmap struct {
	// words holds the bits: row i's entries own consecutive bits from
	// bit prefix[i] on, entry by entry.
	words []uint64
	// prefix is the exclusive prefix sum of the rows' bit counts (len
	// rows+1), which a bitmap hit also cuts into partitions.
	prefix []int64
}

// bytes is the memory a dot bitmap adds to its plan's cache entry: its
// words and 8 bytes per row.
func (d *dotBitmap) bytes() int64 {
	return int64(len(d.words))*8 + int64(len(d.prefix))*8
}

// buildDots returns the dot bitmap of the hits rec records over a, or
// nil when the plan holds no CSC structure of B, when the bitmap breaks
// the memory rule, which is checked from the column lengths before
// anything is allocated, or when an entry's dot finds no product
// (operands whose structure is not the plan's). It sets the bits with
// one Pull scan, at width threads over partitions of its own prefix,
// each row's A columns held in a bitset.
func (p *Plan[T, S]) buildDots(rec *hitRecord, a *sparse.CSR[T], threads int) *dotBitmap {
	colPtr, rowIdx := p.cscOfB()
	if colPtr == nil {
		return nil
	}
	rows := p.mask.Rows
	rowBits := func(i int) int64 {
		return colScan(rec.row(i), colPtr)
	}
	var total int64
	for i := range rows {
		total += rowBits(i)
	}
	if total > dotBitsPerEntry*rec.entries(rows) {
		return nil
	}
	prefix := make([]int64, rows+1)
	for i := range rows {
		prefix[i] = rowBits(i)
	}
	parallel.PrefixSum(prefix)
	words := make([]uint64, (total+63)/64)
	var empty atomic.Bool
	scratch := make([][]uint64, threads)
	parallel.ForEachPartition(partitions(prefix, threads, nil), threads, nil, nil, func(lo, hi, tid int) {
		if scratch[tid] == nil {
			scratch[tid] = make([]uint64, (a.Cols+63)/64)
		}
		for i := lo; i < hi; i++ {
			if !markDots(words, prefix[i], scratch[tid], a.Row(i), rec.row(i), colPtr, rowIdx) {
				empty.Store(true)
			}
		}
	})
	if empty.Load() {
		return nil
	}
	return &dotBitmap{words: words, prefix: prefix}
}

// colScan returns Σ nnz(B_*j) over the columns cols, given the column
// pointers colPtr of B's CSC structure: the entries the dots of a row
// whose known columns are cols scan, and the bits of its dot bitmap.
func colScan(cols []int32, colPtr []int64) int64 {
	var n int64
	for _, j := range cols {
		c := int(uint32(j))
		cp := colPtr[c : c+2]
		n += cp[1] - cp[0]
	}
	return n
}

// markDots sets the bits of one row's dots in words, from bit on: for
// each known column j of cols, one bit per entry of B's column j
// (colPtr, rowIdx), set when the row's A columns aCols hold its row
// index. Each word is or-ed in atomically, since a row's first and
// last words may be a neighbouring row's too. It reports whether every
// dot has a product. aBits is all clear between rows.
func markDots(words []uint64, bit int64, aBits []uint64, aCols, cols []int32, colPtr []int64, rowIdx []int32) bool {
	for _, k := range aCols {
		aBits[uint32(k)>>6] |= 1 << (uint32(k) & 63)
	}
	ok := true
	var w uint64
	at := bit >> 6
	for _, j := range cols {
		var hit uint64
		for _, k := range rowIdx[colPtr[j]:colPtr[j+1]] {
			if bit>>6 != at {
				atomic.OrUint64(&words[at], w)
				at, w = bit>>6, 0
			}
			set := aBits[uint32(k)>>6] >> (uint32(k) & 63) & 1
			w |= set << (bit & 63)
			hit |= set
			bit++
		}
		ok = ok && hit != 0
	}
	if w != 0 {
		atomic.OrUint64(&words[at], w)
	}
	for _, k := range aCols {
		aBits[uint32(k)>>6] = 0
	}
	return ok
}

// bindDots binds the walk kernel of a plan hit by the record rec, which
// holds a dot bitmap, to a on e: each row with computed entries loads
// A's row into the worker's dense Pull values and walks the set bits of
// its dots (dotWalk64) over e.bt, the executor's CSC view of B, which
// prepareCSC refreshes before every execution. It runs no push row and
// touches no accumulator.
func bindDots(e *Executor[float64, accum.PlusTimes64], a *sparse.CSR[float64], rec *hitRecord) rowsHitFn[float64] {
	bt, words, prefix, colIdx := e.bt, rec.dots.words, rec.dots.prefix, rec.pat.colIdx
	return func(lo, hi, tid int, val []float64, fi *faultinject.Hooks) {
		r := e.worker(tid).Pull(a.Cols)
		for i := lo; i < hi; i++ {
			if fi != nil {
				fi.Row(faultinject.PassNumeric, i)
			}
			if at, end := rec.span(i); at < end {
				r.loadVals(a.Row(i), a.RowVals(i))
				dotWalk64(words, prefix[i], r.vals, bt.ColPtr, bt.RowIdx, bt.Val, colIdx[at:end], val[at:end])
			}
		}
	}
}

// dotWalk64 writes the value of each computed entry q of one row, whose
// known columns are cols and whose bits start at bit of words, into
// outVal[q]: over the entries t of B's column cols[q] (colPtr, rowIdx,
// bVal) whose bit is set, in ascending k, the products of aDense, the
// row's dense A values, and bVal, summed in order as every family sums
// them. Each walk stays within its column of the CSC view. Each entry's
// sum starts at −0, which adding the first product leaves as that
// product bit for bit, and each product is rounded explicitly
// (float64(a*b)), so the compiler cannot fuse it into the sum, as in
// denseDot64.
//
//mspgemm:hotpath
func dotWalk64(words []uint64, bit int64, aDense []float64, colPtr []int64, rowIdx []int32, bVal []float64, cols []int32, outVal []float64) {
	outVal = outVal[:len(cols)]
	bVal = bVal[:len(rowIdx)]
	negZero := math.Float64frombits(1 << 63)
	for q, j := range cols {
		lo, hi := colPtr[j], colPtr[j+1]
		v := negZero
		for lo < hi {
			n := min(64-bit&63, hi-lo)
			w := words[bit>>6] >> uint(bit&63) & (^uint64(0) >> uint(64-n))
			for w != 0 {
				t := lo + int64(bits.TrailingZeros64(w))
				v += float64(aDense[rowIdx[t]] * bVal[t])
				w &= w - 1
			}
			lo += n
			bit += n
		}
		outVal[q] = v
	}
}
