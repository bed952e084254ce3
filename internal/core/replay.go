package core

import (
	"math"
	"slices"
	"sync/atomic"

	"maskedspgemm/internal/faultinject"
	"maskedspgemm/internal/parallel"
	"maskedspgemm/internal/sparse"
)

// Replayed hits (DESIGN.md §5, "Replayed hits"). A plan hit knows its
// output pattern, so the products of each computed entry are the same
// on every hit: only their values change. A plan a PlanCache built
// therefore records them once, in the record both kinds of hit share
// (Plan.remember), as a product schedule: for every computed
// entry, the positions in A's and B's value arrays of its products, in
// ascending k. Every family sums an entry's products in ascending k and
// stores the first as is, so a hit that replays the schedule — the
// first product stored, the rest added in order — is bit-identical to
// one that runs push or Pull, and finds no product again. A schedule
// costs memory in proportion to the products, so a plan keeps one only
// under the memory rule (schedProductsPerEntry); the hits of every
// other plan walk a dot bitmap where it holds B's CSC structure and the
// bitmap's own rule allows (DESIGN.md §5, "Bitmap hits"), and run push
// and Pull under the plan's binding otherwise.

// schedProductsPerEntry is the memory rule: a plan keeps a schedule
// only if it holds at most this many products per computed entry, which
// caps the schedule at about 20 bytes per entry (schedule.bytes). It is
// a constant, not a knob: a product with more products per entry is
// one whose schedule would cost more memory than its hits save time
// (DESIGN.md §5 measures both sides).
const schedProductsPerEntry = 2

// prodPos is one scheduled product: the positions of its A and B
// values.
type prodPos struct{ a, b int32 }

// schedule is a plan's product schedule over the entries of its output
// pattern, in order: a known half never replays (Plan.remember).
//
//mspgemm:immutable
type schedule struct {
	// ptr gives entry e's products as prods[ptr[e]:ptr[e+1]], in
	// ascending k; every entry has at least one.
	ptr   []int32
	prods []prodPos
	// prefix is the exclusive prefix sum of the rows' product counts
	// (len rows+1), which a replayed hit cuts into partitions.
	prefix []int64
}

// bytes is the memory a schedule adds to its plan's cache entry: 4
// bytes per entry, 8 per product and 8 per row.
func (s *schedule) bytes() int64 {
	return int64(len(s.ptr))*4 + int64(len(s.prods))*8 + int64(len(s.prefix))*8
}

// replaySerialProducts is the product count below which a replayed
// hit runs at width 1, on the calling goroutine: under it, a second
// worker costs more than the products it would take (DESIGN.md §9
// measures both sides). It is a constant, not a knob, and hits that run
// push and Pull keep their width.
const replaySerialProducts = 1 << 15

// span returns the output range [lo, hi) of row i's computed entries.
func (r *hitRecord) span(i int) (int64, int64) {
	if r.half == nil {
		return r.pat.rowPtr[i], r.pat.rowPtr[i+1]
	}
	return r.half.span(r.pat.rowPtr, i)
}

// row returns output row i's computed columns.
func (r *hitRecord) row(i int) []int32 {
	lo, hi := r.span(i)
	return r.pat.colIdx[lo:hi]
}

// entries returns the number of computed entries.
func (r *hitRecord) entries(rows int) int64 {
	if r.half == nil {
		return int64(len(r.pat.colIdx))
	}
	return r.half.off[rows]
}

// buildSchedule returns the schedule of the full product over the
// remembered output pattern pat, or nil when it breaks the memory rule,
// when its positions do not fit an int32, or when an entry has no
// product (operands whose structure is not the plan's). Counting
// nothing first, it scans each row's push products once, over the
// partitions of the plan's binding, into a row-local buffer in
// ascending k, and a counting sort on their entries, which keeps that
// order, writes them into the partition's buffer. After each B row it
// stops once the partition's products and those of the partitions
// finished before it pass the rule, so no buffer outgrows the rule by
// more than a B row; the rows' total decides it exactly at the end.
func (p *Plan[T, S]) buildSchedule(pat *knownPattern, a, b *sparse.CSR[T], threads int) *schedule {
	rows, rowPtr, colIdx := p.mask.Rows, pat.rowPtr, pat.colIdx
	limit := schedProductsPerEntry * int64(len(colIdx))
	if limit > math.MaxInt32 || a.NNZ() > math.MaxInt32 || b.NNZ() > math.MaxInt32 {
		return nil
	}
	bounds := partitions(p.costPrefix, threads, nil)
	// prefix[i] counts row i's products, and ptr[e+1] entry e's, then
	// holds their start, then end, in parts[x], and last in the schedule.
	prefix, ptr := make([]int64, rows+1), make([]int32, len(colIdx)+1)
	parts := make([][]prodPos, len(bounds)-1)
	var total atomic.Int64
	stop := new(parallel.CancelToken)
	scratch := make([][]int32, threads)
	parallel.ForEachPartition(bounds, threads, nil, stop, func(lo, hi, tid int) {
		if scratch[tid] == nil {
			scratch[tid] = make([]int32, b.Cols)
		}
		at, bRowPtr, bColIdx, room := scratch[tid], b.RowPtr, b.ColIdx, limit-total.Load()
		out := make([]prodPos, 0, schedProductsPerEntry*(rowPtr[hi]-rowPtr[lo]))
		var buf []rowProd
		for i := lo; i < hi && !stop.Canceled(); i++ {
			base := rowPtr[i]
			cols := colIdx[base:rowPtr[i+1]]
			for q, j := range cols {
				at[j] = int32(q) + 1
			}
			aLo := a.RowPtr[i]
			buf = buf[:0]
			for qa, k := range a.Row(i) {
				bLo := bRowPtr[k]
				for t, j := range bColIdx[bLo:bRowPtr[k+1]] {
					if q := at[j]; q != 0 {
						buf = append(buf, rowProd{q: q - 1, pos: prodPos{a: int32(aLo) + int32(qa), b: int32(bLo) + int32(t)}})
						ptr[base+int64(q)]++
					}
				}
				if int64(len(out)+len(buf)) > room {
					stop.Cancel()
					return
				}
			}
			for _, j := range cols {
				at[j] = 0
			}
			prefix[i] = int64(len(buf))
			end := int32(len(out))
			for e := base + 1; e <= rowPtr[i+1]; e++ {
				if ptr[e] == 0 {
					stop.Cancel()
					return
				}
				ptr[e], end = end, end+ptr[e]
			}
			out = slices.Grow(out, len(buf))[:end]
			for _, pr := range buf {
				e := base + int64(pr.q) + 1
				out[ptr[e]] = pr.pos
				ptr[e]++
			}
		}
		total.Add(int64(len(out)))
		x, _ := slices.BinarySearch(bounds, lo)
		parts[x] = out
	})
	if stop.Canceled() || parallel.PrefixSum(prefix) > limit {
		return nil
	}
	prods := make([]prodPos, prefix[rows])
	for x, part := range parts {
		at := int32(prefix[bounds[x]])
		copy(prods[at:], part)
		for e := rowPtr[bounds[x]] + 1; e <= rowPtr[bounds[x+1]]; e++ {
			ptr[e] += at
		}
	}
	return &schedule{ptr: ptr, prods: prods, prefix: prefix}
}

// rowProd is one product of a row being scheduled: its entry's index
// within the row, and its positions.
type rowProd struct {
	q   int32
	pos prodPos
}

// productsFit reports whether the hits rec records hold at most
// schedProductsPerEntry products per computed entry. Each row counts
// them with the cheaper of its two scans over the partitions of the
// plan's binding: the hits of its dots over B's CSC structure, when the
// plan holds one (cscOfB), which scan its known columns (colScan), or
// the products its B rows, cut by its clips, land on known columns
// (rowScan). Both find the same products. The count stops once its
// running total, added to after each row, passes the rule.
func (p *Plan[T, S]) productsFit(rec *hitRecord, a, b *sparse.CSR[T], threads int) bool {
	rows := p.mask.Rows
	limit := schedProductsPerEntry * rec.entries(rows)
	// A plan without B's CSC structure (push-only plans, and SS:DOT*,
	// which transposes per execution) counts every row by push.
	colPtr, rowIdx := p.cscOfB()
	m := maskRows{p.mask, rec.half}
	var total atomic.Int64
	over := new(parallel.CancelToken)
	type counter struct{ known, aRow []uint64 }
	scratch := make([]*counter, threads)
	parallel.ForEachPartition(partitions(p.costPrefix, threads, nil), threads, nil, over, func(lo, hi, tid int) {
		c := scratch[tid]
		if c == nil {
			c = &counter{known: make([]uint64, (b.Cols+63)/64), aRow: make([]uint64, (a.Cols+63)/64)}
			scratch[tid] = c
		}
		for i := lo; i < hi && !over.Canceled(); i++ {
			cols, aCols, clip := rec.row(i), a.Row(i), m.clip(i)
			var n int64
			if colPtr != nil && colScan(cols, colPtr) < rowScan(aCols, clip, b.RowPtr) {
				n = countPullProducts(c.aRow, aCols, cols, colPtr, rowIdx)
			} else {
				n = countPushProducts(c.known, cols, aCols, clip, b.RowPtr, b.ColIdx)
			}
			if total.Add(n) > limit {
				over.Cancel()
			}
		}
	})
	return !over.Canceled()
}

// countPullProducts returns the products of one Pull row: the A
// columns aCols that each known column's B column (colPtr, rowIdx)
// holds, summed over the known columns cols. bits is all clear between
// rows.
func countPullProducts(bits []uint64, aCols, cols []int32, colPtr []int64, rowIdx []int32) int64 {
	for _, k := range aCols {
		bits[uint32(k)>>6] |= 1 << (uint32(k) & 63)
	}
	var n int64
	for _, j := range cols {
		for _, k := range rowIdx[colPtr[j]:colPtr[j+1]] {
			n += int64(bits[uint32(k)>>6] >> (uint32(k) & 63) & 1)
		}
	}
	for _, k := range aCols {
		bits[uint32(k)>>6] = 0
	}
	return n
}

// countPushProducts returns the products of one push row: the entries
// of its B rows, cut by clip, that land on its known columns cols. bits
// is all clear between rows.
func countPushProducts(bits []uint64, cols, aCols []int32, clip bClip, bRowPtr []int64, bColIdx []int32) int64 {
	for _, j := range cols {
		bits[uint32(j)>>6] |= 1 << (uint32(j) & 63)
	}
	var n int64
	for q, k := range aCols {
		lo, hi := clip.cut(q, bRowPtr[k], bRowPtr[k+1])
		for _, j := range bColIdx[lo:hi] {
			n += int64(bits[uint32(j)>>6] >> (uint32(j) & 63) & 1)
		}
	}
	for _, j := range cols {
		bits[uint32(j)>>6] = 0
	}
	return n
}

// bindReplay binds the replay kernel of a plan hit by the record rec,
// which holds a product schedule, to (a, b): the rows [lo, hi) hold
// consecutive entries, in output order, so each partition replays its
// products' range of the schedule's ptr over A's and B's values in one
// call to replayRow64, after firing fi's row hook for each row.
func bindReplay(a, b *sparse.CSR[float64], rec *hitRecord) rowsHitFn[float64] {
	rowPtr, ptr, prods := rec.pat.rowPtr, rec.sched.ptr, rec.sched.prods
	return func(lo, hi, _ int, val []float64, fi *faultinject.Hooks) {
		if fi != nil {
			for i := lo; i < hi; i++ {
				fi.Row(faultinject.PassNumeric, i)
			}
		}
		at, end := rowPtr[lo], rowPtr[hi]
		replayRow64(a.Val, b.Val, ptr[at:end+1], prods, val[at:end])
	}
}

// replayRow64 writes the value of each entry q of one row into
// outVal[q]: the products prods[ptr[q]:ptr[q+1]] of A's values aVal
// and B's values bVal, the first stored as is and the rest added in
// order, as every family sums them. Each product is rounded explicitly
// (float64(a*b)), so the compiler cannot fuse it into the sum, as in
// denseDot64.
//
//mspgemm:hotpath
func replayRow64(aVal, bVal []float64, ptr []int32, prods []prodPos, outVal []float64) {
	lo := ptr[0]
	ptr = ptr[1:]
	outVal = outVal[:len(ptr)]
	for q, hi := range ptr {
		pr := prods[lo]
		v := float64(aVal[pr.a] * bVal[pr.b])
		for _, pr := range prods[lo+1 : hi] {
			v += float64(aVal[pr.a] * bVal[pr.b])
		}
		outVal[q] = v
		lo = hi
	}
}
