package core

import (
	"math"
	"slices"

	"maskedspgemm/internal/parallel"
	"maskedspgemm/internal/semiring"
	"maskedspgemm/internal/sparse"
)

// Symmetric self-products (DESIGN.md §5, "Symmetric self-products: one
// triangle and a mirror"). When the mask is A's pattern, B is A, A is
// symmetric and the multiply commutes, C = A ⊙ (A·A) is symmetric:
// C_ji's products are C_ij's with the operands swapped, summed in the
// same k order. Such a product computes only one triangle — every row
// its mask prefix j ≤ i, or every row its mask suffix j ≥ i — and a
// mirror pass then writes the full, sorted CSR in place of compact. A
// plan a PlanCache built remembers that CSR's pattern (hitRecord), and
// its later half executions write their values straight into it
// (knownPhase): by replaying the full product, or over a known half
// and a transpose map. Restricting the mask row is what
// makes a half row correct; the kernels also clip every scanned B_k
// row at column i, through the plan's mirror map, so that the scan
// halves with the output.

// symHalf is a plan's one-triangle analysis, built by planSymmetric.
// Executions use it only while B shares A's values and those values
// are symmetric bit for bit (Plan.half).
//
//mspgemm:immutable
type symHalf struct {
	// rowPtr and colIdx are the plan's mask structure, which is A's
	// and B's.
	rowPtr []int64
	colIdx []int32
	// mirror maps every entry to its transpose: for entry t = (i, k),
	// mirror[t] is the index of entry (k, i).
	mirror []int32
	// off is the one-phase slab layout of the computed halves: row i
	// computes off[i+1]−off[i] mask entries. On a known half
	// (Plan.remember) it is exact: row i computes the columns of its
	// output half, a subset of its mask half, which open output row i in
	// the lower triangle and close it in the upper (span).
	off []int64
	// upper selects the triangle: rows compute their mask suffix
	// j ≥ i when set, their prefix j ≤ i otherwise.
	upper bool
}

// planSymmetric returns the one-triangle analysis of a product whose
// mask has A's structure (maskIsA) and whose B has A's structure (bIsA),
// or nil when the product is not a symmetric self-product. The checks
// run cheapest first: the O(1) exits, then a check in O(rows) memory
// that every row holds as many entries as its column, and only then the
// nnz-sized mirror map, built in the same pass that tests the pattern
// for symmetry. A's values are not part of the plan; an execution that
// may use the analysis checks them (Plan.half).
//
//mspgemm:planwrite
func planSymmetric[T any, S semiring.Semiring[T]](sr S, opt Options, mask *sparse.Pattern, maskIsA, bIsA bool) *symHalf {
	if opt.Complement || opt.Phases == TwoPhase || mask.Rows != mask.Cols || !maskIsA || !bIsA {
		return nil
	}
	if _, ok := any(sr).(semiring.Commutative); !ok {
		return nil
	}
	rows, rowPtr, colIdx := mask.Rows, mask.RowPtr, mask.ColIdx
	if mask.NNZ() > math.MaxInt32 {
		return nil
	}
	// next counts each column's entries, then becomes the cursor that
	// walks row j's entries as column j's are met in row order.
	next := make([]int64, rows)
	for _, j := range colIdx {
		next[j]++
	}
	for i, n := range next {
		if n != rowPtr[i+1]-rowPtr[i] {
			return nil
		}
		next[i] = rowPtr[i]
	}
	// Column j's entries are met in ascending row order, and a
	// symmetric row j holds the same indices in the same order, so the
	// cursor lands on entry (j, i) exactly when the pattern is
	// symmetric. skew sums deg(i) − deg(j) over the entries j < i.
	mirror := make([]int32, len(colIdx))
	var skew int64
	for i := range rows {
		lo, hi := rowPtr[i], rowPtr[i+1]
		for t := lo; t < hi; t++ {
			j := colIdx[t]
			u := next[j]
			if colIdx[u] != int32(i) {
				return nil
			}
			next[j] = u + 1
			mirror[u] = int32(t)
			if int(j) < i {
				skew += hi - lo - (rowPtr[j+1] - rowPtr[j])
			}
		}
	}
	// Each pair goes to the row of its higher-degree endpoint: the
	// lower triangle when higher rows have more entries, the upper
	// when lower rows do (DESIGN.md §5 measures both choices).
	upper := skew < 0
	return &symHalf{rowPtr: rowPtr, colIdx: colIdx, mirror: mirror, off: halfOffsets(rowPtr, colIdx, upper), upper: upper}
}

// halfOffsets returns the exclusive prefix of the half sizes of the
// sorted symmetric structure (rowPtr, colIdx): row i's half is its
// columns j ≥ i when upper, j ≤ i otherwise.
func halfOffsets(rowPtr []int64, colIdx []int32, upper bool) []int64 {
	rows := len(rowPtr) - 1
	off := make([]int64, rows+1)
	for i := range rows {
		row := colIdx[rowPtr[i]:rowPtr[i+1]]
		var n int
		if upper {
			at, _ := slices.BinarySearch(row, int32(i))
			n = len(row) - at
		} else {
			n, _ = slices.BinarySearch(row, int32(i)+1)
		}
		off[i+1] = off[i] + int64(n)
	}
	return off
}

// sameArrays reports whether two patterns are one structure in memory:
// the same dimensions over the same row-pointer and column arrays.
func sameArrays(x, y *sparse.Pattern) bool {
	if x == y {
		return true
	}
	if x.Rows != y.Rows || x.Cols != y.Cols || len(x.RowPtr) != len(y.RowPtr) || len(x.ColIdx) != len(y.ColIdx) {
		return false
	}
	return (len(x.RowPtr) == 0 || &x.RowPtr[0] == &y.RowPtr[0]) && (len(x.ColIdx) == 0 || &x.ColIdx[0] == &y.ColIdx[0])
}

// bytes is the memory the analysis adds to its plan: the mirror map
// and the half offsets. Its structure arrays are the plan's mask.
func (h *symHalf) bytes() int64 {
	if h == nil {
		return 0
	}
	return int64(len(h.mirror))*4 + int64(len(h.off))*8
}

// span returns the entry range [lo, hi) of row i's computed half in a
// symmetric structure whose row pointers are ptr: the mask's rowPtr, or
// a known half's output pattern's.
func (h *symHalf) span(ptr []int64, i int) (lo, hi int64) {
	n := h.off[i+1] - h.off[i]
	if h.upper {
		hi = ptr[i+1]
		return hi - n, hi
	}
	lo = ptr[i]
	return lo, lo + n
}

// bClip cuts the B rows one output row scans. For the row's q-th A
// entry (i, k), ends[q] is the index of entry (k, i) of B, whose
// structure is A's: the row scans B_k* through it, or from it when
// upper. A zero bClip scans whole rows.
type bClip struct {
	ends  []int32
	upper bool
}

// cut returns the part of the B row [lo, hi) the row's q-th A entry
// scans: all of it under a zero clip.
func (c bClip) cut(q int, lo, hi int64) (int64, int64) {
	switch {
	case c.ends == nil:
		return lo, hi
	case c.upper:
		return int64(c.ends[q]), hi
	}
	return lo, int64(c.ends[q]) + 1
}

// maskRows is a binding's view of the mask: the plan's mask rows, or,
// with half set, the computed halves of a symmetric self-product and
// the B clips that go with them. Only clip reads a known half.
type maskRows struct {
	mask *sparse.Pattern
	half *symHalf
}

// row returns the mask row (or mask half row) output row i admits.
func (m maskRows) row(i int) []int32 {
	h := m.half
	if h == nil {
		return m.mask.Row(i)
	}
	lo, hi := h.span(h.rowPtr, i)
	return h.colIdx[lo:hi]
}

// clip returns row i's B clips; zero (whole rows) for a full product.
func (m maskRows) clip(i int) bClip {
	h := m.half
	if h == nil {
		return bClip{}
	}
	return bClip{ends: h.mirror[h.rowPtr[i]:h.rowPtr[i+1]], upper: h.upper}
}

// half returns the plan's one-triangle analysis when an execution by
// no record both kinds share (ExecuteOnOpts) may use it: B shares A's
// values, which are symmetric bit for bit. Otherwise it returns nil,
// and the execution runs the full product. The values check is O(nnz)
// and runs on every such execution, since callers may change values
// in place between them, except where the caller vouches that A is
// resident (ExecOptions.Resident): its array never changes, so the
// check runs once per array (provedSymmetric).
func (p *Plan[T, S]) half(a, b *sparse.CSR[T], resident bool) *symHalf {
	h := p.sym
	if h == nil || len(a.Val) != len(b.Val) || (len(a.Val) > 0 && &a.Val[0] != &b.Val[0]) {
		return nil
	}
	resident = resident && len(a.Val) > 0
	if resident && p.symVals.Load() == &a.Val[0] {
		return h
	}
	if !mirroredValues(a.Val, h) {
		return nil
	}
	if resident {
		p.provedSymmetric(a.Val)
	}
	return h
}

// provedSymmetric remembers vals, a resident value array just proved
// symmetric, so that later executions on it skip the check (Plan.half).
// Only the last array is kept, and keeping it pins it: a values-only
// delta is a new array, which is checked once and then replaces it.
//
//mspgemm:planwrite
func (p *Plan[T, S]) provedSymmetric(vals []T) {
	p.symVals.Store(&vals[0])
}

// mirroredValues reports whether every entry of vals equals its
// transpose's bit for bit. The value types compared are the ones the
// marked semirings run over here (float64 served, int64 for the graph
// applications); any other type reports false and runs the full
// product.
func mirroredValues[T any](vals []T, h *symHalf) bool {
	switch v := any(vals).(type) {
	case []float64:
		return mirrorEqualFloat64(v, h)
	case []int64:
		return mirrorEqual(v, h)
	}
	return false
}

// mirrorEqual reports whether v[t] == v[mirror[t]] for every entry t,
// which for an integer type is equality bit for bit.
func mirrorEqual[V comparable](v []V, h *symHalf) bool {
	v = v[:len(h.mirror)]
	for t, u := range h.mirror {
		if v[t] != v[u] {
			return false
		}
	}
	return true
}

// mirrorEqualFloat64 is mirrorEqual for float64, comparing the bits:
// −0 and +0 differ, and so do NaNs with different payloads.
//
//mspgemm:hotpath
func mirrorEqualFloat64(v []float64, h *symHalf) bool {
	v = v[:len(h.mirror)]
	for t, u := range h.mirror {
		if math.Float64bits(v[t]) != math.Float64bits(v[u]) {
			return false
		}
	}
	return true
}

// mirrorPass is compact's counterpart for a one-triangle execution.
// The numeric pass left each row's computed half H_i, sorted, at
// slab[off[i]:] with counts[i] entries; output row i is H_i together
// with the transposes of the entries (j, i) of the other rows' halves,
// so the pass transposes H by counting sort, in parallel over one
// contiguous chunk of rows per worker:
//
//   - each chunk counts the off-diagonal columns of its entries;
//   - a column-wise prefix over the chunks gives chunk p's transposes
//     of column c their place after those of the chunks before it, so
//     that every output row receives its transposes in ascending order;
//   - each chunk copies its rows' halves into place and scatters their
//     transposes.
//
// In the lower triangle a row's transposes follow its own half; in the
// upper they precede it. The pass keeps compact's checkpoint name, and
// checks for cancellation before the writes, which trust the counts.
// Its work is proportional to the output and the row count, never to
// the mask.
func mirrorPass[T any](rows, cols int, h *symHalf, counts []int64, slabIdx []int32, slabVal []T, sch rowSched, es *engineScratch[T]) (*sparse.CSR[T], error) {
	if err := sch.enterPass(PassMirror); err != nil {
		return nil, err
	}
	bounds, hist := es.mirrorBufs(counts[:rows], sch.threads)
	chunks := len(bounds) - 1
	// hist holds one column histogram, then cursor row, per chunk, and
	// after them the rows' own entry counts; chunk returns chunk p's
	// row of it for the chunk starting at row lo.
	own := hist[chunks*rows:]
	for i, n := range counts[:rows] {
		own[i] = int32(n)
	}
	chunk := func(lo int) []int32 {
		p, _ := slices.BinarySearch(bounds, lo)
		return hist[p*rows : (p+1)*rows]
	}
	off := h.off
	parallel.ForEachPartition(bounds, sch.threads, sch.stats, sch.cancel, func(lo, hi, _ int) {
		hc := chunk(lo)
		clear(hc)
		for j := lo; j < hi; j++ {
			countTransposes(hc, j, slabIdx[off[j]:off[j]+int64(own[j])])
		}
	})
	if err := sch.passCanceled(PassMirror); err != nil {
		return nil, err
	}
	rowPtr := counts
	for c := range rows {
		var n int32
		for p := range chunks {
			hc := hist[p*rows:]
			n, hc[c] = n+hc[c], n
		}
		rowPtr[c] += int64(n)
	}
	parallel.PrefixSumParallel(rowPtr[:rows+1], sch.threads)
	colIdx, val := es.outBufs(rowPtr[rows])
	parallel.ForEachPartition(bounds, sch.threads, sch.stats, sch.cancel, func(lo, hi, _ int) {
		cur := chunk(lo)
		for j := lo; j < hi; j++ {
			src := slabIdx[off[j] : off[j]+int64(own[j])]
			at := rowPtr[j]
			if h.upper {
				at = rowPtr[j+1] - int64(len(src))
			}
			copy(colIdx[at:], src)
			copy(val[at:at+int64(len(src))], slabVal[off[j]:])
			scatterTransposes(h.upper, j, src, slabVal[off[j]:], rowPtr, own, cur, colIdx, val)
		}
	})
	if err := sch.passCanceled(PassMirror); err != nil {
		return nil, err
	}
	return &sparse.CSR[T]{
		Pattern: sparse.Pattern{Rows: rows, Cols: cols, RowPtr: rowPtr, ColIdx: colIdx},
		Val:     val,
	}, nil
}

// chunkRows cuts rows into at most threads contiguous chunks of
// near-equal entry counts (counts[i] entries in row i) and returns the
// chunk bounds, first 0 and last len(counts), in buf's storage.
func chunkRows(buf []int, counts []int64, threads int) []int {
	var total int64
	for _, n := range counts {
		total += n
	}
	bounds := append(buf[:0], 0)
	var sum int64
	for i, n := range counts {
		sum += n
		if len(bounds) < threads && sum*int64(threads) >= total*int64(len(bounds)) && i+1 < len(counts) {
			bounds = append(bounds, i+1)
		}
	}
	return append(bounds, len(counts))
}

// countTransposes adds row j's off-diagonal columns cols to the chunk
// histogram hc.
//
//mspgemm:hotpath
func countTransposes(hc []int32, j int, cols []int32) {
	for _, c := range cols {
		if int(c) != j {
			hc[c]++
		}
	}
}

// scatterTransposes writes the transpose (c, j) of every off-diagonal
// entry (j, c) of row j's half — columns cols, values vals — into
// output row c: after c's own half in the lower triangle, before it in
// the upper, at the chunk's cursor cur[c], which it advances. own[c]
// is row c's own entry count.
//
//mspgemm:hotpath
func scatterTransposes[T any](upper bool, j int, cols []int32, vals []T, rowPtr []int64, own, cur []int32, outIdx []int32, outVal []T) {
	vals = vals[:len(cols)]
	for q, c := range cols {
		if int(c) == j {
			continue
		}
		d := rowPtr[c] + int64(cur[c])
		if !upper {
			d += int64(own[c])
		}
		cur[c]++
		outIdx[d], outVal[d] = int32(j), vals[q]
	}
}

// copyTransposes copies each value of one row's output half, own, to
// the output position of its transpose, tpos[q] for own[q], in val. A
// diagonal entry's position is its own, and copying it is harmless.
//
//mspgemm:hotpath
func copyTransposes[T any](val, own []T, tpos []int32) {
	own = own[:len(tpos)]
	for q, d := range tpos {
		val[d] = own[q]
	}
}
