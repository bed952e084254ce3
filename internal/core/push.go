package core

import (
	"maskedspgemm/internal/accum"
	"maskedspgemm/internal/semiring"
	"maskedspgemm/internal/sparse"
)

// pushAcc is the combined numeric+symbolic accumulator protocol of the
// push schemes that run two-phase; MSA and Hash satisfy it.
type pushAcc[T any] interface {
	accum.Numeric[T]
	accum.Symbolic
}

// pushRowNumeric is Algorithm 2 generalized over the accumulator: scale
// and merge the rows B_k* selected by A_i*, filtered through the mask
// row, into one output row. Each selected B row is handed to the
// accumulator whole: acc is a type parameter of pointer shape, so every
// method call on it is a dictionary call, and Scatter is where the
// masked-out products are discarded before the multiplication happens
// (§5.1), once per A entry rather than once per product. A non-zero
// clip cuts each B row at the row's own column (a half row of a
// symmetric self-product, DESIGN.md §5). A plan hit passes its known
// columns as maskRow and no outIdx (bindPushPull).
//
//mspgemm:hotpath
func pushRowNumeric[T any, A accum.Numeric[T]](acc A, maskRow []int32, aCols []int32, aVals []T, clip bClip, b *sparse.CSR[T], outIdx []int32, outVal []T) int {
	if len(maskRow) == 0 {
		// Nothing is admitted, so every product would be discarded.
		return 0
	}
	acc.Begin(maskRow)
	// Bounds-check elimination hints: aVals walks in lockstep with
	// aCols, and b.Val in lockstep with b.ColIdx, so reslicing each to
	// its partner's length lets one check per iteration cover both;
	// the two-element rowPtr window makes one check cover lo and hi.
	aVals = aVals[:len(aCols)]
	rowPtr := b.RowPtr
	colIdx := b.ColIdx
	vals := b.Val[:len(colIdx)]
	if clip.ends == nil {
		for k, col := range aCols {
			c := int(uint32(col))
			rp := rowPtr[c : c+2]
			lo, hi := rp[0], rp[1]
			acc.Scatter(aVals[k], colIdx[lo:hi], vals[lo:hi])
		}
		return acc.Gather(maskRow, outIdx, outVal)
	}
	ends := clip.ends[:len(aCols)]
	for k, col := range aCols {
		c := int(uint32(col))
		rp := rowPtr[c : c+2]
		lo, hi := rp[0], rp[1]
		if e := int64(ends[k]); clip.upper {
			lo = e
		} else {
			hi = e + 1
		}
		acc.Scatter(aVals[k], colIdx[lo:hi], vals[lo:hi])
	}
	return acc.Gather(maskRow, outIdx, outVal)
}

// pushRowSymbolic is the pattern-only pass of the same computation,
// used by the two-phase variants (§6).
//
//mspgemm:hotpath
func pushRowSymbolic[T any, A pushAcc[T]](acc A, maskRow []int32, aCols []int32, b *sparse.CSR[T]) int {
	if len(maskRow) == 0 {
		return 0
	}
	acc.BeginSymbolic(maskRow)
	rowPtr := b.RowPtr
	colIdx := b.ColIdx
	for _, col := range aCols {
		c := int(uint32(col))
		rp := rowPtr[c : c+2]
		acc.ScatterPattern(colIdx[rp[0]:rp[1]])
	}
	return acc.EndSymbolic(maskRow)
}

// pushNumericKernels builds the numeric row kernel of a push-family
// scheme over any accumulator obtained per worker from getAcc (a
// pooled-workspace getter on the plan's executor). It is the whole
// binding of a scheme that runs one-phase only.
func pushNumericKernels[T any, A accum.Numeric[T]](m maskRows, a, b *sparse.CSR[T], getAcc func(tid int) A) kernels[T] {
	return kernels[T]{
		numeric: func(tid, i int, outIdx []int32, outVal []T) int {
			return pushRowNumeric(getAcc(tid), m.row(i), a.Row(i), a.RowVals(i), m.clip(i), b, outIdx, outVal)
		},
	}
}

// pushKernels is pushNumericKernels plus the symbolic row kernel of a
// push scheme that runs two-phase.
func pushKernels[T any, A pushAcc[T]](m maskRows, a, b *sparse.CSR[T], getAcc func(tid int) A) kernels[T] {
	k := pushNumericKernels(m, a, b, getAcc)
	k.symbolic = func(tid, i int) int {
		return pushRowSymbolic[T](getAcc(tid), m.row(i), a.Row(i), b)
	}
	return k
}

// servedKernels binds the float64 kernels of served when the plan's
// semiring is semiring.PlusTimes[float64], the one the server runs
// (DESIGN.md §12, "The served semiring, specialised"). That type check is
// the only one: it runs once per binding, and the bound kernels carry no
// branch on the semiring. getAcc is the generic binder's accumulator
// getter; under PlusTimes[float64] its type is GF, the getter served
// wraps. ok is false for every other semiring, whose binder then builds
// its generic kernels. m is the mask side served binds to: a maskRows
// for the plain kernels, the mask itself for the complemented ones.
func servedKernels[T any, S semiring.Semiring[T], M, G, GF any](p *Plan[T, S], m M, a, b *sparse.CSR[T], getAcc G, served func(m M, a, b *sparse.CSR[float64], getAcc GF) kernels[float64]) (k kernels[T], ok bool) {
	if _, ok := any(p.sr).(accum.PlusTimes64); !ok {
		return k, false
	}
	// S is PlusTimes[float64], so T is float64 and these assertions hold.
	kf := served(m, any(a).(*sparse.CSR[float64]), any(b).(*sparse.CSR[float64]), any(getAcc).(GF))
	return any(kf).(kernels[T]), true
}

// bindMSA registers the MSA scheme (§5.2).
func bindMSA[T any, S semiring.Semiring[T]](p *Plan[T, S], e *Executor[T, S], a, b *sparse.CSR[T], h *symHalf) kernels[T] {
	exec, ncols, m := e, b.Cols, maskRows{p.mask, h}
	getAcc := func(tid int) *accum.MSA[T, S] { return exec.worker(tid).MSA(ncols) }
	if k, ok := servedKernels(p, m, a, b, getAcc, msaPlusTimesKernels); ok {
		return k
	}
	return pushKernels(m, a, b, getAcc)
}

// msaPlusTimesKernels is MSA's row kernels over the served semiring.
// The numeric kernel picks each row's scatter loop with msaDenseRow.
func msaPlusTimesKernels(m maskRows, a, b *sparse.CSR[float64], getAcc func(tid int) *accum.MSA[float64, accum.PlusTimes64]) kernels[float64] {
	k := pushKernels(m, a, b, func(tid int) accum.MSAPlusTimes {
		return accum.MSAPlusTimes{MSA: getAcc(tid)}
	})
	k.numeric = func(tid, i int, outIdx []int32, outVal []float64) int {
		maskRow, aCols, clip := m.row(i), a.Row(i), m.clip(i)
		acc := accum.MSAPlusTimes{MSA: getAcc(tid), Dense: msaDenseRow(maskRow, aCols, clip, b.RowPtr, b.Cols)}
		return pushRowNumeric(acc, maskRow, aCols, a.RowVals(i), clip, b, outIdx, outVal)
	}
	return k
}

// The dense-row rule of MSAPlusTimes (DESIGN.md §12, "Dense-mask rows
// without the branch"). Both ratios were measured with
// BenchmarkScatterPlusTimes.
const (
	// msaDenseRatio: a dense row's mask holds at least
	// ncols/msaDenseRatio entries, so that the share of scanned entries
	// it admits is high enough for the sparse loop's test to
	// mispredict.
	msaDenseRatio = 64
	// msaScanRatio: a dense row scans at least msaScanRatio B entries
	// per mask entry, which pays for the slot and value stores the dense
	// loop's Begin and Gather add per mask entry.
	msaScanRatio = 4
)

// msaDenseRow reports whether the row with mask row maskRow, A
// columns aCols and B clips clip runs MSAPlusTimes' dense loop over B,
// whose row pointers are bRowPtr and width ncols. It counts the row's
// scanned entries only once the mask is dense enough.
//
//mspgemm:hotpath
func msaDenseRow(maskRow, aCols []int32, clip bClip, bRowPtr []int64, ncols int) bool {
	if len(maskRow)*msaDenseRatio < ncols {
		return false
	}
	return rowScan(aCols, clip, bRowPtr) >= msaScanRatio*int64(len(maskRow))
}

// rowScan returns the number of B entries a row with A columns aCols
// and B clips clip scans: Σ nnz(B_k*) over its A entries, each B row
// cut by clip.
//
//mspgemm:hotpath
func rowScan(aCols []int32, clip bClip, bRowPtr []int64) int64 {
	if clip.ends == nil {
		return rowGen(aCols, bRowPtr)
	}
	var scan int64
	ends := clip.ends[:len(aCols)]
	for k, col := range aCols {
		c := int(uint32(col))
		rp := bRowPtr[c : c+2]
		if e := int64(ends[k]); clip.upper {
			scan += rp[1] - e
		} else {
			scan += e + 1 - rp[0]
		}
	}
	return scan
}

// rowGen returns Σ nnz(B_k*) over the A columns aCols, given B's row
// pointers bRowPtr: the B entries a row scans with no clips, which is
// the Gustavson flops of the row and the §5.2 population bound of a
// complemented row. It is small enough to inline into the per-row
// kernels that call it.
//
//mspgemm:hotpath
func rowGen(aCols []int32, bRowPtr []int64) int64 {
	var gen int64
	for _, col := range aCols {
		c := int(uint32(col))
		rp := bRowPtr[c : c+2]
		gen += rp[1] - rp[0]
	}
	return gen
}

// bindMaskedBit registers the bitmap-state MSA variant (DESIGN.md
// §12). It is not a paper scheme, so it binds a numeric kernel only.
func bindMaskedBit[T any, S semiring.Semiring[T]](p *Plan[T, S], e *Executor[T, S], a, b *sparse.CSR[T], h *symHalf) kernels[T] {
	exec, ncols, m := e, b.Cols, maskRows{p.mask, h}
	getAcc := func(tid int) *accum.MaskedBit[T, S] { return exec.worker(tid).MaskedBit(ncols) }
	if k, ok := servedKernels(p, m, a, b, getAcc, maskedBitPlusTimesKernels); ok {
		return k
	}
	return pushNumericKernels(m, a, b, getAcc)
}

// maskedBitPlusTimesKernels is MaskedBit's row kernel over the served
// semiring.
func maskedBitPlusTimesKernels(m maskRows, a, b *sparse.CSR[float64], getAcc func(tid int) *accum.MaskedBit[float64, accum.PlusTimes64]) kernels[float64] {
	return pushNumericKernels(m, a, b, func(tid int) accum.MaskedBitPlusTimes {
		return accum.MaskedBitPlusTimes{MaskedBit: getAcc(tid)}
	})
}

// bindHash registers the hash scheme (§5.3). Begin sizes each
// worker's table by the row's mask.
func bindHash[T any, S semiring.Semiring[T]](p *Plan[T, S], e *Executor[T, S], a, b *sparse.CSR[T], h *symHalf) kernels[T] {
	return pushKernels(maskRows{p.mask, h}, a, b, func(tid int) *accum.Hash[T, S] {
		return e.worker(tid).Hash()
	})
}
