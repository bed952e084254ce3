package core

import (
	"fmt"

	"maskedspgemm/internal/accum"
	"maskedspgemm/internal/faultinject"
	"maskedspgemm/internal/semiring"
	"maskedspgemm/internal/sparse"
)

// The scheme registry: one table entry per algorithm, carrying the
// scheme's display name, its capability set, and (through the generic
// kernel registry below) its row kernels. Everything that used to be a
// hand-maintained switch — dispatch, capability errors,
// SupportsComplement, Algorithms() — derives from this table,
// so adding a scheme means adding one SchemeInfo entry plus one
// kernelRegistry entry and nothing else can drift.

// SchemeInfo is the static description of one registered algorithm.
type SchemeInfo struct {
	// Algo is the registered selector.
	Algo Algorithm
	// Name is the scheme name as used in the paper's plots.
	Name string
	// Paper marks the six schemes the paper proposes/evaluates as
	// "ours" (§8: Inner, MSA, Hash, MCA, Heap, HeapDot). Only these run
	// TwoPhase: the paper's §6 one-phase/two-phase comparison covers its
	// own schemes, and every other scheme runs one-phase.
	Paper bool
	// Complement reports complemented-mask support (§5.2, §8.4).
	Complement bool
	// ComplementNote is the documented error returned when Complement
	// is false and a complemented mask is requested.
	ComplementNote string
	// NeedsCSC marks schemes that pull from B by column and therefore
	// need B's CSC transpose prepared (§4.1), under either mask mode.
	NeedsCSC bool
	// TransposePerExecute forces the CSC view to be rebuilt on every
	// execution instead of being cached by the plan — the SS:DOT
	// baseline's defining per-call overhead (§8.4).
	TransposePerExecute bool
	// RowCost estimates one output row's execution cost for this
	// scheme in multiply-add-flavored units (DESIGN.md §10). A non-nil
	// model puts the scheme's family on AlgoHybrid's per-row menu
	// (hybridMenu); nil keeps it a standalone scheme.
	RowCost func(ctx RowCostContext) float64
}

// schemeTable lists every implemented scheme in evaluation order. The
// order is observable through Algorithms()/PaperAlgorithms().
var schemeTable = []SchemeInfo{
	{Algo: AlgoMSA, Name: "MSA", Paper: true, Complement: true, RowCost: msaRowCost},
	// The bitmap-state MSA variant (DESIGN.md §12); not a paper scheme.
	{Algo: AlgoMaskedBit, Name: "MaskedBit", Complement: true, RowCost: maskedBitRowCost},
	{Algo: AlgoHash, Name: "Hash", Paper: true, Complement: true, RowCost: hashRowCost},
	{Algo: AlgoMCA, Name: "MCA", Paper: true,
		ComplementNote: "core: MCA does not support complemented masks (§5.4)"},
	{Algo: AlgoHeap, Name: "Heap", Paper: true, Complement: true, RowCost: heapRowCost},
	{Algo: AlgoHeapDot, Name: "HeapDot", Paper: true, Complement: true},
	{Algo: AlgoInner, Name: "Inner", Paper: true, Complement: true,
		NeedsCSC: true, RowCost: pullRowCost},
	{Algo: AlgoSaxpyThenMask, Name: "SS:SAXPY*", Complement: true},
	{Algo: AlgoDotTranspose, Name: "SS:DOT*", Complement: true,
		NeedsCSC: true, TransposePerExecute: true},
	// Hybrid's NeedsCSC flag is the static "may pull" capability; the
	// plan refines it to whether any row actually bound FamPull.
	{Algo: AlgoHybrid, Name: "Hybrid", Complement: true, NeedsCSC: true},
}

// LookupScheme returns the registry entry for an algorithm.
func LookupScheme(a Algorithm) (SchemeInfo, bool) {
	for _, s := range schemeTable {
		if s.Algo == a {
			return s, true
		}
	}
	return SchemeInfo{}, false
}

// Schemes returns a copy of the full registry in evaluation order.
func Schemes() []SchemeInfo {
	return append([]SchemeInfo(nil), schemeTable...)
}

// String returns the scheme name as used in the paper's plots.
func (a Algorithm) String() string {
	if s, ok := LookupScheme(a); ok {
		return s.Name
	}
	return fmt.Sprintf("Algorithm(%d)", uint8(a))
}

// Algorithms lists every registered scheme in evaluation order.
func Algorithms() []Algorithm {
	out := make([]Algorithm, len(schemeTable))
	for i, s := range schemeTable {
		out[i] = s.Algo
	}
	return out
}

// PaperAlgorithms lists the schemes the paper proposes/evaluates as
// "ours" (§8).
func PaperAlgorithms() []Algorithm {
	var out []Algorithm
	for _, s := range schemeTable {
		if s.Paper {
			out = append(out, s.Algo)
		}
	}
	return out
}

// SupportsComplement reports whether the algorithm implements
// complemented masks, straight from the registry.
func SupportsComplement(a Algorithm) bool {
	s, ok := LookupScheme(a)
	return ok && s.Complement
}

// kernels is one bound execution. Uniform plans carry one numeric row
// kernel (always present) and, for the schemes that run TwoPhase, one
// symbolic row kernel. Poly plans (AlgoHybrid, one-phase only) leave
// those nil and instead dispatch per run: runEnds/runFam mirror the
// plan's run encoding (DESIGN.md §10) and numFam holds the numeric
// kernel of each family actually bound (nil slots for unused
// families). The engine drivers split row blocks at run boundaries, so
// the family lookup is paid once per run ∩ block, never per row. A
// plan hit binds one rowsHitFn instead (bindHit).
type kernels[T any] struct {
	numeric  rowNumericFn[T]
	symbolic rowSymbolicFn

	runEnds []int32
	runFam  []uint8
	numFam  []rowNumericFn[T]
}

// kernelBinder closes a scheme's row kernels over one (plan, executor,
// A, B) binding. Binders read precomputed analysis (CSC structure,
// hybrid row decisions, heap NInspect) from the immutable plan and
// draw all mutable scratch — accumulators, the refreshed CSC values of
// B — from the executor, so one plan can be bound on many executors.
// A non-nil h binds the plain-mask kernels to the computed halves of a
// symmetric self-product (DESIGN.md §5); complement binders never get
// one.
type kernelBinder[T any, S semiring.Semiring[T]] func(p *Plan[T, S], e *Executor[T, S], a, b *sparse.CSR[T], h *symHalf) kernels[T]

// schemeKernels is the generic half of a registry entry: how to build
// the scheme's kernels for plain and complemented masks, or — for
// schemes that do not decompose into row kernels (SaxpyThenMask runs a
// full unmasked SpGEMM first) — a direct whole-product executor run
// under the execution's resolved width and cancel token.
type schemeKernels[T any, S semiring.Semiring[T]] struct {
	plain      kernelBinder[T, S]
	complement kernelBinder[T, S]
	direct     func(p *Plan[T, S], a, b *sparse.CSR[T], eo ExecOptions) (*sparse.CSR[T], error)
}

// kernelsForAlgo returns one scheme's kernel binders for a (T, S)
// instantiation. Go has no generic package-level variables, so this
// switch plays the role of the generic half of the registry; it is
// allocation-free, which matters because NewPlan runs once per
// iteration in the k-truss/betweenness loops. The zero value (no
// kernels at all) flags an algorithm missing from the switch —
// TestSchemeRegistryConsistency catches any schemeTable entry that
// hits it.
func kernelsForAlgo[T any, S semiring.Semiring[T]](a Algorithm) schemeKernels[T, S] {
	switch a {
	case AlgoMSA:
		return schemeKernels[T, S]{plain: bindMSA[T, S], complement: bindMSAC[T, S]}
	case AlgoMaskedBit:
		return schemeKernels[T, S]{plain: bindMaskedBit[T, S], complement: bindMaskedBitC[T, S]}
	case AlgoHash:
		return schemeKernels[T, S]{plain: bindHash[T, S], complement: bindHashC[T, S]}
	case AlgoMCA:
		return schemeKernels[T, S]{plain: bindMCA[T, S]}
	case AlgoHeap, AlgoHeapDot:
		return schemeKernels[T, S]{plain: bindHeap[T, S], complement: bindHeapComplement[T, S]}
	case AlgoInner, AlgoDotTranspose:
		// SS:DOT* shares Inner's kernels; its per-call transpose cost
		// comes from SchemeInfo.TransposePerExecute.
		return schemeKernels[T, S]{plain: bindInner[T, S], complement: bindInnerComplement[T, S]}
	case AlgoSaxpyThenMask:
		return schemeKernels[T, S]{direct: directSaxpyThenMask[T, S]}
	case AlgoHybrid:
		return schemeKernels[T, S]{plain: bindHybrid[T, S], complement: bindHybrid[T, S]}
	}
	return schemeKernels[T, S]{}
}

// binder returns the scheme's kernel binder for the given mask mode.
func (k schemeKernels[T, S]) binder(complement bool) kernelBinder[T, S] {
	if complement {
		return k.complement
	}
	return k.plain
}

// bindHit binds p's kernel for a hit by the record rec to (a, b) on e.
// Only plans over the served semiring publish records (ownedBy), so it
// asserts the float64 types once and binds the kernel of rec's tier: a
// record with a product schedule replays it on every row (bindReplay),
// one with a dot bitmap walks it on every row (bindDots), and any other
// runs push and Pull under the plan's binding (bindPushPull).
func bindHit[T any, S semiring.Semiring[T]](p *Plan[T, S], e *Executor[T, S], a, b *sparse.CSR[T], rec *hitRecord) rowsHitFn[T] {
	// S is PlusTimes[float64], so T is float64 and these assertions hold.
	af, bf := any(a).(*sparse.CSR[float64]), any(b).(*sparse.CSR[float64])
	ef := any(e).(*Executor[float64, accum.PlusTimes64])
	var k rowsHitFn[float64]
	switch rec.tier() {
	case tierReplay:
		k = bindReplay(af, bf, rec)
	case tierBitmap:
		k = bindDots(ef, af, rec)
	default:
		k = bindPushPull(any(p).(*Plan[float64, accum.PlusTimes64]), ef, af, bf, rec)
	}
	return any(k).(rowsHitFn[T])
}

// bindPushPull binds the push/Pull kernel of a plan hit by the record
// rec, which keeps neither a schedule nor a bitmap. Every known column
// is one a product lands on and the mask admits, so the complement no
// longer matters. The kernel walks the runs of the plan's binding: a
// Pull run dots each row's known columns (pullRowKnown), and any other
// runs push, MSA over the known columns (accum.MSAKnownPlusTimes), as
// does a uniform plan unless its scheme pulls. A row with no computed
// entry runs no kernel. A push row trusts its known columns; a Pull row
// panics errPatternChanged on one its dot finds no product on.
func bindPushPull(p *Plan[float64, accum.PlusTimes64], e *Executor[float64, accum.PlusTimes64], a, b *sparse.CSR[float64], rec *hitRecord) rowsHitFn[float64] {
	rb, m, colIdx := &p.rowBinding, maskRows{p.mask, rec.half}, rec.pat.colIdx
	return func(lo, hi, tid int, val []float64, fi *faultinject.Hooks) {
		w := e.worker(tid)
		for lo < hi {
			seg, f := runSegment(rb.runEnds, rb.runFam, lo, hi)
			pull := f == int(FamPull) || f < 0 && p.info.NeedsCSC
			for i := lo; i < seg; i++ {
				if fi != nil {
					fi.Row(faultinject.PassNumeric, i)
				}
				at, end := rec.span(i)
				if at == end {
					continue
				}
				cols, out, aCols, aVals := colIdx[at:end], val[at:end], a.Row(i), a.RowVals(i)
				if pull {
					pullRowKnown(w.Pull(a.Cols), aCols, aVals, e.bt, cols, out)
				} else {
					known := accum.MSAKnownPlusTimes{MSAPlusTimes: accum.MSAPlusTimes{MSA: w.MSA(b.Cols), Dense: true}}
					pushRowNumeric(known, cols, aCols, aVals, m.clip(i), b, nil, out)
				}
			}
			lo = seg
		}
	}
}
