package core

import (
	"fmt"

	"maskedspgemm/internal/semiring"
	"maskedspgemm/internal/sparse"
)

// The scheme registry: one table entry per algorithm, carrying the
// scheme's display name, its capability set, and (through the generic
// kernel registry below) its symbolic/numeric row kernels. Everything
// that used to be a hand-maintained switch — dispatch, capability
// errors, SupportsComplement, Algorithms() — derives from this table,
// so adding a scheme means adding one SchemeInfo entry plus one
// kernelRegistry entry and nothing else can drift.

// SchemeInfo is the static description of one registered algorithm.
type SchemeInfo struct {
	// Algo is the registered selector.
	Algo Algorithm
	// Name is the scheme name as used in the paper's plots.
	Name string
	// Paper marks the six schemes the paper proposes/evaluates as
	// "ours" (§8: Inner, MSA, Hash, MCA, Heap, HeapDot).
	Paper bool
	// Complement reports complemented-mask support (§5.2, §8.4).
	Complement bool
	// ComplementNote is the documented error returned when Complement
	// is false and a complemented mask is requested.
	ComplementNote string
	// NeedsCSC marks schemes whose plain-mask execution pulls from B by
	// column and therefore needs B's CSC transpose prepared (§4.1).
	NeedsCSC bool
	// ComplementNeedsCSC is NeedsCSC for the complemented-mask path.
	ComplementNeedsCSC bool
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
		NeedsCSC: true, ComplementNeedsCSC: true, RowCost: pullRowCost},
	{Algo: AlgoSaxpyThenMask, Name: "SS:SAXPY*", Complement: true},
	{Algo: AlgoDotTranspose, Name: "SS:DOT*", Complement: true,
		NeedsCSC: true, ComplementNeedsCSC: true, TransposePerExecute: true},
	// Hybrid's NeedsCSC flags are the static "may pull" capability; the
	// plan refines them to whether any row actually bound FamPull.
	{Algo: AlgoHybrid, Name: "Hybrid", Complement: true,
		NeedsCSC: true, ComplementNeedsCSC: true},
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
// kernel (always present) and one symbolic row kernel for the
// two-phase strategy. Poly plans (AlgoHybrid) leave those nil and
// instead dispatch per run: runEnds/runFam mirror the plan's run
// encoding (DESIGN.md §10) and numFam/symFam hold one kernel pair per
// family actually bound (nil slots for unused families). The engine
// drivers split row blocks at run boundaries, so the family lookup is
// paid once per run ∩ block, never per row.
type kernels[T any] struct {
	numeric  rowNumericFn[T]
	symbolic rowSymbolicFn

	runEnds []int32
	runFam  []uint8
	numFam  []rowNumericFn[T]
	symFam  []rowSymbolicFn
}

// kernelBinder closes a scheme's row kernels over one (plan, executor,
// A, B) binding. Binders read precomputed analysis (CSC structure,
// hybrid row decisions, heap NInspect) from the immutable plan and
// draw all mutable scratch — accumulators, the refreshed CSC values of
// B — from the executor, so one plan can be bound on many executors.
type kernelBinder[T any, S semiring.Semiring[T]] func(p *Plan[T, S], e *Executor[T, S], a, b *sparse.CSR[T]) kernels[T]

// schemeKernels is the generic half of a registry entry: how to build
// the scheme's kernels for plain and complemented masks, or — for
// schemes that do not decompose into row kernels (SaxpyThenMask runs a
// full unmasked SpGEMM first) — a direct whole-product executor run at
// the execution's resolved width.
type schemeKernels[T any, S semiring.Semiring[T]] struct {
	plain      kernelBinder[T, S]
	complement kernelBinder[T, S]
	direct     func(p *Plan[T, S], a, b *sparse.CSR[T], threads int) (*sparse.CSR[T], error)
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
