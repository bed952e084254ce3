// Package core implements the paper's masked SpGEMM algorithms: the
// push-based row-by-row family (MSA, Hash, MCA, Heap — §5) in one-phase
// and two-phase (symbolic+numeric, §6) forms, the pull-based
// inner-product algorithm (§4.1), the complemented-mask variants, and
// the SuiteSparse:GraphBLAS-style baselines used for comparison (§3,
// §8).
package core

import (
	"fmt"

	"maskedspgemm/internal/parallel"
	"maskedspgemm/internal/sparse"
)

// Algorithm selects the masked SpGEMM scheme. Names follow §8's
// evaluation: MSA, Hash, MCA, Heap (NInspect=1), HeapDot (NInspect=∞),
// Inner, plus the two baselines standing in for SS:SAXPY and SS:DOT.
type Algorithm uint8

const (
	// AlgoMSA is the push algorithm over the Masked Sparse Accumulator
	// (§5.2).
	AlgoMSA Algorithm = iota
	// Reserved: the retired epoch-reset MSA ablation (DESIGN.md §6).
	// The blank keeps every later Algorithm value — part of plan-cache
	// keys — at its old number.
	_
	// AlgoHash is the push algorithm over the open-addressing hash
	// accumulator with load factor 0.25 (§5.3).
	AlgoHash
	// AlgoMCA is the push algorithm over the novel Mask Compressed
	// Accumulator (§5.4). MCA does not support complemented masks.
	AlgoMCA
	// AlgoHeap is the heap (multi-way merge) algorithm with NInspect=1
	// (§5.5).
	AlgoHeap
	// AlgoHeapDot is the heap algorithm with NInspect=∞: every iterator
	// is merged against the whole remaining mask before being pushed
	// (§5.5, §8: "HeapDot").
	AlgoHeapDot
	// AlgoInner is the pull-based inner-product algorithm: one sparse
	// dot product per admitted mask entry, with B accessed by column
	// (§4.1).
	AlgoInner
	// AlgoSaxpyThenMask is the naive baseline of Figure 1: a full
	// unmasked Gustavson SpGEMM followed by applying the mask to the
	// output. Stands in for the saxpy-family SS:GB path the paper
	// compares against.
	AlgoSaxpyThenMask
	// AlgoDotTranspose is the dot-product baseline that, like SS:DOT as
	// described in §8.4, re-transposes B on every call before running
	// inner products.
	AlgoDotTranspose
	// AlgoHybrid is the per-row poly-algorithm — the scheme §9 lists
	// as future work, in full: every output row is bound at plan time
	// to the cheapest family on its menu (MSA, Hash, Heap, pull-based
	// Inner, or MaskedBit) under the registry's per-family cost
	// models, and consecutive rows sharing a binding execute as one run
	// (DESIGN.md §10), under plain and complemented masks alike.
	AlgoHybrid
	// AlgoMaskedBit is the push algorithm over the bitmap-state masked
	// accumulator: the MSA's state byte per column collapsed into
	// allowed/set bits plus a values array kept at the semiring zero,
	// making insert a fused add gated by one bit test (DESIGN.md §12).
	// Appended after AlgoHybrid so existing Algorithm values — part of
	// plan-cache keys — keep their numbering.
	AlgoMaskedBit
)

// The Algorithm name, the evaluation-order enumerations, and the
// capability queries (String, Algorithms, PaperAlgorithms,
// SupportsComplement) all derive from the scheme registry in
// scheme.go.

// HeapNInspect sentinel values (§5.5's NInspect parameter).
const (
	// HeapInspectDefault keeps the algorithm's own NInspect (1 for
	// AlgoHeap, ∞ for AlgoHeapDot).
	HeapInspectDefault = 0
	// HeapInspectNone pushes iterators without inspecting the mask —
	// the paper's NInspect = 0 configuration.
	HeapInspectNone = -1
	// HeapInspectAll merges each iterator against the whole remaining
	// mask before pushing — the paper's NInspect = ∞ (AlgoHeapDot's
	// default).
	HeapInspectAll = int(^uint(0) >> 1)
)

// Phases selects between the one-phase and two-phase (symbolic +
// numeric) execution strategies (§6).
type Phases uint8

const (
	// OnePhase allocates output space from the mask (nnz(C) ≤ nnz(M)
	// row-wise) or a per-row upper bound, multiplies once, and compacts.
	OnePhase Phases = iota
	// TwoPhase first runs a symbolic multiplication to size the output
	// exactly, then the numeric multiplication writes in place.
	TwoPhase
)

// String returns the suffix used in the paper's plots ("1P"/"2P").
func (p Phases) String() string {
	if p == TwoPhase {
		return "2P"
	}
	return "1P"
}

// Schedule selects how the engine's parallel row passes divide work
// among workers (DESIGN.md §9). The default, SchedAuto, lets the plan
// choose from its measured per-row cost profile.
type Schedule uint8

const (
	// SchedAuto resolves per plan from the measured row-cost skew:
	// cost-partitioned scheduling when a few rows dominate the flops
	// profile (max row cost ≫ mean), fixed-grain blocks otherwise.
	// Paths without a cost profile (plain SpGEMM, direct baselines)
	// degrade to fixed grain.
	SchedAuto Schedule = iota
	// SchedFixedGrain claims fixed-size row blocks (Options.Grain) from
	// a shared atomic counter — the original §3 dynamic scheduler,
	// blind to row cost.
	SchedFixedGrain
	// SchedCostPartition drives workers over variable-width row
	// partitions of near-equal estimated cost. The plan retains its
	// masked-flops profile as a prefix sum, and each execution cuts it
	// into partitions for its own width by binary search.
	SchedCostPartition
	// SchedWorkSteal gives each worker a contiguous deque of rows and
	// lets idle workers steal the back half of a loaded victim's
	// remaining range — absorbs skew without needing a cost profile.
	SchedWorkSteal
)

// String names the strategy ("Auto", "FixedGrain", ...).
func (s Schedule) String() string {
	switch s {
	case SchedFixedGrain:
		return "FixedGrain"
	case SchedCostPartition:
		return "CostPartition"
	case SchedWorkSteal:
		return "WorkSteal"
	}
	return "Auto"
}

// Options configures a masked multiplication.
type Options struct {
	// Algorithm picks the scheme; default AlgoMSA.
	Algorithm Algorithm
	// Phases picks 1P or 2P; default OnePhase (the paper's overall
	// winner).
	Phases Phases
	// Complement computes C = ¬M ⊙ (A·B) instead of C = M ⊙ (A·B).
	Complement bool
	// Threads is the worker count; < 1 means GOMAXPROCS, resolved at
	// each execution. Execution-only: plans never depend on the width
	// they will run at, so one cached plan serves every Threads value.
	Threads int
	// Grain is the scheduler row-block size; < 1 means
	// parallel.DefaultGrain. Used by SchedFixedGrain and SchedWorkSteal;
	// SchedCostPartition derives its variable-width blocks from the
	// plan's cost prefix instead.
	Grain int
	// Schedule picks the row-scheduling strategy; the default SchedAuto
	// chooses per plan from the measured row-cost skew (DESIGN.md §9).
	Schedule Schedule
	// CollectSchedStats records per-worker scheduler telemetry (busy
	// time, blocks claimed/stolen) on every execution, readable via
	// Executor.SchedStats. Costs two clock reads per scheduled block;
	// off by default.
	CollectSchedStats bool
	// HashLoadFactor overrides the hash accumulator load factor; ≤ 0
	// means the paper's 0.25.
	HashLoadFactor float64
	// HeapNInspect overrides NInspect for AlgoHeap/AlgoHeapDot:
	// HeapInspectDefault (0) keeps the per-algorithm default (1 for
	// Heap, ∞ for HeapDot, none for complemented heaps);
	// HeapInspectNone disables inspection (the paper's NInspect = 0);
	// positive values set the inspection window. Use with AlgoHeap for
	// the NInspect ablation.
	HeapNInspect int
	// HybridFamilies restricts AlgoHybrid's per-row selector to the
	// given accumulator families (build the set with Families); the
	// zero value means the whole menu. Families off the menu (MCA) are
	// dropped, and if nothing remains the selector falls back to MSA.
	HybridFamilies FamilySet
	// InnerGallop switches AlgoInner's dot products from two-pointer
	// merges to galloping (exponential + binary search) — profitable
	// when A rows and B columns have very different lengths. Ablation:
	// BenchmarkInnerGallop.
	InnerGallop bool
	// ReuseOutput lets Plan.Execute back the result matrix with
	// executor-owned pooled buffers, making steady-state executions
	// allocation-free. The result is then valid only until the next
	// execution on the same executor; Clone it to retain. The one-shot
	// MaskedSpGEMM path clears this flag, since its result must outlive
	// the call — callers that take ownership of a plan's result should
	// likewise leave it off.
	ReuseOutput bool
}

// SchemeName formats "Algo-1P"/"Algo-2P" as in the paper's figures.
func (o Options) SchemeName() string {
	return o.Algorithm.String() + "-" + o.Phases.String()
}

// ExecOptions are the execution-only knobs of Options: they change
// what one execution does (worker count, telemetry collection, output
// ownership) but never the per-structure analysis, so two requests
// differing only here can share a cached plan. Plan.ExecuteOnOpts
// takes them per call; plans built directly via NewPlan default to the
// values frozen in at plan time.
type ExecOptions struct {
	// Threads is this execution's worker count; < 1 means GOMAXPROCS
	// (see Options.Threads). Cost-partitioned plans derive their
	// partition bounds for this width per execution (DESIGN.md §9).
	Threads int
	// CollectSchedStats records per-worker scheduler telemetry for this
	// execution (see Options.CollectSchedStats).
	CollectSchedStats bool
	// ReuseOutput backs this execution's result with executor-owned
	// pooled buffers (see Options.ReuseOutput).
	ReuseOutput bool
	// Cancel, when non-nil, is the cooperative cancellation token this
	// execution polls at scheduler block claims and pass checkpoints: a
	// latched token stops the execution and ExecuteOnOpts returns a
	// *CanceledError. Execution-only by construction — a token never
	// affects the analysis, so it has no Options counterpart and never
	// enters plan identity. Plan.ExecuteOnCtx wires a context to this
	// token.
	Cancel *parallel.CancelToken
}

// ExecOnly extracts the execution-only fields of o — the defaults
// Plan.ExecuteOn applies when the caller does not override them per
// execution.
func (o Options) ExecOnly() ExecOptions {
	return ExecOptions{Threads: o.Threads, CollectSchedStats: o.CollectSchedStats, ReuseOutput: o.ReuseOutput}
}

// planIdentity returns o with the execution-only fields zeroed: the
// canonical form under which a PlanCache keys and builds plans, so
// requests differing only in width, telemetry, or output ownership
// converge on one cached analysis.
func (o Options) planIdentity() Options {
	o.Threads = 0
	o.CollectSchedStats = false
	o.ReuseOutput = false
	return o
}

// normalize resolves the plan-affecting defaults. Threads is left as
// given: the width is resolved per execution, never frozen into a plan.
func (o *Options) normalize() {
	if o.Grain < 1 {
		o.Grain = parallel.DefaultGrain
	}
}

// validate checks operand shapes: mask is m×n, A is m×k, B is k×n.
func validate[T any](mask *sparse.Pattern, a, b *sparse.CSR[T]) error {
	if a.Rows != mask.Rows || b.Cols != mask.Cols {
		return fmt.Errorf("core: mask is %dx%d but A·B is %dx%d", mask.Rows, mask.Cols, a.Rows, b.Cols)
	}
	if a.Cols != b.Rows {
		return fmt.Errorf("core: inner dimensions differ: A is %dx%d, B is %dx%d", a.Rows, a.Cols, b.Rows, b.Cols)
	}
	return nil
}
