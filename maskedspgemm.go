// Package maskedspgemm is a parallel masked sparse matrix-matrix
// multiplication library, a from-scratch Go reproduction of
// "Parallel Algorithms for Masked Sparse Matrix-Matrix Products"
// (Milaković, Selvitopi, Nisa, Budimlić, Buluç — PPoPP 2022).
//
// Masked SpGEMM computes C = M ⊙ (A·B): the product of two sparse
// matrices restricted to the nonzero pattern of a mask M (or to its
// complement). The library implements the paper's four accumulator
// families (MSA, Hash, MCA, Heap), the pull-based inner-product
// algorithm, one-phase and two-phase execution, and complemented
// masks, plus the GraphBLAS-style applications built on them:
// triangle counting, k-truss, and betweenness centrality.
//
// This package is the convenience facade over the float64 arithmetic
// semiring. The full generic API (custom element types and semirings)
// lives in the internal packages and is exercised via the application
// wrappers here; see DESIGN.md for the architecture.
//
// Quick start:
//
//	a := maskedspgemm.RMAT(12, 16, 1)           // 4096-vertex graph
//	c, err := maskedspgemm.Multiply(a.PatternView(), a, a,
//	    maskedspgemm.WithAlgorithm(maskedspgemm.MSA))
package maskedspgemm

import (
	"maskedspgemm/internal/core"
	"maskedspgemm/internal/gen"
	"maskedspgemm/internal/graph"
	"maskedspgemm/internal/mtx"
	"maskedspgemm/internal/parallel"
	"maskedspgemm/internal/semiring"
	"maskedspgemm/internal/sparse"
)

// Matrix is a float64 CSR sparse matrix.
type Matrix = sparse.CSR[float64]

// Pattern is a sparsity structure; masks are Patterns.
type Pattern = sparse.Pattern

// Algorithm selects a masked SpGEMM scheme.
type Algorithm = core.Algorithm

// Exported algorithm selectors (see the paper's §5 and §8 for the
// trade-offs; MSA one-phase is the best all-rounder).
const (
	// MSA is the Masked Sparse Accumulator scheme (§5.2).
	MSA = core.AlgoMSA
	// Hash is the hash-accumulator scheme (§5.3).
	Hash = core.AlgoHash
	// MCA is the Mask Compressed Accumulator scheme (§5.4). No
	// complemented-mask support.
	MCA = core.AlgoMCA
	// Heap is the multi-way merge scheme with NInspect=1 (§5.5).
	Heap = core.AlgoHeap
	// HeapDot is the multi-way merge scheme with NInspect=∞ (§5.5).
	HeapDot = core.AlgoHeapDot
	// Inner is the pull-based dot-product scheme (§4.1).
	Inner = core.AlgoInner
	// SaxpyThenMask is the unmasked-multiply-then-filter baseline.
	SaxpyThenMask = core.AlgoSaxpyThenMask
	// DotTranspose is the transpose-per-call dot baseline.
	DotTranspose = core.AlgoDotTranspose
	// Hybrid is the per-row poly-algorithm (the paper's §9 future-work
	// scheme, in full): every output row is bound at plan time to the
	// cheapest family on its menu — MSA, MaskedBit, Hash, Heap, or
	// pull-based Inner — under per-family cost models, and consecutive
	// rows sharing a binding execute as one run, under plain and
	// complemented masks alike. Restrict the menu with
	// WithHybridFamilies.
	Hybrid = core.AlgoHybrid
	// MaskedBit is the bitmap-state MSA variant (DESIGN.md §12): the
	// state byte per column collapsed into allowed/set bits over a
	// values array kept at the semiring zero, making insert a fused
	// add gated by one bit test. Fastest where mask rows are dense.
	MaskedBit = core.AlgoMaskedBit
)

// Family identifies one accumulator family the Hybrid per-row
// selector can bind (DESIGN.md §10); see the Family* constants.
type Family = core.Family

// Exported family selectors for WithHybridFamilies.
const (
	// FamilyMSA is the masked sparse accumulator family (§5.2).
	FamilyMSA = core.FamMSA
	// FamilyHash is the hash accumulator family (§5.3).
	FamilyHash = core.FamHash
	// FamilyMCA is the mask compressed accumulator family (§5.4); it is
	// off the Hybrid menu, so restricting to it alone binds FamilyMSA.
	FamilyMCA = core.FamMCA
	// FamilyHeap is the multi-way merge family (§5.5).
	FamilyHeap = core.FamHeap
	// FamilyPull is the pull-based inner-product algorithm (§4.1).
	FamilyPull = core.FamPull
	// FamilyMaskedBit is the bitmap-state accumulator family
	// (DESIGN.md §12); preferred where mask rows are dense relative to
	// the flops that land on them.
	FamilyMaskedBit = core.FamMaskedBit
)

// Option configures Multiply.
type Option func(*core.Options)

// WithAlgorithm picks the scheme (default MSA).
func WithAlgorithm(a Algorithm) Option {
	return func(o *core.Options) { o.Algorithm = a }
}

// WithTwoPhase enables the symbolic+numeric strategy (§6); the default
// is one-phase, the paper's usual winner. Only the paper's six schemes
// run it: with MaskedBit, Hybrid or a baseline, Multiply returns an
// error naming the scheme.
func WithTwoPhase() Option {
	return func(o *core.Options) { o.Phases = core.TwoPhase }
}

// WithComplement computes C = ¬M ⊙ (A·B).
func WithComplement() Option {
	return func(o *core.Options) { o.Complement = true }
}

// WithHybridFamilies restricts the Hybrid per-row selector to the
// given accumulator families; the default is the whole menu. Families
// off the menu (FamilyMCA) are dropped, and an empty result falls back
// to FamilyMSA.
func WithHybridFamilies(fams ...Family) Option {
	return func(o *core.Options) { o.HybridFamilies = core.Families(fams...) }
}

// WithThreads pins the worker count (default GOMAXPROCS, read at each
// execution). The width is an execution choice, not part of a plan: a
// Session serves every width of one structure from one cached plan.
func WithThreads(threads int) Option {
	return func(o *core.Options) { o.Threads = threads }
}

// SchedStats is per-execution scheduler telemetry: one entry per
// worker with busy time and blocks claimed, plus aggregate accessors
// (Busy, Imbalance).
type SchedStats = parallel.SchedStats

// WithSchedStats records per-worker scheduler telemetry on every
// execution (two clock reads per scheduled row block), readable via
// Plan.SchedStats or Executor.SchedStats. Session multiplies ignore
// it.
func WithSchedStats() Option {
	return func(o *core.Options) { o.CollectSchedStats = true }
}

// buildOptions folds Option values over the defaults.
func buildOptions(opts []Option) core.Options {
	var o core.Options
	for _, f := range opts {
		f(&o)
	}
	return o
}

// WithReuseOutput backs Plan.Execute results with executor-owned
// pooled buffers: steady-state executions allocate nothing, but each
// result is valid only until the next execution on the same executor
// (Clone it to retain). Iterative consumers that fold the product into
// something else immediately — k-truss support counting, betweenness
// dependency accumulation — are the intended users.
func WithReuseOutput() Option {
	return func(o *core.Options) { o.ReuseOutput = true }
}

// ErrCanceled matches every error a cooperatively-canceled execution
// returns: errors.Is(err, ErrCanceled) is true exactly when a
// MultiplyCtx context was canceled (or an execution-layer cancel token
// latched) before the product completed. The concrete error is a
// *CanceledError naming the interrupted pass.
var ErrCanceled = core.ErrCanceled

// CanceledError reports an execution stopped by cooperative
// cancellation, naming the interrupted pass ("symbolic", "numeric" or
// "compact"). Matches ErrCanceled under errors.Is.
type CanceledError = core.CanceledError

// KernelPanicError reports a panic recovered inside a parallel kernel
// worker: the execution was contained (sibling workers quiesced, the
// process and session stay serviceable) and the poisoned executor was
// discarded. Family names the scheme ("MSA-1P" style), Worker the
// panicking worker index (-1 when serial), and Stack the captured
// goroutine stack.
type KernelPanicError = core.KernelPanicError

// Multiply computes C = M ⊙ (A·B) over the float64 arithmetic
// semiring. mask is m×n, a is m×k, b is k×n. Output rows are sorted.
//
// Multiply is the one-shot form: it plans, executes once, and discards
// the analysis. Callers repeating products over the same structure
// (iterative algorithms, served query traffic) should use NewPlan.
func Multiply(mask *Pattern, a, b *Matrix, opts ...Option) (*Matrix, error) {
	return core.MaskedSpGEMM(semiring.PlusTimes[float64]{}, mask, a, b, buildOptions(opts))
}

// Plan is a reusable masked multiplication: the per-structure analysis
// (validation, slab layout, B's transpose for pull-based schemes,
// hybrid row decisions) is done once by NewPlan, and Execute then runs
// only the numeric work, reusing pooled per-worker workspaces so
// repeated executions allocate approximately nothing after warm-up.
// Plans and executors are not safe for concurrent use.
type Plan struct {
	p *core.Plan[float64, semiring.PlusTimes[float64]]
}

// NewPlan analyzes C = M ⊙ (A·B) for the selected scheme and returns a
// plan bound to the operands' structure. Execute accepts any matrices
// with that structure, so values may change between executions.
func NewPlan(mask *Pattern, a, b *Matrix, opts ...Option) (*Plan, error) {
	return newPlan(nil, mask, a, b, opts)
}

// Execute runs the planned product on (a, b), which must match the
// planned structure. With WithReuseOutput the result aliases pooled
// buffers and is valid only until the next execution on this plan's
// executor.
func (p *Plan) Execute(a, b *Matrix) (*Matrix, error) {
	return p.p.Execute(a, b)
}

// SchedStats returns the scheduler telemetry of the plan's most recent
// execution run under WithSchedStats.
func (p *Plan) SchedStats() SchedStats {
	return p.p.SchedStats()
}

// Executor owns the pooled per-worker workspaces (accumulators, slab
// and output buffers) behind plan execution. Sharing one executor
// across plans — as the k-truss and betweenness loops do internally —
// lets workloads whose structure changes every iteration still reuse
// all scratch memory. An Executor must not be used concurrently.
type Executor struct {
	e *core.Executor[float64, semiring.PlusTimes[float64]]
}

// NewExecutor returns an empty executor over the float64 arithmetic
// semiring.
func NewExecutor() *Executor {
	return &Executor{e: core.NewExecutor[float64](semiring.PlusTimes[float64]{})}
}

// SchedStats returns the scheduler telemetry of the most recent
// execution on this executor that ran under WithSchedStats.
func (e *Executor) SchedStats() SchedStats {
	return e.e.SchedStats()
}

// NewPlan is NewPlan drawing workspaces from this executor instead of
// a private one.
func (e *Executor) NewPlan(mask *Pattern, a, b *Matrix, opts ...Option) (*Plan, error) {
	return newPlan(e.e, mask, a, b, opts)
}

func newPlan(exec *core.Executor[float64, semiring.PlusTimes[float64]], mask *Pattern, a, b *Matrix, opts []Option) (*Plan, error) {
	p, err := core.NewPlan(semiring.PlusTimes[float64]{}, mask, a, b, buildOptions(opts), exec)
	if err != nil {
		return nil, err
	}
	return &Plan{p: p}, nil
}

// MultiplyUnmasked computes the plain product A·B (the Gustavson hash
// SpGEMM substrate).
func MultiplyUnmasked(a, b *Matrix, opts ...Option) (*Matrix, error) {
	return core.SpGEMM(semiring.PlusTimes[float64]{}, a, b, buildOptions(opts))
}

// TriangleCount returns the number of triangles in the undirected
// graph (symmetric adjacency, zero diagonal), computed as
// sum(L ⊙ (L·L)) after degree relabeling (§8.2).
func TriangleCount(a *Matrix, opts ...Option) (int64, error) {
	return graph.TriangleCount(a, buildOptions(opts))
}

// KTruss returns the adjacency matrix of the graph's k-truss (§8.3).
func KTruss(a *Matrix, k int, opts ...Option) (*Matrix, error) {
	res, err := graph.KTruss(a, k, buildOptions(opts))
	if err != nil {
		return nil, err
	}
	return sparse.Apply(res.Truss, func(v int64) float64 { return float64(v) }), nil
}

// Betweenness returns per-vertex betweenness-centrality dependencies
// accumulated over the given source batch (§8.4).
func Betweenness(a *Matrix, sources []int32, opts ...Option) ([]float64, error) {
	res, err := graph.Betweenness(a, sources, buildOptions(opts))
	if err != nil {
		return nil, err
	}
	return res.Centrality, nil
}

// BFSLevels runs direction-optimized breadth-first search (push =
// complemented masked SpVM, pull = frontier intersection; §4's
// motivating application) and returns each vertex's depth, -1 when
// unreached.
func BFSLevels(a *Matrix, sources []int32) ([]int32, error) {
	res, err := graph.BFS(a, sources, graph.BFSAuto)
	if err != nil {
		return nil, err
	}
	return res.Level, nil
}

// RMAT generates a symmetrized Graph500-parameter R-MAT graph with
// 2^scale vertices.
func RMAT(scale, edgeFactor int, seed uint64) *Matrix {
	return gen.RMATSymmetric(gen.RMATConfig{Scale: scale, EdgeFactor: edgeFactor, Seed: seed})
}

// ErdosRenyi generates an n×n uniform random matrix with the given
// expected row degree.
func ErdosRenyi(n, degree int, seed uint64) *Matrix {
	return gen.ErdosRenyi(n, degree, seed)
}

// ReadMatrixMarket loads a Matrix Market file.
func ReadMatrixMarket(path string) (*Matrix, error) {
	m, _, err := mtx.ReadFile(path)
	return m, err
}

// WriteMatrixMarket stores a matrix as a Matrix Market file.
func WriteMatrixMarket(path string, m *Matrix) error {
	return mtx.WriteFile(path, m)
}
