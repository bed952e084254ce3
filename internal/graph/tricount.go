// Package graph implements the paper's three benchmark applications
// (§8): triangle counting, k-truss, and batched betweenness centrality,
// each expressed GraphBLAS-style with masked SpGEMM at the core, plus
// serial reference implementations used as test oracles.
package graph

import (
	"fmt"
	"sort"

	"maskedspgemm/internal/core"
	"maskedspgemm/internal/semiring"
	"maskedspgemm/internal/sparse"
)

// DegreeSortPerm returns the relabeling permutation that orders vertices
// by non-increasing degree (ties by original id), which §8.2 notes is
// required for optimal triangle-counting performance. perm[v] is the new
// id of vertex v.
func DegreeSortPerm(a *sparse.CSR[float64]) []int32 {
	n := a.Rows
	order := make([]int32, n)
	for i := range order {
		order[i] = int32(i)
	}
	sort.SliceStable(order, func(x, y int) bool {
		dx := a.RowNNZ(int(order[x]))
		dy := a.RowNNZ(int(order[y]))
		if dx != dy {
			return dx > dy
		}
		return order[x] < order[y]
	})
	perm := make([]int32, n)
	for newID, old := range order {
		perm[old] = int32(newID)
	}
	return perm
}

// TCWorkload is a prepared triangle-counting input: the strictly lower
// triangular part L of the degree-relabeled adjacency matrix. Preparing
// once lets benchmarks time only the masked multiplication, as the
// paper does ("we only report the Masked SpGEMM execution time", §8.2).
type TCWorkload struct {
	// L is tril(P·A·Pᵀ) for the degree-sorting permutation P, with unit
	// values: plus-times over them is the counting semiring plus-pair,
	// run on the kernels the server runs.
	L *sparse.CSR[float64]
}

// PrepareTriangleCount relabels the graph by non-increasing degree and
// extracts the lower triangle. The adjacency must be square; triangle
// counts are meaningful when it is also symmetric (undirected).
func PrepareTriangleCount(a *sparse.CSR[float64]) *TCWorkload {
	if a.Rows != a.Cols {
		panic(fmt.Sprintf("graph: triangle counting needs a square adjacency, got %dx%d", a.Rows, a.Cols))
	}
	perm := DegreeSortPerm(a)
	relabeled := sparse.PermuteSym(a, perm)
	return &TCWorkload{L: sparse.Apply(sparse.Tril(relabeled), func(float64) float64 { return 1 })}
}

// Count runs the masked multiplication C = L ⊙ (L·L) over plus-times
// on unit values, so each C(i,j) counts the triangles through edge
// (i,j), and reduces: sum(C) is the triangle count (§8.2).
func (w *TCWorkload) Count(opt core.Options) (int64, error) {
	c, err := core.MaskedSpGEMM(semiring.PlusTimes[float64]{}, w.L.PatternView(), w.L, w.L, opt)
	if err != nil {
		return 0, err
	}
	return sumCounts(c), nil
}

// TCPlan is a prepared execution plan for the workload's masked
// product; TCExecutor is the matching pooled-workspace executor.
type (
	TCPlan     = core.Plan[float64, semiring.PlusTimes[float64]]
	TCExecutor = core.Executor[float64, semiring.PlusTimes[float64]]
)

// NewPlan analyzes the workload's masked product once so repeated
// counts (benchmark repetitions, served traffic) skip re-validation,
// re-analysis, and — with exec's pooled workspaces — steady-state
// allocation. exec may be nil for a private executor. opt is passed
// through unmodified; CountWith consumes the product before returning,
// so callers that only count may set opt.ReuseOutput for pooled output
// buffers.
func (w *TCWorkload) NewPlan(opt core.Options, exec *TCExecutor) (*TCPlan, error) {
	return core.NewPlan(semiring.PlusTimes[float64]{}, w.L.PatternView(), w.L, w.L, opt, exec)
}

// CountWith executes a prepared plan and reduces to the triangle
// count.
func (w *TCWorkload) CountWith(p *TCPlan) (int64, error) {
	c, err := p.Execute(w.L, w.L)
	if err != nil {
		return 0, err
	}
	return sumCounts(c), nil
}

// sumCounts sums a product of counts. Every partial sum is an integer
// below 2⁵³, so the float64 sum is exact.
func sumCounts(c *sparse.CSR[float64]) int64 {
	return int64(sparse.Reduce(c, 0, func(x, y float64) float64 { return x + y }))
}

// Flops returns the multiply–add count of the unmasked L·L product, the
// normalizer for the paper's GFLOPS rates (Fig 10).
func (w *TCWorkload) Flops() int64 {
	return core.Flops(w.L, w.L)
}

// TriangleCount is the convenience one-shot: prepare + count.
func TriangleCount(a *sparse.CSR[float64], opt core.Options) (int64, error) {
	return PrepareTriangleCount(a).Count(opt)
}
