package graph

import (
	"fmt"

	"maskedspgemm/internal/core"
	"maskedspgemm/internal/semiring"
	"maskedspgemm/internal/sparse"
)

// KTrussResult reports the outcome of the iterative k-truss pruning.
type KTrussResult struct {
	// Truss is the adjacency matrix of the k-truss subgraph (symmetric,
	// unit values).
	Truss *sparse.CSR[float64]
	// Iterations is the number of masked SpGEMM rounds until fixpoint.
	Iterations int
	// Flops is the summed unmasked multiply–add count of every masked
	// SpGEMM performed — the numerator of the paper's k-truss GFLOPS
	// metric ("sum of flops required to perform all Masked SpGEMM
	// operations divided by total time", §8.3).
	Flops int64
	// PlansReused counts iterations whose execution plan came from the
	// workload's structure-keyed cache instead of fresh analysis —
	// nonzero whenever a mask structure recurs, within or across runs.
	PlansReused int
}

// KTrussWorkload is a prepared graph served for k-truss queries. The
// paper's server scenario — many queries against one fixed graph —
// applies directly: every run of every k starts from the full edge
// set, so the first-iteration plan (usually the most expensive: the
// whole graph) is shared by all runs, and re-running any k replays all
// of its iterations from cache. The workload owns a unit-valued copy of
// the adjacency, a structure-keyed plan cache and one executor over
// plus-times, the server's semiring; Run re-plans only when a pruned
// edge structure has genuinely never been seen.
//
// A workload is single-owner: Runs on one workload must be sequential
// (the executor is not concurrency-safe).
type KTrussWorkload struct {
	c     *sparse.CSR[float64]
	cache *core.PlanCache[float64, semiring.PlusTimes[float64]]
	exec  *core.Executor[float64, semiring.PlusTimes[float64]]
}

// ktrussCacheEntries bounds the workload's plan cache. Each pruning
// sequence contributes one entry per distinct surviving edge
// structure; 64 comfortably covers the paper's k=5 style runs while
// bounding memory on adversarial pruning chains.
const ktrussCacheEntries = 64

// PrepareKTruss validates the adjacency and returns a reusable
// workload for k-truss queries against it.
func PrepareKTruss(a *sparse.CSR[float64]) (*KTrussWorkload, error) {
	if a.Rows != a.Cols {
		return nil, fmt.Errorf("graph: adjacency must be square, got %dx%d", a.Rows, a.Cols)
	}
	sr := semiring.PlusTimes[float64]{}
	return &KTrussWorkload{
		c:     sparse.Apply(a, func(float64) float64 { return 1 }),
		cache: core.NewPlanCache[float64](sr, ktrussCacheEntries),
		exec:  core.NewExecutor[float64](sr),
	}, nil
}

// CacheStats reports the workload's plan-cache counters; across
// repeated Runs the hit count shows how much analysis the cache is
// absorbing.
func (w *KTrussWorkload) CacheStats() core.PlanCacheStats {
	return w.cache.Stats()
}

// Run computes the k-truss of the prepared graph: the maximal subgraph
// in which every edge is supported by at least k−2 triangles (§8.3,
// run with k=5 in the paper). Each iteration computes per-edge support
// with one masked SpGEMM, S = C ⊙ (C·C) over plus-times on unit values
// (so each product counts one triangle), prunes under-supported edges,
// and repeats until the edge set is stable.
// Plans are drawn from the workload's cache keyed by the surviving
// edge structure, so structures already analyzed — by an earlier
// iteration, an earlier Run, or a Run with different k — execute
// without re-planning.
func (w *KTrussWorkload) Run(k int, opt core.Options) (*KTrussResult, error) {
	if k < 3 {
		return nil, fmt.Errorf("graph: k-truss needs k ≥ 3, got %d", k)
	}
	res := &KTrussResult{}
	minSupport := float64(k - 2)
	// The workload executor carries the accumulator workspaces and
	// output buffers across iterations and runs. The support matrix is
	// consumed by Select before the next execution, so pooled output
	// (ReuseOutput) is safe — requested per execution, since cached
	// plans are canonical and carry no execution-only options. Pooled
	// output also keeps the cached plans from remembering a hit record,
	// so every iteration runs a first execution.
	execOpt := opt.ExecOnly()
	execOpt.ReuseOutput = true
	c := w.c
	for {
		res.Iterations++
		plan, _, hit, err := w.cache.GetOrPlanObserved(c.PatternView(), c, c, opt)
		if err != nil {
			return nil, err
		}
		if hit {
			res.PlansReused++
		}
		res.Flops += core.Flops(c, c)
		s, err := plan.ExecuteOnOpts(w.exec, c, c, execOpt)
		if err != nil {
			return nil, err
		}
		kept := sparse.Select(s, func(_ int, _ int32, support float64) bool {
			return support >= minSupport
		})
		// Edges absent from s (zero support) are pruned implicitly:
		// kept's pattern is a subset of s's, which is a subset of c's.
		for i := range kept.Val {
			kept.Val[i] = 1
		}
		if kept.NNZ() == c.NNZ() {
			res.Truss = kept
			return res, nil
		}
		// Support counting may leave the edge set asymmetric only if the
		// input was asymmetric; symmetric inputs stay symmetric because
		// support is symmetric. No re-symmetrization needed.
		c = kept
	}
}

// KTruss is the one-shot convenience form: prepare a workload, run one
// k. Iterative callers and servers should keep the workload and call
// Run, which is where the plan-cache amortization pays off.
func KTruss(a *sparse.CSR[float64], k int, opt core.Options) (*KTrussResult, error) {
	w, err := PrepareKTruss(a)
	if err != nil {
		return nil, err
	}
	return w.Run(k, opt)
}
