package graph

import (
	"fmt"
	"time"

	"maskedspgemm/internal/core"
	"maskedspgemm/internal/parallel"
	"maskedspgemm/internal/semiring"
	"maskedspgemm/internal/sparse"
)

// BCResult is the outcome of a batched betweenness-centrality run.
type BCResult struct {
	// Centrality[v] is the accumulated dependency of v over the source
	// batch (directed Brandes accumulation on the given adjacency; for
	// undirected graphs, conventional BC is half of this when summed
	// over all sources).
	Centrality []float64
	// Depth is the number of BFS levels of the deepest source.
	Depth int
	// MaskedTime is the time spent inside masked SpGEMM calls only —
	// the quantity the paper's §8.4 benchmark measures.
	MaskedTime time.Duration
	// Flops is the summed unmasked flop count of those masked products.
	Flops int64
}

// Betweenness runs the two-stage batched Brandes algorithm of §8.4
// (after Brandes and the GraphBLAS multi-source formulation): a forward
// sweep counting shortest paths with a *complemented* masked SpGEMM per
// level, and a backward sweep accumulating dependencies with a plain
// masked SpGEMM per level. sources is the batch (the paper uses 512).
func Betweenness(a *sparse.CSR[float64], sources []int32, opt core.Options) (*BCResult, error) {
	n := a.Rows
	if a.Cols != n {
		return nil, fmt.Errorf("graph: adjacency must be square, got %dx%d", a.Rows, a.Cols)
	}
	b := len(sources)
	if b == 0 {
		return &BCResult{Centrality: make([]float64, n)}, nil
	}
	for _, s := range sources {
		if s < 0 || int(s) >= n {
			return nil, fmt.Errorf("graph: source %d out of range [0,%d)", s, n)
		}
	}
	sr := semiring.PlusTimes[float64]{}
	res := &BCResult{}

	// Frontier F and path counts NumSP are b×n: row r tracks source
	// sources[r].
	frontier := frontierFromSources(n, sources)
	numSP := frontier.Clone()
	// levels[d] is the frontier at depth d (σ values on its pattern).
	levels := []*sparse.CSR[float64]{frontier}

	// One executor pools the accumulator workspaces across every level
	// of both sweeps; the frontier/mask structure changes per level, so
	// each level builds a fresh plan on top. Plan construction is timed
	// with the execution: it is part of the masked product's cost (the
	// analysis the one-shot path would do internally).
	exec := core.NewExecutor[float64](sr)

	// Forward: F ← ¬NumSP ⊙ (F · A); NumSP += F. The output of each
	// level persists (as the next frontier and in levels), so the
	// forward sweep must not use pooled output buffers — force the flag
	// off in case the caller opted in for the consumed-per-level parts.
	fwdOpt := withComplement(opt, true)
	fwdOpt.ReuseOutput = false
	at := sparse.Transpose(a) // backward sweep multiplies by Aᵀ
	for {
		start := time.Now()
		plan, err := core.NewPlan(sr, numSP.PatternView(), frontier, a, fwdOpt, exec)
		if err != nil {
			return nil, err
		}
		next, err := plan.Execute(frontier, a)
		res.MaskedTime += time.Since(start)
		if err != nil {
			return nil, err
		}
		res.Flops += core.Flops(frontier, a)
		if next.NNZ() == 0 {
			break
		}
		numSP, err = sparse.EWiseAddParallel(numSP, next, func(x, y float64) float64 { return x + y }, opt.Threads)
		if err != nil {
			return nil, err
		}
		levels = append(levels, next)
		frontier = next
	}
	res.Depth = len(levels)

	// Backward: dependency accumulation, deepest level first.
	//   t1 = S_d ⊙ (1 + BCU) ⊘ NumSP     (sparse, pattern exactly S_d)
	//   t2 = S_{d-1} ⊙ (t1 · Aᵀ)          (plain masked SpGEMM)
	//   t3 = t2 ⊗ NumSP
	//   BCU += t3
	// t2 is consumed by the element-wise ops before the next level's
	// execution, so the backward sweep can use pooled output buffers.
	backOpt := withComplement(opt, false)
	backOpt.ReuseOutput = true
	bcu := sparse.NewCSR[float64](b, n)
	for d := len(levels) - 1; d >= 1; d-- {
		t1 := buildT1(levels[d], bcu, numSP)
		start := time.Now()
		plan, err := core.NewPlan(sr, levels[d-1].PatternView(), t1, at, backOpt, exec)
		if err != nil {
			return nil, err
		}
		t2, err := plan.Execute(t1, at)
		res.MaskedTime += time.Since(start)
		if err != nil {
			return nil, err
		}
		res.Flops += core.Flops(t1, at)
		t3, err := sparse.EWiseMultParallel(t2, numSP, func(x, y float64) float64 { return x * y }, opt.Threads)
		if err != nil {
			return nil, err
		}
		bcu, err = sparse.EWiseAddParallel(bcu, t3, func(x, y float64) float64 { return x + y }, opt.Threads)
		if err != nil {
			return nil, err
		}
	}

	// Sources must not accumulate their own dependency (Brandes adds
	// δ(w) to BC(w) only for w ≠ s).
	for r, s := range sources {
		zeroEntry(bcu, r, s)
	}
	res.Centrality = sparse.ReduceCols(bcu, 0, func(x, y float64) float64 { return x + y })
	return res, nil
}

// withComplement returns opt with the complement flag forced, guarding
// against callers pre-setting it.
func withComplement(opt core.Options, complement bool) core.Options {
	opt.Complement = complement
	return opt
}

// frontierFromSources builds the initial b×n frontier with F[r,
// sources[r]] = 1.
func frontierFromSources(n int, sources []int32) *sparse.CSR[float64] {
	b := len(sources)
	f := &sparse.CSR[float64]{
		Pattern: sparse.Pattern{Rows: b, Cols: n, RowPtr: make([]int64, b+1)},
		Val:     make([]float64, b),
	}
	f.ColIdx = make([]int32, b)
	for r, s := range sources {
		f.ColIdx[r] = s
		f.Val[r] = 1
		f.RowPtr[r+1] = int64(r + 1)
	}
	return f
}

// buildT1 computes t1 = S_d ⊙ (1 + BCU) ⊘ NumSP: the pattern is exactly
// level's, BCU entries default to 0 when absent, and NumSP is
// guaranteed to cover level's pattern (every discovered vertex has a
// path count). A three-way sorted merge per row, parallel over rows.
func buildT1(level, bcu, numSP *sparse.CSR[float64]) *sparse.CSR[float64] {
	out := &sparse.CSR[float64]{
		Pattern: *level.Pattern.Clone(),
		Val:     make([]float64, level.NNZ()),
	}
	parallel.ForEachRow(level.Rows, 0, parallel.DefaultGrain, func(r, _ int) {
		lc := level.Row(r)
		bc, bv := bcu.Row(r), bcu.RowVals(r)
		nc, nv := numSP.Row(r), numSP.RowVals(r)
		bi, ni := 0, 0
		base := level.RowPtr[r]
		for k, j := range lc {
			for bi < len(bc) && bc[bi] < j {
				bi++
			}
			delta := 0.0
			if bi < len(bc) && bc[bi] == j {
				delta = bv[bi]
			}
			for ni < len(nc) && nc[ni] < j {
				ni++
			}
			sigma := 1.0
			if ni < len(nc) && nc[ni] == j {
				sigma = nv[ni]
			}
			out.Val[base+int64(k)] = (1 + delta) / sigma
		}
	})
	return out
}

// zeroEntry sets the stored value at (i, j) to zero if present.
func zeroEntry(a *sparse.CSR[float64], i int, j int32) {
	row := a.Row(i)
	lo, hi := 0, len(row)
	for lo < hi {
		mid := (lo + hi) / 2
		if row[mid] < j {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(row) && row[lo] == j {
		a.RowVals(i)[lo] = 0
	}
}

// BatchSources returns batch sources 0..batch-1 (clamped to n),
// matching the paper's fixed-batch benchmarking setup.
func BatchSources(n, batch int) []int32 {
	if batch > n {
		batch = n
	}
	s := make([]int32, batch)
	for i := range s {
		s[i] = int32(i)
	}
	return s
}
