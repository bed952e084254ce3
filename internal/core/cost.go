package core

import (
	"maskedspgemm/internal/faultinject"
	"maskedspgemm/internal/parallel"
	"maskedspgemm/internal/sparse"
)

// Cost-guided scheduling (DESIGN.md §9). The paper parallelizes
// strictly across rows with dynamic scheduling to absorb skew (§2.2,
// §3), but a fixed row grain is blind to row cost: one R-MAT hub row
// serializes its whole 64-row block while trivial rows each pay a
// scheduling step for almost no work. The Plan layer already walks
// exactly the structures that determine per-row cost — A's rows and
// B's row pointers (complementBounds, planHybrid) — so the plan
// computes a masked-flops-flavored cost per output row, resolves the
// scheduling strategy from the measured skew, and retains the costs
// as a prefix sum. Every execution then cuts that prefix into
// equal-cost partitions for its own width by binary search, so one
// cached plan serves any thread count. This is the flops-balanced
// scheduling of the Buluç–Gilbert SpGEMM lineage applied to the
// masked engine.

const (
	// costPartsPerWorker is the scheduling-slack factor: an execution
	// cuts up to threads×this partitions so that dynamic claiming can
	// still correct for cost-model error within a partitioned pass.
	costPartsPerWorker = 4
	// autoSkewFactor is the SchedAuto switch point: cost partitions are
	// chosen when the most expensive row exceeds this multiple of the
	// mean row cost. Below it, fixed-grain blocks already balance well
	// and their lower bookkeeping wins.
	autoSkewFactor = 8
)

// rowSched is the resolved descriptor the engine drivers schedule row
// passes with: a mode that is never SchedAuto, the partition bounds
// when cost-partitioned, an optional telemetry target, and the
// fault-containment hooks — the cancel token workers poll at block
// claims and the fault-injection hooks loaded for this execution
// (both usually nil; DESIGN.md §15).
type rowSched struct {
	threads, grain int
	mode           Schedule
	bounds         []int
	stats          *parallel.SchedStats
	cancel         *parallel.CancelToken
	fi             *faultinject.Hooks
}

// run executes fn over [0, n) under the descriptor's strategy.
func (s rowSched) run(n int, fn func(lo, hi, tid int)) {
	if s.mode == SchedCostPartition {
		parallel.ForEachPartition(s.bounds, s.threads, s.stats, s.cancel, fn)
		return
	}
	parallel.ForEachBlockStats(n, s.threads, s.grain, s.stats, s.cancel, fn)
}

// enterPass is the checkpoint at a pass's entry: it fires the armed
// pass-granularity fault hooks, then reports cancellation so a
// canceled execution stops before starting the pass at all.
func (s rowSched) enterPass(p faultinject.Pass) error {
	s.fi.AtPass(p, s.cancel)
	return s.passCanceled(p)
}

// passCanceled is the checkpoint after a pass's row sweep: a latched
// token means the schedulers broke out early and the pass's output is
// partial, so the driver must discard it and surface which pass was
// interrupted.
func (s rowSched) passCanceled(p faultinject.Pass) error {
	if s.cancel.Canceled() {
		return &CanceledError{Pass: string(p)}
	}
	return nil
}

// planSchedule measures the plan's per-row cost profile, resolves the
// SchedAuto policy from its skew — a property of the structure, not of
// any width — and, when cost partitioning is chosen, retains the
// profile as the prefix sum executions cut partitions from. Runs once
// per structure; cached plans replay the result on every hit. cost,
// when non-nil, is a precomputed profile (the poly selector's per-row
// chosen costs) in the first rows slots of a rows+1 slice; nil
// measures one here.
//
//mspgemm:planwrite
func (p *Plan[T, S]) planSchedule(a, b *sparse.CSR[T], cost []int64) {
	if p.opt.Schedule == SchedFixedGrain {
		// Explicitly cost-blind: skip the profile entirely.
		p.sched = SchedFixedGrain
		return
	}
	rows := p.mask.Rows
	if rows == 0 {
		p.sched = SchedFixedGrain
		return
	}
	if cost == nil {
		cost = p.rowCosts(a, b)
	}
	var max int64
	for _, c := range cost[:rows] {
		if c > max {
			max = c
		}
	}
	total := parallel.PrefixSum(cost)
	if total > 0 {
		p.costSkew = float64(max) * float64(rows) / float64(total)
	}
	if p.opt.Schedule == SchedAuto && (total == 0 || p.costSkew < autoSkewFactor) {
		p.sched = SchedFixedGrain
		return
	}
	p.sched = SchedCostPartition
	p.costPrefix = cost
}

// rowCosts estimates every output row's execution cost in multiply-add
// flavored units, following the operative scheme's work model:
//
//   - push rows (MSA/Hash/MCA/Heap families): the Gustavson flops
//     Σ_{k ∈ A_i*} nnz(B_k*) plus the mask walk, with the output term
//     capped by the §5.2 complement bound when the mask is
//     complemented — the same quantities complementBounds walks.
//   - pull rows (Inner, SS:DOT): one load of A_i* into a dense row,
//     then one dot per admitted mask entry j that reads nnz(B_*j)
//     entries — pullRowCost, the same formula the poly selector prices
//     pull by.
//
// Poly plans (AlgoHybrid) never reach here — their selector's chosen
// per-row costs are handed to planSchedule directly, so selection and
// scheduling share one cost picture. A symmetric self-product's rows
// are priced as the halves they compute.
//
// Absolute scale does not matter — only proportions do, since the
// partitioner divides rows by cumulative share. The returned slice has
// one spare trailing slot so planSchedule can prefix-sum it in place.
func (p *Plan[T, S]) rowCosts(a, b *sparse.CSR[T]) []int64 {
	rows := p.mask.Rows
	cost := make([]int64, rows+1)
	pullAll := p.opt.Algorithm == AlgoInner || p.opt.Algorithm == AlgoDotTranspose
	var colCounts bColCounts
	if pullAll {
		colCounts = newBColCounts(b)
	}
	complement := p.opt.Complement
	cols := int64(p.mask.Cols)
	rm := maskRows{p.mask, p.sym}
	parallel.ForEachBlock(rows, parallel.Threads(0), p.opt.Grain, func(lo, hi, _ int) {
		for i := lo; i < hi; i++ {
			maskRow := rm.row(i)
			m := int64(len(maskRow))
			aRow := a.Row(i)
			if pullAll {
				cost[i] = int64(pullRowCost(RowCostContext{
					MaskNNZ: len(maskRow), ARowNNZ: len(aRow), Cols: p.mask.Cols,
					Complement: complement, BColSum: colCounts.admitted(maskRow, complement),
				}))
				continue
			}
			gen := rowScan(aRow, rm.clip(i), b.RowPtr)
			out := m
			if complement {
				out = cols - m
				if gen < out {
					out = gen // the §5.2 bound caps the gather
				}
			}
			cost[i] = 1 + m + gen + out
		}
	})
	return cost
}

// partitions cuts the plan's rows into at most threads×costPartsPerWorker
// contiguous partitions of near-equal cumulative cost, reusing buf's
// storage: partition j ends at the first row whose prefix cost reaches
// j/nparts of the total, found by binary search over costPrefix. A
// single row costlier than the ideal share gets a partition to itself
// (row formation is never split — §3); targets it overshoots are
// skipped rather than emitted as empty partitions. The returned bounds
// (first 0, last rows) are what ForEachPartition consumes. O(P·log
// rows) per execution, and allocation-free once buf has grown to the
// widest execution seen.
func (p *Plan[T, S]) partitions(threads int, buf []int) []int {
	prefix := p.costPrefix
	rows := len(prefix) - 1
	total := prefix[rows]
	nparts := threads * costPartsPerWorker
	if nparts > rows {
		nparts = rows
	}
	if nparts < 1 {
		nparts = 1
	}
	if cap(buf) < nparts+1 {
		buf = make([]int, 0, nparts+1)
	}
	bounds := append(buf[:0], 0)
	lo := 1
	for j := 1; j < nparts; j++ {
		target := float64(total) * float64(j) / float64(nparts)
		// First r in [lo, rows] with prefix[r] ≥ target; targets only
		// grow with j, so each search starts at the previous cut.
		l, h := lo, rows+1
		for l < h {
			m := int(uint(l+h) >> 1)
			if float64(prefix[m]) >= target {
				h = m
			} else {
				l = m + 1
			}
		}
		if l > rows {
			break
		}
		if l > bounds[len(bounds)-1] {
			bounds = append(bounds, l)
		}
		lo = l
	}
	if bounds[len(bounds)-1] != rows {
		bounds = append(bounds, rows)
	}
	return bounds
}

// ResolvedSchedule reports the plan's scheduling strategy after the
// SchedAuto policy ran — which of the concrete modes executions of
// this plan use.
func (p *Plan[T, S]) ResolvedSchedule() Schedule { return p.sched }

// CostSkew returns the plan's measured row-cost skew (max row cost
// over mean row cost), the quantity the SchedAuto policy thresholds.
// Zero when scheduling analysis was skipped (explicit cost-blind
// schedules, direct schemes, empty masks).
func (p *Plan[T, S]) CostSkew() float64 { return p.costSkew }
