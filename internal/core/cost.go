package core

import (
	"context"
	"runtime/trace"
	"time"

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
// B's row pointers (complementBounds, polyScan) — so the plan
// computes a masked-flops-flavored cost per output row and retains the
// costs as a prefix sum. Every execution then cuts that prefix into
// equal-cost partitions for its own width by binary search, so one
// cached plan serves any thread count. The partitions are fine enough
// that uniform rows get exactly the DefaultGrain-row blocks a
// cost-blind scheduler would claim, so flat profiles need no second
// schedule. This is the flops-balanced scheduling
// of the Buluç–Gilbert SpGEMM lineage applied to the masked engine.

// costPartsPerWorker is the scheduling-slack factor: an execution cuts
// at least threads×this partitions so that dynamic claiming can still
// correct for cost-model error within a partitioned pass.
const costPartsPerWorker = 4

// rowSched is the descriptor the engine drivers schedule row passes
// with: the partition bounds cut for this execution's width, an
// optional telemetry target, the pass clock of the executing executor,
// and the fault-containment hooks — the cancel token workers poll at
// partition claims and the fault-injection hooks loaded for this
// execution (both usually nil; DESIGN.md §15).
type rowSched struct {
	threads int
	bounds  []int
	stats   *parallel.SchedStats
	clock   *passClock
	cancel  *parallel.CancelToken
	fi      *faultinject.Hooks
}

// run executes fn over the descriptor's partitions.
func (s rowSched) run(fn func(lo, hi, tid int)) {
	parallel.ForEachPartition(s.bounds, s.threads, s.stats, s.cancel, fn)
}

// enterPass is the checkpoint at a pass's entry: it opens the pass on
// the clock, fires the armed pass-granularity fault hooks, then reports
// cancellation so a canceled execution stops before starting the pass
// at all.
func (s rowSched) enterPass(p Pass) error {
	s.clock.enter(p)
	s.fi.AtPass(p.site(), s.cancel)
	return s.canceled(p)
}

// passCanceled is the checkpoint after a pass's row sweep: it charges
// the time since the previous checkpoint to the pass, and a latched
// token means the schedulers broke out early and the pass's output is
// partial, so the driver must discard it and surface which pass was
// interrupted.
func (s rowSched) passCanceled(p Pass) error {
	s.clock.lap(p)
	return s.canceled(p)
}

// canceled reports a latched token as the interruption of pass p.
func (s rowSched) canceled(p Pass) error {
	if s.cancel.Canceled() {
		return &CanceledError{Pass: string(p.site())}
	}
	return nil
}

// Pass names one timed engine pass (DESIGN.md §9, "Pass timers").
type Pass uint8

// The engine's timed passes. A first execution runs PassSymbolic and
// PassNumeric (two-phase) or PassNumeric and then PassCompact or, for
// one triangle, PassMirror (one-phase); a plan hit runs PassHitNumeric
// and, for one triangle, PassTranspose.
const (
	// PassSymbolic is the two-phase size-counting pass.
	PassSymbolic Pass = iota
	// PassNumeric is a first execution's value-producing pass.
	PassNumeric
	// PassCompact is the one-phase gather of the slab into the result.
	PassCompact
	// PassMirror is compact's counterpart for one triangle (mirrorPass).
	PassMirror
	// PassHitNumeric is a plan hit's value pass (knownPhase).
	PassHitNumeric
	// PassTranspose is a one-triangle hit's copy of its values to their
	// transposes (copyTransposes).
	PassTranspose
	// NumPasses is the number of timed passes.
	NumPasses
)

// passNames are the passes' names, as String and the runtime/trace
// regions give them.
var passNames = [NumPasses]string{"symbolic", "numeric", "compact", "mirror", "hit-numeric", "transpose"}

// String returns the pass's name.
func (p Pass) String() string { return passNames[p] }

// site returns the fault-injection site and cancellation name of pass
// p: the mirror pass and a hit's transpose copy keep compact's, and a
// hit's value pass numeric's.
func (p Pass) site() faultinject.Pass {
	switch p {
	case PassSymbolic:
		return faultinject.PassSymbolic
	case PassNumeric, PassHitNumeric:
		return faultinject.PassNumeric
	}
	return faultinject.PassCompact
}

// PassTimes is the wall time of each engine pass of one execution,
// indexed by Pass: from the pass's entry checkpoint to its last
// checkpoint. A pass the execution did not run reads 0.
type PassTimes [NumPasses]time.Duration

// passClock times an executor's passes and wraps each in a
// runtime/trace region. It reads the clock once per checkpoint, and
// only while times, where it adds each pass's time, is set
// (ExecOptions.CollectSchedStats); a region costs one atomic load while
// tracing is off. A region ends at the next pass's entry or at the end
// of the execution (done). A nil clock does nothing.
//
//mspgemm:nilsafe
type passClock struct {
	times  *PassTimes
	at     time.Time
	region *trace.Region
}

// enter opens pass p: it ends the previous pass's region, starts p's,
// and reads the clock.
func (c *passClock) enter(p Pass) {
	if c == nil {
		return
	}
	c.done()
	c.region = trace.StartRegion(context.Background(), passNames[p])
	if c.times != nil {
		c.at = time.Now()
	}
}

// lap charges the time since the previous checkpoint to pass p.
func (c *passClock) lap(p Pass) {
	if c != nil && c.times != nil {
		now := time.Now()
		c.times[p] += now.Sub(c.at)
		c.at = now
	}
}

// done ends the open region, if any.
func (c *passClock) done() {
	if c != nil && c.region != nil {
		c.region.End()
		c.region = nil
	}
}

// rowBinding is how executions bind and schedule their rows: the
// Hybrid per-row poly-algorithm binding (DESIGN.md §10), encoded as
// runs of consecutive rows sharing one accumulator family — run r
// covers rows [runEnds[r-1], runEnds[r]) and executes
// Family(runFam[r]) — and the cost prefix executions cut into
// partitions. polyFams is the set of families bound by at least one
// run, exactly the accumulators executions materialize; the run fields
// are empty on uniform plans. A plan holds one binding, of its mask
// rows (or mask halves), which its misses and its push/Pull hits run.
//
//mspgemm:immutable
type rowBinding struct {
	runEnds  []int32
	runFam   []uint8
	polyFams FamilySet
	// costPrefix is the exclusive prefix sum of the per-row costs
	// (len rows+1, last = total) that executions cut into partitions
	// for their own width (DESIGN.md §9).
	costPrefix []int64
}

// bytes is the memory the binding retains.
func (rb *rowBinding) bytes() int64 {
	return int64(len(rb.runEnds))*4 + int64(len(rb.runFam)) + int64(len(rb.costPrefix))*8
}

// bindRows returns the row binding of executions whose rows compute m's
// rows. Under AlgoHybrid the per-row selector binds each row, and its
// chosen costs double as the scheduling profile, so selection and
// scheduling read one cost picture; any other scheme is profiled by
// rowCosts, except on a plan of at most one row, whose one partition
// needs no profile — so a masked SpVM never builds Inner's O(nnz B)
// column counts. The profile is retained as the prefix sum executions
// cut partitions from. It runs once per plan; cached plans replay the
// result on every execution.
//
//mspgemm:planwrite
func (p *Plan[T, S]) bindRows(m maskRows, a, b *sparse.CSR[T]) rowBinding {
	var rb rowBinding
	rows := p.mask.Rows
	var cost []int64
	switch {
	case p.opt.Algorithm == AlgoHybrid:
		rowFam := make([]uint8, rows)
		cost = make([]int64, rows+1)
		polyScan(m, a, b, p.opt, rowFam, cost)
		rb.encodeRuns(rowFam)
	case rows > 1:
		cost = p.rowCosts(m, a, b)
	default:
		cost = make([]int64, rows+1)
	}
	parallel.PrefixSum(cost)
	rb.costPrefix = cost
	return rb
}

// rowCosts estimates every output row's execution cost in multiply-add
// flavored units, following the operative scheme's work model:
//
//   - push rows (MSA/Hash/MCA/Heap families): the Gustavson flops
//     Σ_{k ∈ A_i*} nnz(B_k*) plus the mask walk, with the output term
//     capped by the §5.2 complement bound when the mask is
//     complemented — the same quantities complementBounds walks.
//   - pull rows (the NeedsCSC schemes, Inner and SS:DOT): one load of
//     A_i* into a dense row, then one dot per admitted mask entry j
//     that reads nnz(B_*j) entries — pullRowCost, the same formula the
//     poly selector prices pull by.
//
// Poly plans (AlgoHybrid) never reach here — bindRows takes their
// selector's chosen per-row costs, so selection and scheduling share
// one cost picture. The rows are m's: the halves of a symmetric
// self-product are priced as the halves they compute.
//
// Absolute scale does not matter — only proportions do, since the
// partitioner divides rows by cumulative share. The returned slice has
// one spare trailing slot so bindRows can prefix-sum it in place.
func (p *Plan[T, S]) rowCosts(m maskRows, a, b *sparse.CSR[T]) []int64 {
	rows := p.mask.Rows
	cost := make([]int64, rows+1)
	pullAll := p.info.NeedsCSC
	var colCounts bColCounts
	if pullAll {
		colCounts = newBColCounts(b)
	}
	complement := p.opt.Complement
	cols := int64(p.mask.Cols)
	parallel.ForEachBlock(rows, parallel.Threads(0), parallel.DefaultGrain, func(lo, hi, _ int) {
		for i := lo; i < hi; i++ {
			maskRow := m.row(i)
			nm := int64(len(maskRow))
			aRow := a.Row(i)
			if pullAll {
				cost[i] = int64(pullRowCost(RowCostContext{
					MaskNNZ: len(maskRow), ARowNNZ: len(aRow), Cols: p.mask.Cols,
					Complement: complement, BColSum: colCounts.admitted(maskRow, complement),
				}))
				continue
			}
			gen := rowScan(aRow, m.clip(i), b.RowPtr)
			out := nm
			if complement {
				out = cols - nm
				if gen < out {
					out = gen // the §5.2 bound caps the gather
				}
			}
			cost[i] = 1 + nm + gen + out
		}
	})
	return cost
}

// partitions cuts the rows of an exclusive cost prefix (len rows+1,
// last = total) into contiguous partitions of near-equal cumulative
// cost, reusing buf's storage. It aims at max(threads×costPartsPerWorker,
// ⌈rows/DefaultGrain⌉) shares, at most rows: on uniform costs the cuts
// fall every DefaultGrain rows, the blocks a cost-blind scheduler
// would claim, and skewed costs get the same count of equal-cost
// shares. Share j ends at the first row whose prefix cost reaches
// j/nparts of the total, found by binary search. Row formation is
// never split (§3), so a row costlier than one share ends the share it
// lands in, and it is cut off from the rows before it so that they can
// run beside it; targets it overshoots are skipped rather than emitted
// as empty partitions. A share wider than DefaultGrain rows is split
// into equal pieces no wider (cutAt): the model prices a cheap row
// below its fixed per-row work, so a long cheap stretch would
// otherwise make one slow claim. The returned bounds (first 0, last
// rows) are what ForEachPartition consumes. O(P·log rows) per
// execution, and allocation-free once buf has grown to the largest
// cut seen.
func partitions(prefix []int64, threads int, buf []int) []int {
	rows := len(prefix) - 1
	total := prefix[rows]
	nparts := max(1, min(rows, max(threads*costPartsPerWorker, (rows+parallel.DefaultGrain-1)/parallel.DefaultGrain)))
	share := float64(total) / float64(nparts)
	if n := 2*nparts + rows/parallel.DefaultGrain + 1; cap(buf) < n {
		buf = make([]int, 0, n)
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
		if last := bounds[len(bounds)-1]; l > last {
			if l > last+1 && float64(prefix[l]-prefix[l-1]) > share {
				bounds = cutAt(bounds, l-1)
			}
			bounds = cutAt(bounds, l)
		}
		lo = l
	}
	if bounds[len(bounds)-1] != rows {
		bounds = cutAt(bounds, rows)
	}
	return bounds
}

// cutAt ends the partition open at bounds' last entry at row r, first
// splitting it into ⌈width/DefaultGrain⌉ equal pieces when it is wider
// than DefaultGrain rows.
func cutAt(bounds []int, r int) []int {
	last := bounds[len(bounds)-1]
	k := (r - last + parallel.DefaultGrain - 1) / parallel.DefaultGrain
	for p := 1; p < k; p++ {
		bounds = append(bounds, last+(r-last)*p/k)
	}
	return append(bounds, r)
}
