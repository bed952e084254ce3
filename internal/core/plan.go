package core

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"maskedspgemm/internal/faultinject"
	"maskedspgemm/internal/parallel"
	"maskedspgemm/internal/semiring"
	"maskedspgemm/internal/sparse"
)

// Plan captures everything about a masked product C = M ⊙ (A·B) that
// depends only on the operands' *structure*: shape validation, the
// scheme's capability check, one-phase slab offsets (the mask's own
// layout for plain masks, the §5.2 bounds for complemented ones), the
// CSC structure of B for the pull-based schemes, the Hybrid per-row
// pull/push decisions, accumulator sizing hints, and the flops
// profile. Executing the plan then does only the numeric work.
//
// The applications the paper benchmarks are iterative — k-truss
// repeats C = M ⊙ (A·A) to a fixed point, betweenness runs one masked
// product per BFS level — and SuiteSparse-lineage libraries amortize
// exactly this symbolic analysis across repeated products. Plan is
// that amortization: analyze once with NewPlan, execute many times
// with Execute.
//
// A Plan is immutable after NewPlan and therefore safe to share across
// goroutines — this is what lets a PlanCache hand one plan to many
// concurrent requests. All mutable execution state (accumulators,
// slabs, the refreshed CSC values of B, bound kernels) lives in the
// Executor, which is NOT concurrency-safe: concurrent executions of a
// shared plan must each use their own executor (ExecuteOn), typically
// checked out of an ExecutorPool.
//
//mspgemm:immutable
type Plan[T any, S semiring.Semiring[T]] struct {
	sr   S
	opt  Options
	info SchemeInfo
	mask *sparse.Pattern

	// Planned operand structure, checked against Execute arguments.
	aRows, aCols int
	bRows, bCols int
	aNNZ, bNNZ   int64

	// offsets is the one-phase slab layout (nil under TwoPhase or for
	// direct schemes). For plain masks it aliases mask.RowPtr.
	offsets []int64
	// btPtr/btIdx/btPerm are the CSC *structure* of B for pull-based
	// schemes. Values are not part of the plan: every ExecuteOn
	// refreshes them through btPerm into an executor-owned buffer,
	// since callers may mutate B's values in place between executions.
	btPtr  []int64
	btIdx  []int32
	btPerm []int64
	// runEnds/runFam are AlgoHybrid's per-row poly-algorithm bindings
	// (DESIGN.md §10), encoded as runs of consecutive rows sharing one
	// accumulator family: run r covers rows [runEnds[r-1], runEnds[r])
	// and executes Family(runFam[r]). polyFams is the set of families
	// bound by at least one run — exactly the accumulators executions
	// of this plan materialize.
	runEnds  []int32
	runFam   []uint8
	polyFams FamilySet
	// sched is the resolved scheduling strategy (never SchedAuto);
	// costSkew is the measured max/mean row-cost ratio that drove the
	// SchedAuto policy (DESIGN.md §9). Neither depends on the width
	// the plan executes at.
	sched    Schedule
	costSkew float64
	// costPrefix is the exclusive prefix sum of the per-row costs
	// (len rows+1, last = total) that SchedCostPartition executions
	// cut into partitions for their own width; nil under any other
	// schedule.
	costPrefix []int64
	// heapNInspect is the resolved NInspect for the heap schemes.
	heapNInspect int
	// maxMaskRow / maxARow size the hash/MCA and heap accumulators.
	maxMaskRow, maxARow int
	// flops is the unmasked multiply–add count of A·B, the normalizer of
	// the paper's GFLOPS rates; computed on first use (flopsOnce makes
	// the lazy computation safe on shared plans).
	flops     int64
	flopsOnce sync.Once

	// exec is the plan's default executor, used by the single-owner
	// Execute path. Detached plans (built for a PlanCache) have none and
	// are executed via ExecuteOn.
	exec *Executor[T, S]
	reg  schemeKernels[T, S]
}

// NewPlan validates and analyzes one masked product and returns a
// reusable execution plan. exec supplies the pooled workspaces; nil
// creates a private one. opt is normalized and frozen into the plan;
// its execution-only fields (Threads included) are the defaults
// Execute and ExecuteOn run with.
//
//mspgemm:planwrite
func NewPlan[T any, S semiring.Semiring[T]](sr S, mask *sparse.Pattern, a, b *sparse.CSR[T], opt Options, exec *Executor[T, S]) (*Plan[T, S], error) {
	p, err := newDetachedPlan(sr, mask, a, b, opt)
	if err != nil {
		return nil, err
	}
	if exec == nil {
		exec = NewExecutor[T](sr)
	}
	p.exec = exec
	return p, nil
}

// newDetachedPlan builds the immutable analysis without binding an
// executor — the form a PlanCache stores and shares across goroutines.
//
//mspgemm:planwrite
func newDetachedPlan[T any, S semiring.Semiring[T]](sr S, mask *sparse.Pattern, a, b *sparse.CSR[T], opt Options) (*Plan[T, S], error) {
	if err := validate(mask, a, b); err != nil {
		return nil, err
	}
	opt.normalize()
	info, ok := LookupScheme(opt.Algorithm)
	if !ok {
		return nil, fmt.Errorf("core: unknown algorithm %v", opt.Algorithm)
	}
	if opt.Complement && !info.Complement {
		return nil, errors.New(info.ComplementNote)
	}
	p := &Plan[T, S]{
		sr: sr, opt: opt, info: info, mask: mask,
		aRows: a.Rows, aCols: a.Cols, bRows: b.Rows, bCols: b.Cols,
		aNNZ: a.NNZ(), bNNZ: b.NNZ(),
		reg: kernelsForAlgo[T, S](opt.Algorithm),
	}
	if p.reg.direct == nil {
		if opt.Phases == OnePhase {
			if opt.Complement {
				p.offsets = complementBounds(mask, a, b, parallel.Threads(0), opt.Grain)
			} else {
				p.offsets = mask.RowPtr
			}
		}
		var polyCost []int64
		switch opt.Algorithm {
		case AlgoHash, AlgoMCA:
			p.maxMaskRow = mask.MaxRowNNZ()
		case AlgoHeap, AlgoHeapDot:
			p.maxARow = a.MaxRowNNZ()
			p.heapNInspect = resolveHeapNInspect(opt)
		case AlgoHybrid:
			// The chosen costs feed planSchedule; skip the vector when
			// the schedule is explicitly cost-blind.
			needCost := opt.Schedule != SchedFixedGrain && opt.Schedule != SchedWorkSteal
			polyCost = p.planHybrid(a, b, needCost)
			// Sizing hints only for the families some run actually
			// bound — unused families must stay costless. Only the
			// plain-mask Hash binder reads maxMaskRow (the complement
			// hash sizes per row by the generation bound).
			if !opt.Complement && p.polyFams.Has(FamHash) {
				p.maxMaskRow = mask.MaxRowNNZ()
			}
			if p.polyFams.Has(FamHeap) {
				p.maxARow = a.MaxRowNNZ()
				p.heapNInspect = resolveHeapNInspect(opt)
			}
		}
		// The CSC structure comes after the scheme analysis: a poly
		// plan pulls from B by column only when some run bound FamPull.
		if p.needsCSC() && !info.TransposePerExecute {
			p.btPtr, p.btIdx, p.btPerm = sparse.ToCSCStructure(b)
		}
		// Scheduling comes last: the per-row poly costs double as the
		// scheduling profile.
		p.planSchedule(a, b, polyCost)
	}
	return p, nil
}

// needsCSC reports whether this plan's execution pulls from B by
// column. For poly plans (AlgoHybrid) the registry capability is
// refined to whether any row actually bound the pull family.
func (p *Plan[T, S]) needsCSC() bool {
	if p.opt.Algorithm == AlgoHybrid {
		return p.polyFams.Has(FamPull)
	}
	if p.opt.Complement {
		return p.info.ComplementNeedsCSC
	}
	return p.info.NeedsCSC
}

// resolveHeapNInspect folds the HeapNInspect override into the
// per-algorithm default (1 for Heap, ∞ for HeapDot; §5.5).
func resolveHeapNInspect(opt Options) int {
	nInspect := 1
	if opt.Algorithm == AlgoHeapDot {
		nInspect = heapInspectInf
	}
	switch {
	case opt.HeapNInspect == HeapInspectNone:
		nInspect = 0
	case opt.HeapNInspect > 0:
		nInspect = opt.HeapNInspect
	}
	return nInspect
}

// Options returns the plan's normalized options.
func (p *Plan[T, S]) Options() Options { return p.opt }

// FlopsEstimate returns the unmasked multiply–add count of the planned
// product (cached after the first call; safe on shared plans). It
// needs the numeric A and B only for their structure, so any
// Execute-compatible pair works. The once-guarded write to p.flops is
// the one sanctioned post-construction mutation.
//
//mspgemm:planwrite
func (p *Plan[T, S]) FlopsEstimate(a, b *sparse.CSR[T]) int64 {
	p.flopsOnce.Do(func() {
		p.flops = Flops(a, b)
	})
	return p.flops
}

// footprintBytes estimates the retained memory of the plan's analysis
// arrays, the unit a PlanCache's byte bound meters. The mask is
// counted because cached plans own a private clone of it; one-phase
// plain offsets alias the mask's RowPtr and are not double-counted.
func (p *Plan[T, S]) footprintBytes() int64 {
	const structOverhead = 256
	bytes := int64(structOverhead)
	bytes += int64(len(p.mask.RowPtr))*8 + int64(len(p.mask.ColIdx))*4
	if len(p.offsets) > 0 && (len(p.mask.RowPtr) == 0 || &p.offsets[0] != &p.mask.RowPtr[0]) {
		bytes += int64(len(p.offsets)) * 8
	}
	bytes += int64(len(p.btPtr))*8 + int64(len(p.btIdx))*4 + int64(len(p.btPerm))*8
	bytes += int64(len(p.runEnds))*4 + int64(len(p.runFam))
	bytes += int64(len(p.costPrefix)) * 8
	return bytes
}

// checkArgs verifies an Execute argument pair matches the planned
// structure. The check is cheap (shapes and nnz); passing matrices
// with the same counts but different patterns is undefined behaviour,
// as documented on Execute.
func (p *Plan[T, S]) checkArgs(a, b *sparse.CSR[T]) error {
	if a.Rows != p.aRows || a.Cols != p.aCols || a.NNZ() != p.aNNZ {
		return fmt.Errorf("core: plan expects A %dx%d (nnz %d), got %dx%d (nnz %d)",
			p.aRows, p.aCols, p.aNNZ, a.Rows, a.Cols, a.NNZ())
	}
	if b.Rows != p.bRows || b.Cols != p.bCols || b.NNZ() != p.bNNZ {
		return fmt.Errorf("core: plan expects B %dx%d (nnz %d), got %dx%d (nnz %d)",
			p.bRows, p.bCols, p.bNNZ, b.Rows, b.Cols, b.NNZ())
	}
	return nil
}

// Execute runs the planned product on (a, b) using the plan's default
// executor — the single-owner path. Plans built for a PlanCache have
// no default executor (they are shared, and an executor must not be);
// execute those with ExecuteOn.
func (p *Plan[T, S]) Execute(a, b *sparse.CSR[T]) (*sparse.CSR[T], error) {
	if p.exec == nil {
		return nil, errors.New("core: shared plan has no default executor; use ExecuteOn with an owned executor")
	}
	return p.ExecuteOn(p.exec, a, b)
}

// ExecuteOn runs the planned product on (a, b) drawing all mutable
// execution state from exec. (a, b) must have the structure the plan
// was built from (values may differ — that is the point of reuse).
// Output rows are sorted.
//
// The plan itself is read-only here, so any number of goroutines may
// ExecuteOn one shared plan concurrently, provided each uses its own
// executor that it owns exclusively for the duration of the call (the
// ExecutorPool checkout contract, DESIGN.md §8).
//
// With Options.ReuseOutput set at plan time, the returned matrix is
// backed by executor-owned buffers and stays valid only until the next
// execution on the same executor — for pooled executors that means
// until the executor is returned; Clone the result to retain it.
// Without it (the default) the output is freshly allocated and only
// the internal scratch is pooled.
//
// ExecuteOn applies the execution-only options frozen into the plan;
// cache-shared plans are built with those zeroed (plan identity never
// includes them), so serving layers that honor per-request width,
// telemetry, or output-ownership choices use ExecuteOnOpts.
func (p *Plan[T, S]) ExecuteOn(exec *Executor[T, S], a, b *sparse.CSR[T]) (*sparse.CSR[T], error) {
	return p.ExecuteOnOpts(exec, a, b, p.opt.ExecOnly())
}

// ExecuteOnOpts is ExecuteOn with the execution-only options supplied
// per call instead of read from the plan. This is what lets one cached
// plan serve requests that differ only in width (Threads), telemetry
// (CollectSchedStats), or output ownership (ReuseOutput): those knobs
// never affect the analysis, so they are not part of plan identity —
// they are decided here, at execution time. A cost-partitioned plan
// cuts its partition bounds for eo.Threads into an executor-owned
// buffer, so executions stay allocation-free.
//
// Fault containment (DESIGN.md §15): a latched eo.Cancel token stops
// the execution at the next block claim or pass checkpoint and returns
// a *CanceledError naming the interrupted pass; a panic anywhere in
// the execution — kernel workers included — is recovered here and
// returned as a *KernelPanicError. In both cases the executor's
// scratch may be half-mutated, so pooled executors must be discarded
// (ExecutorPool.Discard), not returned.
func (p *Plan[T, S]) ExecuteOnOpts(exec *Executor[T, S], a, b *sparse.CSR[T], eo ExecOptions) (out *sparse.CSR[T], err error) {
	if exec == nil {
		return nil, errors.New("core: ExecuteOn requires an executor")
	}
	threads := parallel.Threads(eo.Threads)
	if eo.CollectSchedStats {
		// Reset before argument validation and the direct-scheme branch:
		// an execution that errors early or collects no telemetry (direct
		// schemes have no row passes) must read as empty, not replay the
		// previous execution's record.
		exec.schedStats.Reset(threads)
	}
	if err := p.checkArgs(a, b); err != nil {
		return nil, err
	}
	defer func() {
		if r := recover(); r != nil {
			out, err = nil, asKernelPanic(p.opt.SchemeName(), r)
		}
	}()
	fi := faultinject.Active()
	cancel := eo.Cancel
	if fi != nil && cancel == nil {
		// The cancel-at-checkpoint fault needs a token to latch even
		// when the caller supplied none.
		cancel = new(parallel.CancelToken)
	}
	if p.reg.direct != nil {
		return p.reg.direct(p, a, b, threads)
	}
	exec.ensureWorkers(threads)
	exec.prepareCSC(p, b)
	k := exec.kernelsFor(p, a, b)
	es := &exec.scratch
	es.reuseOut = eo.ReuseOutput
	sch := rowSched{threads: threads, grain: p.opt.Grain, mode: p.sched, cancel: cancel, fi: fi}
	if p.sched == SchedCostPartition {
		exec.partBounds = p.partitions(threads, exec.partBounds)
		sch.bounds = exec.partBounds
	}
	if eo.CollectSchedStats {
		sch.stats = &exec.schedStats
	}
	if p.opt.Phases == TwoPhase {
		return twoPhase(p.mask.Rows, p.mask.Cols, sch, k, es)
	}
	return onePhase(p.mask.Rows, p.mask.Cols, p.offsets, sch, k, es)
}

// ExecuteOnCtx is ExecuteOnOpts bounded by a context: when ctx can be
// canceled, a watcher goroutine latches the execution's cancel token
// the moment ctx is done, and the execution returns *CanceledError at
// its next checkpoint. The watcher is torn down before returning. A
// caller-supplied eo.Cancel token is shared with the context watcher;
// otherwise a fresh token is created for the call.
func (p *Plan[T, S]) ExecuteOnCtx(ctx context.Context, exec *Executor[T, S], a, b *sparse.CSR[T], eo ExecOptions) (*sparse.CSR[T], error) {
	if done := ctx.Done(); done != nil {
		if eo.Cancel == nil {
			eo.Cancel = new(parallel.CancelToken)
		}
		token := eo.Cancel
		if ctx.Err() != nil {
			// Already canceled: latch synchronously so the execution
			// deterministically stops at its first checkpoint instead
			// of racing the watcher goroutine.
			token.Cancel()
		} else {
			stop := make(chan struct{})
			defer close(stop)
			go func() {
				select {
				case <-done:
					token.Cancel()
				case <-stop:
				}
			}()
		}
	}
	return p.ExecuteOnOpts(exec, a, b, eo)
}

// SchedStats returns the default executor's scheduler telemetry from
// the most recent execution run with Options.CollectSchedStats (see
// Executor.SchedStats). Zero for detached (cache-built) plans, which
// have no default executor.
func (p *Plan[T, S]) SchedStats() parallel.SchedStats {
	if p.exec == nil {
		return parallel.SchedStats{}
	}
	return p.exec.SchedStats()
}
