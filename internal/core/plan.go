package core

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"

	"maskedspgemm/internal/accum"
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
// family decisions, and the cost profile. Executing the plan then does
// only the numeric work.
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
// concurrent requests. Its only sanctioned post-construction writes are
// atomic: on a plan a PlanCache built over the served semiring
// (ownedBy), the count of its clean one-phase
// executions of each kind — full product or one triangle — and, once,
// from the second, the record its hits of that kind run by (remember),
// over one output pattern (sharePattern), with its product schedule
// (both kinds' one record) or dot bitmap; and the last resident value
// array an execution proved symmetric (provedSymmetric). All
// mutable execution state (accumulators, slabs, the refreshed CSC
// values of B, bound kernels) lives in the Executor, which is NOT concurrency-safe: concurrent
// executions of a shared plan must each use their own executor
// (ExecuteOn), typically checked out of an ExecutorPool.
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
	// sym is the one-triangle analysis of a symmetric self-product
	// (planSymmetric); nil for every other product. Executions use it
	// only while A's values allow (Plan.half).
	sym *symHalf
	// btPtr/btIdx/btPerm are the CSC *structure* of B for pull-based
	// schemes. Values are not part of the plan: every ExecuteOn
	// refreshes them through btPerm into an executor-owned buffer,
	// since callers may mutate B's values in place between executions.
	// A PlanCache shares one copy among its plans over the same B
	// (cscStructure), so the arrays are read-only.
	btPtr  []int64
	btIdx  []int32
	btPerm []int64
	// rowBinding is how executions over the plan's mask rows (or mask
	// halves) bind and schedule them, its push/Pull hits too; zero for
	// direct schemes.
	rowBinding

	// shared is the one output pattern a plan built by a PlanCache
	// remembers (sharePattern); nil until then, and always nil on plans
	// that do not remember.
	shared atomic.Pointer[knownPattern]
	// fullHit and halfHit are what the plan remembers for its
	// full-product and its one-triangle hits (remember), possibly one.
	fullHit, halfHit hitKind
	// symVals is the first element of the last resident value array of
	// A proved symmetric (provedSymmetric); executions on that array
	// with ExecOptions.Resident skip the values check (Plan.half).
	symVals atomic.Pointer[T]
	// owner and key name the cache entry of a plan a PlanCache built
	// over the served semiring (ownedBy), the entry what it remembers is
	// charged to. owner is nil on every other plan, and such plans never
	// remember.
	owner *PlanCache[T, S]
	key   planKey

	// exec is the plan's default executor, used by the single-owner
	// Execute path. Detached plans (built for a PlanCache) have none and
	// are executed via ExecuteOn.
	exec *Executor[T, S]
	reg  schemeKernels[T, S]
}

// NewPlan validates and analyzes one masked product and returns a
// reusable execution plan. exec supplies the pooled workspaces; nil
// creates a private one. opt is frozen into the plan;
// its execution-only fields (Threads included) are the defaults
// Execute and ExecuteOn run with.
//
//mspgemm:planwrite
func NewPlan[T any, S semiring.Semiring[T]](sr S, mask *sparse.Pattern, a, b *sparse.CSR[T], opt Options, exec *Executor[T, S]) (*Plan[T, S], error) {
	p, err := newDetachedPlan(sr, mask, a, b, opt, nil, nil)
	if err != nil {
		return nil, err
	}
	if exec == nil {
		exec = NewExecutor[T](sr)
	}
	p.exec = exec
	return p, nil
}

// cscStructure is the CSC structure of B a pull-based plan reads
// (Plan.btPtr, btIdx, btPerm), as sparse.ToCSCStructure builds it.
type cscStructure struct {
	ptr  []int64
	idx  []int32
	perm []int64
}

// newDetachedPlan builds the immutable analysis without binding an
// executor — the form a PlanCache stores and shares across goroutines.
// bt, when non-nil, is B's CSC structure already built for an equal
// structure; the plan aliases it instead of transposing B again if it
// pulls from B by column. nil transposes B when needed. fp, when
// non-nil, holds the operands' structural fingerprints, which tell
// whether the mask and B have A's structure; nil reads that from
// shared arrays.
//
//mspgemm:planwrite
func newDetachedPlan[T any, S semiring.Semiring[T]](sr S, mask *sparse.Pattern, a, b *sparse.CSR[T], opt Options, bt *cscStructure, fp *Fingerprints) (*Plan[T, S], error) {
	if err := validate(mask, a, b); err != nil {
		return nil, err
	}
	info, ok := LookupScheme(opt.Algorithm)
	if !ok {
		return nil, fmt.Errorf("core: unknown algorithm %v", opt.Algorithm)
	}
	if opt.Complement && !info.Complement {
		return nil, errors.New(info.ComplementNote)
	}
	if opt.Phases == TwoPhase && !info.Paper {
		return nil, fmt.Errorf("core: %s runs one-phase only; two-phase (§6) is for the paper's schemes", info.Name)
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
				p.offsets = complementBounds(mask, a, b, parallel.Threads(0))
			} else {
				p.offsets = mask.RowPtr
			}
		}
		// The baselines stand for other libraries and keep their full
		// products.
		if !info.TransposePerExecute {
			var maskIsA, bIsA bool
			if fp != nil {
				maskIsA, bIsA = fp.Mask == fp.A, fp.B == fp.A
			} else {
				maskIsA, bIsA = sameArrays(mask, &a.Pattern), sameArrays(&b.Pattern, &a.Pattern)
			}
			p.sym = planSymmetric(sr, opt, mask, maskIsA, bIsA)
		}
		p.rowBinding = p.bindRows(maskRows{mask, p.sym}, a, b)
		// The CSC structure comes after the scheme analysis: a poly
		// plan pulls from B by column only when some run bound FamPull.
		// A symmetric B is its own CSC structure (prepareCSC), so a
		// symmetric self-product transposes nothing.
		if p.needsCSC(&p.rowBinding) && !info.TransposePerExecute && p.sym == nil {
			if bt != nil {
				p.btPtr, p.btIdx, p.btPerm = bt.ptr, bt.idx, bt.perm
			} else {
				p.btPtr, p.btIdx, p.btPerm = sparse.ToCSCStructure(b)
			}
		}
	}
	return p, nil
}

// needsCSC reports whether executions bound by rb pull from B by
// column. For poly plans (AlgoHybrid) the registry capability is
// refined to whether any row of rb bound the pull family.
func (p *Plan[T, S]) needsCSC(rb *rowBinding) bool {
	if p.opt.Algorithm == AlgoHybrid {
		return rb.polyFams.Has(FamPull)
	}
	return p.info.NeedsCSC
}

// cscOfB returns the CSC structure of B the plan holds, as Pull reads
// it (prepareCSC): a symmetric self-product's own rows, or the plan's
// transpose. Both are nil on a plan that holds none.
func (p *Plan[T, S]) cscOfB() ([]int64, []int32) {
	if p.sym != nil {
		return p.mask.RowPtr, p.mask.ColIdx
	}
	return p.btPtr, p.btIdx
}

// Options returns the plan's normalized options.
func (p *Plan[T, S]) Options() Options { return p.opt }

// knownPattern is a remembered output pattern: the RowPtr and ColIdx
// of one execution's result, shared read-only by the plan, its known
// half and every later result.
type knownPattern struct {
	rowPtr []int64
	colIdx []int32
}

// bytes is the memory a remembered pattern retains, the amount its
// plan's cache entry is charged.
func (k *knownPattern) bytes() int64 {
	return int64(len(k.rowPtr))*8 + int64(len(k.colIdx))*4
}

// errPatternChanged is the panic of a hit's Pull row whose dot finds
// no product on a known column — operands whose structure differs from
// the plan's, which the Execute contract leaves undefined.
// ExecuteOnOpts returns it wrapped in a *KernelPanicError.
var errPatternChanged = errors.New("core: a known column of the plan's remembered output pattern has no product; operand structure changed under the plan")

// ownedBy records that cache c built the plan under key when the plan's
// semiring is the served one, PlusTimes[float64]: only such a plan
// remembers, and c's entry for key is charged for what it remembers.
// The plans of every other semiring run first executions every time
// (DESIGN.md §5, "Remember"). It runs before the plan is published to
// the cache.
//
//mspgemm:planwrite
func (p *Plan[T, S]) ownedBy(c *PlanCache[T, S], key planKey) {
	if _, ok := any(p.sr).(accum.PlusTimes64); ok {
		p.owner, p.key = c, key
	}
}

// hitKind is what a plan keeps for one kind of hit: the count of its
// clean one-phase executions of that kind, and, from the second on, the
// record the kind's hits run by, both kinds' when it replays (remember).
type hitKind struct {
	runs atomic.Int64
	rec  atomic.Pointer[hitRecord]
}

// hitRecord is everything a kind of plan hit runs by (DESIGN.md §5,
// "Known pattern"), published whole (Plan.remember): the output pattern
// the hit writes, which the plan's two kinds share; the tier its hits
// run in: the full product's schedule it replays, or nil when the
// products break the replay rule, and then the dot bitmap it walks, or
// nil when the plan holds no CSC structure of B or the bitmap breaks
// its memory rule, and then push and Pull under the plan's own binding;
// and, for a one-triangle hit that does not replay, the known half it
// computes — the plan's symmetric analysis with its offsets narrowed to
// the columns each row's output half holds — and the transpose map
// knownPhase copies values by. Every output entry of a half lies in the
// known half, so a hit over it computes the same entries from the same
// products, in the same order, as an execution over the mask halves.
//
//mspgemm:immutable
type hitRecord struct {
	pat  *knownPattern
	half *symHalf
	// tpos maps every known-half entry to the output position of its
	// transpose: row i's entries are tpos[off[i]:off[i+1]], in column
	// order, and a diagonal entry's position is its own.
	tpos  []int32
	sched *schedule
	dots  *dotBitmap
}

// bytes is the memory the record adds to its plan's cache entry beyond
// the shared pattern: a known half's offsets and transpose map, and the
// schedule or the dot bitmap. The mask structure, the mirror map and
// the binding are the plan's.
func (r *hitRecord) bytes() int64 {
	var n int64
	if r.half != nil {
		n = int64(len(r.half.off))*8 + int64(len(r.tpos))*4
	}
	return n + r.tierBytes()
}

// hitTier is the tier a record's hits run in (DESIGN.md §5, "Bitmap
// hits"): push and Pull under the plan's binding, replaying its product
// schedule, or walking its dot bitmap. tierNone is the tier of no
// record, and so of an executor that has bound no hit (Executor.hitRec).
type hitTier int

const (
	tierNone hitTier = iota
	tierPushPull
	tierReplay
	tierBitmap
)

// tier returns the tier r's hits run in: replay when it keeps a
// schedule, else the bitmap when it keeps one, else push and Pull; and
// no tier for no record.
func (r *hitRecord) tier() hitTier {
	switch {
	case r == nil:
		return tierNone
	case r.sched != nil:
		return tierReplay
	case r.dots != nil:
		return tierBitmap
	}
	return tierPushPull
}

// tierBytes is the memory of what r's tier runs by: its schedule or its
// dot bitmap, and nothing for push and Pull, whose binding is the
// plan's.
func (r *hitRecord) tierBytes() int64 {
	switch r.tier() {
	case tierReplay:
		return r.sched.bytes()
	case tierBitmap:
		return r.dots.bytes()
	}
	return 0
}

// remember counts a clean one-phase execution of kind k — over the
// plan's mask halves h, or the full product when h is nil — whose
// result over (a, b) is out. The first is only counted, so a plan that
// runs once, a cold miss whose entry is evicted before the structure
// recurs, charges nothing for a record no request reads. The execution
// that counts the second alone builds the kind's whole record from out
// at width threads, publishes it, and charges its bytes to the plan's
// cache entry at once, with the pattern's when the record is the first
// to share it. The record replays the full product's schedule where the
// replay rule allows one, a half execution's too once its known half's
// products fit the rule (DESIGN.md §5, "The full product first"), and
// otherwise keeps a half's known half and transpose map, and its dot
// bitmap. A full-product replay, exact on any values, is both kinds'
// one record, charged once: it takes the full product's slot, or that
// slot's record, then the other if empty. A half execution's out is as
// mirrorPass wrote it: each output row's entries on the computed side
// of the diagonal are its computed half.
//
//mspgemm:planwrite
func (p *Plan[T, S]) remember(k *hitKind, h *symHalf, out, a, b *sparse.CSR[T], threads int) {
	if k.runs.Add(1) != 2 {
		return
	}
	pat, charge := p.sharePattern(out)
	rec := &hitRecord{pat: pat}
	if h != nil {
		half := *h
		half.off = halfOffsets(pat.rowPtr, pat.colIdx, half.upper)
		rec.half = &half
	}
	if rec.half == nil || p.productsFit(rec, a, b, threads) {
		if sched := p.buildSchedule(pat, a, b, threads); sched != nil {
			rec = &hitRecord{pat: pat, sched: sched}
		}
	}
	if rec.sched == nil {
		if h := rec.half; h != nil {
			// Row c's other entries, the transposes (c, j) of the half
			// entries (j, c), sit after its half in the lower triangle and
			// before it in the upper, in ascending j, so one cursor per
			// row, met in row order, places them all.
			rows, rowPtr, colIdx, off := out.Rows, pat.rowPtr, pat.colIdx, h.off
			next := make([]int64, rows)
			for c := range rows {
				next[c] = rowPtr[c]
				if !h.upper {
					next[c] += off[c+1] - off[c]
				}
			}
			rec.tpos = make([]int32, off[rows])
			for i := range rows {
				lo, hi := h.span(rowPtr, i)
				row := rec.tpos[off[i]:off[i+1]]
				for q, c := range colIdx[lo:hi] {
					if int(c) == i {
						row[q] = int32(lo) + int32(q)
						continue
					}
					row[q] = int32(next[c])
					next[c]++
				}
			}
		}
		rec.dots = p.buildDots(rec, a, threads)
	}
	if rec.sched != nil {
		k = &p.fullHit
	}
	if k.rec.CompareAndSwap(nil, rec) {
		charge += rec.bytes()
	}
	if rec := k.rec.Load(); rec.sched != nil && p.sym != nil {
		p.halfHit.rec.CompareAndSwap(nil, rec)
	}
	p.owner.chargeRemembered(p, charge)
}

// sharePattern returns the plan's one remembered output pattern, which
// its two kinds of hit share: out's RowPtr and ColIdx, aliased, when it
// has none yet, and the first compare-and-swap's otherwise, whose equal
// arrays out then takes. It also returns the bytes the caller charges
// for the pattern: its size for the compare-and-swap's winner, and 0
// otherwise.
//
//mspgemm:planwrite
func (p *Plan[T, S]) sharePattern(out *sparse.CSR[T]) (*knownPattern, int64) {
	pat := &knownPattern{rowPtr: out.RowPtr, colIdx: out.ColIdx}
	var charge int64
	if p.shared.CompareAndSwap(nil, pat) {
		charge = pat.bytes()
	} else {
		pat = p.shared.Load()
	}
	out.RowPtr, out.ColIdx = pat.rowPtr, pat.colIdx
	return pat, charge
}

// footprintBytes estimates the retained memory of the plan's analysis
// arrays, the unit a PlanCache accounts against its MemBudget. The
// mask and B's CSC structure are counted whether the plan owns them (a clone, a
// private transpose) or shares them (a stored mask, the cache's CSC
// index): shared bytes are over-counted, never under-counted. One-phase
// plain offsets alias the mask's RowPtr and are not double-counted; a
// symmetric self-product adds its mirror map and half offsets. A
// remembered output pattern is charged separately, once, when it is
// published (remember), with the record of the kind of hit that
// published it.
func (p *Plan[T, S]) footprintBytes() int64 {
	const structOverhead = 256
	bytes := int64(structOverhead)
	bytes += int64(len(p.mask.RowPtr))*8 + int64(len(p.mask.ColIdx))*4
	if len(p.offsets) > 0 && (len(p.mask.RowPtr) == 0 || &p.offsets[0] != &p.mask.RowPtr[0]) {
		bytes += int64(len(p.offsets)) * 8
	}
	bytes += int64(len(p.btPtr))*8 + int64(len(p.btIdx))*4 + int64(len(p.btPerm))*8
	bytes += p.rowBinding.bytes()
	bytes += p.sym.bytes()
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
// the internal scratch is pooled — except on a plan a PlanCache built
// over the served semiring, PlusTimes[float64] (ownedBy). Such a
// plan's second clean one-phase execution of each kind, full product
// or one triangle, publishes the kind's record — the output pattern
// with the full product's schedule, both kinds' record, or with a
// known half or none and a dot bitmap — and every later execution of
// that kind is a hit that runs by it, under the plan's binding when it
// keeps neither schedule nor bitmap. The publishing result and every
// hit's share RowPtr and ColIdx with the plan's remembered output
// pattern: treat them as read-only, and Clone a result to own every
// array. A push/Pull hit trusts the pattern on push rows, and a Pull
// row returns a *KernelPanicError on a known column its dot finds no
// product on, so (a, b) of another structure may give a wrong result
// or that error. A hit that replays the record's product schedule
// trusts the schedule: (a, b) of another structure but the planned nnz
// give a result of the remembered pattern whose values are the
// products at the remembered value positions, which are all in range,
// and no error. A hit that walks the record's dot bitmap trusts the
// bitmap, and each entry's walk is clamped to its column of the plan's
// CSC structure of B: (a, b) of another structure but the planned nnz
// give a result of the remembered pattern, whose values sum products
// at positions that are all in range, and no error.
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
// they are decided here, at execution time. The plan's cost prefix is
// cut into partition bounds for eo.Threads in an executor-owned
// buffer, so executions stay allocation-free.
//
// Fault containment (DESIGN.md §15): a latched eo.Cancel token stops
// the execution at the next partition claim or pass checkpoint and returns
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
		exec.passTimes = PassTimes{}
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
		return p.reg.direct(p, a, b, ExecOptions{Threads: threads, Cancel: cancel})
	}
	exec.ensureWorkers(threads)
	// A hit runs by its kind's record; by one both share, it checks no values.
	kind, rec := &p.fullHit, p.fullHit.rec.Load()
	var h *symHalf
	if halfRec := p.halfHit.rec.Load(); rec == nil || rec != halfRec {
		if h = p.half(a, b, eo.Resident); h != nil {
			kind, rec = &p.halfHit, halfRec
		}
	}
	es := &exec.scratch
	es.reuseOut = eo.ReuseOutput
	// The partitions are cut from the prefix of what the execution's rows
	// cost: the products of a replayed hit, the bits of a bitmap hit, and
	// the plan's binding's costs otherwise.
	prefix := p.costPrefix
	switch rec.tier() {
	case tierReplay:
		prefix = rec.sched.prefix
		if prefix[len(prefix)-1] < replaySerialProducts {
			threads = 1
		}
	case tierBitmap:
		exec.prepareCSC(p, b, h)
		prefix = rec.dots.prefix
	default:
		if p.needsCSC(&p.rowBinding) {
			exec.prepareCSC(p, b, h)
		}
	}
	exec.partBounds = partitions(prefix, threads, exec.partBounds)
	sch := rowSched{threads: threads, bounds: exec.partBounds, clock: &exec.clock, cancel: cancel, fi: fi}
	exec.clock.times = nil
	if eo.CollectSchedStats {
		sch.stats = &exec.schedStats
		exec.clock.times = &exec.passTimes
	}
	defer exec.clock.done()
	if rec != nil {
		return knownPhase(p.mask.Rows, p.mask.Cols, rec, sch, exec.hitKernelFor(p, a, b, rec), es)
	}
	k := exec.kernelsFor(p, a, b, h)
	if p.opt.Phases == TwoPhase {
		return twoPhase(p.mask.Rows, p.mask.Cols, sch, k, es)
	}
	out, err = onePhase(p.mask.Rows, p.mask.Cols, p.offsets, sch, k, es, h)
	// A plan a PlanCache built over the served semiring counts its clean
	// executions of each kind into fresh arrays, and publishes the kind's
	// record from the second.
	if err == nil && p.owner != nil && !eo.ReuseOutput {
		p.remember(kind, h, out, a, b, threads)
	}
	return out, err
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
