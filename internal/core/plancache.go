package core

import (
	"cmp"
	"container/list"
	"errors"
	"sync"

	"maskedspgemm/internal/semiring"
	"maskedspgemm/internal/sparse"
)

// errPlanningPanicked is delivered to singleflight waiters whose
// planner goroutine panicked: the panic propagates on the planner's
// own stack, waiters get this error, and the key is unregistered so a
// retry plans afresh.
var errPlanningPanicked = errors.New("core: concurrent plan analysis panicked; retry")

// PlanCache is a concurrency-safe LRU cache of execution plans keyed
// by operand *structure*. A server answering many queries against a
// fixed graph — or an iterative algorithm whose mask structure
// recurs — repeats exactly the per-structure analysis NewPlan does
// (validation, slab layout, CSC transposition, hybrid cost modeling);
// the cache turns those repeats into a fingerprint pass plus a map
// lookup, which BenchmarkPlanCache shows is allocation-free and an
// order of magnitude cheaper than re-planning.
//
// Keys combine the structural fingerprints of mask, A, and B
// (sparse.Pattern.Fingerprint — values never enter, so matrices whose
// numbers change in place keep hitting) with the normalized
// *plan-affecting* Options. Execution-only options (Threads,
// CollectSchedStats, ReuseOutput) never enter the key — they change
// what one execution does, not the analysis — so warming a structure
// and later requesting it at another width or with telemetry on still
// hits, and a GOMAXPROCS change orphans nothing; supply them per
// execution via Plan.ExecuteOnOpts. Cached plans are likewise built
// with those fields zeroed, making the stored plan canonical
// regardless of which request planted it.
//
// Operands come in two ownerships (DESIGN.md §8). Caller-owned
// operands (GetOrPlan, GetOrPlanObserved) are fingerprinted on every
// lookup: the cache never trusts pointer identity, so mutating a
// matrix's structure in place simply misses and plans afresh, and a
// plan built from them owns a private clone of the mask, immune to the
// caller mutating the original after insertion. Stored operands
// (GetOrPlanStored) are immutable by contract and arrive with the
// fingerprints they are stored under: the lookup trusts those instead
// of hashing, and the plan aliases the mask's arrays instead of
// cloning them. Both go through one miss path. Two different
// structures colliding on all three 64-bit fingerprints would alias an
// entry; the probability is ~2⁻⁶⁴ per pair and is accepted.
//
// Plans that pull from B by column share B's CSC structure through a
// per-cache index keyed by B's fingerprint: the first plan over a B
// transposes it, later ones alias that transpose, and the index drops
// it when the last resident plan using it leaves the cache.
//
// Plans returned by GetOrPlan are immutable and shared: any number of
// goroutines may hold and ExecuteOn one concurrently, each with its
// own executor. They have no default executor, so Plan.Execute errors;
// pair the cache with an ExecutorPool.
//
// A one-phase plan the cache built remembers the output pattern of
// its second clean full-product execution (DESIGN.md §5): later
// executions write only values, into exact rows, and return results
// that share RowPtr and ColIdx with the plan. Such results must not be
// mutated; Clone one to own its arrays. The pattern's 8·(rows+1) +
// 4·nnz bytes are charged to the plan's entry, and to the MemBudget,
// once, when it is published, and leave with the entry. A one-triangle
// plan likewise remembers the output pattern of its second clean half
// execution. A plan decides once whether its hits replay the full
// product's schedule (DESIGN.md §5, "Replayed hits"): it keeps one only
// if the product, and a one-triangle plan's known half, hold at most two
// products per entry, about 20 bytes per entry, charged the same way.
// Without one, a one-triangle plan keeps its known half and a transpose
// map, and its hits compute only the known columns; a plan that holds
// B's CSC structure keeps a dot bitmap, under its own memory rule
// ("Bitmap hits"); a plan that keeps neither charges nothing more, and
// its hits run push and Pull under the plan's binding.
type PlanCache[T any, S semiring.Semiring[T]] struct {
	sr         S
	maxEntries int

	mu        sync.Mutex
	lru       *list.List // front = most recently used; values are *planEntry[T, S]
	table     map[planKey]*list.Element
	inflight  map[planKey]*planCall[T, S]
	bytes     int64
	hits      uint64
	misses    uint64
	coalesced uint64
	evicted   uint64

	// budget, when attached, is the shared byte budget this cache
	// accounts its footprint against; entries then carry stamps from
	// the budget's clock so cross-member eviction is globally LRU.
	budget *MemBudget

	// csc is the shared CSC index: B's CSC structure by B's
	// fingerprint, for the resident plans that pull from B by column.
	// Guarded by mu.
	csc map[uint64]*sharedCSC
}

// planCall is one in-flight planning operation coalescing concurrent
// misses on the same key (singleflight): the first misser plans, later
// missers block on done and share the result. plan/err are written
// before done closes, so waiters read them race-free.
type planCall[T any, S semiring.Semiring[T]] struct {
	done chan struct{}
	plan *Plan[T, S]
	err  error
}

// planKey identifies one cached analysis: the three operand structure
// fingerprints plus the normalized plan-identity Options — execution-
// only fields zeroed (Options is a comparable all-scalar struct, so
// the key works as a map key without allocation).
type planKey struct {
	fp  Fingerprints
	opt Options
}

// Fingerprints are the structural fingerprints of a product's operands
// (sparse.Pattern.Fingerprint), the identities a plan-cache key holds.
type Fingerprints struct {
	// Mask is the mask's fingerprint.
	Mask uint64
	// A is the left operand's fingerprint.
	A uint64
	// B is the right operand's fingerprint.
	B uint64
}

// sharedCSC is one entry of a cache's CSC index: B's CSC structure,
// read-only, and the number of resident plans using it.
type sharedCSC struct {
	cscStructure
	users int
}

type planEntry[T any, S semiring.Semiring[T]] struct {
	key   planKey
	plan  *Plan[T, S]
	bytes int64
	// stamp is the shared-budget LRU tick of the entry's last touch;
	// meaningful only while a MemBudget is attached.
	stamp uint64
}

// DefaultPlanCacheEntries is the entry bound used when NewPlanCache is
// given maxEntries <= 0.
const DefaultPlanCacheEntries = 128

// NewPlanCache returns an empty cache over the given semiring holding
// at most maxEntries plans (<= 0 means DefaultPlanCacheEntries),
// evicting least-recently-used entries beyond the bound. Bytes are
// bounded only through a shared MemBudget (AttachBudget).
func NewPlanCache[T any, S semiring.Semiring[T]](sr S, maxEntries int) *PlanCache[T, S] {
	if maxEntries <= 0 {
		maxEntries = DefaultPlanCacheEntries
	}
	return &PlanCache[T, S]{
		sr:         sr,
		maxEntries: maxEntries,
		lru:        list.New(),
		table:      make(map[planKey]*list.Element),
		inflight:   make(map[planKey]*planCall[T, S]),
		csc:        make(map[uint64]*sharedCSC),
	}
}

// AttachBudget makes the cache account its retained bytes against the
// shared budget b (DESIGN.md §13): current and future entries are
// reserved from it, hits refresh their global-LRU stamps, and the
// cache yields its LRU tail to cross-member eviction pressure via the
// BudgetMember methods. Attach before concurrent use; the local
// maxEntries bound keeps applying on top of the shared one.
func (c *PlanCache[T, S]) AttachBudget(b *MemBudget) {
	c.mu.Lock()
	c.budget = b
	b.Reserve(c.bytes)
	c.mu.Unlock()
	b.Register(c)
	b.Rebalance()
}

// BudgetTail implements BudgetMember: the stamp of the LRU entry, if
// the cache holds more than one (the newest entry is never yielded,
// mirroring evictLocked's floor).
func (c *PlanCache[T, S]) BudgetTail() (uint64, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.lru.Len() <= 1 {
		return 0, false
	}
	return c.lru.Back().Value.(*planEntry[T, S]).stamp, true
}

// BudgetEvict implements BudgetMember: drops the LRU entry, releases
// its bytes from the budget, and reports them.
func (c *PlanCache[T, S]) BudgetEvict() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.lru.Len() <= 1 {
		return 0
	}
	el := c.lru.Back()
	entry := el.Value.(*planEntry[T, S])
	c.removeLocked(el, entry)
	return entry.bytes
}

// removeLocked evicts one entry, maintaining counters and the shared
// budget's accounting.
func (c *PlanCache[T, S]) removeLocked(el *list.Element, entry *planEntry[T, S]) {
	c.lru.Remove(el)
	delete(c.table, entry.key)
	c.releaseCSCLocked(entry)
	c.bytes -= entry.bytes
	c.evicted++
	if c.budget != nil {
		c.budget.Release(entry.bytes)
	}
}

// keyFor fingerprints the operands, hashing each distinct Pattern
// object once (mask = A = B is the common case in the graph
// workloads: C = L ⊙ (L·L)). opt must already be in plan-identity
// form (normalized, execution-only fields zeroed).
func (c *PlanCache[T, S]) keyFor(mask *sparse.Pattern, a, b *sparse.CSR[T], opt Options) planKey {
	k := planKey{opt: opt}
	k.fp.Mask = mask.Fingerprint()
	switch {
	case &a.Pattern == mask:
		k.fp.A = k.fp.Mask
	default:
		k.fp.A = a.Pattern.Fingerprint()
	}
	switch {
	case &b.Pattern == mask:
		k.fp.B = k.fp.Mask
	case &b.Pattern == &a.Pattern:
		k.fp.B = k.fp.A
	default:
		k.fp.B = b.Pattern.Fingerprint()
	}
	return k
}

// GetOrPlan returns the cached plan for the operands' structure and
// options, building and inserting it on a miss. The returned plan is
// shared and immutable: execute it with ExecuteOn and an executor the
// caller owns. Lookups from concurrent goroutines are safe; concurrent
// misses on the same structure coalesce onto a single planner
// (singleflight) — the first misser runs the analysis, later missers
// block until it finishes and share the result, so a cold-start burst
// of identical requests plans exactly once (CoalescedMisses counts the
// waiters). A failed planning is not cached: every waiter receives the
// error and the next lookup plans afresh.
//
// Execution-only options are stripped from both the key and the built
// plan (see planIdentity): the cached plan is canonical, and callers
// wanting a per-request width, telemetry, or pooled output pass
// ExecOptions to Plan.ExecuteOnOpts.
func (c *PlanCache[T, S]) GetOrPlan(mask *sparse.Pattern, a, b *sparse.CSR[T], opt Options) (*Plan[T, S], error) {
	plan, _, _, err := c.GetOrPlanObserved(mask, a, b, opt)
	return plan, err
}

// GetOrPlanObserved is GetOrPlan, additionally reporting whether the
// lookup was answered from the cache — the signal a serving layer's
// warm-by-prediction hooks observe — and the operand fingerprints the
// lookup keyed on, so an observer of a miss need not hash the operands
// again. A lookup that coalesced onto another goroutine's in-flight
// planning reports hit = false: the structure was not yet cached when
// the request arrived.
func (c *PlanCache[T, S]) GetOrPlanObserved(mask *sparse.Pattern, a, b *sparse.CSR[T], opt Options) (*Plan[T, S], Fingerprints, bool, error) {
	opt = opt.planIdentity()
	key := c.keyFor(mask, a, b, opt)
	plan, hit, err := c.lookup(key, mask, a, b, false)
	return plan, key.fp, hit, err
}

// GetOrPlanStored is GetOrPlanObserved for stored operands: matrices
// that nobody mutates while any plan may reference them (the operand
// store's contract, DESIGN.md §13), named by the fingerprints fp they
// are stored under. The lookup keys on fp without hashing the
// operands, and a miss builds a plan that aliases mask's arrays
// instead of cloning them. fp must be the operands' structural
// fingerprints; the cache does not check them.
func (c *PlanCache[T, S]) GetOrPlanStored(fp Fingerprints, mask *sparse.Pattern, a, b *sparse.CSR[T], opt Options) (*Plan[T, S], bool, error) {
	return c.lookup(planKey{fp: fp, opt: opt.planIdentity()}, mask, a, b, true)
}

// lookup is the one lookup and miss path behind GetOrPlanObserved and
// GetOrPlanStored. stored says who owns the operands: a stored mask is
// aliased by the plan, a caller-owned one is cloned.
func (c *PlanCache[T, S]) lookup(key planKey, mask *sparse.Pattern, a, b *sparse.CSR[T], stored bool) (*Plan[T, S], bool, error) {
	c.mu.Lock()
	if el, ok := c.table[key]; ok {
		c.lru.MoveToFront(el)
		c.hits++
		entry := el.Value.(*planEntry[T, S])
		if c.budget != nil {
			entry.stamp = c.budget.Stamp()
		}
		plan := entry.plan
		c.mu.Unlock()
		return plan, true, nil
	}
	c.misses++
	if call, ok := c.inflight[key]; ok {
		// Someone is already planning this structure: wait for them
		// instead of duplicating the analysis.
		c.coalesced++
		c.mu.Unlock()
		<-call.done
		return call.plan, false, call.err
	}
	call := &planCall[T, S]{done: make(chan struct{})}
	c.inflight[key] = call
	// A resident plan over the same B already holds its CSC structure;
	// the entry's arrays are never written, so they are read unlocked.
	var bt *cscStructure
	if e := c.csc[key.fp.B]; e != nil {
		bt = &e.cscStructure
	}
	c.mu.Unlock()

	// If planning panics (malformed operand structures), the key must
	// not stay wedged: unregister it and release every waiter with an
	// error before the panic continues unwinding. settled is set on the
	// normal return paths below, which perform their own cleanup.
	settled := false
	defer func() {
		if settled {
			return
		}
		c.mu.Lock()
		delete(c.inflight, key)
		c.mu.Unlock()
		call.err = errPlanningPanicked
		close(call.done)
	}()

	// Plan outside the lock: analysis is the expensive part and must
	// not serialize concurrent lookups of other structures. A
	// caller-owned mask is cloned so the cached plan survives the
	// caller later mutating the original in place (such a mutation
	// changes the fingerprint, so the stale entry can never be returned
	// for the mutated matrix — but it must stay correct for genuine
	// re-occurrences of the old structure). A stored mask is immutable:
	// the plan takes its own header over the same arrays, so it pins
	// the structure but never a matrix that embeds it.
	var planMask *sparse.Pattern
	if stored {
		m := *mask
		planMask = &m
	} else {
		planMask = mask.Clone()
	}
	plan, err := newDetachedPlan(c.sr, planMask, a, b, key.opt, bt, &key.fp)
	if err != nil {
		settled = true
		c.mu.Lock()
		delete(c.inflight, key)
		c.mu.Unlock()
		call.err = err
		close(call.done)
		return nil, false, err
	}
	plan.ownedBy(c, key)
	entry := &planEntry[T, S]{key: key, plan: plan, bytes: plan.footprintBytes()}

	settled = true
	c.mu.Lock()
	delete(c.inflight, key)
	if el, ok := c.table[key]; ok {
		// An entry appeared while we planned (possible only around a
		// concurrent Clear); keep the incumbent so callers converge on
		// one shared plan.
		c.lru.MoveToFront(el)
		plan = el.Value.(*planEntry[T, S]).plan
		c.mu.Unlock()
	} else {
		if c.budget != nil {
			entry.stamp = c.budget.Stamp()
			c.budget.Reserve(entry.bytes)
		}
		el := c.lru.PushFront(entry)
		c.table[key] = el
		c.retainCSCLocked(entry)
		c.bytes += entry.bytes
		c.evictLocked()
		c.mu.Unlock()
		if c.budget != nil {
			// Shared-budget pressure is resolved outside the cache lock:
			// Rebalance may evict from any member, including this cache.
			c.budget.Rebalance()
		}
	}
	call.plan = plan
	close(call.done)
	return plan, false, nil
}

// chargeRemembered adds the n bytes of plan p's newly published hit
// record, with its output pattern when the record is the first to
// share it (Plan.remember), to p's entry and to the shared budget, so
// that the entry releases them with the rest of its bytes. A plan evicted before it remembered is
// not charged: what it remembers lives only as long as the executions
// still holding the plan.
func (c *PlanCache[T, S]) chargeRemembered(p *Plan[T, S], n int64) {
	c.mu.Lock()
	el, ok := c.table[p.key]
	if !ok || el.Value.(*planEntry[T, S]).plan != p {
		c.mu.Unlock()
		return
	}
	el.Value.(*planEntry[T, S]).bytes += n
	c.bytes += n
	if c.budget != nil {
		c.budget.Reserve(n)
	}
	c.mu.Unlock()
	if c.budget != nil {
		c.budget.Rebalance()
	}
}

// retainCSCLocked counts a newly resident entry as a user of its B's
// CSC index entry, filing the plan's own transpose when the index has
// none (the first plan over that B, or one planned across a Clear).
func (c *PlanCache[T, S]) retainCSCLocked(entry *planEntry[T, S]) {
	p := entry.plan
	if p.btPtr == nil {
		return
	}
	e := c.csc[entry.key.fp.B]
	if e == nil {
		e = &sharedCSC{cscStructure: cscStructure{ptr: p.btPtr, idx: p.btIdx, perm: p.btPerm}}
		c.csc[entry.key.fp.B] = e
	}
	e.users++
}

// releaseCSCLocked undoes retainCSCLocked for an entry leaving the
// cache, dropping the index entry with its last user.
func (c *PlanCache[T, S]) releaseCSCLocked(entry *planEntry[T, S]) {
	if entry.plan.btPtr == nil {
		return
	}
	if e := c.csc[entry.key.fp.B]; e != nil {
		if e.users--; e.users == 0 {
			delete(c.csc, entry.key.fp.B)
		}
	}
}

// evictLocked drops least-recently-used entries until the entry bound
// holds.
func (c *PlanCache[T, S]) evictLocked() {
	for c.lru.Len() > c.maxEntries {
		el := c.lru.Back()
		c.removeLocked(el, el.Value.(*planEntry[T, S]))
	}
}

// Len returns the number of cached plans.
func (c *PlanCache[T, S]) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.lru.Len()
}

// Clear empties the cache, keeping the counters. Plans already handed
// out stay valid — clearing only drops the cache's references.
func (c *PlanCache[T, S]) Clear() {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.budget != nil {
		c.budget.Release(c.bytes)
	}
	c.lru.Init()
	clear(c.table)
	clear(c.csc)
	c.bytes = 0
}

// PlanCacheStats is a point-in-time snapshot of cache effectiveness.
type PlanCacheStats struct {
	// Hits counts lookups answered from the cache.
	Hits uint64 `json:"hits"`
	// Misses counts lookups not answered from the cache, including
	// those that coalesced onto another goroutine's in-flight planning.
	Misses uint64 `json:"misses"`
	// CoalescedMisses counts misses that waited on an in-flight planner
	// instead of planning themselves (singleflight): of a burst of N
	// concurrent first requests for one structure, N−1 coalesce.
	CoalescedMisses uint64 `json:"coalesced_misses"`
	// Evictions counts entries dropped by the entry bound or by the
	// shared memory budget's cross-member eviction.
	Evictions uint64 `json:"evictions"`
	// Entries is the current number of cached plans.
	Entries int `json:"entries"`
	// Bytes is the estimated retained analysis memory of all entries.
	Bytes int64 `json:"bytes"`
	// HybridFamilyRows sums, across the currently cached hybrid plans,
	// how many output rows each accumulator family is bound to execute
	// on a plan hit, keyed by Family name ("MSA", "MaskedBit", ...) —
	// the operator's view of per-family adoption. Each plan counts its
	// one binding, which its misses and its push/Pull hits run. A plan
	// whose hits replay a product schedule or walk a dot bitmap runs no
	// family and is counted in ReplayedPlans or BitmapPlans instead. Nil
	// when no cached plan carries a per-row binding its hits run.
	HybridFamilyRows map[string]int64 `json:"hybrid_family_rows,omitempty"`
	// ReplayedPlans counts the cached plans whose hits replay a product
	// schedule (DESIGN.md §5, "Replayed hits"): their one-triangle hits
	// once they have published that record, their full-product hits
	// otherwise. A plan whose two kinds share a record counts once.
	ReplayedPlans int `json:"replayed_plans"`
	// BitmapPlans counts the cached plans whose hits, by the same rule,
	// walk a dot bitmap (DESIGN.md §5, "Bitmap hits").
	BitmapPlans int `json:"bitmap_plans"`
	// ScheduleBytes is the memory the cached plans' product schedules
	// and dot bitmaps hold, each record's once, part of Bytes.
	ScheduleBytes int64 `json:"schedule_bytes"`
}

// Stats returns a snapshot of the cache counters.
func (c *PlanCache[T, S]) Stats() PlanCacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	var famRows map[string]int64
	var replayed, bitmaps int
	var schedBytes int64
	for el := c.lru.Front(); el != nil; el = el.Next() {
		p := el.Value.(*planEntry[T, S]).plan
		// A shared record counts once; the hits are the half record's.
		full, half := p.fullHit.rec.Load(), p.halfHit.rec.Load()
		schedBytes += full.tierBytes()
		if half != full {
			schedBytes += half.tierBytes()
		}
		switch cmp.Or(half, full).tier() {
		case tierReplay:
			replayed++
			continue
		case tierBitmap:
			bitmaps++
			continue
		}
		rb := &p.rowBinding
		if rb.polyFams == 0 {
			continue
		}
		if famRows == nil {
			famRows = make(map[string]int64)
		}
		rows := rb.familyRows()
		for f := Family(0); f < NumFamilies; f++ {
			if rb.polyFams.Has(f) {
				famRows[f.String()] += int64(rows[f])
			}
		}
	}
	return PlanCacheStats{
		Hits:             c.hits,
		Misses:           c.misses,
		CoalescedMisses:  c.coalesced,
		Evictions:        c.evicted,
		Entries:          c.lru.Len(),
		Bytes:            c.bytes,
		HybridFamilyRows: famRows,
		ReplayedPlans:    replayed,
		BitmapPlans:      bitmaps,
		ScheduleBytes:    schedBytes,
	}
}
