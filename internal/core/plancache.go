package core

import (
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
// Fingerprints are recomputed on every lookup: the cache never trusts
// pointer identity, so mutating a matrix's structure in place simply
// misses and plans afresh. Cached plans own a private clone of the
// mask, making entries immune to callers mutating the original mask
// after insertion. Two different structures colliding on all three
// 64-bit fingerprints would alias an entry; the probability is ~2⁻⁶⁴
// per pair and is accepted (DESIGN.md §8).
//
// Plans returned by GetOrPlan are immutable and shared: any number of
// goroutines may hold and ExecuteOn one concurrently, each with its
// own executor. They have no default executor, so Plan.Execute errors;
// pair the cache with an ExecutorPool.
type PlanCache[T any, S semiring.Semiring[T]] struct {
	sr         S
	maxEntries int
	maxBytes   int64

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
	maskFP, aFP, bFP uint64
	opt              Options
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
// at most maxEntries plans (<= 0 means DefaultPlanCacheEntries) and at
// most maxBytes of estimated analysis memory (<= 0 means unbounded).
// Both bounds evict least-recently-used entries.
func NewPlanCache[T any, S semiring.Semiring[T]](sr S, maxEntries int, maxBytes int64) *PlanCache[T, S] {
	if maxEntries <= 0 {
		maxEntries = DefaultPlanCacheEntries
	}
	return &PlanCache[T, S]{
		sr:         sr,
		maxEntries: maxEntries,
		maxBytes:   maxBytes,
		lru:        list.New(),
		table:      make(map[planKey]*list.Element),
		inflight:   make(map[planKey]*planCall[T, S]),
	}
}

// AttachBudget makes the cache account its retained bytes against the
// shared budget b (DESIGN.md §13): current and future entries are
// reserved from it, hits refresh their global-LRU stamps, and the
// cache yields its LRU tail to cross-member eviction pressure via the
// BudgetMember methods. Attach before concurrent use; the local
// maxEntries/maxBytes bounds keep applying on top of the shared one.
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
	k.maskFP = mask.Fingerprint()
	switch {
	case &a.Pattern == mask:
		k.aFP = k.maskFP
	default:
		k.aFP = a.Pattern.Fingerprint()
	}
	switch {
	case &b.Pattern == mask:
		k.bFP = k.maskFP
	case &b.Pattern == &a.Pattern:
		k.bFP = k.aFP
	default:
		k.bFP = b.Pattern.Fingerprint()
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
	plan, _, err := c.GetOrPlanObserved(mask, a, b, opt)
	return plan, err
}

// GetOrPlanObserved is GetOrPlan, additionally reporting whether the
// lookup was answered from the cache — the signal a serving layer's
// warm-by-prediction hooks observe. A lookup that coalesced onto
// another goroutine's in-flight planning reports hit = false: the
// structure was not yet cached when the request arrived.
func (c *PlanCache[T, S]) GetOrPlanObserved(mask *sparse.Pattern, a, b *sparse.CSR[T], opt Options) (*Plan[T, S], bool, error) {
	opt.normalize()
	opt = opt.planIdentity()
	key := c.keyFor(mask, a, b, opt)

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
	// not serialize concurrent lookups of other structures. The mask is
	// cloned so the cached plan survives callers later mutating the
	// original in place (such a mutation changes the fingerprint, so
	// the stale entry can never be returned for the mutated matrix —
	// but it must stay correct for genuine re-occurrences of the old
	// structure).
	plan, err := newDetachedPlan(c.sr, mask.Clone(), a, b, opt)
	if err != nil {
		settled = true
		c.mu.Lock()
		delete(c.inflight, key)
		c.mu.Unlock()
		call.err = err
		close(call.done)
		return nil, false, err
	}
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

// evictLocked drops least-recently-used entries until both bounds
// hold. Always keeps the most recent entry, so a single plan larger
// than maxBytes still caches (and evicts everything else).
func (c *PlanCache[T, S]) evictLocked() {
	for c.lru.Len() > 1 && (c.lru.Len() > c.maxEntries || (c.maxBytes > 0 && c.bytes > c.maxBytes)) {
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
	// Evictions counts entries dropped by the entry or byte bound.
	Evictions uint64 `json:"evictions"`
	// Entries is the current number of cached plans.
	Entries int `json:"entries"`
	// Bytes is the estimated retained analysis memory of all entries.
	Bytes int64 `json:"bytes"`
	// HybridFamilyRows sums, across the currently cached hybrid plans,
	// how many output rows each accumulator family is bound to execute,
	// keyed by Family name ("MSA", "MaskedBit", ...) — the operator's
	// view of per-family adoption. Nil when no cached plan carries a
	// per-row binding.
	HybridFamilyRows map[string]int64 `json:"hybrid_family_rows,omitempty"`
}

// Stats returns a snapshot of the cache counters.
func (c *PlanCache[T, S]) Stats() PlanCacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	var famRows map[string]int64
	for el := c.lru.Front(); el != nil; el = el.Next() {
		p := el.Value.(*planEntry[T, S]).plan
		if p.polyFams == 0 {
			continue
		}
		if famRows == nil {
			famRows = make(map[string]int64)
		}
		prev := int32(0)
		for r, end := range p.runEnds {
			// Family.String names out-of-range values defensively
			// ("Family(N)"), so a run decoded from newer or corrupted
			// state aggregates under a diagnostic key instead of
			// panicking an indexed table.
			famRows[Family(p.runFam[r]).String()] += int64(end - prev)
			prev = end
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
	}
}
