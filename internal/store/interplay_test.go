package store

import (
	"fmt"
	"sync"
	"testing"

	"maskedspgemm/internal/core"
	"maskedspgemm/internal/gen"
	"maskedspgemm/internal/semiring"
	"maskedspgemm/internal/sparse"
)

// newSharedPair wires a store and a plan cache onto one budget — the
// serving session's shape (DESIGN.md §13).
func newSharedPair(maxBytes int64) (*core.MemBudget, *Store, *core.PlanCache[float64, semiring.PlusTimes[float64]]) {
	budget := core.NewMemBudget(maxBytes)
	st := New(budget)
	cache := core.NewPlanCache[float64](semiring.PlusTimes[float64]{}, 128)
	cache.AttachBudget(budget)
	return budget, st, cache
}

// reconcile asserts the shared budget's accounted total is exactly the
// sum of what the two members report holding — the invariant that
// makes the single byte bound meaningful.
func reconcile(t *testing.T, budget *core.MemBudget, st *Store, cache *core.PlanCache[float64, semiring.PlusTimes[float64]]) {
	t.Helper()
	want := st.StatsSnapshot().Bytes + cache.Stats().Bytes
	if got := budget.Used(); got != want {
		t.Fatalf("budget.Used() = %d, members hold %d (store %d + cache %d)",
			got, want, st.StatsSnapshot().Bytes, cache.Stats().Bytes)
	}
}

// TestInterplayBudgetReconciles pins the shared accounting: after any
// mix of operand puts and plan builds, the budget's total is the exact
// sum of the members' bytes.
func TestInterplayBudgetReconciles(t *testing.T) {
	budget, st, cache := newSharedPair(1 << 30)
	reconcile(t, budget, st, cache)
	for seed := uint64(1); seed <= 3; seed++ {
		g := gen.ErdosRenyi(64, 4, seed)
		if _, created := st.Put(g); !created {
			t.Fatalf("seed %d not created", seed)
		}
		reconcile(t, budget, st, cache)
		if _, err := cache.GetOrPlan(g.PatternView(), g, g, core.Options{}); err != nil {
			t.Fatalf("plan seed %d: %v", seed, err)
		}
		reconcile(t, budget, st, cache)
	}
	if st.StatsSnapshot().Operands != 3 || cache.Stats().Entries != 3 {
		t.Fatalf("residency: %+v / %+v", st.StatsSnapshot(), cache.Stats())
	}
}

// TestInterplayEvictOperandKeepsPlan pins the no-orphaning direction
// store→cache: dropping a resident operand must not invalidate the
// plan cached for its structure (§8 ownership) — a plan built by value
// owns a private clone of the mask, one built by reference holds its
// own reference to the stored mask's arrays. A re-request by the same
// structure is still a plan-cache hit, and the budget still reconciles.
func TestInterplayEvictOperandKeepsPlan(t *testing.T) {
	budget, st, cache := newSharedPair(1 << 30)
	g1 := gen.ErdosRenyi(64, 4, 10)
	g2 := gen.ErdosRenyi(64, 4, 11)
	ref1, _ := st.Put(g1)
	st.Put(g2)
	if _, err := cache.GetOrPlan(g1.PatternView(), g1, g1, core.Options{}); err != nil {
		t.Fatal(err)
	}

	// Touch g2 so g1 is the store's LRU victim, then evict it.
	if _, ok := st.Get(RefOf(g2)); !ok {
		t.Fatal("g2 not resident")
	}
	if st.BudgetEvict() == 0 {
		t.Fatal("store refused to evict")
	}
	if _, ok := st.Get(ref1); ok {
		t.Fatal("expected g1 evicted")
	}
	reconcile(t, budget, st, cache)

	// The plan for g1's structure survives the operand's eviction.
	before := cache.Stats()
	if _, err := cache.GetOrPlan(g1.PatternView(), g1, g1, core.Options{}); err != nil {
		t.Fatal(err)
	}
	after := cache.Stats()
	if after.Hits != before.Hits+1 || after.Misses != before.Misses {
		t.Fatalf("replan after operand eviction was not a hit: %+v → %+v", before, after)
	}

	// By reference: plan C = M ⊙ (g2·g2) with M a stored operand of its
	// own, evict M, and the plan still computes the right product.
	m := gen.ErdosRenyi(64, 6, 12)
	want, err := core.MaskedSpGEMM(semiring.PlusTimes[float64]{}, m.PatternView(), g2, g2, core.Options{Algorithm: core.AlgoSaxpyThenMask})
	if err != nil {
		t.Fatal(err)
	}
	mRef, _ := st.Put(m)
	ref2 := RefOf(g2)
	mask, ok := st.GetPattern(mRef.Pattern)
	if !ok {
		t.Fatal("mask not resident")
	}
	a, ok := st.Get(ref2)
	if !ok {
		t.Fatal("g2 not resident")
	}
	fp := core.Fingerprints{Mask: mRef.Pattern, A: ref2.Pattern, B: ref2.Pattern}
	plan, hit, err := cache.GetOrPlanStored(fp, mask, a, a, core.Options{})
	if err != nil || hit {
		t.Fatalf("plan by reference: hit %v, err %v", hit, err)
	}
	reconcile(t, budget, st, cache)
	// Touch g2 so the mask operand is the store's LRU victim.
	if _, ok := st.Get(ref2); !ok {
		t.Fatal("g2 not resident")
	}
	if st.BudgetEvict() == 0 {
		t.Fatal("store refused to evict")
	}
	if _, ok := st.GetPattern(mRef.Pattern); ok {
		t.Fatal("expected the mask operand evicted")
	}
	reconcile(t, budget, st, cache)
	got, err := plan.ExecuteOn(core.NewExecutor[float64](semiring.PlusTimes[float64]{}), a, a)
	if err != nil {
		t.Fatal(err)
	}
	if !sparse.EqualFunc(want, got, sparse.FloatEq(1e-9)) {
		t.Fatal("plan built by reference is wrong after its mask operand was evicted")
	}
	if again, hit, err := cache.GetOrPlanStored(fp, m.PatternView(), a, a, core.Options{}); err != nil || !hit || again != plan {
		t.Fatalf("re-request by reference after mask eviction: hit %v, same plan %v, err %v", hit, again == plan, err)
	}
	reconcile(t, budget, st, cache)
}

// TestInterplayEvictPlanKeepsOperand pins the other direction: evicting
// a cached plan leaves the operands resident and resolvable.
func TestInterplayEvictPlanKeepsOperand(t *testing.T) {
	budget, st, cache := newSharedPair(1 << 30)
	g1 := gen.ErdosRenyi(64, 4, 20)
	g2 := gen.ErdosRenyi(64, 4, 21)
	ref1, _ := st.Put(g1)
	if _, err := cache.GetOrPlan(g1.PatternView(), g1, g1, core.Options{}); err != nil {
		t.Fatal(err)
	}
	if _, err := cache.GetOrPlan(g2.PatternView(), g2, g2, core.Options{}); err != nil {
		t.Fatal(err)
	}
	if cache.BudgetEvict() == 0 {
		t.Fatal("cache refused to evict")
	}
	if _, ok := st.Get(ref1); !ok {
		t.Fatal("operand lost to a plan eviction")
	}
	reconcile(t, budget, st, cache)
}

// TestInterplayGlobalLRUOrder pins cross-member LRU: under one budget,
// the globally oldest entry yields first, whichever member holds it.
// The test measures the working set against a roomy budget, then
// replays the same inserts against a budget one byte too small — the
// overflow must evict the first insert (an operand), not the plans
// that arrived after it.
func TestInterplayGlobalLRUOrder(t *testing.T) {
	build := func(maxBytes int64) (*core.MemBudget, *Store, *core.PlanCache[float64, semiring.PlusTimes[float64]], []Ref) {
		budget, st, cache := newSharedPair(maxBytes)
		var refs []Ref
		for seed := uint64(30); seed < 32; seed++ {
			g := gen.ErdosRenyi(64, 4, seed)
			ref, _ := st.Put(g)
			refs = append(refs, ref)
			if _, err := cache.GetOrPlan(g.PatternView(), g, g, core.Options{}); err != nil {
				t.Fatal(err)
			}
		}
		return budget, st, cache, refs
	}
	// Measure the exact working set.
	bigBudget, _, _, _ := build(1 << 30)
	total := bigBudget.Used()

	// Replay one byte short: the final insert overflows and the
	// globally oldest entry — the first operand — must yield.
	budget, st, cache, refs := build(total - 1)
	if budget.Used() > budget.Max() {
		t.Fatalf("still over budget: %d > %d", budget.Used(), budget.Max())
	}
	sstats := st.StatsSnapshot()
	if sstats.Evictions != 1 || sstats.Operands != 1 {
		t.Fatalf("store should have yielded exactly its oldest operand: %+v", sstats)
	}
	if cache.Stats().Entries != 2 {
		t.Fatalf("plan evicted instead of the older operand: %+v", cache.Stats())
	}
	if _, ok := st.Get(refs[0]); ok {
		t.Fatal("globally oldest entry survived")
	}
	if _, ok := st.Get(refs[1]); !ok {
		t.Fatal("newer operand evicted out of order")
	}
	reconcile(t, budget, st, cache)
}

// TestInterplayConcurrent hammers both members of a small shared
// budget from many goroutines and checks the accounting reconciles
// afterwards. Run with -race, this also pins the lock ordering:
// members never call Rebalance while holding their own lock.
func TestInterplayConcurrent(t *testing.T) {
	budget, st, cache := newSharedPair(96 << 10)
	const workers = 8
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 40; i++ {
				seed := uint64(100 + (w*40+i)%10)
				g := gen.ErdosRenyi(96, 5, seed)
				ref, _ := st.Put(g)
				if m, ok := st.Get(ref); ok {
					if _, err := cache.GetOrPlan(m.PatternView(), m, m, core.Options{}); err != nil {
						panic(fmt.Sprintf("plan: %v", err))
					}
				}
				st.Get(Ref{Pattern: uint64(i), Values: uint64(w)}) // misses exercise the counters
			}
		}(w)
	}
	wg.Wait()
	budget.Rebalance()
	reconcile(t, budget, st, cache)
	sstats, cstats := st.StatsSnapshot(), cache.Stats()
	if sstats.Evictions == 0 && cstats.Evictions == 0 {
		t.Fatalf("small budget forced no evictions anywhere: store %+v cache %+v", sstats, cstats)
	}
	if budget.Used() > budget.Max() {
		t.Fatalf("ended over budget: %d > %d", budget.Used(), budget.Max())
	}
}
