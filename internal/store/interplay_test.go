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
// mix of operand puts (unit-valued ones, whose values alias a ones
// slab, among them), plan builds and evictions, the budget's total is
// the exact sum of the members' bytes.
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
		// A unit operand of a growing structure: the first makes a slab,
		// the later ones outgrow it.
		u := unitOf(gen.ErdosRenyiPattern(64, 2*int(seed), 10+seed))
		if _, created := st.Put(u); !created {
			t.Fatalf("unit seed %d not created", seed)
		}
		reconcile(t, budget, st, cache)
		if _, err := cache.GetOrPlan(u.PatternView(), g, u, core.Options{}); err != nil {
			t.Fatalf("plan by unit seed %d: %v", seed, err)
		}
		reconcile(t, budget, st, cache)
	}
	if st.StatsSnapshot().Operands != 6 || cache.Stats().Entries != 6 || st.StatsSnapshot().UnitBytes == 0 {
		t.Fatalf("residency: %+v / %+v", st.StatsSnapshot(), cache.Stats())
	}
	// A plain operand last, the one entry eviction never yields, then
	// evict the rest.
	st.Put(gen.ErdosRenyi(64, 4, 9))
	reconcile(t, budget, st, cache)
	for st.BudgetEvict() != 0 {
		reconcile(t, budget, st, cache)
	}
	if st.StatsSnapshot().UnitBytes != 0 {
		t.Fatalf("slabs outlived every unit operand: %+v", st.StatsSnapshot())
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

// TestInterplayUnitSlabReadOnly runs multiplies by two unit-valued
// operands of different structure, which alias one ones slab, beside
// unit values deltas that grow new slabs. Run with -race, it pins that
// no execution writes an operand's values and that filing a slab
// races with no reader; afterwards every live slab still holds only
// 1.0 and every product matches one over private unit arrays.
func TestInterplayUnitSlabReadOnly(t *testing.T) {
	_, st, cache := newSharedPair(1 << 30)
	sr := semiring.PlusTimes[float64]{}
	// The longer structure first, so the second aliases its slab.
	pats := []*sparse.Pattern{gen.RMATSymmetric(gen.RMATConfig{Scale: 7, EdgeFactor: 8, Seed: 51}).PatternView(), gen.ErdosRenyiPattern(96, 6, 50)}
	var refs []Ref
	for _, p := range pats {
		ref, _ := st.Put(unitOf(p))
		refs = append(refs, ref)
	}
	if slabOf(t, st, refs[0]) != slabOf(t, st, refs[1]) || len(st.slabs) != 1 {
		t.Fatalf("the two unit operands alias %d slabs, want one", len(st.slabs))
	}
	// Structures the deltas re-key as unit values, each larger than the
	// last, so their puts file new slabs while the multiplies read.
	var deltas []uint64
	for k := range 4 {
		g := gen.ErdosRenyi(128, 8<<k, 60+uint64(k))
		ref, _ := st.Put(g)
		deltas = append(deltas, ref.Pattern)
	}

	var wg sync.WaitGroup
	errs := make(chan error, len(refs)+1)
	for _, ref := range refs {
		wg.Add(1)
		go func(ref Ref) {
			defer wg.Done()
			a, _ := st.Get(ref)
			want, err := core.MaskedSpGEMM(sr, a.PatternView(), unitOf(a.PatternView()), unitOf(a.PatternView()), core.Options{Algorithm: core.AlgoSaxpyThenMask})
			if err != nil {
				errs <- err
				return
			}
			fp := core.Fingerprints{Mask: ref.Pattern, A: ref.Pattern, B: ref.Pattern}
			exec := core.NewExecutor[float64](sr)
			for range 6 {
				plan, _, err := cache.GetOrPlanStored(fp, a.PatternView(), a, a, core.Options{})
				if err != nil {
					errs <- err
					return
				}
				got, err := plan.ExecuteOnOpts(exec, a, a, core.ExecOptions{Resident: true})
				if err != nil {
					errs <- err
					return
				}
				if !sparse.EqualFunc(want, got, sparse.FloatEq(1e-12)) {
					errs <- fmt.Errorf("%v: a product over the slab differs from one over private unit values", ref)
					return
				}
			}
		}(ref)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for _, fp := range deltas {
			p, _ := st.GetPattern(fp)
			if _, _, err := st.PutValues(fp, unitOf(p).Val); err != nil {
				errs <- err
				return
			}
		}
	}()
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	if len(st.slabs) < 2 {
		t.Fatalf("the deltas filed %d slabs, want growth past the first", len(st.slabs))
	}
	for _, sl := range st.slabs {
		for j, v := range sl.vals {
			if v != 1 {
				t.Fatalf("slab word %d of %d is %v", j, len(sl.vals), v)
			}
		}
	}
}
