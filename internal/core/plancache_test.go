package core

import (
	"fmt"
	"maps"
	"sync"
	"testing"
	"time"

	"maskedspgemm/internal/gen"
	"maskedspgemm/internal/semiring"
	"maskedspgemm/internal/sparse"
)

var ptSR = semiring.PlusTimes[float64]{}

// TestPlanCacheValueMutationHits pins the fingerprint contract: values
// are not structure, so re-looking-up the same matrices after mutating
// every value in place must return the SAME cached plan — and the plan
// must still compute correct results for the new values.
func TestPlanCacheValueMutationHits(t *testing.T) {
	mask, a, b := buildCase(caseSpec{"", 48, 48, 48, 6, 6, 8, 11})
	cache := NewPlanCache(ptSR, 0)
	opt := Options{Algorithm: AlgoInner}
	p1, err := cache.GetOrPlan(mask, a, b, opt)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Val {
		a.Val[i] *= -3
	}
	for i := range b.Val {
		b.Val[i] += 0.5
	}
	p2, err := cache.GetOrPlan(mask, a, b, opt)
	if err != nil {
		t.Fatal(err)
	}
	if p1 != p2 {
		t.Fatal("value mutation changed the cache key; structure fingerprints must ignore values")
	}
	st := cache.Stats()
	if st.Hits != 1 || st.Misses != 1 {
		t.Fatalf("stats = %+v, want 1 hit / 1 miss", st)
	}
	exec := NewExecutor[float64](ptSR)
	got, err := p2.ExecuteOn(exec, a, b)
	if err != nil {
		t.Fatal(err)
	}
	if d := sparse.Diff(oracle(mask, a, b, false), got, floatEq); d != "" {
		t.Fatalf("cached plan stale after value mutation: %s", d)
	}
}

// TestPlanCacheStructureMutationMisses is the other half of the
// contract: mutating column indices in place — same pointers, new
// structure — must miss and re-plan, and the new plan must be correct
// for the new structure.
func TestPlanCacheStructureMutationMisses(t *testing.T) {
	mask, a, b := buildCase(caseSpec{"", 48, 48, 48, 6, 6, 8, 12})
	cache := NewPlanCache(ptSR, 0)
	opt := Options{Algorithm: AlgoMSA}
	p1, err := cache.GetOrPlan(mask, a, b, opt)
	if err != nil {
		t.Fatal(err)
	}
	// Shift one B column index to a structurally-valid neighbour (keeps
	// rows sorted and in range): same nnz, same pointers, new pattern.
	mutated := false
	for i := 0; i < b.Rows && !mutated; i++ {
		row := b.Row(i)
		for k := range row {
			next := int32(b.Cols) // exclusive upper bound for this slot
			if k+1 < len(row) {
				next = row[k+1]
			}
			if row[k]+1 < next {
				row[k]++
				mutated = true
				break
			}
		}
	}
	if !mutated {
		t.Fatal("test graph too dense to nudge a column index")
	}
	p2, err := cache.GetOrPlan(mask, a, b, opt)
	if err != nil {
		t.Fatal(err)
	}
	if p1 == p2 {
		t.Fatal("in-place structure mutation did not change the cache key")
	}
	if st := cache.Stats(); st.Hits != 0 || st.Misses != 2 {
		t.Fatalf("stats = %+v, want 0 hits / 2 misses", st)
	}
	exec := NewExecutor[float64](ptSR)
	got, err := p2.ExecuteOn(exec, a, b)
	if err != nil {
		t.Fatal(err)
	}
	if d := sparse.Diff(oracle(mask, a, b, false), got, floatEq); d != "" {
		t.Fatalf("re-planned result wrong after structure mutation: %s", d)
	}
}

// TestPlanCacheMaskCloneSafety: an entry must stay correct for genuine
// re-occurrences of its structure even after the ORIGINAL mask object
// used to build it was mutated in place (cached plans own a clone).
func TestPlanCacheMaskCloneSafety(t *testing.T) {
	mask, a, b := buildCase(caseSpec{"", 48, 48, 48, 6, 6, 8, 13})
	snapshot := mask.Clone() // same structure, different object
	cache := NewPlanCache(ptSR, 0)
	opt := Options{Algorithm: AlgoMSA}
	if _, err := cache.GetOrPlan(mask, a, b, opt); err != nil {
		t.Fatal(err)
	}
	// Vandalize the original mask's structure in place.
	for i := range mask.ColIdx {
		mask.ColIdx[i] = 0
	}
	// A structurally-identical pattern (the snapshot) must hit the old
	// entry and execute against the entry's private clone, not the
	// vandalized original.
	p, err := cache.GetOrPlan(snapshot, a, b, opt)
	if err != nil {
		t.Fatal(err)
	}
	if st := cache.Stats(); st.Hits != 1 {
		t.Fatalf("stats = %+v, want the snapshot lookup to hit", st)
	}
	got, err := p.ExecuteOn(NewExecutor[float64](ptSR), a, b)
	if err != nil {
		t.Fatal(err)
	}
	if d := sparse.Diff(oracle(snapshot, a, b, false), got, floatEq); d != "" {
		t.Fatalf("cached plan read the mutated caller mask: %s", d)
	}
}

// TestPlanCacheOptionsInKey: the same structure under different
// options is a different plan.
func TestPlanCacheOptionsInKey(t *testing.T) {
	mask, a, b := buildCase(caseSpec{"", 32, 32, 32, 4, 4, 6, 14})
	cache := NewPlanCache(ptSR, 0)
	p1, err := cache.GetOrPlan(mask, a, b, Options{Algorithm: AlgoMSA})
	if err != nil {
		t.Fatal(err)
	}
	p2, err := cache.GetOrPlan(mask, a, b, Options{Algorithm: AlgoHash})
	if err != nil {
		t.Fatal(err)
	}
	p3, err := cache.GetOrPlan(mask, a, b, Options{Algorithm: AlgoMSA, Phases: TwoPhase})
	if err != nil {
		t.Fatal(err)
	}
	if p1 == p2 || p1 == p3 || p2 == p3 {
		t.Fatal("options must be part of the cache key")
	}
	if st := cache.Stats(); st.Misses != 3 || st.Entries != 3 {
		t.Fatalf("stats = %+v, want 3 distinct entries", st)
	}
}

// TestPlanCacheEviction exercises the LRU entry bound: the
// least-recently-used entry goes first, and a re-request of an evicted
// structure re-plans.
func TestPlanCacheEviction(t *testing.T) {
	cache := NewPlanCache(ptSR, 2)
	masks := make([]*sparse.Pattern, 3)
	var as, bs [3]*sparse.CSR[float64]
	for i := range masks {
		masks[i], as[i], bs[i] = buildCase(caseSpec{"", 24 + 8*i, 24 + 8*i, 24 + 8*i, 4, 4, 4, uint64(20 + i)})
	}
	plans := make([]*Plan[float64, semiring.PlusTimes[float64]], 3)
	for i := range masks {
		p, err := cache.GetOrPlan(masks[i], as[i], bs[i], Options{})
		if err != nil {
			t.Fatal(err)
		}
		plans[i] = p
	}
	st := cache.Stats()
	if st.Entries != 2 || st.Evictions != 1 {
		t.Fatalf("stats = %+v, want 2 entries / 1 eviction", st)
	}
	// Structure 0 was LRU and evicted: this lookup must re-plan.
	p0, err := cache.GetOrPlan(masks[0], as[0], bs[0], Options{})
	if err != nil {
		t.Fatal(err)
	}
	if p0 == plans[0] {
		t.Fatal("evicted entry was returned")
	}
	// Structure 2 is still resident.
	p2, err := cache.GetOrPlan(masks[2], as[2], bs[2], Options{})
	if err != nil {
		t.Fatal(err)
	}
	if p2 != plans[2] {
		t.Fatal("resident entry was lost")
	}
}

// TestPlanCacheByteBound exercises the one byte bound, a MemBudget the
// cache is attached to: entries evict once the estimated analysis
// footprint exceeds the budget, the budget accounts exactly the bytes
// the cache retains, and the newest entry always stays, even when it
// alone is over budget.
func TestPlanCacheByteBound(t *testing.T) {
	mask, a, b := buildCase(caseSpec{"", 64, 64, 64, 6, 6, 8, 30})
	probe, err := newDetachedPlan(ptSR, mask.Clone(), a, b, Options{}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	perEntry := probe.footprintBytes()
	// Room for two entries, not three.
	bound := 2*perEntry + perEntry/2
	budget := NewMemBudget(bound)
	cache := NewPlanCache(ptSR, 0)
	cache.AttachBudget(budget)
	for i := 0; i < 3; i++ {
		m, ai, bi := buildCase(caseSpec{"", 64, 64, 64, 6, 6, 8, uint64(30 + i)})
		if _, err := cache.GetOrPlan(m, ai, bi, Options{}); err != nil {
			t.Fatal(err)
		}
	}
	st := cache.Stats()
	if st.Evictions == 0 {
		t.Fatalf("stats = %+v, want budget evictions", st)
	}
	if st.Bytes > bound {
		t.Fatalf("retained bytes %d exceed the budget %d", st.Bytes, bound)
	}
	if budget.Used() != st.Bytes {
		t.Fatalf("budget accounts %d bytes, the cache retains %d", budget.Used(), st.Bytes)
	}
	if st.Entries == 0 {
		t.Fatal("the budget must never evict the newest entry")
	}

	tiny := NewPlanCache(ptSR, 0)
	tiny.AttachBudget(NewMemBudget(perEntry / 2))
	for i := 0; i < 2; i++ {
		m, ai, bi := buildCase(caseSpec{"", 64, 64, 64, 6, 6, 8, uint64(40 + i)})
		if _, err := tiny.GetOrPlan(m, ai, bi, Options{}); err != nil {
			t.Fatal(err)
		}
	}
	if st := tiny.Stats(); st.Entries != 1 || st.Evictions != 1 {
		t.Fatalf("stats = %+v under a budget smaller than one plan, want the newest entry kept and 1 eviction", st)
	}
}

// TestPlanCacheHitAllocs asserts the serving-path property the cache
// exists for: a repeat-structure lookup allocates nothing.
func TestPlanCacheHitAllocs(t *testing.T) {
	mask, a, b := buildCase(caseSpec{"", 96, 96, 96, 8, 8, 8, 40})
	cache := NewPlanCache(ptSR, 0)
	opt := Options{Algorithm: AlgoInner}
	if _, err := cache.GetOrPlan(mask, a, b, opt); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := cache.GetOrPlan(mask, a, b, opt); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("cache hit allocates %.1f objects, want 0", allocs)
	}
}

// TestPlanCacheSharedPlanConcurrent executes ONE shared cached plan
// from many goroutines, each with its own pooled executor, and checks
// every result. Inner is used deliberately: it exercises the
// executor-owned CSC value refresh, the piece of per-execution state
// that used to live (mutably) on the plan. Run under -race this is the
// plan-immutability proof.
func TestPlanCacheSharedPlanConcurrent(t *testing.T) {
	mask, a, b := buildCase(caseSpec{"", 96, 96, 96, 8, 8, 10, 41})
	want := oracle(mask, a, b, false)
	cache := NewPlanCache(ptSR, 0)
	pool := NewExecutorPool(ptSR, 4)
	const goroutines = 8
	const rounds = 20
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				plan, err := cache.GetOrPlan(mask, a, b, Options{Algorithm: AlgoInner})
				if err != nil {
					errs <- err
					return
				}
				exec := pool.Get()
				got, err := plan.ExecuteOn(exec, a, b)
				pool.Put(exec)
				if err != nil {
					errs <- err
					return
				}
				if d := sparse.Diff(want, got, floatEq); d != "" {
					errs <- fmt.Errorf("concurrent result differs: %s", d)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	st := cache.Stats()
	if st.Hits+st.Misses != goroutines*rounds {
		t.Fatalf("lookup count %d, want %d", st.Hits+st.Misses, goroutines*rounds)
	}
	if st.Entries != 1 {
		t.Fatalf("entries = %d, want 1 shared plan", st.Entries)
	}
}

// TestPlanCacheConcurrentWidths hammers one cached Hybrid plan from goroutines that each request a different width:
// every lookup must hit the single entry, every execution must cut its
// own bounds in its own executor (the plan is never written — run with
// -race), and every product must be exact.
func TestPlanCacheConcurrentWidths(t *testing.T) {
	mask, a, b := buildCase(caseSpec{"", 512, 512, 512, 8, 8, 8, 5})
	cache := NewPlanCache(ptSR, 8)
	base := Options{Algorithm: AlgoHybrid}
	first, err := cache.GetOrPlan(mask, a, b, base)
	if err != nil {
		t.Fatal(err)
	}
	want, err := first.ExecuteOn(NewExecutor[float64](ptSR), a, b)
	if err != nil {
		t.Fatal(err)
	}

	const iters = 30
	widths := []int{1, 2, 3, 4}
	var wg sync.WaitGroup
	errs := make(chan error, len(widths))
	for _, threads := range widths {
		wg.Add(1)
		go func() {
			defer wg.Done()
			exec := NewExecutor[float64](ptSR)
			opt := base
			opt.Threads = threads
			for i := 0; i < iters; i++ {
				p, err := cache.GetOrPlan(mask, a, b, opt)
				if err != nil {
					errs <- err
					return
				}
				if p != first {
					errs <- fmt.Errorf("threads=%d: lookup returned a second plan", threads)
					return
				}
				got, err := p.ExecuteOnOpts(exec, a, b, opt.ExecOnly())
				if err != nil {
					errs <- err
					return
				}
				if !sparse.Equal(want, got) {
					errs <- fmt.Errorf("threads=%d iteration %d: wrong product", threads, i)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if n := cache.Len(); n != 1 {
		t.Errorf("cache holds %d entries across %d widths, want 1", n, len(widths))
	}
}

// TestSharedPlanHasNoDefaultExecutor pins the ownership rule: a cached
// plan cannot be executed without the caller supplying an executor.
func TestSharedPlanHasNoDefaultExecutor(t *testing.T) {
	mask, a, b := buildCase(caseSpec{"", 24, 24, 24, 4, 4, 4, 50})
	cache := NewPlanCache(ptSR, 0)
	plan, err := cache.GetOrPlan(mask, a, b, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := plan.Execute(a, b); err == nil {
		t.Fatal("Execute on a shared plan must error; ExecuteOn is required")
	}
}

// TestExecutorPool covers the checkout/return lifecycle: reuse of the
// returned executor, the maxIdle discard bound, the double-Put panic,
// and the counters.
func TestExecutorPool(t *testing.T) {
	pool := NewExecutorPool(ptSR, 1)
	e1 := pool.Get()
	e2 := pool.Get()
	pool.Put(e1)
	if got := pool.Get(); got != e1 {
		t.Fatal("pool did not reuse the idle executor")
	}
	pool.Put(e1)
	pool.Put(e2) // beyond maxIdle: discarded
	st := pool.Stats()
	if st.Created != 2 || st.Reused != 1 || st.Discarded != 1 || st.Idle != 1 {
		t.Fatalf("stats = %+v", st)
	}
	pool.Put(nil) // no-op
	func() {
		defer func() {
			if recover() == nil {
				t.Error("double Put must panic")
			}
		}()
		pool.Put(e1)
	}()
}

// TestExecutorPoolReleasesBindings: a returned executor must not pin
// the last plan or operands (they may be cache-evicted or huge).
func TestExecutorPoolReleasesBindings(t *testing.T) {
	mask, a, b := buildCase(caseSpec{"", 24, 24, 24, 4, 4, 4, 51})
	plan, err := NewPlan(ptSR, mask, a, b, Options{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	pool := NewExecutorPool(ptSR, 1)
	exec := pool.Get()
	if _, err := plan.ExecuteOn(exec, a, b); err != nil {
		t.Fatal(err)
	}
	if !exec.haveBound {
		t.Fatal("expected a cached binding after execution")
	}
	pool.Put(exec)
	if exec.haveBound || exec.lastPlan != nil || exec.lastA != nil || exec.lastB != nil {
		t.Fatal("Put must release plan/operand references")
	}
}

// BenchmarkPlanCache is the issue's acceptance benchmark: repeated
// NewPlan over a recurring structure through the cache must be ~
// allocation-free and >= 10x faster than uncached planning. The
// workload is triangle-counting-shaped (mask = A = B = L of an R-MAT
// graph), the recurring-structure case a server sees; Inner and Hybrid
// carry real analysis (CSC transposition, per-row cost model), Hash
// carries the cheapest (a max-row scan), bounding the win from below.
func BenchmarkPlanCache(b *testing.B) {
	g := gen.RMATSymmetric(gen.RMATConfig{Scale: 13, EdgeFactor: 16, Seed: 9})
	l := sparse.Tril(g)
	mask := l.PatternView()
	exec := NewExecutor[float64](ptSR)
	for _, algo := range []Algorithm{AlgoInner, AlgoHybrid, AlgoHash} {
		opt := Options{Algorithm: algo}
		b.Run(algo.String()+"/uncached", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := NewPlan(ptSR, mask, l, l, opt, exec); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(algo.String()+"/cached", func(b *testing.B) {
			cache := NewPlanCache(ptSR, 0)
			if _, err := cache.GetOrPlan(mask, l, l, opt); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := cache.GetOrPlan(mask, l, l, opt); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// TestPlanCacheSingleflight pins the miss-coalescing contract: a burst
// of N concurrent first requests for one structure runs the analysis
// exactly once — one true planner, N−1 coalesced waiters — and every
// caller receives the same shared plan.
func TestPlanCacheSingleflight(t *testing.T) {
	mask, a, b := buildCase(caseSpec{"", 96, 96, 96, 6, 6, 8, 23})
	cache := NewPlanCache(ptSR, 0)
	opt := Options{Algorithm: AlgoInner}

	const goroutines = 16
	var start, done sync.WaitGroup
	start.Add(1)
	done.Add(goroutines)
	plans := make([]*Plan[float64, semiring.PlusTimes[float64]], goroutines)
	errs := make([]error, goroutines)
	for g := 0; g < goroutines; g++ {
		go func(g int) {
			defer done.Done()
			start.Wait()
			plans[g], errs[g] = cache.GetOrPlan(mask, a, b, opt)
		}(g)
	}
	start.Done()
	done.Wait()

	for g := 0; g < goroutines; g++ {
		if errs[g] != nil {
			t.Fatalf("goroutine %d: %v", g, errs[g])
		}
		if plans[g] != plans[0] {
			t.Fatalf("goroutine %d received a different plan", g)
		}
	}
	st := cache.Stats()
	if st.Hits+st.Misses != goroutines {
		t.Fatalf("lookups = %d, want %d", st.Hits+st.Misses, goroutines)
	}
	// Exactly one goroutine planned; every other miss coalesced onto it
	// (latecomers may hit instead, which is equally plan-free).
	if st.Misses < 1 || st.CoalescedMisses != st.Misses-1 {
		t.Fatalf("misses = %d coalesced = %d, want coalesced = misses−1", st.Misses, st.CoalescedMisses)
	}
	if st.Entries != 1 {
		t.Fatalf("entries = %d, want 1", st.Entries)
	}
}

// TestPlanCacheSingleflightError checks failed plannings propagate to
// every coalesced waiter and are not cached.
func TestPlanCacheSingleflightError(t *testing.T) {
	mask, a, _ := buildCase(caseSpec{"", 40, 40, 40, 4, 4, 4, 29})
	bad := gen.Random(41, 40, 4, 30) // wrong inner dimension
	cache := NewPlanCache(ptSR, 0)

	const goroutines = 8
	var start, done sync.WaitGroup
	start.Add(1)
	done.Add(goroutines)
	errs := make([]error, goroutines)
	for g := 0; g < goroutines; g++ {
		go func(g int) {
			defer done.Done()
			start.Wait()
			_, errs[g] = cache.GetOrPlan(mask, a, bad, Options{})
		}(g)
	}
	start.Done()
	done.Wait()
	for g, err := range errs {
		if err == nil {
			t.Fatalf("goroutine %d: expected dimension error", g)
		}
	}
	if st := cache.Stats(); st.Entries != 0 {
		t.Fatalf("failed planning cached: %d entries", st.Entries)
	}
	// The key must not be stuck in-flight: a later valid-shape lookup
	// with the same options still works.
	if _, err := cache.GetOrPlan(mask, a, a, Options{}); err != nil {
		t.Fatalf("cache stuck after failed planning: %v", err)
	}
}

// TestPlanCacheSingleflightPanic pins the panic path: a planner that
// panics on malformed operand structure must propagate the panic to
// its own caller but unregister the in-flight key, so later lookups
// re-plan (and re-panic) instead of blocking forever on a wedged key.
func TestPlanCacheSingleflightPanic(t *testing.T) {
	// Structurally malformed A: a column index far past B's rows makes
	// the plan-time cost walk index out of range. Shapes are valid, so
	// validation passes and the panic happens mid-analysis. Rows stay
	// under the grain so the analysis runs on the calling goroutine.
	const n = 40
	badA := &sparse.CSR[float64]{
		Pattern: sparse.Pattern{Rows: n, Cols: n, RowPtr: make([]int64, n+1), ColIdx: []int32{90}},
		Val:     []float64{1},
	}
	for i := 1; i <= n; i++ {
		badA.RowPtr[i] = 1
	}
	_, _, b := buildCase(caseSpec{"", n, n, n, 4, 4, 4, 31})
	mask := gen.Random(n, n, 4, 32).PatternView()
	cache := NewPlanCache(ptSR, 0)
	opt := Options{Algorithm: AlgoMSA, Threads: 2}

	panicked := func() (p bool) {
		defer func() { p = recover() != nil }()
		_, _ = cache.GetOrPlan(mask, badA, b, opt)
		return
	}
	if !panicked() {
		t.Fatal("malformed structure did not panic (test premise broken)")
	}
	done := make(chan bool, 1)
	go func() { done <- panicked() }()
	select {
	case again := <-done:
		if !again {
			t.Fatal("second lookup neither panicked nor planned")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("key wedged: second lookup blocked on a dead in-flight call")
	}
}

// TestPlanCacheHybridMixedBindings pins the cache-hygiene contract of
// per-row poly plans (DESIGN.md §10): mixed bindings enter the cache
// key only through Options — structure fingerprints are untouched —
// so a Hybrid plan cached under the default (zero-value) options
// keeps hitting with zero allocations and replays its run encoding on
// every hit, while a different HybridFamilies restriction is a
// distinct entry.
func TestPlanCacheHybridMixedBindings(t *testing.T) {
	mask, a, b := buildCase(caseSpec{"", 96, 96, 96, 8, 8, 8, 50})
	cache := NewPlanCache(ptSR, 0)
	opt := Options{Algorithm: AlgoHybrid}
	first, err := cache.GetOrPlan(mask, a, b, opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(first.runEnds) == 0 || len(first.runFam) == 0 {
		t.Fatal("cached poly plan ships no run encoding")
	}
	allocs := testing.AllocsPerRun(20, func() {
		p, err := cache.GetOrPlan(mask, a, b, opt)
		if err != nil {
			t.Fatal(err)
		}
		if p != first {
			t.Fatal("repeat-structure lookup did not hit the cached plan")
		}
	})
	if allocs != 0 {
		t.Errorf("hybrid cache hit allocates %.1f objects, want 0", allocs)
	}
	restricted, err := cache.GetOrPlan(mask, a, b, Options{
		Algorithm: AlgoHybrid, HybridFamilies: Families(FamMSA),
	})
	if err != nil {
		t.Fatal(err)
	}
	if restricted == first {
		t.Error("HybridFamilies must participate in the cache key")
	}
	if n := cache.Len(); n != 2 {
		t.Errorf("cache holds %d entries, want 2", n)
	}
}

// TestPlanCacheStatsHybridFamilyRows checks the operator view: Stats()
// aggregates per-family bound row counts across cached hybrid plans,
// keyed by family name, with family-restricted plans counted under
// their actual binding — and reports nothing for uniform-scheme plans.
func TestPlanCacheStatsHybridFamilyRows(t *testing.T) {
	mask, a, b := buildCase(caseSpec{"", 96, 96, 96, 8, 8, 8, 51})
	cache := NewPlanCache(ptSR, 0)
	if _, err := cache.GetOrPlan(mask, a, b, Options{Algorithm: AlgoMSA}); err != nil {
		t.Fatal(err)
	}
	if st := cache.Stats(); st.HybridFamilyRows != nil {
		t.Fatalf("uniform plan reported family rows %v", st.HybridFamilyRows)
	}
	if _, err := cache.GetOrPlan(mask, a, b, Options{
		Algorithm: AlgoHybrid, HybridFamilies: Families(FamMaskedBit),
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := cache.GetOrPlan(mask, a, b, Options{Algorithm: AlgoHybrid}); err != nil {
		t.Fatal(err)
	}
	st := cache.Stats()
	if st.HybridFamilyRows == nil {
		t.Fatal("cached hybrid plans reported no family rows")
	}
	if got := st.HybridFamilyRows[FamMaskedBit.String()]; got < int64(mask.Rows) {
		t.Errorf("MaskedBit rows = %d, want at least the restricted plan's %d", got, mask.Rows)
	}
	var total int64
	for _, n := range st.HybridFamilyRows {
		total += n
	}
	if total != 2*int64(mask.Rows) {
		t.Errorf("family rows sum to %d, want %d across two hybrid plans", total, 2*mask.Rows)
	}
}

// TestPlanCacheStatsKnownHalfFamilyRows checks that Stats reports the
// binding plan hits run on a symmetric self-product under Hybrid: the
// plan's one binding, over its mask halves, before the plan publishes
// its one-triangle record, on its second half execution, and after it
// too for a dense product, whose known half breaks the memory rules of
// the product schedule and the dot bitmap and runs push and Pull under
// that binding, and none for er-warm-inline's, whose record is its full
// product's, with no known half and no transpose map, and replays its
// schedule bit-identically to a fresh plan, or for a tc-skew-ref-like
// product's (an R-MAT graph relabeled hubs last), whose known half
// walks a dot bitmap: both run no family, and Stats
// counts such a plan in ReplayedPlans or BitmapPlans instead, with its
// schedule's or bitmap's bytes in ScheduleBytes. er-warm-inline's
// record is also its full-product record from the moment it is
// published. With both, two executions on asymmetric values follow:
// on er-warm-inline's product they replay that one record, and the
// other plans publish their full-product record, in the same tier.
// Stats still reads the plan's binding for the dense product, and
// counts the other plans in ReplayedPlans or BitmapPlans once, with
// the bytes of each distinct record's schedule or bitmap once.
func TestPlanCacheStatsKnownHalfFamilyRows(t *testing.T) {
	famRows := func(rows [NumFamilies]int, fams FamilySet) map[string]int64 {
		out := make(map[string]int64)
		for f := Family(0); f < NumFamilies; f++ {
			if fams.Has(f) {
				out[f.String()] = int64(rows[f])
			}
		}
		return out
	}
	type statsCase struct {
		name string
		g    *sparse.CSR[float64]
		tier hitTier
		both bool
	}
	var cases []statsCase
	for _, both := range []bool{false, true} {
		cases = append(cases,
			statsCase{"er-warm-inline", gen.Symmetrize(gen.ErdosRenyi(1<<11, 8, 1)), tierReplay, both},
			statsCase{"rmat-hubs-last", symGraph(9, true, false), tierBitmap, both},
			statsCase{"dense", denseSymGraph(1), tierPushPull, both})
	}
	for _, c := range cases {
		cache := NewPlanCache(ptSR, 0)
		p, err := cache.GetOrPlan(c.g.PatternView(), c.g, c.g, Options{Algorithm: AlgoHybrid})
		if err != nil {
			t.Fatal(err)
		}
		maskHalves := famRows(p.FamilyRows(), p.polyFams)
		var hit *sparse.CSR[float64]
		for run := range 3 {
			if st := cache.Stats(); run < 2 && (!maps.Equal(st.HybridFamilyRows, maskHalves) || st.ReplayedPlans != 0 || st.BitmapPlans != 0 || st.ScheduleBytes != 0) {
				t.Fatalf("%s before run %d: Stats reports %+v, want the mask halves' %v and no replayed plan", c.name, run, st, maskHalves)
			}
			exec := NewExecutor[float64](ptSR)
			if hit, err = p.ExecuteOnOpts(exec, c.g, c.g, ExecOptions{Threads: 2}); err != nil {
				t.Fatal(err)
			}
			if !ranHalf(exec) {
				t.Fatalf("%s run %d computed the full product", c.name, run)
			}
		}
		kh := p.halfHit.rec.Load()
		if kh == nil {
			t.Fatalf("%s: no one-triangle record published after two half executions", c.name)
		}
		if kh.tier() != c.tier {
			t.Fatalf("%s: the one-triangle hits run in tier %v, want %v", c.name, kh.tier(), c.tier)
		}
		if full := c.tier == tierReplay; (kh.half == nil) != full || (kh.tpos == nil) != full {
			t.Fatalf("%s: the one-triangle record keeps a known half %v and a transpose map %v, want neither exactly when it replays", c.name, kh.half != nil, kh.tpos != nil)
		}
		want, err := MaskedSpGEMM(ptSR, c.g.PatternView(), c.g, c.g, Options{Algorithm: AlgoHybrid})
		if err != nil {
			t.Fatal(err)
		}
		checkIdentical(t, c.name+" hit", hit, want)
		shared := c.tier == tierReplay
		if (p.fullHit.rec.Load() == kh) != shared {
			t.Fatalf("%s: the two kinds share the one-triangle record %v, want %v", c.name, !shared, shared)
		}
		schedBytes := kh.tierBytes()
		if c.both {
			asym := withSpecialValues(c.g)
			for range 2 {
				exec := NewExecutor[float64](ptSR)
				if _, err := p.ExecuteOnOpts(exec, asym, asym, ExecOptions{Threads: 2}); err != nil {
					t.Fatal(err)
				}
				if shared && exec.hitRec != kh || !shared && ranHalf(exec) {
					t.Fatalf("%s: an asymmetric execution computed one triangle, or did not replay the shared record", c.name)
				}
			}
			full := p.fullHit.rec.Load()
			if full == nil || full.tier() != c.tier {
				t.Fatalf("%s: full-product record %v, want one in the half's tier %v", c.name, full != nil, c.tier)
			}
			if !shared {
				schedBytes += full.tierBytes()
			}
		}
		st := cache.Stats()
		if c.tier == tierPushPull {
			if !maps.Equal(st.HybridFamilyRows, maskHalves) || st.ReplayedPlans != 0 || st.BitmapPlans != 0 || st.ScheduleBytes != schedBytes {
				t.Fatalf("%s (both=%v) after publishing: Stats reports %+v, want the plan's %v and no replayed or bitmap plan", c.name, c.both, st, maskHalves)
			}
			continue
		}
		replayed, bitmaps := 0, 0
		if c.tier == tierReplay {
			replayed = 1
		} else {
			bitmaps = 1
		}
		if st.HybridFamilyRows != nil || st.ReplayedPlans != replayed || st.BitmapPlans != bitmaps || st.ScheduleBytes != schedBytes {
			t.Fatalf("%s (both=%v) after publishing: Stats reports %+v, want no family rows, %d replayed and %d bitmap plans and %d schedule bytes", c.name, c.both, st, replayed, bitmaps, schedBytes)
		}
	}
}

// TestPlanCacheExecOnlyOptionsShareKey pins the serving regression the
// key normalization fixes: execution-only options (CollectSchedStats,
// ReuseOutput) must not fragment cache keys. Warming a structure
// without telemetry and then requesting it with telemetry on — the
// Session.Warm → Multiply(WithSchedStats()) pattern — must hit.
func TestPlanCacheExecOnlyOptionsShareKey(t *testing.T) {
	mask, a, b := buildCase(caseSpec{"", 48, 48, 48, 6, 6, 8, 21})
	cache := NewPlanCache(ptSR, 0)

	// Warm: plan without any execution-only options.
	warm, err := cache.GetOrPlan(mask, a, b, Options{Algorithm: AlgoMSA})
	if err != nil {
		t.Fatal(err)
	}
	// Serve: same structure, telemetry and pooled output requested.
	served, _, hit, err := cache.GetOrPlanObserved(mask, a, b, Options{
		Algorithm: AlgoMSA, CollectSchedStats: true, ReuseOutput: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !hit || served != warm {
		t.Fatal("execution-only options fragmented the plan-cache key; warm → multiply must hit")
	}
	if st := cache.Stats(); st.Hits != 1 || st.Misses != 1 {
		t.Fatalf("stats = %+v, want exactly 1 hit / 1 miss", st)
	}

	// The canonical cached plan carries no execution-only options, so
	// telemetry must be honored per execution via ExecuteOnOpts.
	exec := NewExecutor[float64](ptSR)
	got, err := served.ExecuteOnOpts(exec, a, b, ExecOptions{CollectSchedStats: true})
	if err != nil {
		t.Fatal(err)
	}
	if d := sparse.Diff(oracle(mask, a, b, false), got, floatEq); d != "" {
		t.Fatalf("shared plan wrong under per-execution options: %s", d)
	}
	if claimedBlocks(exec.SchedStats()) == 0 {
		t.Fatal("per-execution CollectSchedStats on a warm-planted plan recorded nothing")
	}
}

// TestPlanCacheObservedReportsMiss pins GetOrPlanObserved's hit signal:
// the first lookup of a structure reports a miss, the second a hit.
func TestPlanCacheObservedReportsMiss(t *testing.T) {
	mask, a, b := buildCase(caseSpec{"", 32, 32, 32, 4, 4, 6, 22})
	cache := NewPlanCache(ptSR, 0)
	if _, _, hit, err := cache.GetOrPlanObserved(mask, a, b, Options{}); err != nil || hit {
		t.Fatalf("first lookup: hit=%v err=%v, want miss", hit, err)
	}
	if _, _, hit, err := cache.GetOrPlanObserved(mask, a, b, Options{}); err != nil || !hit {
		t.Fatalf("second lookup: hit=%v err=%v, want hit", hit, err)
	}
}
