package maskedspgemm

import (
	"errors"
	"fmt"
	"sync"
	"testing"

	"maskedspgemm/internal/sparse"
)

// sessionGraphs builds a few small recurring structures, the shape of
// traffic a session exists to serve.
func sessionGraphs() []*Matrix {
	return []*Matrix{
		ErdosRenyi(96, 8, 1),
		ErdosRenyi(128, 6, 2),
		RMAT(7, 8, 3),
	}
}

// TestSessionMatchesMultiply checks the serving path is just a cached
// route to the same numbers: Session.Multiply must equal Multiply for
// every algorithm, on first and repeat requests.
func TestSessionMatchesMultiply(t *testing.T) {
	s := NewSession()
	eq := func(x, y float64) bool { return x == y }
	for _, g := range sessionGraphs() {
		for _, algo := range []Algorithm{MSA, Hash, Inner, Hybrid} {
			want, err := Multiply(g.PatternView(), g, g, WithAlgorithm(algo))
			if err != nil {
				t.Fatal(err)
			}
			for rep := 0; rep < 2; rep++ {
				got, err := s.Multiply(g.PatternView(), g, g, WithAlgorithm(algo))
				if err != nil {
					t.Fatal(err)
				}
				if !sparse.EqualFunc(want, got, eq) {
					t.Fatalf("algo %v rep %d: session result differs from Multiply", algo, rep)
				}
			}
		}
	}
	st := s.Stats()
	if st.Cache.Hits == 0 || st.Cache.Misses == 0 {
		t.Fatalf("stats = %+v: repeats should hit, first requests should miss", st.Cache)
	}
}

// TestSessionConcurrent hammers one session from many goroutines with
// a mix of recurring structures and algorithms, verifying every
// result. This is the serving-layer race test: shared immutable plans,
// concurrent cache lookups, pooled executors. Run under -race in CI.
func TestSessionConcurrent(t *testing.T) {
	graphs := sessionGraphs()
	algos := []Algorithm{MSA, Hash, Inner, Hybrid}
	type query struct {
		g    *Matrix
		algo Algorithm
	}
	var queries []query
	wants := make([]*Matrix, 0, len(graphs)*len(algos))
	for _, g := range graphs {
		for _, algo := range algos {
			want, err := Multiply(g.PatternView(), g, g, WithAlgorithm(algo))
			if err != nil {
				t.Fatal(err)
			}
			queries = append(queries, query{g, algo})
			wants = append(wants, want)
		}
	}
	s := NewSession(WithMaxIdleExecutors(4))
	const goroutines = 8
	const rounds = 12
	eq := func(x, y float64) bool { return x == y }
	errs := make(chan error, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(worker int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				qi := (worker + r*3) % len(queries)
				q := queries[qi]
				got, err := s.Multiply(q.g.PatternView(), q.g, q.g, WithAlgorithm(q.algo))
				if err != nil {
					errs <- err
					return
				}
				if !sparse.EqualFunc(wants[qi], got, eq) {
					errs <- fmt.Errorf("worker %d round %d: wrong result for query %d", worker, r, qi)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	st := s.Stats()
	if total := st.Cache.Hits + st.Cache.Misses; total != goroutines*rounds {
		t.Fatalf("cache saw %d lookups, want %d", total, goroutines*rounds)
	}
	if st.Pool.Idle > 4 {
		t.Fatalf("pool retained %d idle executors, bound is 4", st.Pool.Idle)
	}
}

// TestSessionWarm checks pre-planning populates the cache so the first
// real request hits.
func TestSessionWarm(t *testing.T) {
	g := ErdosRenyi(64, 6, 9)
	s := NewSession()
	if err := s.Warm(g.PatternView(), g, g, WithAlgorithm(Inner)); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Multiply(g.PatternView(), g, g, WithAlgorithm(Inner)); err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	if st.Cache.Hits != 1 || st.Cache.Misses != 1 {
		t.Fatalf("stats = %+v, want warm miss then request hit", st.Cache)
	}
}

// TestSessionIgnoresReuseOutput pins the ownership rule that makes
// Session results safe to retain: even when the caller asks for pooled
// output, the serving path must hand back an independent matrix (the
// executor that produced it is returned to the pool immediately).
func TestSessionIgnoresReuseOutput(t *testing.T) {
	g := ErdosRenyi(64, 6, 10)
	s := NewSession(WithMaxIdleExecutors(1))
	r1, err := s.Multiply(g.PatternView(), g, g, WithReuseOutput())
	if err != nil {
		t.Fatal(err)
	}
	keep := r1.Clone()
	// A second request through the same (reused) executor must not
	// overwrite the first result's buffers.
	if _, err := s.Multiply(g.PatternView(), g, g, WithReuseOutput()); err != nil {
		t.Fatal(err)
	}
	if !sparse.EqualFunc(keep, r1, func(x, y float64) bool { return x == y }) {
		t.Fatal("session result was clobbered by a later request")
	}
}

// TestSessionEvictionBounds checks the session honors its cache
// bounds under structure churn.
func TestSessionEvictionBounds(t *testing.T) {
	s := NewSession(WithPlanCacheEntries(2))
	for seed := uint64(0); seed < 5; seed++ {
		g := ErdosRenyi(48, 5, 20+seed)
		if _, err := s.Multiply(g.PatternView(), g, g); err != nil {
			t.Fatal(err)
		}
	}
	st := s.Stats()
	if st.Cache.Entries > 2 {
		t.Fatalf("cache holds %d entries, bound is 2", st.Cache.Entries)
	}
	if st.Cache.Evictions == 0 {
		t.Fatal("expected evictions under churn")
	}
}

// BenchmarkSessionMultiply compares serving a recurring structure
// through a Session against the one-shot Multiply path — the
// facade-level view of what plan caching plus executor pooling buys.
func BenchmarkSessionMultiply(b *testing.B) {
	g := RMAT(11, 8, 5)
	mask := g.PatternView()
	for _, algo := range []Algorithm{MSA, Inner} {
		b.Run(fmt.Sprintf("%v/oneshot", algo), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := Multiply(mask, g, g, WithAlgorithm(algo)); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("%v/session", algo), func(b *testing.B) {
			s := NewSession()
			if err := s.Warm(mask, g, g, WithAlgorithm(algo)); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := s.Multiply(mask, g, g, WithAlgorithm(algo)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// TestSessionSchedStats checks the telemetry aggregation path: served
// multiplies issued with WithSchedStats accumulate into
// SessionStats.Sched, while plain multiplies record nothing.
func TestSessionSchedStats(t *testing.T) {
	s := NewSession()
	g := ErdosRenyi(256, 8, 9)
	mask := g.PatternView()

	if _, err := s.Multiply(mask, g, g, WithThreads(2)); err != nil {
		t.Fatal(err)
	}
	if got := s.Stats().Sched; got.Passes != 0 {
		t.Fatalf("plain multiply recorded sched stats: %+v", got)
	}

	const reqs = 3
	for i := 0; i < reqs; i++ {
		if _, err := s.Multiply(mask, g, g, WithThreads(2), WithSchedStats()); err != nil {
			t.Fatal(err)
		}
	}
	sched := s.Stats().Sched
	if sched.Passes != reqs {
		t.Fatalf("passes = %d, want %d", sched.Passes, reqs)
	}
	if sched.BlocksClaimed == 0 {
		t.Error("no blocks recorded")
	}
	if sched.WorstImbalance < 1 {
		t.Errorf("worst imbalance %v, want ≥ 1 once work was recorded", sched.WorstImbalance)
	}
}

// TestSessionScheduleOption pins that WithSchedule flows through the
// session's cache key: different schedules are distinct plans but all
// compute the same result.
func TestSessionScheduleOption(t *testing.T) {
	s := NewSession()
	g := ErdosRenyi(200, 8, 10)
	mask := g.PatternView()
	want, err := s.Multiply(mask, g, g)
	if err != nil {
		t.Fatal(err)
	}
	for _, mode := range []Schedule{ScheduleFixedGrain, ScheduleCostPartition, ScheduleWorkSteal} {
		got, err := s.Multiply(mask, g, g, WithSchedule(mode), WithThreads(2))
		if err != nil {
			t.Fatalf("%v: %v", mode, err)
		}
		if !sparse.Equal(want, got) {
			t.Fatalf("%v: result differs", mode)
		}
	}
	if st := s.Stats().Cache; st.Entries < 4 {
		t.Errorf("schedules should be distinct cache entries, got %d", st.Entries)
	}
}

// TestSessionWarmThenSchedStatsHits is the headline serving regression
// for plan-key normalization: warming without telemetry and then
// multiplying with WithSchedStats must hit the warmed plan — and still
// collect the requested telemetry per execution. Before execution-only
// options were normalized out of the cache key this was a guaranteed
// miss, defeating warming exactly where a server needs it.
func TestSessionWarmThenSchedStatsHits(t *testing.T) {
	g := ErdosRenyi(128, 8, 15)
	s := NewSession()
	if err := s.Warm(g.PatternView(), g, g, WithThreads(2)); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Multiply(g.PatternView(), g, g, WithThreads(2), WithSchedStats()); err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	if st.Cache.Hits != 1 || st.Cache.Misses != 1 {
		t.Fatalf("cache = %+v, want Hits == 1, Misses == 1 (warm plants, stats-request hits)", st.Cache)
	}
	if st.Sched.Passes != 1 {
		t.Fatalf("sched passes = %d, want telemetry honored on the shared plan", st.Sched.Passes)
	}
	// The reverse order must share the same single entry too.
	if _, err := s.Multiply(g.PatternView(), g, g, WithThreads(2), WithReuseOutput()); err != nil {
		t.Fatal(err)
	}
	if st := s.Stats().Cache; st.Entries != 1 {
		t.Fatalf("execution-only options fragmented the cache into %d entries", st.Entries)
	}
}

// TestSessionRefsConcurrentWidths hammers MultiplyRefs from goroutines
// that each request a different WithThreads width: every request must
// compute the exact product and the structure must occupy exactly one
// plan-cache entry. A direct NewPlan keeps the width it was built with.
// Run under -race in CI.
func TestSessionRefsConcurrentWidths(t *testing.T) {
	s := NewSession()
	g := ErdosRenyi(512, 8, 11)
	ref, _ := s.PutOperand(g)
	want, err := Multiply(g.PatternView(), g, g)
	if err != nil {
		t.Fatal(err)
	}
	eq := func(x, y float64) bool { return x == y }

	const iters = 25
	widths := []int{1, 2, 3, 4}
	var wg sync.WaitGroup
	errs := make(chan error, len(widths))
	for _, threads := range widths {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				got, err := s.MultiplyRefs(ref.Pattern, ref, ref, WithThreads(threads))
				if err != nil {
					errs <- err
					return
				}
				if !sparse.EqualFunc(want, got, eq) {
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
	if st := s.Stats().Cache; st.Entries != 1 || st.Misses < 1 || st.Hits+st.Misses != iters*uint64(len(widths)) {
		t.Errorf("cache = %+v, want one entry serving all %d widths", st, len(widths))
	}
	plan, err := NewPlan(g.PatternView(), g, g, WithThreads(3), WithSchedStats())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := plan.Execute(g, g); err != nil {
		t.Fatal(err)
	}
	if w := len(plan.SchedStats().Workers); w != 3 {
		t.Errorf("a direct plan frozen at 3 threads ran %d workers", w)
	}
}

// TestSessionMissObserver checks the warm-by-prediction hook: the
// observer sees every structure that planned fresh, tagged with its
// origin (warm vs serve), and hits stay silent.
func TestSessionMissObserver(t *testing.T) {
	var (
		mu     sync.Mutex
		misses []PlanMiss
	)
	s := NewSession(WithMissObserver(func(ev PlanMiss) {
		mu.Lock()
		misses = append(misses, ev)
		mu.Unlock()
	}))
	g := ErdosRenyi(96, 6, 16)
	h := ErdosRenyi(96, 6, 17)
	if err := s.Warm(g.PatternView(), g, g); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Multiply(g.PatternView(), g, g); err != nil { // hit: silent
		t.Fatal(err)
	}
	if _, err := s.Multiply(h.PatternView(), h, h, WithAlgorithm(Hash)); err != nil { // fresh structure
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(misses) != 2 {
		t.Fatalf("observer saw %d misses, want 2 (one warm, one serve)", len(misses))
	}
	if !misses[0].Warm || misses[1].Warm {
		t.Fatalf("miss origins wrong: %+v", misses)
	}
	if misses[0].MaskFingerprint != misses[0].AFingerprint || misses[0].AFingerprint != misses[0].BFingerprint {
		t.Fatal("self-product miss should share one fingerprint across operands")
	}
	if misses[0].MaskFingerprint == misses[1].MaskFingerprint {
		t.Fatal("distinct structures reported identical fingerprints")
	}
	if misses[1].Scheme != "Hash-1P" {
		t.Fatalf("scheme = %q, want Hash-1P", misses[1].Scheme)
	}
}

// TestSessionMissObserversCompose pins that WithMissObserver stacks:
// the serve front-end adds its own observer on top of any the embedder
// installed, and both must fire.
func TestSessionMissObserversCompose(t *testing.T) {
	var first, second int
	s := NewSession(
		WithMissObserver(func(PlanMiss) { first++ }),
		WithMissObserver(func(PlanMiss) { second++ }),
	)
	g := ErdosRenyi(64, 4, 18)
	if _, err := s.Multiply(g.PatternView(), g, g); err != nil {
		t.Fatal(err)
	}
	if first != 1 || second != 1 {
		t.Fatalf("observers fired %d/%d times, want 1/1", first, second)
	}
}

// TestSessionOperandStore pins the facade's reference path end to end:
// PutOperand files content idempotently, MultiplyRefs resolves it and
// matches the by-value result, missing operands come back as one typed
// error naming every dangling reference, and a values-only delta is a
// guaranteed plan-cache hit.
func TestSessionOperandStore(t *testing.T) {
	s := NewSession()
	g := ErdosRenyi(96, 6, 40)
	want, err := Multiply(g.PatternView(), g, g)
	if err != nil {
		t.Fatal(err)
	}

	ref, created := s.PutOperand(g)
	if !created {
		t.Fatal("first PutOperand must create")
	}
	if ref2, created := s.PutOperand(ErdosRenyi(96, 6, 40)); created || ref2 != ref {
		t.Fatal("re-put of identical content must be idempotent")
	}

	got, err := s.MultiplyRefs(ref.Pattern, ref, ref)
	if err != nil {
		t.Fatal(err)
	}
	if !sparse.EqualFunc(want, got, func(x, y float64) bool { return x == y }) {
		t.Fatal("by-reference result differs from by-value Multiply")
	}

	// Every dangling operand is named, in mask, a, b order.
	bogus := OperandRef{Pattern: 0x1111, Values: 0x2222}
	_, err = s.MultiplyRefs(0x3333, bogus, ref)
	var missing *MissingOperandsError
	if !errors.As(err, &missing) {
		t.Fatalf("want MissingOperandsError, got %v", err)
	}
	if len(missing.Missing) != 2 ||
		missing.Missing[0] != (MissingOperand{Operand: "mask", Pattern: 0x3333}) ||
		missing.Missing[1] != (MissingOperand{Operand: "a", Pattern: 0x1111, Values: 0x2222}) {
		t.Fatalf("missing = %v", missing.Missing)
	}

	// Values delta: same structure, fresh numbers — plan already cached.
	scaled := make([]float64, len(g.Val))
	for i, v := range g.Val {
		scaled[i] = 3 * v
	}
	dref, created, err := s.PutOperandValues(ref.Pattern, scaled)
	if err != nil || !created {
		t.Fatalf("values delta: %v created=%v", err, created)
	}
	before := s.Stats().Cache
	if _, err := s.MultiplyRefs(dref.Pattern, dref, dref); err != nil {
		t.Fatal(err)
	}
	after := s.Stats().Cache
	if after.Misses != before.Misses || after.Hits != before.Hits+1 {
		t.Fatalf("values-delta multiply must hit the cached plan: %+v → %+v", before, after)
	}
}

// TestSessionMemoryBudget pins WithMemoryBudget as the single bound
// over plans and operands: pressure from puts evicts, the budget never
// ends above its ceiling, and Stats reconciles the shared accounting.
func TestSessionMemoryBudget(t *testing.T) {
	s := NewSession(WithMemoryBudget(96 << 10))
	for seed := uint64(50); seed < 58; seed++ {
		g := ErdosRenyi(128, 6, seed)
		ref, _ := s.PutOperand(g)
		if _, err := s.MultiplyRefs(ref.Pattern, ref, ref); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
	st := s.Stats()
	if st.Budget.MaxBytes != 96<<10 {
		t.Fatalf("budget max = %d", st.Budget.MaxBytes)
	}
	if st.Budget.UsedBytes > st.Budget.MaxBytes {
		t.Fatalf("over budget: %+v", st.Budget)
	}
	if st.Budget.UsedBytes != st.Store.Bytes+st.Cache.Bytes {
		t.Fatalf("budget %d != store %d + cache %d", st.Budget.UsedBytes, st.Store.Bytes, st.Cache.Bytes)
	}
	if st.Store.Evictions == 0 && st.Cache.Evictions == 0 {
		t.Fatalf("eight working sets under 96KiB evicted nothing: %+v", st)
	}
}
