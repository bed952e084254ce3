package maskedspgemm

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"slices"
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

// TestSessionWidthsShareOnePlan pins that the width stays out of the
// session's cache key on the by-value path: every width computes the
// same result from one cached plan, each execution cutting its own
// partitions from the plan's cost prefix.
func TestSessionWidthsShareOnePlan(t *testing.T) {
	s := NewSession()
	g := ErdosRenyi(200, 8, 10)
	mask := g.PatternView()
	want, err := s.Multiply(mask, g, g)
	if err != nil {
		t.Fatal(err)
	}
	for _, threads := range []int{1, 2, 3, 7, 64} {
		got, err := s.Multiply(mask, g, g, WithThreads(threads))
		if err != nil {
			t.Fatalf("threads=%d: %v", threads, err)
		}
		if !sparse.Equal(want, got) {
			t.Fatalf("threads=%d: result differs", threads)
		}
	}
	if st := s.Stats().Cache; st.Entries != 1 {
		t.Errorf("widths should share one cache entry, got %d", st.Entries)
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
	// seen returns the misses observed so far and forgets them.
	seen := func() []PlanMiss {
		mu.Lock()
		defer mu.Unlock()
		got := misses
		misses = nil
		return got
	}
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
	got := seen()
	if len(got) != 2 {
		t.Fatalf("observer saw %d misses, want 2 (one warm, one serve)", len(got))
	}
	if !got[0].Warm || got[1].Warm {
		t.Fatalf("miss origins wrong: %+v", got)
	}
	if got[0].MaskFingerprint != got[0].AFingerprint || got[0].AFingerprint != got[0].BFingerprint {
		t.Fatal("self-product miss should share one fingerprint across operands")
	}
	if got[0].MaskFingerprint == got[1].MaskFingerprint {
		t.Fatal("distinct structures reported identical fingerprints")
	}
	if got[1].Scheme != "Hash-1P" {
		t.Fatalf("scheme = %q, want Hash-1P", got[1].Scheme)
	}

	// The reported fingerprints are the ones the cache keyed on; each
	// must equal a fresh Fingerprint() of its operand, whichever
	// operands share a Pattern object.
	m := ErdosRenyi(96, 6, 19)
	for _, c := range []struct {
		name string
		mask *Pattern
		a, b *Matrix
	}{
		{"mask≠A≠B", m.PatternView(), g, h},
		{"mask=A", g.PatternView(), g, h},
		{"A=B", m.PatternView(), h, h},
	} {
		if _, err := s.Multiply(c.mask, c.a, c.b); err != nil {
			t.Fatal(err)
		}
		got := seen()
		if len(got) != 1 {
			t.Fatalf("%s: observer saw %d misses, want 1", c.name, len(got))
		}
		want := PlanMiss{
			MaskFingerprint: c.mask.Fingerprint(),
			AFingerprint:    c.a.PatternView().Fingerprint(),
			BFingerprint:    c.b.PatternView().Fingerprint(),
		}
		if ev := got[0]; ev.MaskFingerprint != want.MaskFingerprint || ev.AFingerprint != want.AFingerprint || ev.BFingerprint != want.BFingerprint {
			t.Fatalf("%s: fingerprints %x/%x/%x, want %x/%x/%x", c.name,
				ev.MaskFingerprint, ev.AFingerprint, ev.BFingerprint,
				want.MaskFingerprint, want.AFingerprint, want.BFingerprint)
		}
	}

	// A miss on the reference path reports the fingerprints the refs
	// named, which are the ones the cache keyed on.
	k := ErdosRenyi(96, 6, 20)
	kRef, _ := s.PutOperand(k)
	gRef, _ := s.PutOperand(g)
	if _, err := s.MultiplyRefs(kRef.Pattern, gRef, kRef); err != nil {
		t.Fatal(err)
	}
	got = seen()
	if len(got) != 1 {
		t.Fatalf("reference path: observer saw %d misses, want 1", len(got))
	}
	if ev := got[0]; ev.Warm || ev.MaskFingerprint != kRef.Pattern || ev.AFingerprint != gRef.Pattern || ev.BFingerprint != kRef.Pattern {
		t.Fatalf("reference path: miss %+v, want fingerprints %x/%x/%x", ev, kRef.Pattern, gRef.Pattern, kRef.Pattern)
	}
}

// TestSessionRefsKeyLikeValues pins that fingerprints taken from refs
// key the same plan-cache entries that hashing the operands keys: a
// product multiplied by value hits when next named by reference, and
// the reverse, whichever operands share a structure.
func TestSessionRefsKeyLikeValues(t *testing.T) {
	g := ErdosRenyi(96, 6, 50)
	h := ErdosRenyi(96, 6, 51)
	m := ErdosRenyi(96, 6, 52)
	for _, c := range []struct {
		name       string
		mask, a, b *Matrix
	}{
		{"mask≠A≠B", m, g, h},
		{"mask=A", g, g, h},
		{"A=B", m, h, h},
	} {
		want, err := Multiply(c.mask.PatternView(), c.a, c.b)
		if err != nil {
			t.Fatal(err)
		}
		for _, byValueFirst := range []bool{true, false} {
			s := NewSession()
			maskRef, _ := s.PutOperand(c.mask)
			aRef, _ := s.PutOperand(c.a)
			bRef, _ := s.PutOperand(c.b)
			byValue := func() (*Matrix, error) { return s.Multiply(c.mask.PatternView(), c.a, c.b) }
			byRef := func() (*Matrix, error) { return s.MultiplyRefs(maskRef.Pattern, aRef, bRef) }
			first, second := byValue, byRef
			if !byValueFirst {
				first, second = byRef, byValue
			}
			for _, f := range []func() (*Matrix, error){first, second} {
				got, err := f()
				if err != nil {
					t.Fatal(err)
				}
				if !sparse.Equal(want, got) {
					t.Fatalf("%s: result differs from the one-shot Multiply", c.name)
				}
			}
			if st := s.Stats().Cache; st.Misses != 1 || st.Hits != 1 || st.Entries != 1 {
				t.Fatalf("%s, byValueFirst=%v: cache %+v, want 1 miss then 1 hit on one entry", c.name, byValueFirst, st)
			}
		}
	}
}

// TestSessionRefsMissNoClone pins that a plan miss by reference
// aliases the stored mask: alternating two structures through a
// one-entry cache makes every request miss, and per miss the by-value
// path allocates at least the mask's ColIdx more than the reference
// path, the clone the reference path skips.
func TestSessionRefsMissNoClone(t *testing.T) {
	gs := []*Matrix{ErdosRenyi(512, 32, 53), ErdosRenyi(512, 32, 54)}
	colIdxBytes := uint64(4 * len(gs[0].ColIdx))
	perMiss := func(multiply func(k int)) uint64 {
		const n = 8
		for k := range 2 { // grow the pooled executor first
			multiply(k)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := range n {
			multiply(i % 2)
		}
		runtime.ReadMemStats(&after)
		return (after.TotalAlloc - before.TotalAlloc) / n
	}
	byValue := NewSession(WithPlanCacheEntries(1))
	valueBytes := perMiss(func(k int) {
		if _, err := byValue.Multiply(gs[k].PatternView(), gs[k], gs[k], WithThreads(1)); err != nil {
			t.Fatal(err)
		}
	})
	byRef := NewSession(WithPlanCacheEntries(1))
	refs := make([]OperandRef, len(gs))
	for k, g := range gs {
		refs[k], _ = byRef.PutOperand(g)
	}
	refBytes := perMiss(func(k int) {
		if _, err := byRef.MultiplyRefs(refs[k].Pattern, refs[k], refs[k], WithThreads(1)); err != nil {
			t.Fatal(err)
		}
	})
	if st := byRef.Stats().Cache; st.Hits != 0 {
		t.Fatalf("cache %+v: every request must miss", st)
	}
	t.Logf("per miss: by value %d B, by reference %d B, mask ColIdx %d B", valueBytes, refBytes, colIdxBytes)
	if valueBytes < refBytes+colIdxBytes {
		t.Fatalf("per miss: by value %d B, by reference %d B; the reference path must skip the %d-byte mask clone",
			valueBytes, refBytes, colIdxBytes)
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

// TestSessionRememberedPatternBudget pins a remembered output pattern's
// accounting from the session's side. A structure's first multiply
// charges nothing for its pattern; the second, with fresh values,
// raises budget.used_bytes by exactly the pattern's 8·(rows+1) + 4·nnz
// bytes and its product schedule's (DESIGN.md §5, "Replayed hits"); a
// third raises nothing and returns a result that shares the pattern. The bytes leave the budget with the plan when the entry cap
// or budget pressure evicts it.
func TestSessionRememberedPatternBudget(t *testing.T) {
	opts := []Option{WithAlgorithm(Hybrid), WithComplement()}
	g := ErdosRenyi(128, 6, 60)
	h := ErdosRenyi(128, 6, 61)
	// hPlan is the bytes of h's plan before any execution.
	twin := NewSession()
	if err := twin.Warm(h.PatternView(), h, h, opts...); err != nil {
		t.Fatal(err)
	}
	hPlan := twin.Stats().Cache.Bytes

	// remember puts g, warms its plan, multiplies it three times — the
	// second time through a values-only delta — and checks the charges.
	remember := func(s *Session) {
		t.Helper()
		ref, _ := s.PutOperand(g)
		if err := s.Warm(g.PatternView(), g, g, opts...); err != nil {
			t.Fatal(err)
		}
		base := s.Stats().Budget.UsedBytes
		first, err := s.MultiplyRefs(ref.Pattern, ref, ref, opts...)
		if err != nil {
			t.Fatal(err)
		}
		if used := s.Stats().Budget.UsedBytes; used != base {
			t.Fatalf("first multiply: used %d bytes, want %d", used, base)
		}
		doubled := make([]float64, len(g.Val))
		for j, v := range g.Val {
			doubled[j] = 2 * v
		}
		dref, _, err := s.PutOperandValues(ref.Pattern, doubled)
		if err != nil {
			t.Fatal(err)
		}
		base = s.Stats().Budget.UsedBytes
		second, err := s.MultiplyRefs(dref.Pattern, dref, dref, opts...)
		if err != nil {
			t.Fatal(err)
		}
		// The entries hold about one product each, so the plan also keeps
		// a product schedule for its hits: 4 bytes per entry and one more,
		// 8 per product and 8 per row and one more.
		var products int64
		for i := range second.Rows {
			for _, j := range second.Row(i) {
				for _, k := range g.Row(i) {
					if _, ok := slices.BinarySearch(g.Row(int(k)), j); ok {
						products++
					}
				}
			}
		}
		sched := 4*(second.NNZ()+1) + 8*products + 8*int64(second.Rows+1)
		if st := s.Stats().Cache; products > 2*second.NNZ() || st.ReplayedPlans != 1 || st.ScheduleBytes != sched {
			t.Fatalf("second multiply: %d products over %d entries, cache %+v, want one replayed plan with a %d-byte schedule", products, second.NNZ(), st, sched)
		}
		pat := 8*int64(len(second.RowPtr)) + 4*second.NNZ() + sched
		if used := s.Stats().Budget.UsedBytes; used != base+pat {
			t.Fatalf("second multiply: used %d bytes, want %d + the pattern's and the schedule's %d", used, base, pat)
		}
		third, err := s.MultiplyRefs(ref.Pattern, ref, ref, opts...)
		if err != nil {
			t.Fatal(err)
		}
		if used := s.Stats().Budget.UsedBytes; used != base+pat {
			t.Fatalf("third multiply: used %d bytes, want %d", used, base+pat)
		}
		if &third.RowPtr[0] != &second.RowPtr[0] || &third.ColIdx[0] != &second.ColIdx[0] {
			t.Fatal("the plan hit's result does not share the remembered pattern")
		}
		if !sparse.Equal(first, third) {
			t.Fatal("the known-pattern result differs from the first multiply's")
		}
		for j, v := range second.Val {
			if v != 4*first.Val[j] {
				t.Fatalf("value %d = %v after doubling both operands, want %v", j, v, 4*first.Val[j])
			}
		}
	}
	evicted := func(name string, s *Session) {
		t.Helper()
		st := s.Stats()
		if st.Cache.Entries != 1 || st.Cache.Evictions != 1 || st.Cache.Bytes != hPlan || st.Budget.UsedBytes != st.Store.Bytes+hPlan {
			t.Fatalf("%s: cache %+v, budget %+v, store %d bytes; want only h's %d-byte plan", name, st.Cache, st.Budget, st.Store.Bytes, hPlan)
		}
	}

	capped := NewSession(WithPlanCacheEntries(1))
	remember(capped)
	if err := capped.Warm(h.PatternView(), h, h, opts...); err != nil {
		t.Fatal(err)
	}
	evicted("entry cap", capped)

	// Budget pressure: an upload far larger than the room left evicts
	// g's operands and then g's plan; h's plan is the cache's newest.
	probe := NewSession()
	remember(probe)
	if err := probe.Warm(h.PatternView(), h, h, opts...); err != nil {
		t.Fatal(err)
	}
	pressed := NewSession(WithMemoryBudget(probe.Stats().Budget.UsedBytes + 1<<10))
	remember(pressed)
	if err := pressed.Warm(h.PatternView(), h, h, opts...); err != nil {
		t.Fatal(err)
	}
	pressed.PutOperand(ErdosRenyi(2048, 8, 62))
	evicted("budget pressure", pressed)
}

// symmetricValues reports whether m's values equal their transposes'
// bit for bit; m's pattern is symmetric.
func symmetricValues(m *Matrix) bool {
	for i := range m.Rows {
		for t := m.RowPtr[i]; t < m.RowPtr[i+1]; t++ {
			j := int(m.ColIdx[t])
			u, _ := slices.BinarySearch(m.Row(j), int32(i))
			if math.Float64bits(m.Val[t]) != math.Float64bits(m.Val[m.RowPtr[j]+int64(u)]) {
				return false
			}
		}
	}
	return true
}

// TestSessionResidentSymmetryCheckedOnce: the Session tells executions
// on stored operands that A is resident, so a one-triangle plan checks
// a value array for symmetry once, not on every hit. The test breaks
// the store's no-mutation contract on purpose to make the skip
// visible: values made asymmetric in place after a hit proved them
// symmetric still run one triangle through MultiplyRefs, whose result
// is a mirror and so symmetric, while Multiply on the same matrix and
// the same cached plan, whose caller vouches for nothing, checks them
// and returns the asymmetric full product. A values-only delta is a
// new array, and is checked on its first hit.
func TestSessionResidentSymmetryCheckedOnce(t *testing.T) {
	g := RMAT(7, 8, 5)
	if !symmetricValues(g) {
		t.Fatal("the R-MAT graph's values are not symmetric")
	}
	s := NewSession()
	ref, _ := s.PutOperand(g)
	multiplyRefs := func(r OperandRef) *Matrix {
		t.Helper()
		out, err := s.MultiplyRefs(r.Pattern, r, r)
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	if out := multiplyRefs(ref); !symmetricValues(out) {
		t.Fatal("the product of symmetric values is not symmetric")
	}
	// Scale the values of one vertex's row, not its column: A is no
	// longer symmetric, and its full product is not either.
	skewed := slices.Clone(g.Val)
	for t := g.RowPtr[0]; t < g.RowPtr[1]; t++ {
		skewed[t] *= 3
	}
	copy(g.Val, skewed)
	full, err := s.Multiply(g.PatternView(), g, g)
	if err != nil {
		t.Fatal(err)
	}
	if symmetricValues(full) {
		t.Fatal("Multiply on asymmetric values returned a symmetric product: it skipped the values check")
	}
	if s.Stats().Cache.Misses != 1 {
		t.Fatalf("Multiply missed the plan MultiplyRefs built: %+v", s.Stats().Cache)
	}
	if out := multiplyRefs(ref); !symmetricValues(out) {
		t.Fatal("a hit on resident values proved symmetric checked them again")
	}
	dref, _, err := s.PutOperandValues(ref.Pattern, skewed)
	if err != nil {
		t.Fatal(err)
	}
	if out := multiplyRefs(dref); symmetricValues(out) {
		t.Fatal("a values-only delta with asymmetric values ran one triangle: its first hit skipped the check")
	}
}
