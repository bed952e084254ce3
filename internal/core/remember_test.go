package core

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"sync"
	"testing"

	"maskedspgemm/internal/faultinject"
	"maskedspgemm/internal/sparse"
)

// Remembered output patterns (DESIGN.md §5, "Known pattern"): a plan a
// PlanCache built publishes the pattern of its second clean one-phase
// execution, and every later execution writes values only, into exact
// rows. These tests hold its results bit for bit to a fresh plan's, and
// pin what is published and charged, when, and how often.

// rememberSpecials are the factors withSpecialValues cycles through:
// −0, ±Inf and NaN products land on admitted and banned columns alike.
var rememberSpecials = []float64{math.Copysign(0, -1), 1.5, math.Inf(1), -2, math.NaN(), math.Inf(-1), 0.25}

// withValues returns a matrix with m's structure, shared, and the values
// f(j, m.Val[j]).
func withValues(m *sparse.CSR[float64], f func(j int, v float64) float64) *sparse.CSR[float64] {
	out := &sparse.CSR[float64]{Pattern: m.Pattern, Val: make([]float64, len(m.Val))}
	for j, v := range m.Val {
		out.Val[j] = f(j, v)
	}
	return out
}

// withSpecialValues scales entry j of m by rememberSpecials[j mod 7].
func withSpecialValues(m *sparse.CSR[float64]) *sparse.CSR[float64] {
	return withValues(m, func(j int, v float64) float64 { return v * rememberSpecials[j%len(rememberSpecials)] })
}

// checkIdentical fails unless got equals want bit for bit: the same
// pattern, and values with the same bits (any two NaNs alike, sameBits).
func checkIdentical(t *testing.T, name string, got, want *sparse.CSR[float64]) {
	t.Helper()
	if got.Rows != want.Rows || got.Cols != want.Cols || !slices.Equal(got.RowPtr, want.RowPtr) || !slices.Equal(got.ColIdx, want.ColIdx) {
		t.Fatalf("%s: pattern differs from a fresh plan's (nnz %d, want %d)", name, got.NNZ(), want.NNZ())
	}
	for j, v := range got.Val {
		if !sameBits(v, want.Val[j]) {
			t.Fatalf("%s: value %d (column %d) = %v (%#x), fresh %v (%#x)",
				name, j, got.ColIdx[j], v, math.Float64bits(v), want.Val[j], math.Float64bits(want.Val[j]))
		}
	}
}

// sharesPattern reports whether out's RowPtr and ColIdx are the plan's
// remembered arrays.
func sharesPattern(p *Plan[float64, ptSRType], out *sparse.CSR[float64]) bool {
	pat := p.pattern.Load()
	return pat != nil && &pat.rowPtr[0] == &out.RowPtr[0] && (len(out.ColIdx) == 0 || &pat.colIdx[0] == &out.ColIdx[0])
}

// rememberProduct is one product the remembered-pattern tests run: the
// operands, and whether B is A itself.
type rememberProduct struct {
	name    string
	mask    *sparse.Pattern
	a, b    *sparse.CSR[float64]
	selfSym bool
}

func rememberProducts() []rememberProduct {
	var out []rememberProduct
	mask, a, b := buildCase(caseSpec{"", 96, 80, 300, 6, 8, 12, 7})
	out = append(out, rememberProduct{name: "rect-300", mask: mask, a: a, b: b})
	for _, n := range []int{256, 4096} {
		mask, a, b, _ := complDenseRowsProduct(n)
		out = append(out, rememberProduct{name: fmt.Sprintf("compl-dense-rows-%d", n), mask: mask, a: a, b: b})
	}
	g := symGraph(7, true, true)
	out = append(out, rememberProduct{name: "symmetric", mask: g.PatternView(), a: g, b: g, selfSym: true})
	return out
}

// rememberSchemes are every registered scheme and four Hybrid menus.
func rememberSchemes() []Options {
	var out []Options
	for _, algo := range Algorithms() {
		out = append(out, Options{Algorithm: algo})
	}
	for _, menu := range []FamilySet{Families(FamMaskedBit), Families(FamMSA, FamHash), Families(FamHeap, FamPull), Families(FamMaskedBit, FamHash, FamPull)} {
		out = append(out, Options{Algorithm: AlgoHybrid, HybridFamilies: menu})
	}
	return out
}

// TestRememberedPatternBitIdentical executes one cached plan four
// times — with the planned values, with values that make −0, ±Inf and
// NaN products, with the planned values scaled, and with the special
// values again — and checks every result bit for bit against a fresh
// NewPlan plan's on the same values, for every scheme and Hybrid menu,
// plain and complemented, in every phase each scheme runs, at 1, 2, 3,
// 4 and 64 threads. A cached one-phase plan remembers nothing from its first
// full-product execution, and from its second on every full-product
// result must share the remembered pattern. On the symmetric product
// the planned and scaled values run one triangle, so the special
// values' second run is the one that remembers.
func TestRememberedPatternBitIdentical(t *testing.T) {
	for _, pr := range rememberProducts() {
		values := [][2]*sparse.CSR[float64]{{pr.a, pr.b}}
		for _, f := range []func(*sparse.CSR[float64]) *sparse.CSR[float64]{
			withSpecialValues,
			func(m *sparse.CSR[float64]) *sparse.CSR[float64] {
				return withValues(m, func(_ int, v float64) float64 { return -1.5 * v })
			},
		} {
			a := f(pr.a)
			b := a
			if !pr.selfSym {
				b = f(pr.b)
			}
			values = append(values, [2]*sparse.CSR[float64]{a, b})
		}
		values = append(values, values[1])
		for _, complement := range []bool{false, true} {
			for _, scheme := range rememberSchemes() {
				if complement && !SupportsComplement(scheme.Algorithm) {
					continue
				}
				for _, ph := range schemePhases(scheme.Algorithm) {
					for _, threads := range []int{1, 2, 3, 4, 64} {
						opt := scheme
						opt.Complement, opt.Phases = complement, ph
						name := fmt.Sprintf("%s/%v/complement=%v/%v/families=%#x/threads=%d",
							pr.name, opt.Algorithm, complement, ph, opt.HybridFamilies, threads)
						checkRememberedRuns(t, name, pr, values, opt, threads)
					}
				}
			}
		}
	}
}

// checkRememberedRuns executes one cached plan on each value set in
// turn on one executor and checks each result against a fresh plan's.
func checkRememberedRuns(t *testing.T, name string, pr rememberProduct, values [][2]*sparse.CSR[float64], opt Options, threads int) {
	t.Helper()
	cache := NewPlanCache(ptSR, 0)
	plan, err := cache.GetOrPlan(pr.mask, pr.a, pr.b, opt)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	exec := NewExecutor[float64](ptSR)
	eo := ExecOptions{Threads: threads}
	fullRuns := 0
	for run, ab := range values {
		wasRemembered := plan.pattern.Load() != nil
		got, err := plan.ExecuteOnOpts(exec, ab[0], ab[1], eo)
		if err != nil {
			t.Fatalf("%s run %d: %v", name, run, err)
		}
		fresh, err := NewPlan(ptSR, pr.mask, ab[0], ab[1], opt, nil)
		if err != nil {
			t.Fatalf("%s run %d: %v", name, run, err)
		}
		want, err := fresh.ExecuteOnOpts(NewExecutor[float64](ptSR), ab[0], ab[1], eo)
		if err != nil {
			t.Fatalf("%s run %d: fresh plan: %v", name, run, err)
		}
		checkIdentical(t, fmt.Sprintf("%s run %d", name, run), got, want)
		counts := opt.Phases == OnePhase && opt.Algorithm != AlgoSaxpyThenMask && !ranHalf(exec)
		if counts {
			fullRuns++
		}
		remembers := counts && fullRuns >= 2
		if remembers && !sharesPattern(plan, got) {
			t.Fatalf("%s run %d: a second or later full one-phase result of a cached plan does not share its remembered pattern", name, run)
		}
		if counts && fullRuns == 1 && plan.pattern.Load() != nil {
			t.Fatalf("%s run %d: the first full one-phase execution published a pattern", name, run)
		}
		if !remembers && plan.pattern.Load() != nil && !wasRemembered {
			t.Fatalf("%s run %d: an execution that must not remember published a pattern", name, run)
		}
		if fresh.pattern.Load() != nil {
			t.Fatalf("%s run %d: a NewPlan plan remembered its pattern", name, run)
		}
	}
}

// TestRememberedPatternExecutorAcrossWidths reuses one executor across
// cached plans of different widths — complemented MaskedBit and Hybrid
// on a narrow and a wide product, then both again — so every known-
// pattern row runs on accumulator arrays wider than its product, left
// by the other. Each plan runs twice, the second time on values with
// −0, ±Inf and NaN products, and every result must match a fresh plan
// on a fresh executor bit for bit. The second run remembers the
// pattern, and steps 2 and 3 hit the plans steps 0 and 1 remembered.
func TestRememberedPatternExecutorAcrossWidths(t *testing.T) {
	exec := NewExecutor[float64](ptSR)
	cache := NewPlanCache(ptSR, 0)
	for step, n := range []int{256, 4096, 256, 4096} {
		mask, a, b, _ := complDenseRowsProduct(n)
		for _, opt := range []Options{
			{Algorithm: AlgoMaskedBit, Complement: true},
			{Algorithm: AlgoHybrid, Complement: true},
			{Algorithm: AlgoHybrid, Complement: true, HybridFamilies: Families(FamMaskedBit)},
		} {
			plan, err := cache.GetOrPlan(mask, a, b, opt)
			if err != nil {
				t.Fatal(err)
			}
			for run, ab := range [][2]*sparse.CSR[float64]{{a, b}, {withSpecialValues(a), withSpecialValues(b)}} {
				name := fmt.Sprintf("step=%d/n=%d/%v/families=%#x/run=%d", step, n, opt.Algorithm, opt.HybridFamilies, run)
				got, err := plan.ExecuteOnOpts(exec, ab[0], ab[1], ExecOptions{Threads: 2})
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				want, err := MaskedSpGEMM(ptSR, mask, ab[0], ab[1], opt)
				if err != nil {
					t.Fatal(err)
				}
				checkIdentical(t, name, got, want)
				first := run == 0 && step < 2
				if first && plan.pattern.Load() != nil {
					t.Fatalf("%s: a plan's first execution published its pattern", name)
				}
				if !first && !sharesPattern(plan, got) {
					t.Fatalf("%s: the result does not share the remembered pattern", name)
				}
			}
		}
	}
}

// rememberBudgetCase is the product the charging tests run: a
// complemented Hybrid product, delta-compl-ref's shape at small size.
func rememberBudgetCase(seed uint64) (*sparse.Pattern, *sparse.CSR[float64], *sparse.CSR[float64], Options) {
	mask, a, b := buildCase(caseSpec{"", 128, 128, 128, 6, 6, 6, seed})
	return mask, a, b, Options{Algorithm: AlgoHybrid, Complement: true}
}

// TestChaosRememberFirstExecution interrupts a cached plan's first
// execution and, after one clean execution, the execution that would
// publish — with a cancel at the numeric and at the compact checkpoint
// and a kernel panic in the numeric pass. Neither publishes a pattern
// or charges bytes, and the interrupted first execution does not count
// as the plan's first: the clean execution after it publishes nothing
// either. The clean execution after the second fault publishes, and
// charges the cache and its budget exactly the pattern's bytes.
func TestChaosRememberFirstExecution(t *testing.T) {
	t.Cleanup(faultinject.Disarm)
	for _, fault := range []faultinject.Hooks{
		{CancelPass: faultinject.PassNumeric},
		{CancelPass: faultinject.PassCompact},
		{PanicArmed: true, PanicRow: 3, PanicPass: faultinject.PassNumeric},
	} {
		faultinject.Disarm()
		mask, a, b, opt := rememberBudgetCase(71)
		budget := NewMemBudget(0)
		cache := NewPlanCache(ptSR, 0)
		cache.AttachBudget(budget)
		plan, err := cache.GetOrPlan(mask, a, b, opt)
		if err != nil {
			t.Fatal(err)
		}
		before := budget.Used()
		// Interrupted executions leave their executor half-mutated, so
		// each runs on a throwaway one.
		exec := NewExecutor[float64](ptSR)
		for step := range 2 {
			faultinject.Arm(fault)
			out, err := plan.ExecuteOnOpts(NewExecutor[float64](ptSR), a, b, ExecOptions{Threads: 4})
			faultinject.Disarm()
			var ce *CanceledError
			var kp *KernelPanicError
			if out != nil || !(errors.As(err, &ce) || errors.As(err, &kp)) {
				t.Fatalf("%+v step %d: out=%v err=%v, want a typed fault and no result", fault, step, out != nil, err)
			}
			if plan.pattern.Load() != nil || budget.Used() != before || cache.Stats().Bytes != before {
				t.Fatalf("%+v step %d: the interrupted execution published a pattern (budget %d, cache %d bytes, want %d)",
					fault, step, budget.Used(), cache.Stats().Bytes, before)
			}
			if step == 0 {
				if _, err := plan.ExecuteOnOpts(exec, a, b, ExecOptions{Threads: 4}); err != nil {
					t.Fatal(err)
				}
				if plan.pattern.Load() != nil || budget.Used() != before {
					t.Fatalf("%+v: the first clean execution, after an interrupted one, published a pattern", fault)
				}
			}
		}
		got, err := plan.ExecuteOnOpts(exec, a, b, ExecOptions{Threads: 4})
		if err != nil {
			t.Fatal(err)
		}
		if !sharesPattern(plan, got) {
			t.Fatalf("%+v: the clean execution after the second fault did not publish its pattern", fault)
		}
		if want := before + 8*int64(len(got.RowPtr)) + 4*got.NNZ(); budget.Used() != want || cache.Stats().Bytes != want {
			t.Fatalf("%+v: budget %d, cache %d bytes, want %d", fault, budget.Used(), cache.Stats().Bytes, want)
		}
	}
}

// TestRememberConcurrentFirstExecutions starts several executions of
// one cached plan at once, each on its own executor (run it under
// -race): on even rounds they are the plan's first executions, on odd
// rounds one clean execution precedes them, so all of them could
// publish. All results are equal, the plan publishes one of their
// patterns, and the cache and budget are charged its bytes once.
func TestRememberConcurrentFirstExecutions(t *testing.T) {
	const goroutines = 6
	for round := range 4 {
		mask, a, b, opt := rememberBudgetCase(80 + uint64(round))
		budget := NewMemBudget(0)
		cache := NewPlanCache(ptSR, 0)
		cache.AttachBudget(budget)
		plan, err := cache.GetOrPlan(mask, a, b, opt)
		if err != nil {
			t.Fatal(err)
		}
		before := budget.Used()
		if round%2 == 1 {
			if _, err := plan.ExecuteOnOpts(NewExecutor[float64](ptSR), a, b, ExecOptions{}); err != nil {
				t.Fatal(err)
			}
		}
		outs := make([]*sparse.CSR[float64], goroutines)
		errs := make([]error, goroutines)
		start := make(chan struct{})
		var wg sync.WaitGroup
		for g := range goroutines {
			wg.Add(1)
			go func() {
				defer wg.Done()
				exec := NewExecutor[float64](ptSR)
				<-start
				outs[g], errs[g] = plan.ExecuteOnOpts(exec, a, b, ExecOptions{Threads: 1 + g%2})
			}()
		}
		close(start)
		wg.Wait()
		for g, err := range errs {
			if err != nil {
				t.Fatalf("round %d goroutine %d: %v", round, g, err)
			}
			checkIdentical(t, fmt.Sprintf("round %d goroutine %d", round, g), outs[g], outs[0])
		}
		pat := plan.pattern.Load()
		if pat == nil {
			t.Fatalf("round %d: no pattern published", round)
		}
		if want := before + pat.bytes(); budget.Used() != want || cache.Stats().Bytes != want {
			t.Fatalf("round %d: budget %d, cache %d bytes, want %d (charged once)", round, budget.Used(), cache.Stats().Bytes, want)
		}
		got, err := plan.ExecuteOnOpts(NewExecutor[float64](ptSR), a, b, ExecOptions{})
		if err != nil {
			t.Fatal(err)
		}
		checkIdentical(t, fmt.Sprintf("round %d known pattern", round), got, outs[0])
	}
}

// TestPlanCacheRememberedPatternBudget pins a remembered pattern's
// charge: a plan's first execution adds nothing, publishing on the
// second adds exactly 8·(rows+1) + 4·nnz bytes to the entry and the
// budget, later executions add nothing, and the bytes return with the
// entry when Clear, the entry cap or budget pressure evicts it. A plan
// evicted before it publishes is not charged.
func TestPlanCacheRememberedPatternBudget(t *testing.T) {
	mask1, a1, b1, opt := rememberBudgetCase(91)
	mask2, a2, b2, _ := rememberBudgetCase(92)
	run := func(p *Plan[float64, ptSRType], a, b *sparse.CSR[float64]) int64 {
		t.Helper()
		out, err := p.ExecuteOnOpts(NewExecutor[float64](ptSR), a, b, ExecOptions{Threads: 2})
		if err != nil {
			t.Fatal(err)
		}
		return 8*int64(len(out.RowPtr)) + 4*out.NNZ()
	}
	// remember executes p twice, the second time on special values, so
	// that it publishes its pattern, and returns the pattern's bytes.
	remember := func(p *Plan[float64, ptSRType], a, b *sparse.CSR[float64]) int64 {
		t.Helper()
		run(p, a, b)
		return run(p, withSpecialValues(a), b)
	}
	plan := func(c *PlanCache[float64, ptSRType], mask *sparse.Pattern, a, b *sparse.CSR[float64]) *Plan[float64, ptSRType] {
		t.Helper()
		p, err := c.GetOrPlan(mask, a, b, opt)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}

	// Clear.
	budget := NewMemBudget(0)
	cache := NewPlanCache(ptSR, 0)
	cache.AttachBudget(budget)
	p1 := plan(cache, mask1, a1, b1)
	foot1 := budget.Used()
	run(p1, a1, b1)
	if budget.Used() != foot1 || cache.Stats().Bytes != foot1 {
		t.Fatalf("after the first execution: budget %d, cache %d, want %d", budget.Used(), cache.Stats().Bytes, foot1)
	}
	pat1 := run(p1, withSpecialValues(a1), b1)
	if budget.Used() != foot1+pat1 || cache.Stats().Bytes != foot1+pat1 {
		t.Fatalf("after the second execution: budget %d, cache %d, want %d", budget.Used(), cache.Stats().Bytes, foot1+pat1)
	}
	run(p1, a1, b1)
	if budget.Used() != foot1+pat1 {
		t.Fatalf("a known-pattern execution charged again: budget %d, want %d", budget.Used(), foot1+pat1)
	}
	cache.Clear()
	if budget.Used() != 0 {
		t.Fatalf("after Clear: budget %d, want 0", budget.Used())
	}
	// The cleared plan still runs, and charges nothing.
	run(p1, a1, b1)
	if budget.Used() != 0 {
		t.Fatalf("a plan no longer cached charged its pattern: budget %d", budget.Used())
	}

	// The entry cap.
	budget = NewMemBudget(0)
	capped := NewPlanCache(ptSR, 1)
	capped.AttachBudget(budget)
	remember(plan(capped, mask1, a1, b1), a1, b1)
	p2 := plan(capped, mask2, a2, b2)
	foot2 := budget.Used()
	if st := capped.Stats(); st.Entries != 1 || st.Bytes != foot2 || foot2 != p2.footprintBytes() {
		t.Fatalf("after the entry cap evicted a remembered plan: %+v, budget %d, want only the new plan's %d bytes", st, foot2, p2.footprintBytes())
	}

	// Budget pressure: room for one plan with its pattern and a second
	// plan's analysis, not both patterns.
	pat2 := remember(p2, a2, b2)
	budget = NewMemBudget(foot1 + pat1 + foot2 + pat2/2)
	pressed := NewPlanCache(ptSR, 0)
	pressed.AttachBudget(budget)
	remember(plan(pressed, mask1, a1, b1), a1, b1)
	q2 := plan(pressed, mask2, a2, b2)
	run(q2, a2, b2)
	if st := pressed.Stats(); st.Entries != 2 || budget.Used() != foot1+pat1+foot2 {
		t.Fatalf("before the pressure: %+v, budget %d", st, budget.Used())
	}
	run(q2, withSpecialValues(a2), b2)
	if st := pressed.Stats(); st.Entries != 1 || st.Evictions != 1 || budget.Used() != foot2+pat2 || st.Bytes != foot2+pat2 {
		t.Fatalf("after the second pattern's charge: %+v, budget %d, want one entry of %d bytes", st, budget.Used(), foot2+pat2)
	}
}

// TestPlanCacheRunOnceChargesNothing is sweep-cold-ref's plan life: a
// cached plan executed exactly once, then evicted by the entry cap
// before its structure recurs. It publishes no pattern, its entry and
// the budget are never charged more than its analysis, and the
// eviction leaves only the newer plan's bytes. Executed again after
// the eviction, the plan publishes and charges nothing.
func TestPlanCacheRunOnceChargesNothing(t *testing.T) {
	mask1, a1, b1, opt := rememberBudgetCase(93)
	mask2, a2, b2, _ := rememberBudgetCase(94)
	budget := NewMemBudget(0)
	cache := NewPlanCache(ptSR, 1)
	cache.AttachBudget(budget)
	p1, err := cache.GetOrPlan(mask1, a1, b1, opt)
	if err != nil {
		t.Fatal(err)
	}
	foot1 := budget.Used()
	if _, err := p1.ExecuteOnOpts(NewExecutor[float64](ptSR), a1, b1, ExecOptions{Threads: 2}); err != nil {
		t.Fatal(err)
	}
	if p1.pattern.Load() != nil || budget.Used() != foot1 || cache.Stats().Bytes != foot1 {
		t.Fatalf("a plan executed once: published %v, budget %d, cache %d bytes, want only its %d-byte analysis",
			p1.pattern.Load() != nil, budget.Used(), cache.Stats().Bytes, foot1)
	}
	p2, err := cache.GetOrPlan(mask2, a2, b2, opt)
	if err != nil {
		t.Fatal(err)
	}
	if st := cache.Stats(); st.Entries != 1 || st.Evictions != 1 || budget.Used() != p2.footprintBytes() || st.Bytes != p2.footprintBytes() {
		t.Fatalf("after the entry cap evicted the once-run plan: %+v, budget %d, want only the new plan's %d bytes", st, budget.Used(), p2.footprintBytes())
	}
	// The evicted plan still runs, and publishes on its second
	// execution, but charges nothing: it is no longer the resident entry.
	if _, err := p1.ExecuteOnOpts(NewExecutor[float64](ptSR), a1, b1, ExecOptions{Threads: 2}); err != nil {
		t.Fatal(err)
	}
	if p1.pattern.Load() == nil || budget.Used() != p2.footprintBytes() {
		t.Fatalf("the evicted plan's second execution: published %v, budget %d, want %d", p1.pattern.Load() != nil, budget.Used(), p2.footprintBytes())
	}
}

// TestRememberedPatternReuseOutput runs a remembered plan with pooled
// output: the known-pattern result's values come from the executor's
// buffer, its pattern stays the plan's, and each result is exact. An
// execution with pooled output neither remembers nor counts as the
// plan's first clean execution.
func TestRememberedPatternReuseOutput(t *testing.T) {
	mask, a, b, opt := rememberBudgetCase(95)
	cache := NewPlanCache(ptSR, 0)
	plan, err := cache.GetOrPlan(mask, a, b, opt)
	if err != nil {
		t.Fatal(err)
	}
	exec := NewExecutor[float64](ptSR)
	pooled := ExecOptions{Threads: 2, ReuseOutput: true}
	if _, err := plan.ExecuteOnOpts(exec, a, b, pooled); err != nil {
		t.Fatal(err)
	}
	if plan.pattern.Load() != nil {
		t.Fatal("an execution with pooled output remembered its pattern")
	}
	for run := range 2 {
		if plan.pattern.Load() != nil {
			t.Fatalf("clean run %d: the plan remembered before its second clean execution", run)
		}
		if _, err := plan.ExecuteOnOpts(exec, a, b, ExecOptions{Threads: 2}); err != nil {
			t.Fatal(err)
		}
	}
	var prev *sparse.CSR[float64]
	for run, a := range []*sparse.CSR[float64]{withSpecialValues(a), a} {
		got, err := plan.ExecuteOnOpts(exec, a, b, pooled)
		if err != nil {
			t.Fatal(err)
		}
		if !sharesPattern(plan, got) {
			t.Fatalf("run %d: a pooled known-pattern result does not share the plan's pattern", run)
		}
		if prev != nil && len(got.Val) > 0 && &got.Val[0] != &prev.Val[0] {
			t.Fatalf("run %d: pooled values were not reused", run)
		}
		want, err := MaskedSpGEMM(ptSR, mask, a, b, opt)
		if err != nil {
			t.Fatal(err)
		}
		checkIdentical(t, fmt.Sprintf("run %d", run), got, want)
		prev = got
	}
}
