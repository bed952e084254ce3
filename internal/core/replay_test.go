package core

import (
	"errors"
	"fmt"
	"runtime"
	"slices"
	"testing"

	"maskedspgemm/internal/faultinject"
	"maskedspgemm/internal/gen"
	"maskedspgemm/internal/semiring"
	"maskedspgemm/internal/sparse"
)

// Replayed hits (DESIGN.md §5, "Replayed hits"): a plan whose products
// hold at most two products per computed entry keeps a product schedule
// when it publishes its pattern, and its hits replay it. The
// bit-identity, charging and concurrency tests of remember_test.go run
// products on both sides of the memory rule; these tests pin the rest:
// the generic kernels beside the hits, fault containment, allocations
// and pass timers.

// replayProduct is one product whose cache-built plan keeps a product
// schedule, with the options it runs under.
type replayProduct struct {
	name string
	mask *sparse.Pattern
	a, b *sparse.CSR[float64]
	opt  Options
	half bool
}

// replayProducts returns a complemented full product, a plain full
// product whose mask is the pattern of A·B itself, and a symmetric
// self-product whose one-triangle hits replay its full product's
// schedule, each under the memory rule.
func replayProducts() []replayProduct {
	cmask, ca, cb, copt := rememberBudgetCase(101)
	pa := gen.Random(64, 64, 2, 102)
	sq, err := SpGEMM(ptSR, pa, pa, Options{})
	if err != nil {
		panic(err)
	}
	g := sparseSymGraph(128, 103)
	return []replayProduct{
		{name: "complemented", mask: cmask, a: ca, b: cb, opt: copt},
		{name: "self-masked", mask: sq.PatternView(), a: pa, b: pa, opt: Options{Algorithm: AlgoHybrid}},
		{name: "one-triangle", mask: g.PatternView(), a: g, b: g, opt: Options{Algorithm: AlgoHybrid}, half: true},
	}
}

// values returns the product's operands with the values f gives A (and
// B, when B is A).
func (r replayProduct) values(f func(*sparse.CSR[float64]) *sparse.CSR[float64]) (a, b *sparse.CSR[float64]) {
	a = f(r.a)
	if r.b == r.a {
		return a, a
	}
	return a, r.b
}

// checkGenericBesideHits runs r on a cached float64 plan and on a
// cached plan over plusTimesTwin, whose binders take the generic path,
// side by side: each executes the product on its planned values, on
// values with −0, ±Inf and NaN products and on the planned values
// again, at 1 and 3 threads, and every result must equal a fresh
// float64 plan's bit for bit. The float64 plan's last runs are hits in
// tier; the twin's plan never remembers, so every one of its runs is a
// first execution of the generic kernels, and its cache entry is
// charged nothing beyond the plan.
func checkGenericBesideHits(t *testing.T, r replayProduct, tier hitTier) {
	t.Helper()
	specials := withSpecialValues
	if r.half {
		specials = withSymmetricSpecials
	}
	for _, threads := range []int{1, 3} {
		name := fmt.Sprintf("%s/threads=%d", r.name, threads)
		plan, err := NewPlanCache(ptSR, 0).GetOrPlan(r.mask, r.a, r.b, r.opt)
		if err != nil {
			t.Fatal(err)
		}
		twinCache := NewPlanCache(plusTimesTwin{}, 0)
		twin, err := twinCache.GetOrPlan(r.mask, r.a, r.b, r.opt)
		if err != nil {
			t.Fatal(err)
		}
		foot := twinCache.Stats().Bytes
		exec, twinExec := NewExecutor[float64](ptSR), NewExecutor[float64](plusTimesTwin{})
		eo := ExecOptions{Threads: threads}
		same := func(m *sparse.CSR[float64]) *sparse.CSR[float64] { return m }
		for run, f := range []func(*sparse.CSR[float64]) *sparse.CSR[float64]{same, specials, specials, same} {
			a, b := r.values(f)
			want, err := MaskedSpGEMM(ptSR, r.mask, a, b, r.opt)
			if err != nil {
				t.Fatal(err)
			}
			got, err := plan.ExecuteOnOpts(exec, a, b, eo)
			if err != nil {
				t.Fatalf("%s/float64 run %d: %v", name, run, err)
			}
			checkIdentical(t, fmt.Sprintf("%s/float64 run %d", name, run), got, want)
			got, err = twin.ExecuteOnOpts(twinExec, a, b, eo)
			if err != nil {
				t.Fatalf("%s/generic run %d: %v", name, run, err)
			}
			checkIdentical(t, fmt.Sprintf("%s/generic run %d", name, run), got, want)
		}
		if exec.hitRec.tier() != tier {
			t.Fatalf("%s: the float64 plan's last run was a hit in tier %v, want %v", name, exec.hitRec.tier(), tier)
		}
		if twin.fullHit.rec.Load() != nil || twin.halfHit.rec.Load() != nil || twin.shared.Load() != nil {
			t.Fatalf("%s: a cached plan over another semiring remembered", name)
		}
		if got := twinCache.Stats().Bytes; got != foot {
			t.Fatalf("%s: the other semiring's cache entry grew from %d to %d bytes", name, foot, got)
		}
	}
}

// TestReplayGenericBitIdentical runs the generic kernels on the
// products whose float64 hits replay a product schedule, beside those
// hits (checkGenericBesideHits).
func TestReplayGenericBitIdentical(t *testing.T) {
	for _, r := range replayProducts() {
		checkGenericBesideHits(t, r, tierReplay)
	}
}

// scheduled reports whether p keeps a product schedule for its
// one-triangle hits (half) or its full-product hits.
func scheduled[T any, S semiring.Semiring[T]](p *Plan[T, S], half bool) bool {
	k := &p.fullHit
	if half {
		k = &p.halfHit
	}
	rec := k.rec.Load()
	return rec != nil && rec.tier() == tierReplay
}

// TestChaosReplayedHit interrupts replayed hits — a cancel at the
// numeric checkpoint, one at the compact checkpoint, which a replayed
// hit has no pass for, a one-triangle hit's included, so it completes,
// and a row panic in the numeric pass — at 1 and 4 threads. Each
// interrupted hit returns a typed fault and no result, charges nothing
// and leaves the schedule in place, and the next clean hit, on a fresh
// executor, replays it bit-identically to a fresh plan. A known half's
// transpose copy is interrupted by TestChaosSymmetricInPlaceHit.
func TestChaosReplayedHit(t *testing.T) {
	t.Cleanup(faultinject.Disarm)
	for _, r := range replayProducts() {
		for _, threads := range []int{1, 4} {
			faultinject.Disarm()
			budget := NewMemBudget(0)
			cache := NewPlanCache(ptSR, 0)
			cache.AttachBudget(budget)
			plan, err := cache.GetOrPlan(r.mask, r.a, r.b, r.opt)
			if err != nil {
				t.Fatal(err)
			}
			eo := ExecOptions{Threads: threads}
			for range 2 {
				if _, err := plan.ExecuteOnOpts(NewExecutor[float64](ptSR), r.a, r.b, eo); err != nil {
					t.Fatal(err)
				}
			}
			if !scheduled(plan, r.half) {
				t.Fatalf("%s: no product schedule kept", r.name)
			}
			used := budget.Used()
			want, err := MaskedSpGEMM(ptSR, r.mask, r.a, r.b, r.opt)
			if err != nil {
				t.Fatal(err)
			}
			for _, fault := range []faultinject.Hooks{
				{CancelPass: faultinject.PassNumeric},
				{CancelPass: faultinject.PassCompact},
				{PanicArmed: true, PanicRow: 3, PanicPass: faultinject.PassNumeric},
			} {
				name := fmt.Sprintf("%s/threads=%d/%+v", r.name, threads, fault)
				faultinject.Arm(fault)
				exec := NewExecutor[float64](ptSR)
				out, err := plan.ExecuteOnOpts(exec, r.a, r.b, eo)
				faultinject.Disarm()
				if exec.hitRec.tier() != tierReplay {
					t.Fatalf("%s: the hit did not replay", name)
				}
				var ce *CanceledError
				var kp *KernelPanicError
				switch {
				case fault.CancelPass == faultinject.PassCompact:
					if err != nil {
						t.Fatalf("%s: %v, want a clean full-product hit", name, err)
					}
					checkIdentical(t, name, out, want)
				case out != nil || !(errors.As(err, &ce) && ce.Pass == string(fault.CancelPass) || errors.As(err, &kp)):
					t.Fatalf("%s: out=%v err=%v, want a typed fault and no result", name, out != nil, err)
				}
				if budget.Used() != used || !scheduled(plan, r.half) {
					t.Fatalf("%s: budget %d, want %d; schedule kept %v", name, budget.Used(), used, scheduled(plan, r.half))
				}
				got, err := plan.ExecuteOnOpts(NewExecutor[float64](ptSR), r.a, r.b, eo)
				if err != nil {
					t.Fatalf("%s: clean hit: %v", name, err)
				}
				checkIdentical(t, name+" clean hit", got, want)
			}
		}
	}
}

// TestReplayedHitAllocs pins what a replayed hit allocates: its result's
// value array and O(1) more (the result's header, the driver's closure,
// and per parallel pass the scheduler's bookkeeping), and no accumulator, slab or CSC values: an executor
// that has served only replayed hits holds no workspace but its
// workers' empty slots.
func TestReplayedHitAllocs(t *testing.T) {
	for _, r := range replayProducts() {
		for _, threads := range []int{1, 2} {
			name := fmt.Sprintf("%s/threads=%d", r.name, threads)
			plan, err := NewPlanCache(ptSR, 0).GetOrPlan(r.mask, r.a, r.b, r.opt)
			if err != nil {
				t.Fatal(err)
			}
			for range 2 {
				if _, err := plan.ExecuteOn(NewExecutor[float64](ptSR), r.a, r.b); err != nil {
					t.Fatal(err)
				}
			}
			exec := NewExecutor[float64](ptSR)
			eo := ExecOptions{Threads: threads}
			var nnz int64
			run := func() {
				out, err := plan.ExecuteOnOpts(exec, r.a, r.b, eo)
				if err != nil {
					t.Fatal(err)
				}
				nnz = out.NNZ()
			}
			run()
			if exec.hitRec.tier() != tierReplay {
				t.Fatalf("%s: the hit did not replay", name)
			}
			// A parallel pass adds the scheduler's own bookkeeping: its
			// goroutines, wait group and claim counter.
			maxAllocs := 4.0
			if threads > 1 {
				maxAllocs += 10
			}
			if allocs := testing.AllocsPerRun(20, run); allocs > maxAllocs {
				t.Errorf("%s: a replayed hit makes %v allocations, want at most %v", name, allocs, maxAllocs)
			}
			var before, after runtime.MemStats
			const runs = 20
			runtime.ReadMemStats(&before)
			for range runs {
				run()
			}
			runtime.ReadMemStats(&after)
			// The value array rounds up to its allocation size class, at
			// most an eighth more.
			if perRun, most := int64(after.TotalAlloc-before.TotalAlloc)/runs, 9*nnz+2048; perRun > most {
				t.Errorf("%s: a replayed hit allocates %d bytes, want its %d-byte values and at most an eighth and 2 KiB more", name, perRun, 8*nnz)
			}
			for tid, w := range exec.workers {
				if w.msa != nil || w.maskedBit != nil || w.maskedBitC != nil || w.hash != nil || w.hashC != nil || w.heap != nil || w.mca != nil || w.msac != nil || w.pull != nil {
					t.Errorf("%s: worker %d materialized an accumulator", name, tid)
				}
			}
			if es := &exec.scratch; es.tmpIdx != nil || es.tmpVal != nil || exec.btVal != nil {
				t.Errorf("%s: a replaying executor grew a slab or CSC values", name)
			}
		}
	}
}

// TestPassTimes checks the engine's pass timers: with
// CollectSchedStats, an execution records a positive time for every
// pass it ran and 0 for the others — numeric and compact for a
// one-phase first execution, numeric and mirror for a one-triangle
// one, symbolic and numeric for a two-phase one, the hit's numeric pass
// for a full-product hit, a one-triangle hit that replays its full
// product's schedule too, and its numeric pass and transpose copy for a
// hit over a known half — and an execution without the option leaves
// the record in place.
func TestPassTimes(t *testing.T) {
	mask, a, b := buildCase(caseSpec{"", 96, 96, 96, 8, 8, 8, 111})
	g, rg := sparseSymGraph(128, 112), symGraph(7, true, true)
	check := func(name string, exec *Executor[float64, ptSRType], ran ...Pass) {
		t.Helper()
		times := exec.PassTimes()
		for p := range NumPasses {
			want := false
			for _, r := range ran {
				want = want || r == p
			}
			if got := times[p] > 0; got != want || times[p] < 0 {
				t.Errorf("%s: %v pass took %v, want it timed: %v", name, p, times[p], want)
			}
		}
	}
	exec := NewExecutor[float64](ptSR)
	collect := ExecOptions{Threads: 2, CollectSchedStats: true}
	twoPhasePlan, err := NewPlan(ptSR, mask, a, b, Options{Algorithm: AlgoMSA, Phases: TwoPhase}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := twoPhasePlan.ExecuteOnOpts(exec, a, b, collect); err != nil {
		t.Fatal(err)
	}
	check("two-phase", exec, PassSymbolic, PassNumeric)
	for _, c := range []struct {
		name  string
		mask  *sparse.Pattern
		a     *sparse.CSR[float64]
		b     *sparse.CSR[float64]
		first Pass
		hit   []Pass
	}{
		{"full", mask, a, b, PassCompact, []Pass{PassHitNumeric}},
		{"one-triangle", g.PatternView(), g, g, PassMirror, []Pass{PassHitNumeric}},
		{"known-half", rg.PatternView(), rg, rg, PassMirror, []Pass{PassHitNumeric, PassTranspose}},
	} {
		plan, err := NewPlanCache(ptSR, 0).GetOrPlan(c.mask, c.a, c.b, Options{Algorithm: AlgoHybrid})
		if err != nil {
			t.Fatal(err)
		}
		for run := range 3 {
			if _, err := plan.ExecuteOnOpts(exec, c.a, c.b, collect); err != nil {
				t.Fatal(err)
			}
			if run < 2 {
				check(fmt.Sprintf("%s run %d", c.name, run), exec, PassNumeric, c.first)
			}
		}
		check(c.name+" hit", exec, c.hit...)
		recorded := exec.PassTimes()
		if _, err := plan.ExecuteOnOpts(exec, c.a, c.b, ExecOptions{Threads: 2}); err != nil {
			t.Fatal(err)
		}
		if exec.PassTimes() != recorded {
			t.Errorf("%s: an execution without CollectSchedStats changed the pass times", c.name)
		}
	}
}

// TestScheduleMatchesReference holds the product schedule of each
// replayProduct, built at 1 and 3 threads, to one built entry by entry
// from the operands: for every output entry (i, j), in output order,
// the positions of A's entries (i, k) in ascending k whose B row k holds
// j, with that entry's position in B, and the rows' exclusive prefix of
// their product counts. The one-triangle product's schedule is its full
// product's: its record keeps no known half.
func TestScheduleMatchesReference(t *testing.T) {
	for _, r := range replayProducts() {
		for _, threads := range []int{1, 3} {
			name := fmt.Sprintf("%s/threads=%d", r.name, threads)
			plan, err := NewPlanCache(ptSR, 0).GetOrPlan(r.mask, r.a, r.b, r.opt)
			if err != nil {
				t.Fatal(err)
			}
			for range 2 {
				if _, err := plan.ExecuteOnOpts(NewExecutor[float64](ptSR), r.a, r.b, ExecOptions{Threads: threads}); err != nil {
					t.Fatal(err)
				}
			}
			rec := plan.fullHit.rec.Load()
			if r.half {
				rec = plan.halfHit.rec.Load()
			}
			if rec == nil || rec.tier() != tierReplay || rec.half != nil || rec.tpos != nil {
				t.Fatalf("%s: no full-product schedule kept", name)
			}
			ptr, prefix := []int32{0}, []int64{0}
			var prods []prodPos
			for i := range r.mask.Rows {
				for _, j := range rec.row(i) {
					for qa, k := range r.a.Row(i) {
						bRow := r.b.Row(int(k))
						if at, ok := slices.BinarySearch(bRow, j); ok {
							prods = append(prods, prodPos{a: int32(r.a.RowPtr[i]) + int32(qa), b: int32(r.b.RowPtr[k]) + int32(at)})
						}
					}
					ptr = append(ptr, int32(len(prods)))
				}
				prefix = append(prefix, int64(len(prods)))
			}
			s := rec.sched
			if !slices.Equal(s.ptr, ptr) || !slices.Equal(s.prods, prods) || !slices.Equal(s.prefix, prefix) {
				t.Fatalf("%s: the schedule differs from the reference built entry by entry", name)
			}
		}
	}
}
