package core

import (
	"errors"
	"fmt"
	"testing"

	"maskedspgemm/internal/faultinject"
	"maskedspgemm/internal/semiring"
	"maskedspgemm/internal/sparse"
)

// Bitmap hits (DESIGN.md §5, "Bitmap hits"): a plan whose hits break
// the replay rule but which holds B's CSC structure keeps a dot bitmap
// when it publishes its pattern, if the bitmap holds at most 64 bits
// per computed entry, and its hits walk it. The bit-identity, charging
// and concurrency tests of remember_test.go run products in every tier;
// these tests pin the rest: the memory rule, the generic kernels beside
// the hits, fault containment, allocations and operands of another
// structure.

// bitmapProducts returns a one-triangle product of a hubs-last R-MAT
// graph, tc-skew-ref's shape at small size, under Hybrid; the full
// product of the same graph under MSA, whose plan holds B's CSC
// structure as the graph's own rows, on values that are not symmetric;
// and a dense full product under Inner, whose plan holds B's transpose.
// The hits of each walk a dot bitmap.
func bitmapProducts() []replayProduct {
	g := rmatSymGraph(7, 121, true, true)
	asym := withSpecialValues(g)
	dMask, dA, dB := buildCase(caseSpec{"", 96, 96, 96, 24, 24, 24, 122})
	return []replayProduct{
		{name: "one-triangle", mask: g.PatternView(), a: g, b: g, opt: Options{Algorithm: AlgoHybrid}, half: true},
		{name: "full-symmetric", mask: g.PatternView(), a: asym, b: asym, opt: Options{Algorithm: AlgoMSA}},
		{name: "full-transpose", mask: dMask, a: dA, b: dB, opt: Options{Algorithm: AlgoInner}},
	}
}

// dotted reports whether p keeps a dot bitmap for its one-triangle hits
// (half) or its full-product hits.
func dotted[T any, S semiring.Semiring[T]](p *Plan[T, S], half bool) bool {
	k := &p.fullHit
	if half {
		k = &p.halfHit
	}
	rec := k.rec.Load()
	return rec != nil && rec.tier() == tierBitmap
}

// TestDotBitmapMemoryRule pins the rule at its edge: the full product
// M ⊙ X², M full and X the n×n matrix with every off-diagonal entry,
// computes n² entries whose B columns hold n−1 entries each, and more
// than two products each. At n = 65 the bitmap holds 64 bits per entry
// and is kept, and its bytes are charged; at n = 66 it holds 65, and
// the record keeps neither a schedule nor a bitmap, refused without an
// allocation, and is charged only the pattern.
func TestDotBitmapMemoryRule(t *testing.T) {
	for _, n := range []int{65, 66} {
		x := offDiagonal(n)
		budget := NewMemBudget(0)
		cache := NewPlanCache(ptSR, 0)
		cache.AttachBudget(budget)
		plan, err := cache.GetOrPlan(fullMask(n), x, x, Options{Algorithm: AlgoInner})
		if err != nil {
			t.Fatal(err)
		}
		foot := budget.Used()
		var out *sparse.CSR[float64]
		for range 2 {
			if out, err = plan.ExecuteOn(NewExecutor[float64](ptSR), x, x); err != nil {
				t.Fatal(err)
			}
		}
		rec := plan.fullHit.rec.Load()
		if rec == nil {
			t.Fatalf("n=%d: no record published", n)
		}
		wantTier, bits := tierBitmap, int64(n*n*(n-1))
		want := patternBytes(out) + 8*((bits+63)/64) + 8*int64(n+1)
		if n > 65 {
			wantTier, want = tierPushPull, patternBytes(out)
		}
		if rec.tier() != wantTier || budget.Used() != foot+want || rememberedBytes(plan) != want {
			t.Fatalf("n=%d: record in tier %v, want %v; budget %d, want %d", n, rec.tier(), wantTier, budget.Used(), foot+want)
		}
		if wantTier == tierBitmap && rec.dots.prefix[n] != bits {
			t.Fatalf("n=%d: the bitmap holds %d bits, want %d", n, rec.dots.prefix[n], bits)
		}
		if allocs := testing.AllocsPerRun(5, func() { plan.buildDots(rec, x, 2) }); wantTier == tierPushPull && allocs != 0 {
			t.Fatalf("n=%d: refusing the bitmap made %v allocations, want none", n, allocs)
		}
	}
}

// TestBitmapGenericBitIdentical runs the generic kernels on the
// products whose float64 hits walk a dot bitmap, beside those hits
// (checkGenericBesideHits).
func TestBitmapGenericBitIdentical(t *testing.T) {
	for _, r := range bitmapProducts() {
		checkGenericBesideHits(t, r, tierBitmap)
	}
}

// TestChaosBitmapHit interrupts bitmap hits — a cancel at the numeric
// checkpoint, one at the compact checkpoint (a one-triangle hit's
// transpose copy; a full-product hit has no such pass and completes),
// and a row panic in the numeric pass — at 1 and 4 threads. Each
// interrupted hit returns a typed fault and no result, charges nothing
// and leaves the bitmap in place, and the next clean hit, on a fresh
// executor, walks it bit-identically to a fresh plan.
func TestChaosBitmapHit(t *testing.T) {
	t.Cleanup(faultinject.Disarm)
	for _, r := range bitmapProducts() {
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
			if !dotted(plan, r.half) {
				t.Fatalf("%s: no dot bitmap kept", r.name)
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
				if exec.hitRec.tier() != tierBitmap {
					t.Fatalf("%s: the hit did not walk the bitmap", name)
				}
				var ce *CanceledError
				var kp *KernelPanicError
				switch {
				case fault.CancelPass == faultinject.PassCompact && !r.half:
					if err != nil {
						t.Fatalf("%s: %v, want a clean full-product hit", name, err)
					}
					checkIdentical(t, name, out, want)
				case out != nil || !(errors.As(err, &ce) && ce.Pass == string(fault.CancelPass) || errors.As(err, &kp)):
					t.Fatalf("%s: out=%v err=%v, want a typed fault and no result", name, out != nil, err)
				}
				if budget.Used() != used || !dotted(plan, r.half) {
					t.Fatalf("%s: budget %d, want %d; bitmap kept %v", name, budget.Used(), used, dotted(plan, r.half))
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

// TestBitmapHitAllocs pins what a bitmap hit on a fresh executor
// allocates: its result's value array and O(1) more (the result's
// header, the driver's closure, the workers' dense Pull rows, and per
// parallel pass the scheduler's bookkeeping). It grows no MSA and no
// other accumulator, and no slab; only a full-product hit gathers B's
// values into CSC order.
func TestBitmapHitAllocs(t *testing.T) {
	for _, r := range bitmapProducts() {
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
			run := func() {
				if _, err := plan.ExecuteOnOpts(exec, r.a, r.b, eo); err != nil {
					t.Fatal(err)
				}
			}
			run()
			if exec.hitRec.tier() != tierBitmap || !dotted(plan, r.half) {
				t.Fatalf("%s: the hit did not walk a dot bitmap", name)
			}
			for tid, w := range exec.workers {
				if w.msa != nil || w.maskedBit != nil || w.maskedBitC != nil || w.hash != nil || w.hashC != nil || w.heap != nil || w.mca != nil || w.msac != nil {
					t.Errorf("%s: worker %d materialized an accumulator", name, tid)
				}
			}
			if es := &exec.scratch; es.tmpIdx != nil || es.tmpVal != nil || (exec.btVal != nil) == r.half {
				t.Errorf("%s: the executor grew a slab, or gathered CSC values %v", name, exec.btVal != nil)
			}
			// A parallel pass adds the scheduler's own bookkeeping: its
			// goroutines, wait group and claim counter.
			maxAllocs, passes := 4.0, 1.0
			if r.half {
				passes = 2 // the transpose copy
			}
			if threads > 1 {
				maxAllocs += 10 * passes
			}
			if allocs := testing.AllocsPerRun(20, run); allocs > maxAllocs {
				t.Errorf("%s: a bitmap hit makes %v allocations, want at most %v", name, allocs, maxAllocs)
			}
		}
	}
}

// TestBitmapHitChangedStructure pins the contract of a hit that walks a
// dot bitmap on operands of the planned shapes and nnz but another
// structure: no panic and no read out of range, since every walk stays
// within its column of the plan's CSC structure. A = B = X, the 5×5
// matrix with every off-diagonal entry, remembers the pattern of
// M ⊙ X², at least 3 products over each entry of 4 bits, under a full
// mask for Inner and a Pull-only Hybrid, whose plans hold X's
// transpose, and under X's own pattern, a symmetric self-product, for
// every scheme that remembers. Y, all ones with its last row empty, has
// X's nnz; a hit on it returns a result of the remembered pattern and
// no error.
func TestBitmapHitChangedStructure(t *testing.T) {
	const n = 5
	x, y := offDiagonal(n), allOnesButLastRow(n)
	type hitCase struct {
		mask *sparse.Pattern
		opt  Options
	}
	var cases []hitCase
	for _, opt := range []Options{{Algorithm: AlgoInner}, {Algorithm: AlgoHybrid, HybridFamilies: Families(FamPull)}} {
		cases = append(cases, hitCase{fullMask(n), opt})
	}
	for _, opt := range rememberSchemes() {
		if opt.Algorithm != AlgoSaxpyThenMask && opt.Algorithm != AlgoDotTranspose {
			cases = append(cases, hitCase{x.PatternView(), opt})
		}
	}
	for _, c := range cases {
		name := fmt.Sprintf("%v/families=%#x/self=%v", c.opt.Algorithm, c.opt.HybridFamilies, c.mask.NNZ() == x.NNZ())
		plan, err := NewPlanCache(ptSR, 0).GetOrPlan(c.mask, x, x, c.opt)
		if err != nil {
			t.Fatal(err)
		}
		for range 2 {
			if _, err := plan.ExecuteOn(NewExecutor[float64](ptSR), x, x); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
		}
		rec := plan.fullHit.rec.Load()
		if h := plan.halfHit.rec.Load(); h != nil {
			rec = h
		}
		if rec == nil || rec.tier() != tierBitmap {
			t.Fatalf("%s: want a remembered record whose hits walk a dot bitmap", name)
		}
		for _, threads := range []int{1, 3} {
			out, err := plan.ExecuteOnOpts(NewExecutor[float64](ptSR), y, y, ExecOptions{Threads: threads})
			if err != nil {
				t.Fatalf("%s threads=%d: %v, want no error", name, threads, err)
			}
			if &out.ColIdx[0] != &rec.pat.colIdx[0] || len(out.Val) != len(rec.pat.colIdx) {
				t.Fatalf("%s threads=%d: the result is not of the remembered pattern", name, threads)
			}
		}
	}
}
