package core

import (
	"fmt"
	"math"
	"runtime"
	"slices"
	"testing"

	"maskedspgemm/internal/gen"
	"maskedspgemm/internal/semiring"
	"maskedspgemm/internal/sparse"
)

// The symmetric self-product suite (DESIGN.md §5, "Symmetric
// self-products: one triangle and a mirror"): the one-triangle path
// must reproduce the full product, and every product that is not a
// symmetric self-product — or whose values do not allow it at
// execution time — must run the full product. Passing a clone of A as
// B forces the full product, so no test needs a knob.

// symGraph returns a symmetric R-MAT graph at 2^scale vertices,
// relabeled hubs first (descending degree) or hubs last, with values
// symmetric bit for bit and fractional, so that a changed summation
// order would show in the bits. With loops, every third vertex gets a
// self loop and vertices 1 and 5 lose all their edges.
func symGraph(scale int, hubsLast, loops bool) *sparse.CSR[float64] {
	return rmatSymGraph(scale, uint64(scale), hubsLast, loops)
}

// rmatSymGraph is symGraph over the R-MAT graph drawn from seed.
func rmatSymGraph(scale int, seed uint64, hubsLast, loops bool) *sparse.CSR[float64] {
	g := gen.RMATSymmetric(gen.RMATConfig{Scale: scale, EdgeFactor: 8, Seed: seed})
	n := g.Rows
	order := make([]int32, n)
	for i := range order {
		order[i] = int32(i)
	}
	slices.SortStableFunc(order, func(x, y int32) int { return g.RowNNZ(int(y)) - g.RowNNZ(int(x)) })
	perm := make([]int32, n)
	for id, v := range order {
		perm[v] = int32(id)
		if hubsLast {
			perm[v] = int32(n - 1 - id)
		}
	}
	return withSymLoops(sparse.PermuteSym(g, perm), loops)
}

// withSymLoops returns the symmetric g with values symmetric bit for
// bit and fractional (symValue); with loops, every third vertex gets a
// self loop and vertices 1 and 5 lose all their edges.
func withSymLoops(g *sparse.CSR[float64], loops bool) *sparse.CSR[float64] {
	n := g.Rows
	coo := sparse.NewCOO[float64](n, n, int(g.NNZ())+n)
	drop := func(v int) bool { return loops && (v == 1 || v == 5) }
	for i := range n {
		for _, j := range g.Row(i) {
			if !drop(i) && !drop(int(j)) {
				coo.Append(int32(i), j, symValue(i, int(j)))
			}
		}
		if loops && i%3 == 0 && !drop(i) {
			coo.Append(int32(i), int32(i), symValue(i, i))
		}
	}
	out, err := coo.ToCSR(func(x, _ float64) float64 { return x })
	if err != nil {
		panic(err)
	}
	return out
}

// symValue is a fractional value of the pair {i, j}.
func symValue(i, j int) float64 {
	lo, hi := min(i, j), max(i, j)
	x := uint64(lo)*0x9e3779b97f4a7c15 ^ uint64(hi)*0xc4ceb9fe1a85ec53
	x ^= x >> 31
	return float64(x%997+1) / 97
}

// ranHalf reports whether the executor's last execution was of its
// plan's one-triangle kind: over the mask halves or a known half, or a
// hit by the full-product record the plan published for that kind,
// which is its full-product kind's too (Plan.remember).
func ranHalf[T any, S semiring.Semiring[T]](e *Executor[T, S]) bool {
	return e.lastHalf != nil || e.hitRec != nil && e.hitRec == e.lastPlan.halfHit.rec.Load()
}

// halfFamilies are the schemes the equivalence test runs. Each one's
// half product is bit-identical to its full product: every family sums
// each entry's products in ascending k, Heap included (its heap breaks
// column ties by A entry), and MaskedBit starts them at −0, so Hybrid
// is exact whichever families its two bindings choose.
var halfFamilies = []Algorithm{
	AlgoMSA, AlgoMaskedBit, AlgoHash, AlgoInner, AlgoMCA, AlgoHeap, AlgoHeapDot, AlgoHybrid,
}

// TestSymmetricHalfMatchesFull runs every family at widths 1, 2, 4 and
// 16 (partitions of 64 rows down to 4), on hubs-first and hubs-last orderings,
// with and without self loops and empty rows, with and without pooled
// output, and checks the one-triangle product against the full product
// of the same plan options with B passed as a clone of A.
func TestSymmetricHalfMatchesFull(t *testing.T) {
	sr := semiring.PlusTimes[float64]{}
	for _, hubsLast := range []bool{false, true} {
		for _, loops := range []bool{false, true} {
			a := symGraph(8, hubsLast, loops)
			clone := a.Clone()
			for _, fam := range halfFamilies {
				for _, threads := range []int{1, 2, 4, 16} {
					for _, reuse := range []bool{false, true} {
						opt := Options{Algorithm: fam, Threads: threads, ReuseOutput: reuse}
						name := fmt.Sprintf("hubsLast=%v/loops=%v/%v/t%d/reuse=%v", hubsLast, loops, fam, threads, reuse)
						half, err := NewPlan(sr, a.PatternView(), a, a, opt, nil)
						if err != nil {
							t.Fatal(err)
						}
						if half.sym == nil {
							t.Fatalf("%s: a symmetric self-product planned no triangle", name)
						}
						got, err := half.Execute(a, a)
						if err != nil {
							t.Fatalf("%s: %v", name, err)
						}
						if !ranHalf(half.exec) {
							t.Fatalf("%s: the execution ran the full product", name)
						}
						full, err := NewPlan(sr, a.PatternView(), a, clone, opt, nil)
						if err != nil {
							t.Fatal(err)
						}
						want, err := full.Execute(a, clone)
						if err != nil {
							t.Fatal(err)
						}
						if ranHalf(full.exec) {
							t.Fatalf("%s: B as a clone of A ran one triangle", name)
						}
						if err := got.Validate(); err != nil {
							t.Fatalf("%s: invalid output: %v", name, err)
						}
						eq := func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) }
						if d := sparse.Diff(want, got, eq); d != "" {
							t.Fatalf("%s: %s", name, d)
						}
					}
				}
			}
		}
	}
}

// TestSymmetricTriangleChoice pins the triangle rule: each pair goes to
// the row of its higher-degree endpoint, so hubs-last orderings compute
// the lower triangle and hubs-first orderings the upper.
func TestSymmetricTriangleChoice(t *testing.T) {
	sr := semiring.PlusTimes[float64]{}
	for _, hubsLast := range []bool{false, true} {
		a := symGraph(9, hubsLast, false)
		p, err := NewPlan(sr, a.PatternView(), a, a, Options{Algorithm: AlgoMSA}, nil)
		if err != nil {
			t.Fatal(err)
		}
		if p.sym == nil || p.sym.upper == hubsLast {
			t.Errorf("hubsLast=%v: planned %+v, want the %s triangle", hubsLast, p.sym != nil && p.sym.upper, map[bool]string{false: "upper", true: "lower"}[hubsLast])
		}
	}
}

// TestSymmetricFallbacks checks that every product that is not a
// symmetric self-product runs today's full path, and that its result
// is still the full product: at plan time when the structure or the
// options rule the triangle out, at execution time when the values do,
// also when they change in place between two executions of one plan.
func TestSymmetricFallbacks(t *testing.T) {
	sr := semiring.PlusTimes[float64]{}
	a := symGraph(7, true, true)
	// check runs the plan on (x, y) and compares with the dense oracle.
	check := func(name string, p *Plan[float64, semiring.PlusTimes[float64]], mask *sparse.Pattern, x, y *sparse.CSR[float64], complement, wantPlan, wantHalf bool) {
		t.Helper()
		if got := p.sym != nil; got != wantPlan {
			t.Fatalf("%s: symmetric plan = %v, want %v", name, got, wantPlan)
		}
		got, err := p.Execute(x, y)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if ranHalf(p.exec) != wantHalf {
			t.Fatalf("%s: one triangle = %v, want %v", name, ranHalf(p.exec), wantHalf)
		}
		want := sparse.DenseMaskedMultiply(mask, x, y, complement, sr.Add, sr.Mul, sr.Zero())
		if d := sparse.Diff(want, got, sparse.FloatEq(1e-9)); d != "" {
			t.Fatalf("%s: %s", name, d)
		}
	}
	plan := func(mask *sparse.Pattern, x, y *sparse.CSR[float64], opt Options) *Plan[float64, semiring.PlusTimes[float64]] {
		t.Helper()
		p, err := NewPlan(sr, mask, x, y, opt, nil)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	msa := Options{Algorithm: AlgoMSA, Threads: 2}
	check("symmetric", plan(a.PatternView(), a, a, msa), a.PatternView(), a, a, false, true, true)

	// B shares A's structure but not its values.
	b := &sparse.CSR[float64]{Pattern: a.Pattern, Val: make([]float64, len(a.Val))}
	for t, v := range a.Val {
		b.Val[t] = 2 * v
	}
	check("B's values differ", plan(a.PatternView(), a, b, msa), a.PatternView(), a, b, false, true, false)

	// One value pair that differs only in its bits: −0 against +0, and
	// two NaNs with different payloads. The same NaN on both sides is
	// symmetric.
	p := plan(a.PatternView(), a, a, msa)
	e := 0 // the first off-diagonal entry
	for int(p.sym.mirror[e]) == e {
		e++
	}
	u := int(p.sym.mirror[e])
	for _, pair := range [][2]float64{
		{0, math.Copysign(0, -1)},
		{math.Float64frombits(0x7ff8000000000001), math.Float64frombits(0x7ff8000000000002)},
	} {
		x := a.Clone()
		x.Val[e], x.Val[u] = pair[0], pair[1]
		px := plan(x.PatternView(), x, x, msa)
		if _, err := px.Execute(x, x); err != nil {
			t.Fatal(err)
		}
		if ranHalf(px.exec) {
			t.Errorf("values %x/%x: an asymmetric value pair ran one triangle", math.Float64bits(pair[0]), math.Float64bits(pair[1]))
		}
	}
	x := a.Clone()
	x.Val[e], x.Val[u] = math.NaN(), math.NaN()
	px := plan(x.PatternView(), x, x, msa)
	if _, err := px.Execute(x, x); err != nil || !ranHalf(px.exec) {
		t.Errorf("an identical NaN pair must stay symmetric: half=%v err=%v", ranHalf(px.exec), err)
	}

	// Values made asymmetric in place after a one-triangle execution:
	// a library plan's caller vouches for nothing, so every execution
	// checks them again, and this one runs the full product.
	x = a.Clone()
	px = plan(x.PatternView(), x, x, msa)
	check("symmetric before the change", px, x.PatternView(), x, x, false, true, true)
	x.Val[e] *= 3
	check("made asymmetric in place", px, x.PatternView(), x, x, false, true, false)

	// The pattern is asymmetric: a directed cycle has equal row and
	// column counts, so only the mirror pass can reject it; a directed
	// ER graph fails the counts.
	cycle := sparse.NewCOO[float64](64, 64, 64)
	for i := range 64 {
		cycle.Append(int32(i), int32((i+1)%64), 1)
	}
	c, err := cycle.ToCSR(func(x, _ float64) float64 { return x })
	if err != nil {
		t.Fatal(err)
	}
	check("directed cycle", plan(c.PatternView(), c, c, msa), c.PatternView(), c, c, false, false, false)
	d := gen.ErdosRenyi(128, 8, 3)
	check("directed ER", plan(d.PatternView(), d, d, msa), d.PatternView(), d, d, false, false, false)

	// The mask is not A's pattern, the mask is complemented, the plan
	// is two-phase, and the multiply does not commute.
	other := a.Clone().PatternView()
	check("mask not A's", plan(other, a, a, msa), other, a, a, false, false, false)
	check("complement", plan(a.PatternView(), a, a, Options{Algorithm: AlgoMSA, Complement: true}), a.PatternView(), a, a, true, false, false)
	check("two-phase", plan(a.PatternView(), a, a, Options{Algorithm: AlgoMSA, Phases: TwoPhase}), a.PatternView(), a, a, false, false, false)
	pf, err := NewPlan(semiring.PlusFirst[float64]{}, a.PatternView(), a, a, msa, nil)
	if err != nil {
		t.Fatal(err)
	}
	if pf.sym != nil {
		t.Error("a semiring without the Commutative marker planned one triangle")
	}

	// Through a plan cache the same decisions are read from the
	// operands' fingerprints.
	cache := NewPlanCache(sr, 0)
	cp, err := cache.GetOrPlan(a.PatternView(), a, a.Clone(), msa)
	if err != nil {
		t.Fatal(err)
	}
	if cp.sym == nil {
		t.Error("a cached plan over a clone of A as B planned no triangle")
	}
	if cp, err = cache.GetOrPlan(other, a, d, msa); err != nil || cp.sym != nil {
		t.Errorf("a cached plan over another B planned one triangle (err %v)", err)
	}
}

// TestSymmetricPlanFootprint pins what a symmetric self-product adds
// to its plan: the int32 mirror map and the half offsets, 4·nnz +
// 8·(rows+1) bytes, counted by footprintBytes and charged to a shared
// budget. A two-phase plan of the same product has neither.
func TestSymmetricPlanFootprint(t *testing.T) {
	a := symGraph(8, true, false)
	budget := NewMemBudget(1 << 30)
	cache := NewPlanCache(ptSR, 0)
	cache.AttachBudget(budget)
	opt := Options{Algorithm: AlgoMSA}
	two := opt
	two.Phases = TwoPhase
	if _, err := cache.GetOrPlan(a.PatternView(), a, a, two); err != nil {
		t.Fatal(err)
	}
	before := cache.Stats().Bytes
	p, err := cache.GetOrPlan(a.PatternView(), a, a, opt)
	if err != nil {
		t.Fatal(err)
	}
	if p.sym == nil {
		t.Fatal("no triangle planned")
	}
	extra := cache.Stats().Bytes - 2*before
	if want := 4*a.NNZ() + 8*int64(a.Rows+1); extra != want {
		t.Errorf("a symmetric miss adds %d bytes, want 4·nnz + 8·(rows+1) = %d", extra, want)
	}
	if got := budget.Used(); got != cache.Stats().Bytes {
		t.Errorf("budget charged %d bytes, cache holds %d", got, cache.Stats().Bytes)
	}
}

// TestSymmetricPlusPair runs the k-truss support product's semiring,
// plus-pair over int64: it carries the Commutative marker and its
// values compare by ==, so the product computes one triangle, and the
// counts match the full product's.
func TestSymmetricPlusPair(t *testing.T) {
	sr := semiring.PlusPair[int64]{}
	g := symGraph(8, false, true)
	a := &sparse.CSR[int64]{Pattern: g.Pattern, Val: make([]int64, len(g.Val))}
	for i := range a.Val {
		a.Val[i] = 1
	}
	p, err := NewPlan(sr, a.PatternView(), a, a, Options{Algorithm: AlgoHybrid}, nil)
	if err != nil {
		t.Fatal(err)
	}
	got, err := p.Execute(a, a)
	if err != nil || !ranHalf(p.exec) {
		t.Fatalf("half=%v err=%v, want one triangle", ranHalf(p.exec), err)
	}
	want, err := MaskedSpGEMM(sr, a.PatternView(), a, a.Clone(), Options{Algorithm: AlgoMSA})
	if err != nil {
		t.Fatal(err)
	}
	if !sparse.Equal(got, want) {
		t.Errorf("support counts differ: %s", sparse.Diff(want, got, func(x, y int64) bool { return x == y }))
	}
}

// TestSymmetricExecuteAllocs holds the one-triangle path to
// TestPlanExecuteAllocs' bound: with pooled output, a warm execution
// allocates a constant handful, never the slab, the mirror pass's
// histograms or the output.
func TestSymmetricExecuteAllocs(t *testing.T) {
	sr := semiring.PlusTimes[float64]{}
	a := symGraph(8, true, false)
	for _, algo := range []Algorithm{AlgoMSA, AlgoHash, AlgoHeap, AlgoInner, AlgoHybrid} {
		plan, err := NewPlan(sr, a.PatternView(), a, a, Options{Algorithm: algo, Threads: 1, ReuseOutput: true}, nil)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := plan.Execute(a, a); err != nil { // warm-up
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(10, func() {
			if _, err := plan.Execute(a, a); err != nil {
				t.Fatal(err)
			}
		})
		if !ranHalf(plan.exec) {
			t.Fatalf("%v: ran the full product", algo)
		}
		if allocs > 6 {
			t.Errorf("%v: %.1f allocs per warm Execute, want ≤ 6", algo, allocs)
		}
	}
}

// TestSymmetricKnownHalfAllocs pins what a hit allocates: a cached
// plan that has published its known half, or its full-product pattern,
// writes each hit's values into a fresh Val over the remembered
// pattern, so a warm hit allocates that array and a constant handful
// of headers — never a RowPtr, a ColIdx, a slab or the mirror pass's
// histograms. The full-product hits run asymmetric values on the same
// structure.
func TestSymmetricKnownHalfAllocs(t *testing.T) {
	a := symGraph(8, true, false)
	asym := withSpecialValues(a)
	for _, algo := range []Algorithm{AlgoMSA, AlgoHash, AlgoHeap, AlgoInner, AlgoHybrid} {
		for _, x := range []*sparse.CSR[float64]{a, asym} {
			half := x == a
			plan, err := NewPlanCache(ptSR, 0).GetOrPlan(a.PatternView(), a, a, Options{Algorithm: algo})
			if err != nil {
				t.Fatal(err)
			}
			exec := NewExecutor[float64](ptSR)
			eo := ExecOptions{Threads: 1}
			var out *sparse.CSR[float64]
			hit := func() {
				if out, err = plan.ExecuteOnOpts(exec, x, x, eo); err != nil {
					t.Fatal(err)
				}
			}
			for range 3 { // publish, then warm the hit path
				hit()
			}
			if kh := plan.halfHit.rec.Load(); half && (kh == nil || exec.hitRec != kh) {
				t.Fatalf("%v: the warm execution was not an in-place hit", algo)
			}
			if !half && (plan.fullHit.rec.Load() == nil || ranHalf(exec)) {
				t.Fatalf("%v: the warm execution was not a full-product hit", algo)
			}
			allocs := testing.AllocsPerRun(10, hit)
			const runs = 10
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			for range runs {
				hit()
			}
			runtime.ReadMemStats(&after)
			perHit := (after.TotalAlloc - before.TotalAlloc) / runs
			// The Val rounds up to its allocator size class, at most an
			// eighth more; the bound stays below what a ColIdx would add.
			val := uint64(8 * out.NNZ())
			if slack := val/8 + 1024; slack >= uint64(4*out.NNZ()) {
				t.Fatalf("%v: a %d-byte bound would admit a ColIdx", algo, slack)
			}
			if allocs > 6 || perHit < val || perHit > val+val/8+1024 {
				t.Errorf("%v half=%v: %.1f allocs and %d bytes per hit, want ≤ 6 allocs and the %d-byte Val plus at most an eighth and 1 KiB", algo, half, allocs, perHit, val)
			}
		}
	}
}

// TestSymmetricResidentValuesCheckedOnce: an execution told that A is
// resident (ExecOptions.Resident) checks a value array for symmetry
// once, and the plan remembers the array it proved. Values then made
// asymmetric in place (the contract the flag vouches for, broken on
// purpose) still run one triangle under the flag, and the full product
// without it; another array is checked on its first execution, and the
// plan then remembers it instead.
func TestSymmetricResidentValuesCheckedOnce(t *testing.T) {
	a := symGraph(7, true, true)
	plan, err := NewPlanCache(ptSR, 0).GetOrPlan(a.PatternView(), a, a, Options{Algorithm: AlgoHybrid})
	if err != nil {
		t.Fatal(err)
	}
	exec := NewExecutor[float64](ptSR)
	run := func(name string, x *sparse.CSR[float64], resident, wantHalf bool) {
		t.Helper()
		if _, err := plan.ExecuteOnOpts(exec, x, x, ExecOptions{Threads: 2, Resident: resident}); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if ranHalf(exec) != wantHalf {
			t.Fatalf("%s: one triangle = %v, want %v", name, ranHalf(exec), wantHalf)
		}
	}
	x := a.Clone()
	run("library execution", x, false, true)
	if plan.symVals.Load() != nil {
		t.Fatal("an execution that did not vouch for its values remembered them")
	}
	run("first resident execution", x, true, true)
	if plan.symVals.Load() != &x.Val[0] {
		t.Fatal("the resident array proved symmetric was not remembered")
	}
	e := 0 // the first off-diagonal entry
	for int(plan.sym.mirror[e]) == e {
		e++
	}
	x.Val[e] *= 3
	run("resident, changed in place", x, true, true)
	run("library, changed in place", x, false, false)
	y := x.Clone()
	run("another array, asymmetric", y, true, false)
	if plan.symVals.Load() != &x.Val[0] {
		t.Fatal("an asymmetric array replaced the remembered one")
	}
	z := a.Clone()
	run("another array, symmetric", z, true, true)
	if plan.symVals.Load() != &z.Val[0] {
		t.Fatal("the last array proved symmetric is not the one remembered")
	}
}
