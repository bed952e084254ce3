package core

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"sync"
	"testing"

	"maskedspgemm/internal/faultinject"
	"maskedspgemm/internal/gen"
	"maskedspgemm/internal/sparse"
)

// Remembered output patterns (DESIGN.md §5, "Known pattern"): a plan a
// PlanCache built publishes the pattern of its second clean one-phase
// full-product execution, and every later one writes values only, into
// exact rows; a one-triangle plan publishes the known half of its
// second clean half execution, and every later half execution computes
// only the known columns. These tests hold their results bit for bit
// to a fresh plan's, and pin what is published and charged, when, and
// how often.

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

// withSymmetricSpecials scales entry (i, j) of the symmetric m by
// rememberSpecials[(i+j) mod 7]: the same special products as
// withSpecialValues, with values that stay symmetric bit for bit.
func withSymmetricSpecials(m *sparse.CSR[float64]) *sparse.CSR[float64] {
	out := &sparse.CSR[float64]{Pattern: m.Pattern, Val: make([]float64, len(m.Val))}
	for i := range m.Rows {
		for t := m.RowPtr[i]; t < m.RowPtr[i+1]; t++ {
			out.Val[t] = m.Val[t] * rememberSpecials[(i+int(m.ColIdx[t]))%len(rememberSpecials)]
		}
	}
	return out
}

// rememberedBytes is what a plan has remembered: the bytes of its one
// output pattern and of each of its distinct hit records — a known
// half's own arrays and the product schedules — 0 when it has none of
// them. A record both kinds share counts once.
func rememberedBytes(p *Plan[float64, ptSRType]) int64 {
	var n int64
	if pat := p.shared.Load(); pat != nil {
		n += pat.bytes()
	}
	full, half := p.fullHit.rec.Load(), p.halfHit.rec.Load()
	if full != nil {
		n += full.bytes()
	}
	if half != nil && half != full {
		n += half.bytes()
	}
	return n
}

// scheduleCharge is the charge of the product schedule a plan keeps
// for full-product hits whose result is out over (a, b), counted from
// the operands. It is 0 when the entries hold more than two products
// each on average: 4 bytes per entry and one more, 8 per product, and 8
// per row and one more otherwise.
func scheduleCharge(out, a, b *sparse.CSR[float64]) int64 {
	var entries, products int64
	for i := range out.Rows {
		for _, j := range out.Row(i) {
			entries++
			for _, k := range a.Row(i) {
				if _, ok := slices.BinarySearch(b.Row(int(k)), j); ok {
					products++
				}
			}
		}
	}
	if products > 2*entries {
		return 0
	}
	return 4*(entries+1) + 8*products + 8*int64(out.Rows+1)
}

// tierCharge is the charge of what a plan keeps for the tier of hits
// whose result is out over (a, b), counted from the operands: with half
// set, over the entries of out's known half, the upper (or lower)
// triangle, diagonal included, and otherwise over all of out. It is
// the product schedule's of a full product whose entries hold at most
// two products each (scheduleCharge), since a known half never replays,
// and otherwise, when the plan holds B's CSC structure (csc), the dot
// bitmap's when it holds at most 64 bits per entry — one bit per entry
// of each computed entry's B column, in 8-byte words, and 8 bytes per
// row and one more — and 0 when neither is kept.
func tierCharge(out, a, b *sparse.CSR[float64], half, upper, csc bool) int64 {
	if !half {
		if n := scheduleCharge(out, a, b); n > 0 {
			return n
		}
	}
	if !csc {
		return 0
	}
	colLen := make([]int64, b.Cols)
	for _, j := range b.ColIdx {
		colLen[j]++
	}
	var entries, bits int64
	for i := range out.Rows {
		for _, j := range out.Row(i) {
			if half && (upper && int(j) < i || !upper && int(j) > i) {
				continue
			}
			entries++
			bits += colLen[j]
		}
	}
	if bits > 64*entries {
		return 0
	}
	return 8*((bits+63)/64) + 8*int64(out.Rows+1)
}

func (h hitTier) String() string {
	return [...]string{"none", "push/Pull", "replay", "bitmap"}[h]
}

// holdsCSC reports whether p holds B's CSC structure, which a dot
// bitmap needs.
func holdsCSC(p *Plan[float64, ptSRType]) bool {
	colPtr, _ := p.cscOfB()
	return colPtr != nil
}

// patternBytes is the charge of the output pattern remembered from an
// execution whose result is out: 8·(rows+1) + 4·nnz bytes.
func patternBytes(out *sparse.CSR[float64]) int64 {
	return 8*int64(len(out.RowPtr)) + 4*out.NNZ()
}

// knownHalfBytes is the charge of a known half remembered from a half
// execution whose result is out, beyond the output pattern, which it
// shares with the plan, and the schedule, counted from out: the half's
// offsets (8·(rows+1) bytes) and the transpose map (out's diagonal and
// half its other entries, 4 bytes each).
func knownHalfBytes(out *sparse.CSR[float64]) int64 {
	var diag int64
	for i := range out.Rows {
		if _, ok := slices.BinarySearch(out.Row(i), int32(i)); ok {
			diag++
		}
	}
	return 8*int64(out.Rows+1) + 4*(out.NNZ()+diag)/2
}

// sharesPattern reports whether out's RowPtr and ColIdx are the plan's
// remembered arrays.
func sharesPattern(p *Plan[float64, ptSRType], out *sparse.CSR[float64]) bool {
	rec := p.fullHit.rec.Load()
	return rec != nil && &rec.pat.rowPtr[0] == &out.RowPtr[0] && (len(out.ColIdx) == 0 || &rec.pat.colIdx[0] == &out.ColIdx[0])
}

// sharesKnownHalf reports whether out's RowPtr and ColIdx are the
// output pattern of the plan's known half.
func sharesKnownHalf(p *Plan[float64, ptSRType], out *sparse.CSR[float64]) bool {
	kh := p.halfHit.rec.Load()
	return kh != nil && &kh.pat.rowPtr[0] == &out.RowPtr[0] && (len(out.ColIdx) == 0 || &kh.pat.colIdx[0] == &out.ColIdx[0])
}

// rememberProduct is one product the remembered-pattern tests run: the
// operands, whether B is A itself, and, for such a product, whether its
// known half must hold the edge cases requireHalfShapes checks, which
// only a half that breaks the replay rule keeps. A dense product runs
// plain masks only, at 3 threads, to keep its cost down.
type rememberProduct struct {
	name    string
	mask    *sparse.Pattern
	a, b    *sparse.CSR[float64]
	selfSym bool
	shapes  bool
	dense   bool
}

func rememberProducts() []rememberProduct {
	var out []rememberProduct
	mask, a, b := buildCase(caseSpec{"", 96, 80, 300, 6, 8, 12, 7})
	out = append(out, rememberProduct{name: "rect-300", mask: mask, a: a, b: b})
	for _, n := range []int{256, 4096} {
		mask, a, b, _ := complDenseRowsProduct(n)
		out = append(out, rememberProduct{name: fmt.Sprintf("compl-dense-rows-%d", n), mask: mask, a: a, b: b})
	}
	for _, hubsLast := range []bool{true, false} {
		g := symGraph(7, hubsLast, true)
		out = append(out, rememberProduct{name: fmt.Sprintf("symmetric-hubsLast=%v", hubsLast), mask: g.PatternView(), a: g, b: g, selfSym: true, shapes: true})
	}
	g := sparseSymGraph(128, 7)
	out = append(out, rememberProduct{name: "sparse-symmetric", mask: g.PatternView(), a: g, b: g, selfSym: true})
	g = k5WithLoops(7)
	out = append(out, rememberProduct{name: "k5-loops", mask: g.PatternView(), a: g, b: g, selfSym: true})
	g = denseSymGraph(7)
	out = append(out, rememberProduct{name: "dense-symmetric", mask: g.PatternView(), a: g, b: g, selfSym: true, shapes: true, dense: true})
	return out
}

// denseSymGraph is the complete graph on 72 vertices less a perfect
// matching drawn from seed, with symGraph's loops and values
// (withSymLoops): every B column holds 68 or 69 entries, so its hits
// break the memory rules of both the product schedule and the dot
// bitmap and run push and Pull (DESIGN.md §5, "Bitmap hits"), where
// the R-MAT products' hits walk a dot bitmap.
func denseSymGraph(seed uint64) *sparse.CSR[float64] {
	const n = 72
	mate := make([]int32, n)
	perm := gen.NewRNG(seed).Perm(n)
	for m := 0; m < n; m += 2 {
		mate[perm[m]], mate[perm[m+1]] = perm[m+1], perm[m]
	}
	coo := sparse.NewCOO[float64](n, n, n*n)
	for i := range n {
		for j := range n {
			if j != i && mate[i] != int32(j) {
				coo.Append(int32(i), int32(j), 1)
			}
		}
	}
	g, err := coo.ToCSR(func(x, _ float64) float64 { return x })
	if err != nil {
		panic(err)
	}
	return withSymLoops(g, true)
}

// sparseSymGraph is a symmetrized ER(n, 1) graph with symGraph's loops
// and values, drawn from seed: its self-product's output entries hold
// one or two products each, so its hits, one-triangle hits too, replay
// its full product's schedule (DESIGN.md §5, "Replayed hits"), where
// the R-MAT products break the memory rule and walk a dot bitmap.
func sparseSymGraph(n int, seed uint64) *sparse.CSR[float64] {
	return withSymLoops(gen.Symmetrize(gen.ErdosRenyi(n, 1, seed)), true)
}

// k5WithLoops is the edge product of the replay rule: K₅ without self
// loops, and 10 isolated vertices with a self loop each, on 15 vertices
// labelled by a permutation drawn from seed, with symValue's values.
// Its self-product's known half holds 40 products over 20 entries, at
// the rule, and its full product 70 over 30, over it, so its
// one-triangle hits keep the known half and walk its dot bitmap
// (Plan.remember).
func k5WithLoops(seed uint64) *sparse.CSR[float64] {
	const n = 15
	perm := gen.NewRNG(seed).Perm(n)
	coo := sparse.NewCOO[float64](n, n, 30)
	for i := range n {
		for j := range n {
			if i < 5 && j < 5 && i != j || i >= 5 && i == j {
				pi, pj := perm[i], perm[j]
				coo.Append(pi, pj, symValue(int(pi), int(pj)))
			}
		}
	}
	g, err := coo.ToCSR(func(x, _ float64) float64 { return x })
	if err != nil {
		panic(err)
	}
	return g
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

// TestRememberedPatternBitIdentical executes one cached plan on a
// sequence of value sets and checks every result bit for bit against a
// fresh NewPlan plan's on the same values, for every scheme and Hybrid
// menu, plain and complemented, in every phase each scheme runs, at 1,
// 2, 3, 4 and 64 threads. On the rectangular and complemented products
// the sequence is the planned values, values that make −0, ±Inf and NaN
// products, the planned values scaled, and the special values again. A
// cached one-phase plan remembers nothing from its first full-product
// execution, and from its second on every full-product result must
// share the remembered pattern. The symmetric self-products (both
// triangles, with diagonal entries, empty rows and rows whose output
// half is empty) run the planned values, the scaled ones and symmetric
// special values, all one triangle, so the scaled run publishes the
// one-triangle record — the full product's schedule where the known
// half fits the replay rule and so does the full product, the known
// half otherwise — and the third hits it in place; then two asymmetric
// special value sets run the full product, the second remembering its
// pattern; then the planned values, symmetric again, run the known
// half, and the scaled symmetric specials, the asymmetric specials and
// the scaled values alternate the two once more. From the publishing
// run on, every half result shares the record's output pattern, and no
// known half holds a schedule. Both kinds of hit run in all three
// tiers: the sparse products replay a full product's schedule, the
// R-MAT products (the hubs-last one tc-skew-ref's shape at small size)
// and the K₅ product, whose half fits the replay rule but whose full
// product does not, walk a dot bitmap where the plan holds B's CSC
// structure, and the dense symmetric product and the plans without that
// structure run push and Pull.
func TestRememberedPatternBitIdentical(t *testing.T) {
	scaled := func(m *sparse.CSR[float64]) *sparse.CSR[float64] {
		return withValues(m, func(_ int, v float64) float64 { return -1.5 * v })
	}
	triangles := map[bool]bool{}
	cells := map[hitCell]bool{}
	for _, pr := range rememberProducts() {
		values := [][2]*sparse.CSR[float64]{{pr.a, pr.b}}
		if pr.selfSym {
			for _, f := range []func(*sparse.CSR[float64]) *sparse.CSR[float64]{
				scaled, withSymmetricSpecials, withSpecialValues,
				func(m *sparse.CSR[float64]) *sparse.CSR[float64] { return scaled(withSpecialValues(m)) },
			} {
				a := f(pr.a)
				values = append(values, [2]*sparse.CSR[float64]{a, a})
			}
			symSpecials := scaled(withSymmetricSpecials(pr.a))
			values = append(values, values[0], [2]*sparse.CSR[float64]{symSpecials, symSpecials}, values[3], values[1])
		} else {
			for _, f := range []func(*sparse.CSR[float64]) *sparse.CSR[float64]{withSpecialValues, scaled} {
				values = append(values, [2]*sparse.CSR[float64]{f(pr.a), f(pr.b)})
			}
			values = append(values, values[1])
		}
		if pr.shapes {
			triangles[requireHalfShapes(t, pr)] = true
		}
		complements, widths := []bool{false, true}, []int{1, 2, 3, 4, 64}
		if pr.dense {
			complements, widths = []bool{false}, []int{3}
		}
		for _, complement := range complements {
			for _, scheme := range rememberSchemes() {
				if complement && !SupportsComplement(scheme.Algorithm) {
					continue
				}
				for _, ph := range schemePhases(scheme.Algorithm) {
					for _, threads := range widths {
						opt := scheme
						opt.Complement, opt.Phases = complement, ph
						name := fmt.Sprintf("%s/%v/complement=%v/%v/families=%#x/threads=%d",
							pr.name, opt.Algorithm, complement, ph, opt.HybridFamilies, threads)
						checkRememberedRuns(t, name, pr, values, opt, threads, cells)
					}
				}
			}
		}
	}
	if len(triangles) != 2 {
		t.Fatalf("the symmetric products compute one triangle only (upper: %v)", triangles)
	}
	for _, half := range []bool{false, true} {
		for _, tier := range []hitTier{tierPushPull, tierReplay, tierBitmap} {
			if c := (hitCell{half, tier}); !cells[c] {
				t.Errorf("no hit of kind %+v ran", c)
			}
		}
	}
}

// hitCell is one kind of plan hit: full-product or one-triangle, and
// the tier it ran in. A one-triangle hit replays by a full-product
// record.
type hitCell struct {
	half bool
	tier hitTier
}

// requireHalfShapes fails t unless the known half of pr, a symmetric
// self-product, holds a diagonal entry, an empty output row, and a
// row whose output half is empty while its output row is not: the
// edge cases of the transpose map and of the in-place rows. It returns
// whether the half is the upper triangle.
func requireHalfShapes(t *testing.T, pr rememberProduct) bool {
	t.Helper()
	plan, err := NewPlanCache(ptSR, 0).GetOrPlan(pr.mask, pr.a, pr.b, Options{Algorithm: AlgoMSA})
	if err != nil {
		t.Fatal(err)
	}
	for range 2 {
		if _, err := plan.ExecuteOn(NewExecutor[float64](ptSR), pr.a, pr.b); err != nil {
			t.Fatal(err)
		}
	}
	kh := plan.halfHit.rec.Load()
	if kh == nil {
		t.Fatalf("%s: no known half published", pr.name)
	}
	h, pat := kh.half, kh.pat
	var diag, emptyRows, emptyHalves int
	for i := range pr.mask.Rows {
		lo, hi := h.span(pat.rowPtr, i)
		if _, ok := slices.BinarySearch(pat.colIdx[lo:hi], int32(i)); ok {
			diag++
		}
		switch {
		case pat.rowPtr[i+1] == pat.rowPtr[i]:
			emptyRows++
		case hi == lo:
			emptyHalves++
		}
	}
	if diag == 0 || emptyRows == 0 || emptyHalves == 0 {
		t.Fatalf("%s (upper=%v): %d diagonal entries, %d empty rows, %d rows with an empty half; want each", pr.name, h.upper, diag, emptyRows, emptyHalves)
	}
	return h.upper
}

// checkRememberedRuns executes one cached plan on each value set in
// turn on one executor and checks each result against a fresh plan's.
// It records the kind of every hit in cells.
func checkRememberedRuns(t *testing.T, name string, pr rememberProduct, values [][2]*sparse.CSR[float64], opt Options, threads int, cells map[hitCell]bool) {
	t.Helper()
	cache := NewPlanCache(ptSR, 0)
	plan, err := cache.GetOrPlan(pr.mask, pr.a, pr.b, opt)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	exec := NewExecutor[float64](ptSR)
	eo := ExecOptions{Threads: threads}
	fullRuns, halfRuns := 0, 0
	for run, ab := range values {
		full, known := plan.fullHit.rec.Load(), plan.halfHit.rec.Load()
		wasRemembered := full != nil
		got, err := plan.ExecuteOnOpts(exec, ab[0], ab[1], eo)
		if err != nil {
			t.Fatalf("%s run %d: %v", name, run, err)
		}
		switch half := ranHalf(exec); {
		case half && known != nil:
			cells[hitCell{true, known.tier()}] = true
		case !half && full != nil:
			cells[hitCell{false, full.tier()}] = true
		}
		if kh := plan.halfHit.rec.Load(); kh != nil && ((kh.half == nil) != (kh.tier() == tierReplay) || (kh.half == nil) != (kh.tpos == nil)) {
			t.Fatalf("%s run %d: a one-triangle record in tier %v holds a known half %v and a transpose map %v; only a full product replays", name, run, kh.tier(), kh.half != nil, kh.tpos != nil)
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
		if counts && fullRuns == 1 && plan.fullHit.rec.Load() != nil {
			t.Fatalf("%s run %d: the first full one-phase execution published a pattern", name, run)
		}
		if !remembers && plan.fullHit.rec.Load() != nil && !wasRemembered && plan.fullHit.rec.Load() != plan.halfHit.rec.Load() {
			t.Fatalf("%s run %d: an execution that must not remember published a pattern", name, run)
		}
		if fresh.fullHit.rec.Load() != nil || fresh.halfHit.rec.Load() != nil {
			t.Fatalf("%s run %d: a NewPlan plan remembered its pattern or known half", name, run)
		}
		if !ranHalf(exec) {
			continue
		}
		halfRuns++
		kh := plan.halfHit.rec.Load()
		switch {
		case halfRuns == 1 && kh != nil:
			t.Fatalf("%s run %d: the first half execution published a known half", name, run)
		case halfRuns >= 2 && kh == nil:
			t.Fatalf("%s run %d: a second or later half execution of a cached plan left no known half", name, run)
		case halfRuns >= 3 && exec.hitRec != kh:
			t.Fatalf("%s run %d: a half execution after the known half was published did not compute it", name, run)
		case halfRuns >= 2 && !sharesKnownHalf(plan, got):
			t.Fatalf("%s run %d: a half result from the publishing execution on does not share the known half's pattern", name, run)
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
				if first && plan.fullHit.rec.Load() != nil {
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

// rememberCase is one product the publishing and charging tests run,
// and what its cache-built plan remembers: the output pattern of the
// complemented rememberBudgetCase, or, with half set, the one-triangle
// record of a symmetric self-product under Hybrid, er-warm-inline's
// shape at small size, denser or sparser, tc-skew-ref's, or the K₅
// edge product (k5WithLoops). tier is the tier the plan's hits run in:
// replaying a full product's schedule when its entries hold at most two
// products each (DESIGN.md §5, "Replayed hits"), walking a dot bitmap
// when they hold more and the bitmap at most 64 bits per entry ("Bitmap
// hits"), and push and Pull otherwise. A one-triangle record that does
// not replay keeps its known half (knownHalf).
type rememberCase struct {
	name string
	mask *sparse.Pattern
	a, b *sparse.CSR[float64]
	opt  Options
	half bool
	tier hitTier
}

// rememberCases returns the cases over operands drawn from seed: a
// full product and a known half in each tier they reach.
func rememberCases(seed uint64) []rememberCase {
	mask, a, b, opt := rememberBudgetCase(seed)
	dMask, dA, dB := buildCase(caseSpec{"", 128, 128, 128, 24, 24, 24, seed})
	g := gen.Symmetrize(gen.ErdosRenyi(128, 16, seed))
	sg := sparseSymGraph(128, seed)
	rg := rmatSymGraph(7, seed, true, false)
	dg := denseSymGraph(seed)
	kg := k5WithLoops(seed)
	return []rememberCase{
		{name: "pattern", mask: mask, a: a, b: b, opt: opt, tier: tierReplay},
		{name: "pattern-dense", mask: dMask, a: dA, b: dB, opt: opt, tier: tierPushPull},
		{name: "known-half", mask: g.PatternView(), a: g, b: g, opt: Options{Algorithm: AlgoHybrid}, half: true, tier: tierBitmap},
		{name: "half-replays-full", mask: sg.PatternView(), a: sg, b: sg, opt: Options{Algorithm: AlgoHybrid}, half: true, tier: tierReplay},
		{name: "known-half-k5", mask: kg.PatternView(), a: kg, b: kg, opt: Options{Algorithm: AlgoHybrid}, half: true, tier: tierBitmap},
		{name: "known-half-rmat", mask: rg.PatternView(), a: rg, b: rg, opt: Options{Algorithm: AlgoHybrid}, half: true, tier: tierBitmap},
		{name: "known-half-dense", mask: dg.PatternView(), a: dg, b: dg, opt: Options{Algorithm: AlgoHybrid}, half: true, tier: tierPushPull},
	}
}

// knownHalf reports whether the case's record keeps a known half: a
// one-triangle record that does not replay.
func (c rememberCase) knownHalf() bool {
	return c.half && c.tier != tierReplay
}

// checkReplays fails t unless p has published the record of the
// case's hits, in the case's tier, with a known half and its transpose
// map exactly when the case keeps one, and for the other kind of hit
// the same record when it replays a symmetric self-product's full
// product, and none otherwise.
func (c rememberCase) checkReplays(t *testing.T, p *Plan[float64, ptSRType]) {
	t.Helper()
	rec, other := c.record(p), p.halfHit.rec.Load()
	if c.half {
		other = p.fullHit.rec.Load()
	}
	var want *hitRecord
	if c.half && c.tier == tierReplay {
		want = rec
	}
	if rec == nil || rec.tier() != c.tier || other != want || (rec.half != nil) != c.knownHalf() || (rec.tpos != nil) != c.knownHalf() {
		tier, half := "none", false
		if rec != nil {
			tier, half = rec.tier().String(), rec.half != nil
		}
		t.Fatalf("%s: record in tier %s with a known half %v, want %v and %v; other kind's record %v, want it shared %v", c.name, tier, half, c.tier, c.knownHalf(), other != nil, want != nil)
	}
}

// record returns the record p has published for the case's kind of
// hit, or nil.
func (c rememberCase) record(p *Plan[float64, ptSRType]) *hitRecord {
	if c.half {
		return p.halfHit.rec.Load()
	}
	return p.fullHit.rec.Load()
}

// other returns operands with the case's structure and other values
// that keep its path: special values for the pattern case, symmetric
// special values for the known half.
func (c rememberCase) other() (a, b *sparse.CSR[float64]) {
	if c.half {
		s := withSymmetricSpecials(c.a)
		return s, s
	}
	return withSpecialValues(c.a), c.b
}

// published reports whether p has remembered what the case remembers.
func (c rememberCase) published(p *Plan[float64, ptSRType]) bool {
	return c.record(p) != nil
}

// shares reports whether out shares the pattern p remembered: its
// output pattern, or its known half's.
func (c rememberCase) shares(p *Plan[float64, ptSRType], out *sparse.CSR[float64]) bool {
	if c.half {
		return sharesKnownHalf(p, out)
	}
	return sharesPattern(p, out)
}

// charge is what p's entry is charged for what it remembered from an
// execution whose result is out, counted from out and the case's
// operands, or 0 when p has not remembered it: the output pattern
// (patternBytes), for a known half its own arrays too (knownHalfBytes),
// and the product schedule or dot bitmap of its hits (tierCharge), a
// full product's unless it keeps a known half.
func (c rememberCase) charge(p *Plan[float64, ptSRType], out *sparse.CSR[float64]) int64 {
	if !c.published(p) {
		return 0
	}
	if c.knownHalf() {
		kh := p.halfHit.rec.Load()
		return patternBytes(out) + knownHalfBytes(out) + tierCharge(out, c.a, c.b, true, kh.half.upper, holdsCSC(p))
	}
	return patternBytes(out) + tierCharge(out, c.a, c.b, false, false, holdsCSC(p))
}

// TestChaosRememberFirstExecution interrupts a cached plan's first
// execution and, after one clean execution, the execution that would
// publish — with a cancel at the numeric and at the compact checkpoint
// (the mirror pass's, on the one-triangle product) and a kernel panic
// in the numeric pass — on a product that remembers its output pattern
// and on one that remembers its known half. Neither interrupted
// execution publishes or charges bytes, and the interrupted first
// execution does not count as the plan's first: the clean execution
// after it publishes nothing either. The clean execution after the
// second fault publishes, and charges the cache and its budget exactly
// what it remembered, a product schedule included when the case keeps
// one.
func TestChaosRememberFirstExecution(t *testing.T) {
	t.Cleanup(faultinject.Disarm)
	for _, c := range rememberCases(71) {
		for _, fault := range []faultinject.Hooks{
			{CancelPass: faultinject.PassNumeric},
			{CancelPass: faultinject.PassCompact},
			{PanicArmed: true, PanicRow: 3, PanicPass: faultinject.PassNumeric},
		} {
			faultinject.Disarm()
			budget := NewMemBudget(0)
			cache := NewPlanCache(ptSR, 0)
			cache.AttachBudget(budget)
			plan, err := cache.GetOrPlan(c.mask, c.a, c.b, c.opt)
			if err != nil {
				t.Fatal(err)
			}
			before := budget.Used()
			// Interrupted executions leave their executor half-mutated, so
			// each runs on a throwaway one.
			exec := NewExecutor[float64](ptSR)
			for step := range 2 {
				faultinject.Arm(fault)
				out, err := plan.ExecuteOnOpts(NewExecutor[float64](ptSR), c.a, c.b, ExecOptions{Threads: 4})
				faultinject.Disarm()
				var ce *CanceledError
				var kp *KernelPanicError
				if out != nil || !(errors.As(err, &ce) || errors.As(err, &kp)) {
					t.Fatalf("%s %+v step %d: out=%v err=%v, want a typed fault and no result", c.name, fault, step, out != nil, err)
				}
				if rememberedBytes(plan) != 0 || budget.Used() != before || cache.Stats().Bytes != before {
					t.Fatalf("%s %+v step %d: the interrupted execution published (budget %d, cache %d bytes, want %d)",
						c.name, fault, step, budget.Used(), cache.Stats().Bytes, before)
				}
				if step == 0 {
					if _, err := plan.ExecuteOnOpts(exec, c.a, c.b, ExecOptions{Threads: 4}); err != nil {
						t.Fatal(err)
					}
					if rememberedBytes(plan) != 0 || budget.Used() != before {
						t.Fatalf("%s %+v: the first clean execution, after an interrupted one, published", c.name, fault)
					}
				}
			}
			got, err := plan.ExecuteOnOpts(exec, c.a, c.b, ExecOptions{Threads: 4})
			if err != nil {
				t.Fatal(err)
			}
			if !c.published(plan) || ranHalf(exec) != c.half {
				t.Fatalf("%s %+v: the clean execution after the second fault did not publish", c.name, fault)
			}
			c.checkReplays(t, plan)
			if !c.shares(plan, got) {
				t.Fatalf("%s %+v: the publishing result does not share the pattern", c.name, fault)
			}
			if want := before + c.charge(plan, got); budget.Used() != want || cache.Stats().Bytes != want {
				t.Fatalf("%s %+v: budget %d, cache %d bytes, want %d", c.name, fault, budget.Used(), cache.Stats().Bytes, want)
			}
		}
	}
}

// TestRememberConcurrentFirstExecutions starts several goroutines on
// one cached plan at once, each running a few executions in turn, each
// on its own executor (run it under -race), for each rememberCase: on
// even rounds their first executions are the plan's first, on odd
// rounds one clean execution precedes them, so any of them could
// publish. All results are equal, the plan publishes one record, of
// the case's kind and in the case's tier, the cache and budget are
// charged its bytes once, and every execution that starts once the
// record is visible runs by it (ranRecord): the pattern, the half and
// the schedule or dot bitmap become visible together, so no hit runs
// push and Pull where its record replays or walks a bitmap. A later
// execution, by the record, gives the same result.
func TestRememberConcurrentFirstExecutions(t *testing.T) {
	const goroutines, runs = 6, 3
	for round := range 4 {
		for _, c := range rememberCases(80 + uint64(round)) {
			budget := NewMemBudget(0)
			cache := NewPlanCache(ptSR, 0)
			cache.AttachBudget(budget)
			plan, err := cache.GetOrPlan(c.mask, c.a, c.b, c.opt)
			if err != nil {
				t.Fatal(err)
			}
			before := budget.Used()
			if round%2 == 1 {
				if _, err := plan.ExecuteOnOpts(NewExecutor[float64](ptSR), c.a, c.b, ExecOptions{}); err != nil {
					t.Fatal(err)
				}
			}
			outs := make([]*sparse.CSR[float64], goroutines*runs)
			errs := make([]error, goroutines*runs)
			start := make(chan struct{})
			var wg sync.WaitGroup
			for g := range goroutines {
				wg.Add(1)
				go func() {
					defer wg.Done()
					<-start
					for r := range runs {
						exec := NewExecutor[float64](ptSR)
						rec := c.record(plan)
						out, err := plan.ExecuteOnOpts(exec, c.a, c.b, ExecOptions{Threads: 1 + g%2})
						if err == nil && rec != nil {
							err = ranRecord(exec, plan, rec, c.tier)
						}
						outs[g*runs+r], errs[g*runs+r] = out, err
					}
				}()
			}
			close(start)
			wg.Wait()
			for x, err := range errs {
				name := fmt.Sprintf("%s round %d goroutine %d run %d", c.name, round, x/runs, x%runs)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				checkIdentical(t, name, outs[x], outs[0])
			}
			if !c.published(plan) {
				t.Fatalf("%s round %d: nothing published", c.name, round)
			}
			c.checkReplays(t, plan)
			if want := before + c.charge(plan, outs[0]); budget.Used() != want || cache.Stats().Bytes != want || rememberedBytes(plan) != want-before {
				t.Fatalf("%s round %d: budget %d, cache %d bytes, want %d (charged once)", c.name, round, budget.Used(), cache.Stats().Bytes, want)
			}
			exec := NewExecutor[float64](ptSR)
			got, err := plan.ExecuteOnOpts(exec, c.a, c.b, ExecOptions{})
			if err == nil {
				err = ranRecord(exec, plan, c.record(plan), c.tier)
			}
			if err != nil {
				t.Fatalf("%s round %d, the execution after publishing: %v", c.name, round, err)
			}
			checkIdentical(t, fmt.Sprintf("%s round %d remembered", c.name, round), got, outs[0])
		}
	}
}

// ranRecord returns an error unless the execution exec last ran was a
// hit of plan bound to the record rec, and rec is in the tier the
// products reach (tier).
func ranRecord(exec *Executor[float64, ptSRType], plan *Plan[float64, ptSRType], rec *hitRecord, tier hitTier) error {
	switch {
	case exec.lastPlan != plan || exec.hitRec != rec:
		return errors.New("an execution that started once the record was visible did not run by it")
	case rec.tier() != tier:
		return fmt.Errorf("the record's hits run in tier %v, want %v", rec.tier(), tier)
	}
	return nil
}

// TestPlanCacheRememberedPatternBudget pins the charge of what a plan
// remembers, an output pattern or a known half, with the product
// schedule or the dot bitmap and its prefix of its hits, each charged
// once, which a plan over their memory rules does not keep and is not
// charged for: a plan's first
// execution adds nothing, publishing on the second adds exactly the
// remembered bytes (rememberCase.charge, counted from the result, and
// equal to what the plan retains) to the entry and the budget,
// later executions add nothing, and the bytes return with the entry
// when Clear, the entry cap or budget pressure evicts it. A plan
// evicted before it publishes is not charged. A symmetric self-product
// whose values alternate between symmetric and not is charged for its
// one pattern once, and for one schedule when its record replays the
// full product, which both kinds share, or a bitmap per kind of hit
// when they keep two records.
func TestPlanCacheRememberedPatternBudget(t *testing.T) {
	cases1, cases2 := rememberCases(91), rememberCases(92)
	for k, c1 := range cases1 {
		c2 := cases2[k]
		// run executes p on c's operands, or on their other values, and
		// returns the charge of what p has remembered.
		run := func(p *Plan[float64, ptSRType], c rememberCase, other bool) int64 {
			t.Helper()
			a, b := c.a, c.b
			if other {
				a, b = c.other()
			}
			out, err := p.ExecuteOnOpts(NewExecutor[float64](ptSR), a, b, ExecOptions{Threads: 2})
			if err != nil {
				t.Fatal(err)
			}
			return c.charge(p, out)
		}
		// remember executes p twice, the second time on other values, so
		// that it publishes, and returns the remembered bytes.
		remember := func(p *Plan[float64, ptSRType], c rememberCase) int64 {
			t.Helper()
			run(p, c, false)
			return run(p, c, true)
		}
		plan := func(cache *PlanCache[float64, ptSRType], c rememberCase) *Plan[float64, ptSRType] {
			t.Helper()
			p, err := cache.GetOrPlan(c.mask, c.a, c.b, c.opt)
			if err != nil {
				t.Fatal(err)
			}
			return p
		}

		// Clear.
		budget := NewMemBudget(0)
		cache := NewPlanCache(ptSR, 0)
		cache.AttachBudget(budget)
		p1 := plan(cache, c1)
		foot1 := budget.Used()
		run(p1, c1, false)
		if budget.Used() != foot1 || cache.Stats().Bytes != foot1 {
			t.Fatalf("%s after the first execution: budget %d, cache %d, want %d", c1.name, budget.Used(), cache.Stats().Bytes, foot1)
		}
		pat1 := run(p1, c1, true)
		if pat1 == 0 || budget.Used() != foot1+pat1 || cache.Stats().Bytes != foot1+pat1 {
			t.Fatalf("%s after the second execution: budget %d, cache %d, want %d", c1.name, budget.Used(), cache.Stats().Bytes, foot1+pat1)
		}
		if got := rememberedBytes(p1); got != pat1 {
			t.Fatalf("%s: the charge counted from the result is %d bytes, what the plan retains %d", c1.name, pat1, got)
		}
		c1.checkReplays(t, p1)
		run(p1, c1, false)
		if budget.Used() != foot1+pat1 {
			t.Fatalf("%s: an execution by what the plan remembered charged again: budget %d, want %d", c1.name, budget.Used(), foot1+pat1)
		}
		cache.Clear()
		if budget.Used() != 0 {
			t.Fatalf("%s after Clear: budget %d, want 0", c1.name, budget.Used())
		}
		// The cleared plan still runs, and charges nothing.
		run(p1, c1, false)
		if budget.Used() != 0 {
			t.Fatalf("%s: a plan no longer cached charged what it remembered: budget %d", c1.name, budget.Used())
		}

		// The entry cap.
		budget = NewMemBudget(0)
		capped := NewPlanCache(ptSR, 1)
		capped.AttachBudget(budget)
		remember(plan(capped, c1), c1)
		p2 := plan(capped, c2)
		foot2 := budget.Used()
		if st := capped.Stats(); st.Entries != 1 || st.Bytes != foot2 || foot2 != p2.footprintBytes() {
			t.Fatalf("%s after the entry cap evicted a remembering plan: %+v, budget %d, want only the new plan's %d bytes", c1.name, st, foot2, p2.footprintBytes())
		}

		// Budget pressure: room for one plan with what it remembered and
		// a second plan's analysis, not both.
		pat2 := remember(p2, c2)
		budget = NewMemBudget(foot1 + pat1 + foot2 + pat2/2)
		pressed := NewPlanCache(ptSR, 0)
		pressed.AttachBudget(budget)
		remember(plan(pressed, c1), c1)
		q2 := plan(pressed, c2)
		run(q2, c2, false)
		if st := pressed.Stats(); st.Entries != 2 || budget.Used() != foot1+pat1+foot2 {
			t.Fatalf("%s before the pressure: %+v, budget %d", c1.name, st, budget.Used())
		}
		run(q2, c2, true)
		if st := pressed.Stats(); st.Entries != 1 || st.Evictions != 1 || budget.Used() != foot2+pat2 || st.Bytes != foot2+pat2 {
			t.Fatalf("%s after the second plan's charge: %+v, budget %d, want one entry of %d bytes", c1.name, st, budget.Used(), foot2+pat2)
		}
	}

	// Alternating values: a symmetric self-product runs symmetric
	// values twice and asymmetric ones twice, in either order. The
	// sparse ER product's half and full product both fit the replay
	// rule, so whichever kind publishes first publishes the full
	// product's record for both, charged once with its pattern, and the
	// other kind's executions hit it. The K₅ product publishes both its
	// one-triangle record and its full-product one over one pattern,
	// charged once: the known half's own arrays and bitmap beside the
	// full product's bitmap.
	for _, g := range []*sparse.CSR[float64]{gen.Symmetrize(gen.ErdosRenyi(128, 6, 96)), k5WithLoops(96)} {
		asym := withSpecialValues(g)
		for _, halfFirst := range []bool{true, false} {
			budget := NewMemBudget(0)
			cache := NewPlanCache(ptSR, 0)
			cache.AttachBudget(budget)
			p, err := cache.GetOrPlan(g.PatternView(), g, g, Options{Algorithm: AlgoHybrid})
			if err != nil {
				t.Fatal(err)
			}
			foot := budget.Used()
			values := []*sparse.CSR[float64]{g, g, asym, asym}
			if !halfFirst {
				values = []*sparse.CSR[float64]{asym, asym, g, g}
			}
			var out *sparse.CSR[float64]
			for _, x := range values {
				if out, err = p.ExecuteOnOpts(NewExecutor[float64](ptSR), x, x, ExecOptions{Threads: 2}); err != nil {
					t.Fatal(err)
				}
			}
			name := fmt.Sprintf("%d rows, halfFirst=%v", g.Rows, halfFirst)
			kh, full := p.halfHit.rec.Load(), p.fullHit.rec.Load()
			if kh == nil || full == nil || kh.pat != full.pat || !sharesPattern(p, out) {
				t.Fatalf("%s: the one-triangle and the full-product records do not share one remembered pattern", name)
			}
			if (kh == full) != (g.Rows == 128) {
				t.Fatalf("%s: the two kinds share one record %v", name, kh == full)
			}
			want := patternBytes(out) + tierCharge(out, g, g, false, false, true)
			if kh.half != nil {
				want = patternBytes(out) + knownHalfBytes(out) + tierCharge(out, g, g, false, false, true) + tierCharge(out, g, g, true, kh.half.upper, true)
			}
			if (kh.half == nil) != (g.Rows == 128) {
				t.Fatalf("%s: the one-triangle record keeps a known half %v", name, kh.half != nil)
			}
			if budget.Used() != foot+want || cache.Stats().Bytes != foot+want || rememberedBytes(p) != want {
				t.Fatalf("%s: budget %d, cache %d, remembered %d bytes, want %d over the %d-byte plan (the pattern once, a known half's own arrays and each record's tier once)",
					name, budget.Used(), cache.Stats().Bytes, rememberedBytes(p), want, foot)
			}
		}
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
	if p1.fullHit.rec.Load() != nil || budget.Used() != foot1 || cache.Stats().Bytes != foot1 {
		t.Fatalf("a plan executed once: published %v, budget %d, cache %d bytes, want only its %d-byte analysis",
			p1.fullHit.rec.Load() != nil, budget.Used(), cache.Stats().Bytes, foot1)
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
	if p1.fullHit.rec.Load() == nil || budget.Used() != p2.footprintBytes() {
		t.Fatalf("the evicted plan's second execution: published %v, budget %d, want %d", p1.fullHit.rec.Load() != nil, budget.Used(), p2.footprintBytes())
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
	if plan.fullHit.rec.Load() != nil {
		t.Fatal("an execution with pooled output remembered its pattern")
	}
	for run := range 2 {
		if plan.fullHit.rec.Load() != nil {
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

// TestPlanHitChangedStructurePanics hits a remembered plan with
// operands of the planned shapes and nnz but another structure, the
// case the Execute contract leaves undefined. A = B = X, the n×n
// all-ones matrix without its diagonal, n = 80, remembers the pattern
// of M ⊙ X², M full, whose entries hold 78 products each and whose B
// columns hold 79 entries each: over the memory rules of the product
// schedule and the dot bitmap, so the plan keeps neither and its hits
// run Pull. Y has X's nnz in rows 0 to n−2, all ones, and row n−1
// empty, so a hit's Pull row n−1 finds no product on its known columns,
// and the hit returns a *KernelPanicError that wraps errPatternChanged,
// for Inner, SS:DOT* and a Pull-only Hybrid, whose rows all run Pull.
func TestPlanHitChangedStructurePanics(t *testing.T) {
	const n = 80
	x, mask := offDiagonal(n), fullMask(n)
	y := allOnesButLastRow(n)
	for _, opt := range []Options{
		{Algorithm: AlgoInner},
		{Algorithm: AlgoDotTranspose},
		{Algorithm: AlgoHybrid, HybridFamilies: Families(FamPull)},
	} {
		name := fmt.Sprintf("%v/families=%#x", opt.Algorithm, opt.HybridFamilies)
		plan, err := NewPlanCache(ptSR, 0).GetOrPlan(mask, x, x, opt)
		if err != nil {
			t.Fatal(err)
		}
		for range 2 {
			if _, err := plan.ExecuteOn(NewExecutor[float64](ptSR), x, x); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
		}
		if rec := plan.fullHit.rec.Load(); rec == nil || rec.tier() != tierPushPull {
			t.Fatalf("%s: want a remembered pattern whose hits run push and Pull", name)
		}
		out, err := plan.ExecuteOn(NewExecutor[float64](ptSR), y, y)
		var kp *KernelPanicError
		if out != nil || !errors.As(err, &kp) || !errors.Is(err, errPatternChanged) {
			t.Fatalf("%s: out=%v err=%v, want a KernelPanicError wrapping errPatternChanged", name, out != nil, err)
		}
	}
}

// offDiagonal is the n×n matrix whose entries are every (i, j) with
// i ≠ j, of value i+j+1.
func offDiagonal(n int) *sparse.CSR[float64] {
	idx, vals := make([][]int32, n), make([][]float64, n)
	for i := range n {
		for j := range n {
			if j != i {
				idx[i] = append(idx[i], int32(j))
				vals[i] = append(vals[i], float64(i+j+1))
			}
		}
	}
	return csrFromRows(n, n, idx, vals)
}

// fullMask is the n×n mask that admits every entry.
func fullMask(n int) *sparse.Pattern {
	idx := make([][]int32, n)
	for i := range n {
		for j := range n {
			idx[i] = append(idx[i], int32(j))
		}
	}
	return csrFromRows(n, n, idx, nil).PatternView()
}

// allOnesButLastRow is the n×n matrix of ones with its last row empty:
// offDiagonal(n)'s nnz in another structure.
func allOnesButLastRow(n int) *sparse.CSR[float64] {
	idx, vals := make([][]int32, n), make([][]float64, n)
	for i := range n - 1 {
		for j := range n {
			idx[i] = append(idx[i], int32(j))
			vals[i] = append(vals[i], 1)
		}
	}
	return csrFromRows(n, n, idx, vals)
}

// TestReplayedHitChangedStructure pins the contract of a hit that
// replays a product schedule on operands of the planned shapes and nnz
// but another structure: no panic and no read out of range. A = B = X,
// a permutation matrix, remembers the pattern of M ⊙ X², M full, one
// product per entry, so the plan keeps a schedule; Y, another
// permutation, puts every product off its known column. A replayed hit
// on Y returns the remembered pattern with the products of Y's values
// at X's value positions — entry i is Y's value i times Y's value
// x(i) — for every family and a Pull-only Hybrid.
func TestReplayedHitChangedStructure(t *testing.T) {
	x := csrFromRows(3, 3, [][]int32{{1}, {2}, {0}}, [][]float64{{1}, {2}, {3}})
	y := csrFromRows(3, 3, [][]int32{{2}, {0}, {1}}, [][]float64{{1}, {2}, {3}})
	mask := csrFromRows(3, 3, [][]int32{{0, 1, 2}, {0, 1, 2}, {0, 1, 2}}, nil).PatternView()
	want := []float64{1 * 2, 2 * 3, 3 * 1}
	for _, opt := range append(rememberSchemes(), Options{Algorithm: AlgoHybrid, HybridFamilies: Families(FamPull)}) {
		if opt.Algorithm == AlgoSaxpyThenMask {
			continue // direct: it never remembers
		}
		name := fmt.Sprintf("%v/families=%#x", opt.Algorithm, opt.HybridFamilies)
		for _, ph := range schemePhases(opt.Algorithm) {
			opt.Phases = ph
			plan, err := NewPlanCache(ptSR, 0).GetOrPlan(mask, x, x, opt)
			if err != nil {
				t.Fatal(err)
			}
			for range 2 {
				if _, err := plan.ExecuteOn(NewExecutor[float64](ptSR), x, x); err != nil {
					t.Fatalf("%s/%v: %v", name, ph, err)
				}
			}
			if ph == TwoPhase {
				if plan.fullHit.rec.Load() != nil {
					t.Fatalf("%s/%v: a two-phase plan remembered its pattern", name, ph)
				}
				continue
			}
			if plan.fullHit.rec.Load().tier() != tierReplay {
				t.Fatalf("%s/%v: no product schedule kept", name, ph)
			}
			out, err := plan.ExecuteOn(NewExecutor[float64](ptSR), y, y)
			if err != nil {
				t.Fatalf("%s/%v: %v, want no error", name, ph, err)
			}
			if !sharesPattern(plan, out) || !slices.Equal(out.Val, want) {
				t.Fatalf("%s/%v: values %v, want %v in the remembered pattern", name, ph, out.Val, want)
			}
		}
	}
}

// TestPlanHitRestValue: on a plain hit a product can land on a column
// outside its row's known set, and that column's value slot must end
// the row at the rest value, −0, bit for bit. Row 0 lands the product
// 5 on column 0, which its mask bans; row 1 knows column 0, and its
// only product there is 1·(−0). At one thread, one worker's
// accumulator serves both rows, and a cached plan's hit must emit −0
// there, as a fresh plan does, for every scheme and Hybrid menu. A
// cached plan over plusTimesTwin, the same algebra under another
// semiring type, never remembers: its three runs are first executions
// of the generic kernels, which must match too, and its cache entry
// holds no record and is charged nothing beyond the plan.
func TestPlanHitRestValue(t *testing.T) {
	a := csrFromRows(2, 2, [][]int32{{0}, {1}}, [][]float64{{1}, {1}})
	b := csrFromRows(2, 2, [][]int32{{0, 1}, {0}}, [][]float64{{5, 1}, {math.Copysign(0, -1)}})
	mask := csrFromRows(2, 2, [][]int32{{1}, {0}}, nil).PatternView()
	eo := ExecOptions{Threads: 1}
	for _, opt := range rememberSchemes() {
		want, err := MaskedSpGEMM(ptSR, mask, a, b, opt)
		if err != nil {
			t.Fatal(err)
		}
		if v := want.Val[1]; v != 0 || !math.Signbit(v) {
			t.Fatalf("%v: a fresh plan emits %v at (1, 0), want −0", opt.Algorithm, v)
		}
		check := func(kernels string, got *sparse.CSR[float64], err error, run int) {
			t.Helper()
			if err != nil {
				t.Fatalf("%v/%s run %d: %v", opt.Algorithm, kernels, run, err)
			}
			checkIdentical(t, fmt.Sprintf("%v/families=%#x/%s run %d", opt.Algorithm, opt.HybridFamilies, kernels, run), got, want)
		}
		plan, err := NewPlanCache(ptSR, 0).GetOrPlan(mask, a, b, opt)
		if err != nil {
			t.Fatal(err)
		}
		exec := NewExecutor[float64](ptSR)
		twinCache := NewPlanCache(plusTimesTwin{}, 0)
		twin, err := twinCache.GetOrPlan(mask, a, b, opt)
		if err != nil {
			t.Fatal(err)
		}
		foot := twinCache.Stats().Bytes
		twinExec := NewExecutor[float64](plusTimesTwin{})
		for run := range 3 {
			got, err := plan.ExecuteOnOpts(exec, a, b, eo)
			check("float64", got, err, run)
			got, err = twin.ExecuteOnOpts(twinExec, a, b, eo)
			check("generic", got, err, run)
		}
		if opt.Algorithm != AlgoSaxpyThenMask && plan.fullHit.rec.Load() == nil {
			t.Fatalf("%v: the third execution was not a hit", opt.Algorithm)
		}
		if twin.fullHit.rec.Load() != nil || twin.halfHit.rec.Load() != nil || twin.shared.Load() != nil {
			t.Fatalf("%v: a cached plan over another semiring remembered", opt.Algorithm)
		}
		if got := twinCache.Stats().Bytes; got != foot {
			t.Fatalf("%v: the other semiring's cache entry grew from %d to %d bytes", opt.Algorithm, foot, got)
		}
	}
}

// TestPlanHitGrowsNoSlab: a hit writes straight into the remembered
// pattern, so an executor that has served only hits — full and half,
// plain and complemented, for every family and Hybrid — never grows
// the one-phase slab.
func TestPlanHitGrowsNoSlab(t *testing.T) {
	g := symGraph(7, true, true)
	rect, ra, rb := buildCase(caseSpec{"", 96, 80, 300, 6, 8, 12, 7})
	cmask, ca, cb, _ := complDenseRowsProduct(256)
	for _, algo := range append(chaosFamilies, AlgoHybrid) {
		for _, c := range []struct {
			name       string
			mask       *sparse.Pattern
			a, b       *sparse.CSR[float64]
			complement bool
		}{
			{"half", g.PatternView(), g, g, false},
			{"full", rect, ra, rb, false},
			{"full-complement", cmask, ca, cb, true},
		} {
			if c.complement && !SupportsComplement(algo) {
				continue
			}
			name := fmt.Sprintf("%v/%s", algo, c.name)
			plan, err := NewPlanCache(ptSR, 0).GetOrPlan(c.mask, c.a, c.b, Options{Algorithm: algo, Complement: c.complement})
			if err != nil {
				t.Fatal(err)
			}
			for range 2 {
				if _, err := plan.ExecuteOn(NewExecutor[float64](ptSR), c.a, c.b); err != nil {
					t.Fatalf("%s: %v", name, err)
				}
			}
			exec := NewExecutor[float64](ptSR)
			for range 2 {
				if _, err := plan.ExecuteOnOpts(exec, c.a, c.b, ExecOptions{Threads: 2}); err != nil {
					t.Fatalf("%s: %v", name, err)
				}
			}
			hit := plan.fullHit.rec.Load() != nil && !ranHalf(exec)
			if kh := plan.halfHit.rec.Load(); c.name == "half" {
				hit = kh != nil && exec.hitRec == kh
			}
			if !hit {
				t.Fatalf("%s: the executions were not hits", name)
			}
			if es := &exec.scratch; es.tmpIdx != nil || es.tmpVal != nil {
				t.Fatalf("%s: an executor that served only hits grew a %d-entry slab", name, max(len(es.tmpIdx), len(es.tmpVal)))
			}
		}
	}
}

// TestPlanHitKindsAlternateInPlace runs one executor on one value array
// of a symmetric self-product, changed in place between executions to
// symmetric and asymmetric values in turn, after both kinds of record
// have published. Each hit must bind its own kind's record: on the
// sparse product that is one full-product record, which both kinds
// share, and the K₅ and R-MAT products keep a known half beside a
// full-product record that does not replay (the K₅ product's full
// product is just over the replay rule), which the executor's binding
// must tell apart (Executor.hitKernelFor). Every result must equal a
// fresh plan's bit for bit.
func TestPlanHitKindsAlternateInPlace(t *testing.T) {
	for _, c := range []struct {
		g         *sparse.CSR[float64]
		knownHalf bool
	}{{sparseSymGraph(128, 5), false}, {k5WithLoops(5), true}, {symGraph(7, true, true), true}} {
		g, opt := c.g, Options{Algorithm: AlgoHybrid}
		plan, err := NewPlanCache(ptSR, 0).GetOrPlan(g.PatternView(), g, g, opt)
		if err != nil {
			t.Fatal(err)
		}
		sym, asym := g.Val, withSpecialValues(g).Val
		x := &sparse.CSR[float64]{Pattern: g.Pattern, Val: slices.Clone(sym)}
		exec := NewExecutor[float64](ptSR)
		for run, vals := range [][]float64{sym, sym, asym, asym, sym, asym, sym, sym, asym, sym} {
			copy(x.Val, vals)
			half := &vals[0] == &sym[0]
			name := fmt.Sprintf("%d rows, %d entries, run %d (symmetric %v)", g.Rows, g.NNZ(), run, half)
			got, err := plan.ExecuteOnOpts(exec, x, x, ExecOptions{Threads: 2})
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			want, err := MaskedSpGEMM(ptSR, g.PatternView(), x, x, opt)
			if err != nil {
				t.Fatal(err)
			}
			checkIdentical(t, name, got, want)
			if run < 4 {
				continue
			}
			rec := plan.fullHit.rec.Load()
			if half {
				rec = plan.halfHit.rec.Load()
			}
			if rec == nil || exec.hitRec != rec {
				t.Fatalf("%s: the hit did not bind its kind's record", name)
			}
		}
		if kh, full := plan.halfHit.rec.Load(), plan.fullHit.rec.Load(); (kh == full) == c.knownHalf || (kh.half != nil) != c.knownHalf || full.half != nil || (full.tier() == tierReplay) == c.knownHalf {
			t.Fatalf("%d rows, %d entries: one-triangle record in tier %v with a known half %v, full-product record in tier %v with one %v, shared %v", g.Rows, g.NNZ(), kh.tier(), kh.half != nil, full.tier(), full.half != nil, kh == full)
		}
	}
}

// TestSharedRecordChecksNoValues publishes a sparse symmetric
// self-product's record from either kind first: two executions on
// symmetric values, or two on asymmetric ones. Either way the plan
// holds one full-product replay record for both kinds. Its hits on
// symmetric values, by value arrays that are not resident and then by
// one that is, run by that record without asking whether the values
// are symmetric (Plan.half): the executor binds no half, and the plan
// pins no value array as proved symmetric. Every hit equals a fresh
// plan's result bit for bit.
func TestSharedRecordChecksNoValues(t *testing.T) {
	g := sparseSymGraph(128, 11)
	asym := withSpecialValues(g)
	for _, symFirst := range []bool{true, false} {
		plan, err := NewPlanCache(ptSR, 0).GetOrPlan(g.PatternView(), g, g, Options{Algorithm: AlgoHybrid})
		if err != nil {
			t.Fatal(err)
		}
		first := g
		if !symFirst {
			first = asym
		}
		for range 2 {
			if _, err := plan.ExecuteOnOpts(NewExecutor[float64](ptSR), first, first, ExecOptions{Threads: 2}); err != nil {
				t.Fatal(err)
			}
		}
		rec := plan.fullHit.rec.Load()
		if rec == nil || rec != plan.halfHit.rec.Load() || rec.tier() != tierReplay {
			t.Fatalf("symFirst=%v: the two kinds do not share one replay record", symFirst)
		}
		for run, x := range []*sparse.CSR[float64]{g, withSymmetricSpecials(g), asym, g} {
			resident := run == 3
			name := fmt.Sprintf("symFirst=%v run %d (resident %v)", symFirst, run, resident)
			exec := NewExecutor[float64](ptSR)
			got, err := plan.ExecuteOnOpts(exec, x, x, ExecOptions{Threads: 2, Resident: resident})
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if exec.hitRec != rec || exec.lastHalf != nil || plan.symVals.Load() != nil {
				t.Fatalf("%s: bound record %v, half %v, proved values %v; want the shared record and no values check",
					name, exec.hitRec == rec, exec.lastHalf != nil, plan.symVals.Load() != nil)
			}
			want, err := MaskedSpGEMM(ptSR, g.PatternView(), x, x, Options{Algorithm: AlgoHybrid})
			if err != nil {
				t.Fatal(err)
			}
			checkIdentical(t, name, got, want)
		}
	}
}

// TestBothKindsPublishAtOnce counts one execution of each kind of a
// sparse symmetric self-product's cached plan, then starts both kinds'
// publishing executions at once, on symmetric and on asymmetric values
// (run it under -race), in several rounds. Both build the full
// product's record; the plan must keep one, for both kinds, and the
// cache and its budget must be charged exactly the plan, one pattern
// and one schedule. Every result equals a fresh plan's bit for bit.
func TestBothKindsPublishAtOnce(t *testing.T) {
	g := sparseSymGraph(128, 13)
	asym := withSpecialValues(g)
	opt := Options{Algorithm: AlgoHybrid}
	for round := range 8 {
		budget := NewMemBudget(0)
		cache := NewPlanCache(ptSR, 0)
		cache.AttachBudget(budget)
		plan, err := cache.GetOrPlan(g.PatternView(), g, g, opt)
		if err != nil {
			t.Fatal(err)
		}
		foot := budget.Used()
		values := []*sparse.CSR[float64]{g, asym}
		for _, x := range values {
			if _, err := plan.ExecuteOnOpts(NewExecutor[float64](ptSR), x, x, ExecOptions{}); err != nil {
				t.Fatal(err)
			}
		}
		outs := make([]*sparse.CSR[float64], len(values))
		errs := make([]error, len(values))
		start := make(chan struct{})
		var wg sync.WaitGroup
		for k, x := range values {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				outs[k], errs[k] = plan.ExecuteOnOpts(NewExecutor[float64](ptSR), x, x, ExecOptions{Threads: 1 + round%2})
			}()
		}
		close(start)
		wg.Wait()
		for k, x := range values {
			name := fmt.Sprintf("round %d, values %d", round, k)
			if errs[k] != nil {
				t.Fatalf("%s: %v", name, errs[k])
			}
			want, err := MaskedSpGEMM(ptSR, g.PatternView(), x, x, opt)
			if err != nil {
				t.Fatal(err)
			}
			checkIdentical(t, name, outs[k], want)
		}
		rec := plan.fullHit.rec.Load()
		if rec == nil || rec != plan.halfHit.rec.Load() || rec.tier() != tierReplay {
			t.Fatalf("round %d: the two kinds do not share one replay record", round)
		}
		want := patternBytes(outs[0]) + tierCharge(outs[0], g, g, false, false, true)
		if budget.Used() != foot+want || cache.Stats().Bytes != foot+want || rememberedBytes(plan) != want {
			t.Fatalf("round %d: budget %d, cache %d, remembered %d bytes, want %d over the %d-byte plan (one pattern, one schedule)",
				round, budget.Used(), cache.Stats().Bytes, rememberedBytes(plan), want, foot)
		}
	}
}
