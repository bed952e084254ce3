package core

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"maskedspgemm/internal/gen"
	"maskedspgemm/internal/semiring"
	"maskedspgemm/internal/sparse"
)

// polyDensities spans the §7 evaluation range of mask densities the
// parity sweep exercises (1e-4 is floored to one entry per row at
// small test dimensions).
var polyDensities = []float64{1e-4, 1e-3, 1e-2, 0.1, 0.5}

// polyTestPlan builds a hybrid plan directly (same package), so tests
// can inspect the run encoding.
func polyTestPlan(t *testing.T, mask *sparse.Pattern, a, b *sparse.CSR[float64], opt Options) *Plan[float64, semiring.PlusTimes[float64]] {
	t.Helper()
	opt.Algorithm = AlgoHybrid
	p, err := NewPlan(semiring.PlusTimes[float64]{}, mask, a, b, opt, nil)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestHybridPolyParity cross-validates mixed-family execution against
// the dense oracle across the mask-density sweep, plain and
// complemented — the parity guarantee for every family crossover the
// selector can take. Hybrid runs one-phase only, so each two-phase cell
// checks the refusal instead.
func TestHybridPolyParity(t *testing.T) {
	sr := semiring.PlusTimes[float64]{}
	const n = 120
	a := gen.Random(n, n, 12, 301)
	b := gen.Random(n, n, 12, 302)
	for _, density := range polyDensities {
		deg := int(density * n)
		if deg < 1 {
			deg = 1
		}
		mask := gen.Random(n, n, deg, 303+uint64(deg)).PatternView()
		for _, complement := range []bool{false, true} {
			want := oracle(mask, a, b, complement)
			for _, ph := range []Phases{OnePhase, TwoPhase} {
				name := fmt.Sprintf("density=%g/complement=%v/%v", density, complement, ph)
				t.Run(name, func(t *testing.T) {
					opt := Options{Algorithm: AlgoHybrid, Phases: ph, Complement: complement, Threads: 3}
					got, err := MaskedSpGEMM(sr, mask, a, b, opt)
					if rejectsTwoPhase(t, opt, err) {
						return
					}
					if err != nil {
						t.Fatal(err)
					}
					if err := got.Validate(); err != nil {
						t.Fatalf("invalid output: %v", err)
					}
					if d := sparse.Diff(want, got, floatEq); d != "" {
						t.Fatalf("mismatch vs oracle: %s", d)
					}
				})
			}
		}
	}
}

// TestHybridMixedRunsParity forces a genuinely mixed run encoding (a
// banded mask sweeping sparse to dense) and checks parity plus that
// more than one family was actually bound — the per-run dispatch must
// hand every row to its own family's kernels across run boundaries,
// whatever the scheduler's block layout.
func TestHybridMixedRunsParity(t *testing.T) {
	sr := semiring.PlusTimes[float64]{}
	const n = 160
	coo := sparse.NewCOO[float64](n, n, 0)
	rng := gen.NewRNG(65)
	for i := 0; i < n; i++ {
		deg := 1 // sparse band: pull territory
		if i >= n/2 {
			deg = n / 3 // dense band: push territory
		}
		for d := 0; d < deg; d++ {
			coo.Append(int32(i), int32(rng.Intn(n)), 1)
		}
	}
	maskM, err := coo.ToCSR(func(x, y float64) float64 { return x })
	if err != nil {
		t.Fatal(err)
	}
	mask := maskM.PatternView()
	a := gen.Random(n, n, 24, 66)
	b := gen.Random(n, n, 24, 67)
	p := polyTestPlan(t, mask, a, b, Options{})
	if len(p.runFam) < 2 {
		t.Fatalf("banded workload bound %d run(s) %v, want a mixed encoding", len(p.runFam), p.runFam)
	}
	want := oracle(mask, a, b, false)
	for _, threads := range []int{1, 2, 4, 16, 64} {
		got, err := MaskedSpGEMM(sr, mask, a, b, Options{Algorithm: AlgoHybrid, Threads: threads})
		if err != nil {
			t.Fatal(err)
		}
		if d := sparse.Diff(want, got, floatEq); d != "" {
			t.Fatalf("threads=%d: %s", threads, d)
		}
	}
}

// TestHybridMenu pins the menu and its registry contract: the default
// menu is the families that won a measured workload (DESIGN.md §10),
// every menu family's scheme has a complemented form (the selector binds
// the same menu under either mask mode), no plan binds a family off the
// menu, and a restriction to an off-menu family (MCA) falls back to MSA
// and stays correct, plain and complemented.
func TestHybridMenu(t *testing.T) {
	fams, models := hybridMenu(0)
	if got, want := fmt.Sprint(fams), fmt.Sprint([]Family{FamMSA, FamHash, FamHeap, FamPull, FamMaskedBit}); got != want {
		t.Fatalf("menu %s, want %s", got, want)
	}
	if len(models) != len(fams) {
		t.Fatalf("%d models for %d families", len(models), len(fams))
	}
	for _, f := range fams {
		if !SupportsComplement(famAlgo[f]) {
			t.Errorf("menu family %v has no complemented form", f)
		}
	}
	sr := semiring.PlusTimes[float64]{}
	for _, c := range testCases() {
		mask, a, b := buildCase(c)
		for _, complement := range []bool{false, true} {
			if p := polyTestPlan(t, mask, a, b, Options{Complement: complement}); p.polyFams.Has(FamMCA) {
				t.Fatalf("%s complement=%v: plan bound MCA (runs %v)", c.name, complement, p.runFam)
			}
		}
	}
	mask, a, b := buildCase(caseSpec{"", 64, 64, 64, 8, 8, 8, 310})
	for _, complement := range []bool{false, true} {
		opt := Options{Complement: complement, HybridFamilies: Families(FamMCA)}
		if got := polyTestPlan(t, mask, a, b, opt).polyFams; got != Families(FamMSA) {
			t.Fatalf("complement=%v: MCA-only plan bound %v, want the MSA fallback", complement, got)
		}
		opt.Algorithm = AlgoHybrid
		got, err := MaskedSpGEMM(sr, mask, a, b, opt)
		if err != nil {
			t.Fatal(err)
		}
		if d := sparse.Diff(oracle(mask, a, b, complement), got, floatEq); d != "" {
			t.Fatalf("complement=%v: fallback execution: %s", complement, d)
		}
	}
}

// TestHybridSingleFamilyAllocs is the executor-pooling guard: a poly
// plan that binds one family must materialize only that family's
// accumulator — zero extra allocations against the plain scheme's
// pooling behavior — and must skip the CSC transpose when no row
// bound pull.
func TestHybridSingleFamilyAllocs(t *testing.T) {
	mask, a, b := buildCase(caseSpec{"", 128, 128, 128, 8, 8, 8, 96})
	opt := Options{HybridFamilies: Families(FamMSA), Threads: 1, ReuseOutput: true}
	p := polyTestPlan(t, mask, a, b, opt)
	if len(p.btPtr) != 0 {
		t.Error("MSA-only poly plan built a CSC transpose")
	}
	if _, err := p.Execute(a, b); err != nil { // warm-up
		t.Fatal(err)
	}
	w := p.exec.worker(0)
	if w.msa == nil {
		t.Error("bound family's accumulator not materialized")
	}
	if w.hash != nil || w.mca != nil || w.heap != nil || w.msac != nil || w.hashC != nil || w.maskedBit != nil || w.maskedBitC != nil || w.pull != nil {
		t.Error("unbound families materialized accumulators")
	}
	allocs := testing.AllocsPerRun(10, func() {
		if _, err := p.Execute(a, b); err != nil {
			t.Fatal(err)
		}
	})
	// Same bound as TestPlanExecuteAllocs: the single-family poly
	// path must not allocate beyond the plain scheme's steady state.
	if allocs > 6 {
		t.Errorf("%.1f allocs per warm Execute, want ≤ 6", allocs)
	}
}

// TestHybridRunEncoding pins the run encoder: runs cover all rows in
// order, don't-care rows fold into their neighbors, and findRun
// agrees with the encoding.
func TestHybridRunEncoding(t *testing.T) {
	cases := []struct {
		fam      []uint8
		wantEnds []int32
		wantFams []uint8
	}{
		{[]uint8{0, 0, 1, 1, 1, 4}, []int32{2, 5, 6}, []uint8{0, 1, 4}},
		{[]uint8{famAny, famAny, 3, famAny, 0}, []int32{4, 5}, []uint8{3, 0}},
		{[]uint8{famAny, famAny}, []int32{2}, []uint8{uint8(FamMSA)}},
		{[]uint8{2}, []int32{1}, []uint8{2}},
	}
	for i, c := range cases {
		var p Plan[float64, semiring.PlusTimes[float64]]
		p.encodeRuns(append([]uint8(nil), c.fam...))
		if fmt.Sprint(p.runEnds) != fmt.Sprint(c.wantEnds) || fmt.Sprint(p.runFam) != fmt.Sprint(c.wantFams) {
			t.Errorf("case %d: runs (%v, %v), want (%v, %v)", i, p.runEnds, p.runFam, c.wantEnds, c.wantFams)
		}
		for row := 0; row < len(c.fam); row++ {
			r := findRun(p.runEnds, row)
			if r >= len(p.runEnds) || int(p.runEnds[r]) <= row || (r > 0 && int(p.runEnds[r-1]) > row) {
				t.Errorf("case %d: findRun(%d) = %d outside its run", i, row, r)
			}
		}
	}
}

// TestHybridFamilyRows checks the selector diagnostics: counts sum to
// the row count and reproduce the plan's actual binding.
func TestHybridFamilyRows(t *testing.T) {
	mask, a, b := buildCase(caseSpec{"", 96, 96, 96, 10, 10, 4, 320})
	counts := HybridFamilyRows(mask, a, b, Options{})
	total := 0
	for _, c := range counts {
		total += c
	}
	if total != mask.Rows {
		t.Fatalf("family rows sum to %d, want %d", total, mask.Rows)
	}
	p := polyTestPlan(t, mask, a, b, Options{})
	if fromRuns := p.FamilyRows(); counts != fromRuns {
		t.Fatalf("HybridFamilyRows %v disagrees with plan runs %v", counts, fromRuns)
	}
}

// TestHeapRowCostHonorsNInspect pins the model/kernels consistency
// the selector depends on: complemented heaps run without inspection
// (NInspect=0), so every candidate round-trips the heap, and the model
// must price that strictly above the NInspect=1 inspect-skip regime of
// plain heaps.
func TestHeapRowCostHonorsNInspect(t *testing.T) {
	ctx := RowCostContext{MaskNNZ: 4, ARowNNZ: 4, Flops: 4096, BColSum: 4 * 16, Cols: 4096}
	withInspect := heapRowCost(ctx)
	ctx.Complement = true
	withoutInspect := heapRowCost(ctx)
	if withoutInspect <= withInspect {
		t.Errorf("heapRowCost: NInspect=0 (%f) priced no higher than NInspect=1 (%f)", withoutInspect, withInspect)
	}
}

// TestPullRowCostHeavyColumns pins exact pull pricing. Row 0 has a = 2
// entries, selecting two 256-entry B rows, and its mask admits the 8 hub
// columns of B, each holding 512 entries, while B's mean column
// population is 8. Priced by the mean, its 8 dots look like 64 column
// reads against 512 push products; they really read the 4096 entries
// of the hub columns, so the row must not bind Pull.
func TestPullRowCostHeavyColumns(t *testing.T) {
	const n = 1024
	build := func(fill func(coo *sparse.COO[float64])) *sparse.CSR[float64] {
		coo := sparse.NewCOO[float64](n, n, 0)
		fill(coo)
		m, err := coo.ToCSR(func(x, y float64) float64 { return x + y })
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	b := build(func(coo *sparse.COO[float64]) {
		for i := 0; i < 512; i++ {
			for j := 0; j < 8; j++ {
				coo.Append(int32(i), int32(j), 1) // the hub columns
			}
		}
		for _, i := range []int32{1000, 1001} {
			for j := 8; j < 264; j++ {
				coo.Append(i, int32(j), 1) // the rows A_0* selects
			}
		}
		for i := 512; i < 960; i++ {
			for k := 0; k < 8; k++ {
				coo.Append(int32(i), int32(264+(8*i+k)%760), 1) // light filler
			}
		}
	})
	if mean := float64(b.NNZ()) / n; mean != 8 {
		t.Fatalf("B's mean column population is %g, want 8", mean)
	}
	a := build(func(coo *sparse.COO[float64]) {
		coo.Append(0, 1000, 1)
		coo.Append(0, 1001, 1)
	})
	mask := build(func(coo *sparse.COO[float64]) {
		for j := 0; j < 8; j++ {
			coo.Append(0, int32(j), 1)
		}
	}).PatternView()
	if rows := HybridFamilyRows(mask, a, b, Options{}); rows[FamPull] != 0 {
		t.Errorf("hub-column row bound Pull: family rows %v", rows)
	}
}

// TestPullRowCostPinnedRows pins the pull price on two measured rows.
// A dense band-7 row of sweep-cold-ref's banded masks (n = 2048, 806
// mask entries, a = 16, 272 flops) must price pull above the best push
// family already at BColSum = 0, so polyScan never walks its mask row
// for the sum: every request of that workload plans, and the dense
// bands hold most of nnz(M). A light half row of tc-skew-ref's
// self-product (hubs last, lower triangle: 7 mask entries, a = 21, 462
// clipped flops, BColSum 78) must bind Pull, which reads 78 B entries
// where MSA scans 462.
func TestPullRowCostPinnedRows(t *testing.T) {
	fams, models := hybridMenu(0)
	pullAt := slices.Index(fams, FamPull)
	bestPush := func(ctx RowCostContext) (Family, float64) {
		best, cost := FamMSA, math.Inf(1)
		for j, model := range models {
			if c := model(ctx); j != pullAt && c < cost {
				best, cost = fams[j], c
			}
		}
		return best, cost
	}
	band := RowCostContext{MaskNNZ: 806, ARowNNZ: 16, Flops: 272, Cols: 2048}
	if fam, push := bestPush(band); pullRowCost(band) <= push {
		t.Errorf("sweep band-7 row: pull at BColSum = 0 prices %.0f, not above %v's %.0f, so its mask row is walked", pullRowCost(band), fam, push)
	}
	half := RowCostContext{MaskNNZ: 7, ARowNNZ: 21, Flops: 462, BColSum: 78, Cols: 4096}
	if fam, push := bestPush(half); pullRowCost(half) >= push {
		t.Errorf("tc-skew half row: pull prices %.0f, not below %v's %.0f", pullRowCost(half), fam, push)
	}
}

// TestFamiliesRejectsInvalid pins that a typo'd family panics instead
// of silently vanishing from the set (which would degrade to the
// MSA-only fallback with no signal).
func TestFamiliesRejectsInvalid(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Families(NumFamilies) did not panic")
		}
	}()
	Families(NumFamilies)
}

// TestHybridSchedProfileShared checks the poly selector's chosen
// costs feed the scheduler: a poly plan's retained profile is the
// selector's per-row chosen costs, and on a hub-dominated mask its
// partitions split the hub rows apart.
func TestHybridSchedProfileShared(t *testing.T) {
	const n = 256
	coo := sparse.NewCOO[float64](n, n, 0)
	rng := gen.NewRNG(77)
	for i := 0; i < n; i++ {
		deg := 1
		if i >= n-8 {
			deg = n / 2 // a few hub mask rows dominate the cost
		}
		for d := 0; d < deg; d++ {
			coo.Append(int32(i), int32(rng.Intn(n)), 1)
		}
	}
	maskM, err := coo.ToCSR(func(x, y float64) float64 { return x })
	if err != nil {
		t.Fatal(err)
	}
	a := gen.Random(n, n, 16, 78)
	p := polyTestPlan(t, maskM.PatternView(), a, a, Options{Threads: 4})
	fam, cost := make([]uint8, n), make([]int64, n)
	polyScan(maskRows{mask: p.mask}, a, a, p.opt, fam, cost)
	for i, c := range cost {
		if got := p.costPrefix[i+1] - p.costPrefix[i]; got != c {
			t.Fatalf("row %d: scheduling cost %d, selector's chosen cost %d", i, got, c)
		}
	}
	bounds := partitions(p.costPrefix, 4, nil)
	if cut, _ := slices.BinarySearch(bounds, n-8); len(bounds)-1-cut < 2 {
		t.Errorf("the 8 hub rows share one partition: bounds %v", bounds)
	}
}
