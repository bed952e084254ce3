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

// TestFamilyBitPositionsPinned pins every family's numeric value and
// therefore its FamilySet bit position. Options.HybridFamilies is part
// of the plan-cache key and is serialized by clients through
// WithHybridFamilies, so a new family must extend the enum — never
// renumber it. If this test fails, the fix is to move the new family
// to the end of the enum, not to update the expectations.
func TestFamilyBitPositionsPinned(t *testing.T) {
	pinned := map[Family]uint8{
		FamMSA:       0,
		FamHash:      1,
		FamMCA:       2,
		FamHeap:      3,
		FamPull:      4,
		FamMaskedBit: 5,
	}
	if int(NumFamilies) != len(pinned) {
		t.Fatalf("NumFamilies = %d, want %d", NumFamilies, len(pinned))
	}
	for f, want := range pinned {
		if uint8(f) != want {
			t.Errorf("%v = %d, want pinned value %d", f, uint8(f), want)
		}
		if got := Families(f); got != 1<<want {
			t.Errorf("Families(%v) = %#x, want bit %d", f, got, want)
		}
	}
}

// TestMaskedBitDensityParity cross-validates AlgoMaskedBit against the
// dense oracle across the mask-density sweep, plain and complemented —
// the direct-scheme counterpart of the hybrid parity sweep. MaskedBit
// runs one-phase only, so each two-phase cell checks the refusal
// instead.
func TestMaskedBitDensityParity(t *testing.T) {
	sr := semiring.PlusTimes[float64]{}
	const n = 120
	a := gen.Random(n, n, 12, 501)
	b := gen.Random(n, n, 12, 502)
	for _, density := range polyDensities {
		deg := int(density * n)
		if deg < 1 {
			deg = 1
		}
		mask := gen.Random(n, n, deg, 503+uint64(deg)).PatternView()
		for _, complement := range []bool{false, true} {
			want := oracle(mask, a, b, complement)
			for _, ph := range []Phases{OnePhase, TwoPhase} {
				name := fmt.Sprintf("density=%g/complement=%v/%v", density, complement, ph)
				t.Run(name, func(t *testing.T) {
					opt := Options{Algorithm: AlgoMaskedBit, Phases: ph, Complement: complement, Threads: 3}
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

// TestHybridMaskedBitComplementBinding pins the complement-path rule:
// a complemented plan restricted to FamMaskedBit binds it (MaskedBit
// is complement-capable, so no MSA fallback fires), the executor
// materializes only the complemented variant — proof the binding went
// through bindMaskedBitC and not the plain kernels — and the result
// matches the oracle.
func TestHybridMaskedBitComplementBinding(t *testing.T) {
	sr := semiring.PlusTimes[float64]{}
	mask, a, b := buildCase(caseSpec{"", 96, 96, 96, 8, 8, 8, 510})
	opt := Options{Complement: true, HybridFamilies: Families(FamMaskedBit), Threads: 1}
	p := polyTestPlan(t, mask, a, b, opt)
	if got := p.polyFams; got != Families(FamMaskedBit) {
		t.Fatalf("MaskedBit-only complement plan bound %v, want MaskedBit", got)
	}
	rows := p.FamilyRows()
	if rows[FamMaskedBit] != mask.Rows {
		t.Fatalf("FamilyRows = %v, want all %d rows on MaskedBit", rows, mask.Rows)
	}
	if _, err := p.Execute(a, b); err != nil {
		t.Fatal(err)
	}
	w := p.exec.worker(0)
	if w.maskedBitC == nil {
		t.Error("complemented binding did not materialize MaskedBitC")
	}
	if w.maskedBit != nil {
		t.Error("complemented binding materialized the plain MaskedBit")
	}
	opt.Algorithm = AlgoHybrid
	got, err := MaskedSpGEMM(sr, mask, a, b, opt)
	if err != nil {
		t.Fatal(err)
	}
	if d := sparse.Diff(oracle(mask, a, b, true), got, floatEq); d != "" {
		t.Fatalf("complemented MaskedBit-only execution: %s", d)
	}
}

// TestMaskedBitSingleFamilyAllocs mirrors TestHybridSingleFamilyAllocs
// for the new family: a MaskedBit-only poly plan materializes only the
// MaskedBit accumulator, skips the CSC transpose, and stays within the
// plain scheme's steady-state allocation bound.
func TestMaskedBitSingleFamilyAllocs(t *testing.T) {
	mask, a, b := buildCase(caseSpec{"", 128, 128, 128, 8, 8, 8, 97})
	opt := Options{HybridFamilies: Families(FamMaskedBit), Threads: 1, ReuseOutput: true}
	p := polyTestPlan(t, mask, a, b, opt)
	if len(p.btPtr) != 0 {
		t.Error("MaskedBit-only poly plan built a CSC transpose")
	}
	if _, err := p.Execute(a, b); err != nil { // warm-up
		t.Fatal(err)
	}
	w := p.exec.worker(0)
	if w.maskedBit == nil {
		t.Error("bound family's accumulator not materialized")
	}
	if w.msa != nil || w.hash != nil || w.mca != nil || w.heap != nil || w.msac != nil || w.hashC != nil || w.maskedBitC != nil {
		t.Error("unbound families materialized accumulators")
	}
	allocs := testing.AllocsPerRun(10, func() {
		if _, err := p.Execute(a, b); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 6 {
		t.Errorf("%.1f allocs per warm Execute, want ≤ 6", allocs)
	}
}

// TestMaskedBitRowCostCrossover pins the selector economics DESIGN.md
// §12 documents: on walk-dominated rows (dense mask, modest flops)
// MaskedBit must price below MSA; on flops-dominated rows (tiny mask,
// heavy generation) MSA must stay cheaper, so the bitmap family never
// simply shadows it.
func TestMaskedBitRowCostCrossover(t *testing.T) {
	dense := RowCostContext{MaskNNZ: 512, ARowNNZ: 8, Flops: 64, BColSum: 512 * 8, Cols: 4096}
	if mb, msa := maskedBitRowCost(dense), msaRowCost(dense); mb >= msa {
		t.Errorf("dense-mask row: MaskedBit %.1f not cheaper than MSA %.1f", mb, msa)
	}
	flopsHeavy := RowCostContext{MaskNNZ: 4, ARowNNZ: 64, Flops: 8192, BColSum: 4 * 128, Cols: 4096}
	if mb, msa := maskedBitRowCost(flopsHeavy), msaRowCost(flopsHeavy); mb <= msa {
		t.Errorf("flops-heavy row: MaskedBit %.1f not dearer than MSA %.1f", mb, msa)
	}
}

// TestMaskedBitRowCostComplementCrossover pins the complemented models
// on a row wider than msaCacheCols, where the cold-line penalty is
// decided by the spacing of the touched keys, which under a complement
// are the outputs, not the mask entries. A sparse mask row with a dense
// output keeps the dense arrays hot, so MSA and MaskedBit must price
// below Hash, and MaskedBit's word walk below MSA's sort. A sparse
// output pays cold lines, so Hash's compact table must win.
func TestMaskedBitRowCostComplementCrossover(t *testing.T) {
	const cols = 1 << 17
	denseOut := RowCostContext{MaskNNZ: 4, ARowNNZ: 64, Flops: 1 << 18, BColSum: (cols - 4) * 4, Cols: cols, Complement: true}
	mb, msa, hash := maskedBitRowCost(denseOut), msaRowCost(denseOut), hashRowCost(denseOut)
	if msa >= hash {
		t.Errorf("dense-output row: MSA %.1f not cheaper than Hash %.1f", msa, hash)
	}
	if mb >= msa {
		t.Errorf("dense-output row: MaskedBit %.1f not cheaper than MSA %.1f", mb, msa)
	}
	sparseOut := RowCostContext{MaskNNZ: 4, ARowNNZ: 8, Flops: 64, BColSum: (cols - 4) * 4, Cols: cols, Complement: true}
	mb, msa, hash = maskedBitRowCost(sparseOut), msaRowCost(sparseOut), hashRowCost(sparseOut)
	if hash >= msa || hash >= mb {
		t.Errorf("sparse-output row: Hash %.1f not cheaper than MSA %.1f and MaskedBit %.1f", hash, msa, mb)
	}
}

// TestComplementNegativeZeroEveryFamily multiplies A = [−0] (1×1) by a
// 1×3 B under the complement of a one-entry mask: the two admitted
// entries' only products are −0, and every complemented family and
// Hybrid menu, over the float64 plus-times kernels and the generic
// ones, in every phase it runs, must emit −0 for both, as must a cached
// plan's second and third executions, which remember the pattern and
// then run the hit's push or Pull kernel.
func TestComplementNegativeZeroEveryFamily(t *testing.T) {
	a := csrFromRows(1, 1, [][]int32{{0}}, [][]float64{{math.Copysign(0, -1)}})
	b := csrFromRows(1, 3, [][]int32{{0, 1, 2}}, [][]float64{{1, 2, 3}})
	mask := csrFromRows(1, 3, [][]int32{{1}}, nil).PatternView()
	check := func(name string, got *sparse.CSR[float64], err error) {
		t.Helper()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !slices.Equal(got.ColIdx, []int32{0, 2}) {
			t.Fatalf("%s: columns %v, want [0 2]", name, got.ColIdx)
		}
		for q, v := range got.Val {
			if !math.Signbit(v) || v != 0 {
				t.Errorf("%s: column %d = %v (%#x), want −0", name, got.ColIdx[q], v, math.Float64bits(v))
			}
		}
	}
	for _, scheme := range rememberSchemes() {
		if !SupportsComplement(scheme.Algorithm) {
			continue
		}
		for _, ph := range schemePhases(scheme.Algorithm) {
			opt := scheme
			opt.Complement, opt.Phases = true, ph
			name := fmt.Sprintf("%s/families=%#x", opt.SchemeName(), opt.HybridFamilies)
			got, err := MaskedSpGEMM(plusTimesTwin{}, mask, a, b, opt)
			check(name+"/generic", got, err)
			plan, err := NewPlanCache(ptSR, 0).GetOrPlan(mask, a, b, opt)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			exec := NewExecutor[float64](ptSR)
			for run := range 3 {
				got, err := plan.ExecuteOn(exec, a, b)
				check(fmt.Sprintf("%s/cached run %d", name, run), got, err)
			}
		}
	}
}
