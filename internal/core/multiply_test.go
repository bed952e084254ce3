package core

import (
	"fmt"
	"strings"
	"testing"

	"maskedspgemm/internal/gen"
	"maskedspgemm/internal/semiring"
	"maskedspgemm/internal/sparse"
)

var floatEq = sparse.FloatEq(1e-9)

// schemePhases lists the phases algo runs: both for the paper's
// schemes, one-phase only for every other (SchemeInfo.Paper).
func schemePhases(algo Algorithm) []Phases {
	if s, _ := LookupScheme(algo); s.Paper {
		return []Phases{OnePhase, TwoPhase}
	}
	return []Phases{OnePhase}
}

// rejectsTwoPhase reports whether opt asks two-phase of a scheme that
// runs one-phase only (SchemeInfo.Paper unset), and fails t unless err
// is the registry's error naming the scheme. Tables that cross every
// scheme with both phases use it, so each cell checks either a product
// or this refusal.
func rejectsTwoPhase(t *testing.T, opt Options, err error) bool {
	t.Helper()
	info, _ := LookupScheme(opt.Algorithm)
	if opt.Phases != TwoPhase || info.Paper {
		return false
	}
	if err == nil {
		t.Fatalf("%s: want the one-phase-only error, got success", opt.SchemeName())
	}
	if !strings.Contains(err.Error(), info.Name+" runs one-phase only") {
		t.Fatalf("%s: error %q does not name the scheme as one-phase only", opt.SchemeName(), err)
	}
	return true
}

// allOptions enumerates every algorithm × phase combination; the ones
// that do not run are for rejectsTwoPhase.
func allOptions() []Options {
	var opts []Options
	for _, algo := range Algorithms() {
		for _, ph := range []Phases{OnePhase, TwoPhase} {
			opts = append(opts, Options{Algorithm: algo, Phases: ph})
		}
	}
	return opts
}

// oracle computes the ground truth with the dense reference.
func oracle(mask *sparse.Pattern, a, b *sparse.CSR[float64], complement bool) *sparse.CSR[float64] {
	sr := semiring.PlusTimes[float64]{}
	return sparse.DenseMaskedMultiply(mask, a, b, complement, sr.Add, sr.Mul, sr.Zero())
}

type caseSpec struct {
	name       string
	m, k, n    int
	dA, dB, dM int
	seed       uint64
}

func testCases() []caseSpec {
	return []caseSpec{
		{"square-balanced", 64, 64, 64, 8, 8, 8, 1},
		{"square-dense-mask", 48, 48, 48, 4, 4, 24, 2},
		{"square-sparse-mask", 80, 80, 80, 16, 16, 2, 3},
		{"rect-wide", 40, 96, 160, 6, 12, 10, 4},
		{"rect-tall", 160, 48, 32, 5, 7, 6, 5},
		{"tiny", 3, 4, 5, 2, 2, 2, 6},
		{"dense-inputs", 32, 32, 32, 24, 24, 8, 7},
		{"single-row", 1, 50, 50, 10, 5, 10, 8},
		{"single-col", 50, 50, 1, 5, 1, 1, 9},
	}
}

func buildCase(c caseSpec) (*sparse.Pattern, *sparse.CSR[float64], *sparse.CSR[float64]) {
	a := gen.Random(c.m, c.k, c.dA, c.seed*1000+1)
	b := gen.Random(c.k, c.n, c.dB, c.seed*1000+2)
	mask := gen.Random(c.m, c.n, c.dM, c.seed*1000+3).PatternView()
	return mask, a, b
}

// TestMaskedSpGEMMAgainstOracle cross-validates every algorithm and
// phase combination that runs, plain and complemented, on a spread of
// shapes and densities, and checks the rest are refused.
func TestMaskedSpGEMMAgainstOracle(t *testing.T) {
	sr := semiring.PlusTimes[float64]{}
	for _, c := range testCases() {
		mask, a, b := buildCase(c)
		for _, complement := range []bool{false, true} {
			want := oracle(mask, a, b, complement)
			for _, opt := range allOptions() {
				opt.Complement = complement
				if complement && !SupportsComplement(opt.Algorithm) {
					continue
				}
				name := fmt.Sprintf("%s/%s/complement=%v", c.name, opt.SchemeName(), complement)
				t.Run(name, func(t *testing.T) {
					got, err := MaskedSpGEMM(sr, mask, a, b, opt)
					if rejectsTwoPhase(t, opt, err) {
						return
					}
					if err != nil {
						t.Fatalf("MaskedSpGEMM: %v", err)
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

// TestMaskedSpGEMMThreadInvariance checks results are identical across
// thread counts, and so across partition layouts — from 32 partitions
// of four rows to one row each (rows are independent, so outputs must
// be bit-for-bit equal).
func TestMaskedSpGEMMThreadInvariance(t *testing.T) {
	sr := semiring.PlusTimes[float64]{}
	mask, a, b := buildCase(caseSpec{"", 128, 128, 128, 8, 8, 8, 42})
	for _, algo := range Algorithms() {
		for _, complement := range []bool{false, true} {
			if complement && !SupportsComplement(algo) {
				continue
			}
			base, err := MaskedSpGEMM(sr, mask, a, b, Options{Algorithm: algo, Threads: 1, Complement: complement})
			if err != nil {
				t.Fatalf("%v: %v", algo, err)
			}
			for _, threads := range []int{2, 3, 7, 8, 32, 64} {
				got, err := MaskedSpGEMM(sr, mask, a, b, Options{
					Algorithm: algo, Threads: threads, Complement: complement,
				})
				if err != nil {
					t.Fatalf("%v threads=%d: %v", algo, threads, err)
				}
				if !sparse.EqualFunc(base, got, func(x, y float64) bool { return x == y }) {
					t.Fatalf("%v complement=%v: result differs at threads=%d",
						algo, complement, threads)
				}
			}
		}
	}
}

// TestMaskedSpGEMMEmptyOperands exercises empty masks, empty inputs,
// and empty intersections.
func TestMaskedSpGEMMEmptyOperands(t *testing.T) {
	sr := semiring.PlusTimes[float64]{}
	a := gen.Random(20, 30, 4, 11)
	b := gen.Random(30, 25, 4, 12)
	emptyMask := &sparse.Pattern{Rows: 20, Cols: 25, RowPtr: make([]int64, 21)}
	emptyA := sparse.NewCSR[float64](20, 30)
	emptyB := sparse.NewCSR[float64](30, 25)
	fullMask := gen.Random(20, 25, 25, 13).PatternView()

	for _, opt := range allOptions() {
		t.Run(opt.SchemeName(), func(t *testing.T) {
			got, err := MaskedSpGEMM(sr, emptyMask, a, b, opt)
			if rejectsTwoPhase(t, opt, err) {
				return
			}
			if err != nil {
				t.Fatalf("empty mask: %v", err)
			}
			if got.NNZ() != 0 {
				t.Errorf("empty mask: want 0 nnz, got %d", got.NNZ())
			}
			got, err = MaskedSpGEMM(sr, fullMask, emptyA, b, opt)
			if err != nil {
				t.Fatalf("empty A: %v", err)
			}
			if got.NNZ() != 0 {
				t.Errorf("empty A: want 0 nnz, got %d", got.NNZ())
			}
			got, err = MaskedSpGEMM(sr, fullMask, a, emptyB, opt)
			if err != nil {
				t.Fatalf("empty B: %v", err)
			}
			if got.NNZ() != 0 {
				t.Errorf("empty B: want 0 nnz, got %d", got.NNZ())
			}
			if err := got.Validate(); err != nil {
				t.Fatalf("invalid empty result: %v", err)
			}
		})
	}
}

// TestMaskedSpGEMMDimensionErrors verifies shape validation.
func TestMaskedSpGEMMDimensionErrors(t *testing.T) {
	sr := semiring.PlusTimes[float64]{}
	a := gen.Random(10, 20, 3, 1)
	b := gen.Random(20, 15, 3, 2)
	badMask := gen.Random(10, 14, 3, 3).PatternView() // wrong cols
	if _, err := MaskedSpGEMM(sr, badMask, a, b, Options{}); err == nil {
		t.Error("want error for mask shape mismatch")
	}
	badB := gen.Random(21, 15, 3, 4) // wrong inner dim
	mask := gen.Random(10, 15, 3, 5).PatternView()
	if _, err := MaskedSpGEMM(sr, mask, a, badB, Options{}); err == nil {
		t.Error("want error for inner dimension mismatch")
	}
}

// TestMCARejectsComplement checks MCA reports the documented
// limitation.
func TestMCARejectsComplement(t *testing.T) {
	sr := semiring.PlusTimes[float64]{}
	a := gen.Random(10, 10, 3, 1)
	mask := gen.Random(10, 10, 3, 2).PatternView()
	_, err := MaskedSpGEMM(sr, mask, a, a, Options{Algorithm: AlgoMCA, Complement: true})
	if err == nil {
		t.Fatal("want error: MCA does not support complemented masks")
	}
}

// TestMaskedSpGEMMSemirings validates a non-arithmetic semiring
// (plus-pair) against a dense oracle using the same algebra.
func TestMaskedSpGEMMSemirings(t *testing.T) {
	sr := semiring.PlusPair[int64]{}
	af := gen.Random(40, 40, 6, 21)
	a := &sparse.CSR[int64]{Pattern: af.Pattern, Val: make([]int64, len(af.Val))}
	for i := range a.Val {
		a.Val[i] = 7 // arbitrary: PlusPair must ignore values
	}
	mask := gen.Random(40, 40, 6, 22).PatternView()
	want := sparse.DenseMaskedMultiply(mask, a, a, false, sr.Add, sr.Mul, sr.Zero())
	for _, opt := range allOptions() {
		got, err := MaskedSpGEMM(sr, mask, a, a, opt)
		if rejectsTwoPhase(t, opt, err) {
			continue
		}
		if err != nil {
			t.Fatalf("%s: %v", opt.SchemeName(), err)
		}
		if !sparse.Equal(want, got) {
			t.Fatalf("%s: plus-pair mismatch: %s", opt.SchemeName(),
				sparse.Diff(want, got, func(x, y int64) bool { return x == y }))
		}
	}
}

// TestHeapNInspectVariants checks every NInspect the heap schemes
// resolve from the algorithm against the oracle, in every phase each
// runs: Heap (1), HeapDot (∞), both complemented (0, their own
// kernels), and Hybrid's heap rows (1).
func TestHeapNInspectVariants(t *testing.T) {
	sr := semiring.PlusTimes[float64]{}
	mask, a, b := buildCase(caseSpec{"", 60, 60, 60, 10, 10, 6, 77})
	heapRows := Options{Algorithm: AlgoHybrid, HybridFamilies: Families(FamHeap)}
	p, err := NewPlan(sr, mask, a, b, heapRows, nil)
	if err != nil {
		t.Fatal(err)
	}
	if p.polyFams != Families(FamHeap) {
		t.Fatalf("Hybrid restricted to Heap bound %v", p.polyFams)
	}
	for _, complement := range []bool{false, true} {
		want := oracle(mask, a, b, complement)
		for _, base := range []Options{{Algorithm: AlgoHeap}, {Algorithm: AlgoHeapDot}, heapRows} {
			for _, ph := range schemePhases(base.Algorithm) {
				opt := base
				opt.Phases, opt.Complement = ph, complement
				got, err := MaskedSpGEMM(sr, mask, a, b, opt)
				if err != nil {
					t.Fatalf("%s complement=%v: %v", opt.SchemeName(), complement, err)
				}
				if d := sparse.Diff(want, got, floatEq); d != "" {
					t.Fatalf("%s complement=%v: %s", opt.SchemeName(), complement, d)
				}
			}
		}
	}
}

// TestHeapVsHeapDotDiffer pins the two heap algorithms, the only
// NInspect settings the paper evaluates (§5.5): Heap inspects one mask
// element (NInspect=1), HeapDot the whole remaining mask (NInspect=∞).
func TestHeapVsHeapDotDiffer(t *testing.T) {
	// Construct a case where inspection provably drops iterators:
	// mask admits only low columns; B rows extend far beyond. Both
	// algorithms must be correct.
	sr := semiring.PlusTimes[float64]{}
	mask, a, b := buildCase(caseSpec{"", 50, 50, 50, 12, 12, 3, 79})
	want := oracle(mask, a, b, false)
	for _, opt := range []Options{
		{Algorithm: AlgoHeap},
		{Algorithm: AlgoHeapDot},
	} {
		got, err := MaskedSpGEMM(sr, mask, a, b, opt)
		if err != nil {
			t.Fatal(err)
		}
		if d := sparse.Diff(want, got, floatEq); d != "" {
			t.Fatalf("%s: %s", opt.SchemeName(), d)
		}
	}
}

// TestHashLoadFactors checks the hash accumulators at their fixed load
// factors (0.25 plain, 0.5 complemented) on masks whose rows hold
// exactly 4, 8, 16 and 32 entries: 16 and 32 fill the plain table to
// exactly its load factor, the longest probe chains it ever sees, and
// 4 and 8 sit under the 16-slot floor.
func TestHashLoadFactors(t *testing.T) {
	sr := semiring.PlusTimes[float64]{}
	const n = 64
	a := gen.Random(n, n, 10, 78001)
	b := gen.Random(n, n, 10, 78002)
	for _, r := range []int{4, 8, 16, 32} {
		coo := sparse.NewCOO[float64](n, n, n*r)
		for i := 0; i < n; i++ {
			for j := 0; j < r; j++ {
				coo.Append(int32(i), int32((i+j*(n/r))%n), 1)
			}
		}
		m, err := coo.ToCSR(func(x, _ float64) float64 { return x })
		if err != nil {
			t.Fatal(err)
		}
		mask := m.PatternView()
		for i := 0; i < n; i++ {
			if got := len(mask.Row(i)); got != r {
				t.Fatalf("row %d holds %d mask entries, want %d", i, got, r)
			}
		}
		for _, complement := range []bool{false, true} {
			want := oracle(mask, a, b, complement)
			for _, ph := range []Phases{OnePhase, TwoPhase} {
				opt := Options{Algorithm: AlgoHash, Phases: ph, Complement: complement}
				got, err := MaskedSpGEMM(sr, mask, a, b, opt)
				if err != nil {
					t.Fatalf("row length %d, %s complement=%v: %v", r, opt.SchemeName(), complement, err)
				}
				if d := sparse.Diff(want, got, floatEq); d != "" {
					t.Fatalf("row length %d, %s complement=%v: %s", r, opt.SchemeName(), complement, d)
				}
			}
		}
	}
}

// TestSpGEMMUnmasked validates the plain SpGEMM substrate against a
// dense multiply (via a full mask, which admits everything).
func TestSpGEMMUnmasked(t *testing.T) {
	sr := semiring.PlusTimes[float64]{}
	a := gen.Random(50, 60, 8, 31)
	b := gen.Random(60, 40, 8, 32)
	// A full mask makes DenseMaskedMultiply compute the plain product.
	full := &sparse.Pattern{Rows: 50, Cols: 40, RowPtr: make([]int64, 51)}
	for i := 0; i < 50; i++ {
		for j := 0; j < 40; j++ {
			full.ColIdx = append(full.ColIdx, int32(j))
		}
		full.RowPtr[i+1] = int64(len(full.ColIdx))
	}
	want := sparse.DenseMaskedMultiply(full, a, b, false, sr.Add, sr.Mul, sr.Zero())
	for _, ph := range []Phases{OnePhase, TwoPhase} {
		got, err := SpGEMM(sr, a, b, Options{Phases: ph})
		if err != nil {
			t.Fatalf("SpGEMM: %v", err)
		}
		if d := sparse.Diff(want, got, floatEq); d != "" {
			t.Fatalf("phases=%v: %s", ph, d)
		}
	}
	if _, err := SpGEMM(sr, a, gen.Random(61, 40, 3, 33), Options{}); err == nil {
		t.Error("want inner-dimension error")
	}
}

// TestSpGEMMThreadInvariance checks unmasked SpGEMM, whose partitions
// are cut from its per-row flops prefix, against the dense product at
// one thread and bit-for-bit across widths, in both phase forms, on a
// planted hub cluster: the hub rows are cut off from the cheap rows and
// the cheap stretch is split, so every width claims a different layout.
func TestSpGEMMThreadInvariance(t *testing.T) {
	sr := semiring.PlusTimes[float64]{}
	_, a, b := skewedCase(300, 300, 3)
	full := &sparse.Pattern{Rows: a.Rows, Cols: b.Cols, RowPtr: make([]int64, a.Rows+1)}
	for i := 0; i < a.Rows; i++ {
		for j := 0; j < b.Cols; j++ {
			full.ColIdx = append(full.ColIdx, int32(j))
		}
		full.RowPtr[i+1] = int64(len(full.ColIdx))
	}
	want := sparse.DenseMaskedMultiply(full, a, b, false, sr.Add, sr.Mul, sr.Zero())
	for _, ph := range []Phases{OnePhase, TwoPhase} {
		base, err := SpGEMM(sr, a, b, Options{Phases: ph, Threads: 1})
		if err != nil {
			t.Fatalf("phases=%v: %v", ph, err)
		}
		if d := sparse.Diff(want, base, floatEq); d != "" {
			t.Fatalf("phases=%v threads=1: %s", ph, d)
		}
		for _, threads := range []int{2, 3, 4, 8, 64} {
			got, err := SpGEMM(sr, a, b, Options{Phases: ph, Threads: threads})
			if err != nil {
				t.Fatalf("phases=%v threads=%d: %v", ph, threads, err)
			}
			if !sparse.EqualFunc(base, got, func(x, y float64) bool { return x == y }) {
				t.Fatalf("phases=%v: result differs at threads=%d", ph, threads)
			}
		}
	}
}

// TestExplicitZerosKept pins GraphBLAS semantics: an output entry
// exists when products were accumulated there, even if they cancel to
// numeric zero (§5.1's SET state is about insertion, not value).
func TestExplicitZerosKept(t *testing.T) {
	sr := semiring.PlusTimes[float64]{}
	// A = [1 -1], B = [[1],[1]] → (A·B)₀₀ = 0 via cancellation.
	a, _ := sparse.FromRows(1, 2, map[int]map[int]float64{0: {0: 1, 1: -1}})
	b, _ := sparse.FromRows(2, 1, map[int]map[int]float64{0: {0: 1}, 1: {0: 1}})
	mask, _ := sparse.FromRows(1, 1, map[int]map[int]float64{0: {0: 1}})
	for _, opt := range allOptions() {
		got, err := MaskedSpGEMM(sr, mask.PatternView(), a, b, opt)
		if rejectsTwoPhase(t, opt, err) {
			continue
		}
		if err != nil {
			t.Fatalf("%s: %v", opt.SchemeName(), err)
		}
		if got.NNZ() != 1 {
			t.Errorf("%s: cancelled entry dropped (nnz=%d, want explicit zero kept)", opt.SchemeName(), got.NNZ())
			continue
		}
		if v, ok := got.At(0, 0); !ok || v != 0 {
			t.Errorf("%s: entry = %v, %v; want explicit 0", opt.SchemeName(), v, ok)
		}
	}
}

// TestFlopsCounts checks the flop counters on a hand-computable case.
func TestFlopsCounts(t *testing.T) {
	// A = [[1,1],[0,1]], B = [[1,0],[1,1]] (as patterns with values 1).
	a, _ := sparse.FromRows(2, 2, map[int]map[int]float64{0: {0: 1, 1: 1}, 1: {1: 1}})
	b, _ := sparse.FromRows(2, 2, map[int]map[int]float64{0: {0: 1}, 1: {0: 1, 1: 1}})
	if got := Flops(a, b); got != 5 {
		t.Errorf("Flops = %d, want 5", got)
	}
	// Mask admitting only (0,0): A row 0 hits B rows 0 {0} and 1 {0,1};
	// products landing on (0,0): from B_00 and B_10 → 2 flops.
	mask, _ := sparse.FromRows(2, 2, map[int]map[int]float64{0: {0: 1}})
	if got := MaskedFlops(mask.PatternView(), a, b, false); got != 2 {
		t.Errorf("MaskedFlops = %d, want 2", got)
	}
	// Complement of that mask admits everything except (0,0): 5-2 = 3.
	if got := MaskedFlops(mask.PatternView(), a, b, true); got != 3 {
		t.Errorf("MaskedFlops complement = %d, want 3", got)
	}
}
