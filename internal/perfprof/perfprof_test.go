package perfprof

import (
	"math"
	"strings"
	"testing"
)

func sampleResults() []Result {
	return []Result{
		{"g1", "A", 1.0}, {"g1", "B", 2.0}, {"g1", "C", 4.0},
		{"g2", "A", 3.0}, {"g2", "B", 1.5}, {"g2", "C", 3.0},
		{"g3", "A", 1.0}, {"g3", "B", 1.0}, {"g3", "C", 10.0},
	}
}

func TestComputeRatios(t *testing.T) {
	p := Compute(sampleResults())
	if len(p.Instances) != 3 || len(p.Schemes) != 3 {
		t.Fatalf("sizes: %d instances, %d schemes", len(p.Instances), len(p.Schemes))
	}
	// g1 best is A(1.0): ratios A=1, B=2, C=4.
	if p.Ratios["A"][0] != 1 || p.Ratios["B"][0] != 2 || p.Ratios["C"][0] != 4 {
		t.Errorf("g1 ratios: %v %v %v", p.Ratios["A"][0], p.Ratios["B"][0], p.Ratios["C"][0])
	}
	// g2 best is B(1.5): A ratio 2.
	if p.Ratios["A"][1] != 2 {
		t.Errorf("g2 A ratio = %v", p.Ratios["A"][1])
	}
}

func TestFractionAndWin(t *testing.T) {
	p := Compute(sampleResults())
	// A is best on g1 and tied-best on g3: 2/3.
	if w := p.WinFraction("A"); math.Abs(w-2.0/3) > 1e-12 {
		t.Errorf("WinFraction(A) = %v", w)
	}
	// B: best on g2, tied on g3 → 2/3; within factor 2 everywhere → 1.
	if f := p.Fraction("B", 2.01); f != 1 {
		t.Errorf("Fraction(B, 2) = %v", f)
	}
	// C never best.
	if w := p.WinFraction("C"); w != 0 {
		t.Errorf("WinFraction(C) = %v", w)
	}
	if f := p.Fraction("missing", 10); f != 0 {
		t.Errorf("missing scheme fraction = %v", f)
	}
}

func TestBest(t *testing.T) {
	p := Compute(sampleResults())
	best := p.Best(2.4)
	if best != "A" && best != "B" {
		t.Errorf("Best = %q", best)
	}
}

func TestMissingResultsAreFailures(t *testing.T) {
	p := Compute([]Result{
		{"g1", "A", 1.0},
		{"g1", "B", 2.0},
		{"g2", "B", 1.0},
		// A has no g2 result.
	})
	if !math.IsInf(p.Ratios["A"][1], 1) {
		t.Errorf("missing result ratio = %v, want +inf", p.Ratios["A"][1])
	}
	if f := p.Fraction("A", 1e9); f != 0.5 {
		t.Errorf("A fraction with failure = %v", f)
	}
}

func TestNonPositiveTimesIgnored(t *testing.T) {
	p := Compute([]Result{
		{"g1", "A", 0}, // invalid
		{"g1", "B", 1.0},
	})
	if !math.IsInf(p.Ratios["A"][0], 1) {
		t.Error("zero time should count as failure")
	}
}

func TestRender(t *testing.T) {
	p := Compute(sampleResults())
	xs := DefaultXs()
	if xs[0] != 1.0 || xs[len(xs)-1] != 2.4 {
		t.Errorf("DefaultXs = %v", xs)
	}
	table := p.Render(xs)
	if !strings.Contains(table, "scheme") || !strings.Contains(table, "A") {
		t.Errorf("Render missing content:\n%s", table)
	}
}

func TestSeries(t *testing.T) {
	p := Compute(sampleResults())
	ys := p.Series("A", []float64{1, 2, 4})
	if len(ys) != 3 {
		t.Fatalf("series length %d", len(ys))
	}
	for i := 1; i < len(ys); i++ {
		if ys[i] < ys[i-1] {
			t.Error("profile curve must be non-decreasing")
		}
	}
	if ys[2] != 1 {
		t.Errorf("A within 4x everywhere, got %v", ys[2])
	}
}
