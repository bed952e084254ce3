package core

import (
	"strings"
	"testing"

	"maskedspgemm/internal/gen"
)

func TestAlgorithmStrings(t *testing.T) {
	want := map[Algorithm]string{
		AlgoMSA:           "MSA",
		AlgoHash:          "Hash",
		AlgoMCA:           "MCA",
		AlgoHeap:          "Heap",
		AlgoHeapDot:       "HeapDot",
		AlgoInner:         "Inner",
		AlgoSaxpyThenMask: "SS:SAXPY*",
		AlgoDotTranspose:  "SS:DOT*",
		AlgoHybrid:        "Hybrid",
		AlgoMaskedBit:     "MaskedBit",
	}
	for algo, name := range want {
		if algo.String() != name {
			t.Errorf("%d.String() = %q, want %q", algo, algo.String(), name)
		}
	}
	if !strings.HasPrefix(Algorithm(200).String(), "Algorithm(") {
		t.Error("unknown algorithm should format numerically")
	}
	// Slot 1 is the retired epoch-reset MSA: unregistered, and every
	// later value keeps the number plan-cache keys were built with.
	if Algorithm(1).String() != "Algorithm(1)" {
		t.Errorf("reserved slot 1 resolves to %q", Algorithm(1).String())
	}
	if AlgoHash != 2 || AlgoHybrid != 9 || AlgoMaskedBit != 10 {
		t.Error("Algorithm values renumbered")
	}
	if OnePhase.String() != "1P" || TwoPhase.String() != "2P" {
		t.Error("phase strings wrong")
	}
	opt := Options{Algorithm: AlgoHash, Phases: TwoPhase}
	if opt.SchemeName() != "Hash-2P" {
		t.Errorf("SchemeName = %q", opt.SchemeName())
	}
}

func TestAlgorithmEnumerations(t *testing.T) {
	all := Algorithms()
	if len(all) != 10 {
		t.Errorf("Algorithms() has %d entries", len(all))
	}
	seen := map[Algorithm]bool{}
	for _, a := range all {
		if seen[a] {
			t.Errorf("duplicate algorithm %v", a)
		}
		seen[a] = true
	}
	paper := PaperAlgorithms()
	if len(paper) != 6 {
		t.Errorf("PaperAlgorithms() has %d entries, want 6", len(paper))
	}
	for _, a := range paper {
		if a == AlgoMaskedBit || a == AlgoSaxpyThenMask || a == AlgoDotTranspose || a == AlgoHybrid {
			t.Errorf("%v is not a paper scheme", a)
		}
	}
}

func TestSupportsComplement(t *testing.T) {
	// MCA is the only scheme without a complement form (§5.4); Hybrid
	// gained one with per-row poly selection (MCA is off its menu —
	// DESIGN.md §10).
	for _, a := range Algorithms() {
		want := a != AlgoMCA
		if SupportsComplement(a) != want {
			t.Errorf("SupportsComplement(%v) = %v", a, !want)
		}
	}
}

func TestComplementBounds(t *testing.T) {
	// bounds must never be exceeded by actual complemented outputs —
	// checked by construction in the oracle tests; here check the
	// formula against hand data.
	a := gen.Random(4, 8, 3, 1)
	b := gen.Random(8, 8, 4, 2)
	mask := gen.Random(4, 8, 2, 3).PatternView()
	offsets := complementBounds(mask, a, b, 1)
	if len(offsets) != 5 || offsets[0] != 0 {
		t.Fatalf("offsets = %v", offsets)
	}
	for i := 0; i < 4; i++ {
		var gen64 int64
		for _, k := range a.Row(i) {
			gen64 += b.RowPtr[k+1] - b.RowPtr[k]
		}
		free := int64(8 - mask.RowNNZ(i))
		want := gen64
		if want > free {
			want = free
		}
		if got := offsets[i+1] - offsets[i]; got != want {
			t.Errorf("row %d bound = %d, want %d", i, got, want)
		}
	}
}

// TestThreadsExecutionOnly pins that the width never enters plan
// identity and reaches execution through ExecOnly.
func TestThreadsExecutionOnly(t *testing.T) {
	o := Options{Threads: 3}
	if id := o.planIdentity(); id.Threads != 0 {
		t.Error("planIdentity must zero Threads")
	}
	if eo := o.ExecOnly(); eo.Threads != 3 {
		t.Error("ExecOnly must carry Threads")
	}
}
