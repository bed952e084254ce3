package core

import (
	"fmt"
	"strings"
	"testing"

	"maskedspgemm/internal/gen"
	"maskedspgemm/internal/semiring"
	"maskedspgemm/internal/sparse"
)

// TestPlanMatchesMultiply asserts the acceptance criterion: for every
// supported algorithm/phase/complement combination, NewPlan + Execute
// produces bit-identical results to the one-shot MaskedSpGEMM — on the
// first execution, on a repeated execution, and on an execution with
// the same structure but different values.
func TestPlanMatchesMultiply(t *testing.T) {
	sr := semiring.PlusTimes[float64]{}
	mask, a, b := buildCase(caseSpec{"", 56, 48, 64, 7, 7, 7, 91})
	// b2: identical structure, different values — the plan must refresh
	// any cached transpose.
	b2 := b.Clone()
	for i := range b2.Val {
		b2.Val[i] = -2 * b2.Val[i]
	}
	bitEq := func(x, y float64) bool { return x == y }
	for _, info := range Schemes() {
		for _, complement := range []bool{false, true} {
			if complement && !info.Complement {
				continue
			}
			for _, ph := range []Phases{OnePhase, TwoPhase} {
				opt := Options{Algorithm: info.Algo, Phases: ph, Complement: complement}
				name := fmt.Sprintf("%s/complement=%v", opt.SchemeName(), complement)
				t.Run(name, func(t *testing.T) {
					plan, err := NewPlan(sr, mask, a, b, opt, nil)
					if rejectsTwoPhase(t, opt, err) {
						_, err = MaskedSpGEMM(sr, mask, a, b, opt)
						rejectsTwoPhase(t, opt, err)
						return
					}
					if err != nil {
						t.Fatalf("NewPlan: %v", err)
					}
					want, err := MaskedSpGEMM(sr, mask, a, b, opt)
					if err != nil {
						t.Fatalf("MaskedSpGEMM: %v", err)
					}
					for rep := 0; rep < 2; rep++ {
						got, err := plan.Execute(a, b)
						if err != nil {
							t.Fatalf("Execute #%d: %v", rep+1, err)
						}
						if !sparse.EqualFunc(want, got, bitEq) {
							t.Fatalf("Execute #%d differs from Multiply", rep+1)
						}
					}
					want2, err := MaskedSpGEMM(sr, mask, a, b2, opt)
					if err != nil {
						t.Fatal(err)
					}
					got2, err := plan.Execute(a, b2)
					if err != nil {
						t.Fatalf("Execute with new B values: %v", err)
					}
					if !sparse.EqualFunc(want2, got2, bitEq) {
						t.Fatal("Execute with new B values differs from Multiply")
					}
				})
			}
		}
	}
}

// TestPlanInPlaceValueMutation pins the Execute contract for the
// pull-based schemes: mutating B's values in place (same *CSR pointer)
// between executions must be reflected in the next result — the cached
// CSC view is value-refreshed every call, never skipped on pointer
// identity.
func TestPlanInPlaceValueMutation(t *testing.T) {
	sr := semiring.PlusTimes[float64]{}
	mask, a, b := buildCase(caseSpec{"", 48, 48, 48, 6, 6, 6, 98})
	for _, tc := range []struct {
		algo       Algorithm
		complement bool
	}{
		{AlgoInner, false}, {AlgoInner, true}, {AlgoHybrid, false}, {AlgoDotTranspose, false},
	} {
		opt := Options{Algorithm: tc.algo, Complement: tc.complement}
		plan, err := NewPlan(sr, mask, a, b, opt, nil)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := plan.Execute(a, b); err != nil {
			t.Fatal(err)
		}
		for i := range b.Val {
			b.Val[i] *= 3
		}
		want, err := MaskedSpGEMM(sr, mask, a, b, opt)
		if err != nil {
			t.Fatal(err)
		}
		got, err := plan.Execute(a, b)
		if err != nil {
			t.Fatal(err)
		}
		if !sparse.EqualFunc(want, got, func(x, y float64) bool { return x == y }) {
			t.Errorf("%v complement=%v: stale result after in-place mutation of B", tc.algo, tc.complement)
		}
	}
}

// TestPlanStructureMismatch checks Execute rejects operands that do
// not match the planned structure.
func TestPlanStructureMismatch(t *testing.T) {
	sr := semiring.PlusTimes[float64]{}
	mask, a, b := buildCase(caseSpec{"", 32, 32, 32, 4, 4, 4, 92})
	plan, err := NewPlan(sr, mask, a, b, Options{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	otherShape := gen.Random(32, 40, 4, 93)
	if _, err := plan.Execute(otherShape, b); err == nil {
		t.Error("want error for A shape mismatch")
	}
	otherNNZ := gen.Random(32, 32, 9, 94)
	if _, err := plan.Execute(a, otherNNZ); err == nil {
		t.Error("want error for B nnz mismatch")
	}
	if !strings.Contains(fmt.Sprint(plan.checkArgs(otherShape, b)), "plan expects A") {
		t.Error("mismatch error should name the operand")
	}
}

// TestPlanExecutorShared checks that plans over different structures
// can share one executor sequentially — the k-truss/betweenness usage
// pattern — without corrupting results.
func TestPlanExecutorShared(t *testing.T) {
	sr := semiring.PlusTimes[float64]{}
	exec := NewExecutor[float64](sr)
	for _, algo := range []Algorithm{AlgoMSA, AlgoHash, AlgoMCA, AlgoHeap, AlgoInner, AlgoHybrid} {
		for seed := uint64(0); seed < 3; seed++ {
			// Different sizes per round force the pooled workspaces to
			// grow and shrink usage.
			n := 24 + int(seed)*17
			mask, a, b := buildCase(caseSpec{"", n, n, n, 5, 5, 5, 95 + seed})
			opt := Options{Algorithm: algo, ReuseOutput: true}
			plan, err := NewPlan(sr, mask, a, b, opt, exec)
			if err != nil {
				t.Fatal(err)
			}
			got, err := plan.Execute(a, b)
			if err != nil {
				t.Fatal(err)
			}
			want := oracle(mask, a, b, false)
			if d := sparse.Diff(want, got, floatEq); d != "" {
				t.Fatalf("%v round %d: %s", algo, seed, d)
			}
		}
	}
}

// TestPlanExecuteAllocs is the allocation regression demanded by the
// issue: after the warm-up execution, repeated Execute calls on
// identical structure with pooled output perform (near-)zero heap
// allocations. Threads is pinned to 1 so scheduler goroutines do not
// count.
func TestPlanExecuteAllocs(t *testing.T) {
	sr := semiring.PlusTimes[float64]{}
	mask, a, b := buildCase(caseSpec{"", 128, 128, 128, 8, 8, 8, 96})
	for _, algo := range []Algorithm{AlgoMSA, AlgoHash, AlgoMCA, AlgoHeap, AlgoInner} {
		for _, ph := range []Phases{OnePhase, TwoPhase} {
			opt := Options{Algorithm: algo, Phases: ph, Threads: 1, ReuseOutput: true}
			plan, err := NewPlan(sr, mask, a, b, opt, nil)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := plan.Execute(a, b); err != nil { // warm-up
				t.Fatal(err)
			}
			allocs := testing.AllocsPerRun(10, func() {
				if _, err := plan.Execute(a, b); err != nil {
					t.Fatal(err)
				}
			})
			// A constant handful is tolerated — the engine drivers'
			// closure headers and the *CSR result header. What must
			// never appear again are the O(rows)/O(nnz) slab, counts,
			// accumulator, and output allocations of the one-shot
			// path, so the bound is small and size-independent.
			if allocs > 6 {
				t.Errorf("%s-%s: %.1f allocs per warm Execute, want ≤ 6",
					algo, ph, allocs)
			}
		}
	}
}

// TestPlanReuseOutputAliases pins the documented aliasing contract:
// with ReuseOutput the next execution recycles the previous result's
// buffers, without it each result is independent.
func TestPlanReuseOutputAliases(t *testing.T) {
	sr := semiring.PlusTimes[float64]{}
	mask, a, b := buildCase(caseSpec{"", 40, 40, 40, 5, 5, 5, 97})
	pooled, err := NewPlan(sr, mask, a, b, Options{ReuseOutput: true}, nil)
	if err != nil {
		t.Fatal(err)
	}
	r1, err := pooled.Execute(a, b)
	if err != nil {
		t.Fatal(err)
	}
	keep := r1.Clone()
	if _, err := pooled.Execute(a, b); err != nil {
		t.Fatal(err)
	}
	if !sparse.EqualFunc(keep, r1, func(x, y float64) bool { return x == y }) {
		// Same inputs → same values even in recycled buffers; this only
		// fails if pooling corrupts data.
		t.Fatal("pooled re-execution corrupted values")
	}
	fresh, err := NewPlan(sr, mask, a, b, Options{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	f1, err := fresh.Execute(a, b)
	if err != nil {
		t.Fatal(err)
	}
	f2, err := fresh.Execute(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if f1.NNZ() > 0 && &f1.ColIdx[0] == &f2.ColIdx[0] {
		t.Fatal("without ReuseOutput results must not share buffers")
	}
}

// BenchmarkPlanReuseVsMultiply compares one-shot Multiply against plan
// reuse on a k-truss-shaped loop: the same masked product C = M ⊙
// (A·A) executed repeatedly over one structure. Run with -benchmem to
// see the allocation gap the Plan/Executor layer exists for.
func BenchmarkPlanReuseVsMultiply(b *testing.B) {
	sr := semiring.PlusPair[int64]{}
	g := gen.RMATSymmetric(gen.RMATConfig{Scale: 10, EdgeFactor: 8, Seed: 7})
	l := &sparse.CSR[int64]{Pattern: g.Pattern, Val: make([]int64, len(g.Val))}
	for i := range l.Val {
		l.Val[i] = 1
	}
	mask := l.PatternView()
	for _, algo := range []Algorithm{AlgoMSA, AlgoHash} {
		opt := Options{Algorithm: algo}
		b.Run(algo.String()+"/multiply", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := MaskedSpGEMM(sr, mask, l, l, opt); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(algo.String()+"/plan-reuse", func(b *testing.B) {
			ropt := opt
			ropt.ReuseOutput = true
			plan, err := NewPlan(sr, mask, l, l, ropt, nil)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := plan.Execute(l, l); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
