// Benchmarks regenerating every evaluation figure of the paper
// (Figures 7–16) at CI scale, plus the design-choice ablations listed
// in DESIGN.md §6. The cmd/mspgemm-bench binary runs the same drivers
// at configurable (paper-sized) scales; these testing.B entry points
// keep each figure reproducible via `go test -bench=.`.
package maskedspgemm

import (
	"fmt"
	"testing"
	"time"

	"maskedspgemm/internal/bench"
	"maskedspgemm/internal/core"
	"maskedspgemm/internal/gen"
	"maskedspgemm/internal/graph"
	"maskedspgemm/internal/semiring"
	"maskedspgemm/internal/sparse"
)

// benchGraph memoizes the benchmark graphs across sub-benchmarks.
var benchGraphs = map[string]*sparse.CSR[float64]{}

func rmatGraph(scale, ef int, seed uint64) *sparse.CSR[float64] {
	key := fmt.Sprintf("rmat-%d-%d-%d", scale, ef, seed)
	if g, ok := benchGraphs[key]; ok {
		return g
	}
	g := gen.RMATSymmetric(gen.RMATConfig{Scale: scale, EdgeFactor: ef, Seed: seed})
	benchGraphs[key] = g
	return g
}

// benchArms runs one sub-benchmark per arm, b.N executions each. With
// a unit, it also reports the arm's rate at its mean time (the masked
// SpGEMM time, for betweenness).
func benchArms(b *testing.B, arms []bench.TimedArm, unit string) {
	for _, arm := range arms {
		b.Run(arm.Name, func(b *testing.B) {
			b.ReportAllocs()
			sec := 0.0
			for b.Loop() {
				t, err := arm.Time()
				if err != nil {
					b.Fatal(err)
				}
				sec += t
			}
			if unit != "" {
				b.ReportMetric(arm.Rate(sec/float64(b.N)), unit)
			}
		})
	}
}

// benchApp benchmarks app's arms for schemes on g (bench.AppArms: k-truss
// order 5, betweenness batch 64).
func benchApp(b *testing.B, app bench.AppKind, g *sparse.CSR[float64], schemes []bench.Scheme, threads int, unit string) {
	arms, err := bench.AppArms(app, g, schemes, []int{threads}, 5, 64)
	if err != nil {
		b.Fatal(err)
	}
	benchArms(b, arms, unit)
}

// BenchmarkFig07 times three Figure-7 cells, one per characteristic
// density corner, with one sub-benchmark per family: the cell setup
// mspgemm-bench fig7 times (bench.Fig7Config.Cell).
func BenchmarkFig07(b *testing.B) {
	corners := []struct {
		name    string
		dIn, dM int
	}{
		{"sparse-mask-dense-input/dM=2/dIn=64", 64, 2},
		{"balanced/dM=16/dIn=16", 16, 16},
		{"dense-mask-sparse-input/dM=256/dIn=4", 4, 256},
	}
	for _, c := range corners {
		b.Run(c.name, func(b *testing.B) {
			s, err := bench.DefaultFig7Config().Cell(c.dIn, c.dM).Setup()
			if err != nil {
				b.Fatal(err)
			}
			benchArms(b, s.Arms(), "")
		})
	}
}

// BenchmarkFig08 — TC across our 12 variants (the performance-profile
// data of Figure 8) on one representative suite graph.
func BenchmarkFig08(b *testing.B) {
	benchApp(b, bench.AppTriangleCount, rmatGraph(12, 16, 101), bench.OurSchemes(), 0, "GFLOPS")
}

// BenchmarkFig09 — TC: our best three vs the SS:GB-style baselines
// (Figure 9).
func BenchmarkFig09(b *testing.B) {
	benchApp(b, bench.AppTriangleCount, rmatGraph(12, 16, 101), bench.VsBaselineSchemes(), 0, "GFLOPS")
}

// BenchmarkFig10 — TC GFLOPS vs R-MAT scale (Figure 10), MSA-1P series.
func BenchmarkFig10(b *testing.B) {
	for _, scale := range []int{8, 10, 12} {
		b.Run(fmt.Sprintf("scale=%d", scale), func(b *testing.B) {
			benchApp(b, bench.AppTriangleCount, rmatGraph(scale, 16, 110+uint64(scale)), bench.OurSchemes()[:1], 0, "GFLOPS")
		})
	}
}

// BenchmarkFig11 — TC strong scaling across thread counts (Figure 11).
func BenchmarkFig11(b *testing.B) {
	g := rmatGraph(12, 16, 111)
	for _, threads := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("threads=%d", threads), func(b *testing.B) {
			benchApp(b, bench.AppTriangleCount, g, bench.OurSchemes()[:1], threads, "")
		})
	}
}

// BenchmarkFig12 — k-truss across our variants (Figure 12 data).
func BenchmarkFig12(b *testing.B) {
	benchApp(b, bench.AppKTruss, rmatGraph(11, 8, 112), bench.OurSchemes(), 0, "")
}

// BenchmarkFig13 — k-truss: ours vs baselines (Figure 13).
func BenchmarkFig13(b *testing.B) {
	benchApp(b, bench.AppKTruss, rmatGraph(11, 8, 112), bench.VsBaselineSchemes(), 0, "")
}

// BenchmarkFig14 — k-truss GFLOPS vs scale (Figure 14), MSA-1P series.
func BenchmarkFig14(b *testing.B) {
	for _, scale := range []int{8, 10, 12} {
		b.Run(fmt.Sprintf("scale=%d", scale), func(b *testing.B) {
			benchApp(b, bench.AppKTruss, rmatGraph(scale, 8, 114+uint64(scale)), bench.OurSchemes()[:1], 0, "GFLOPS")
		})
	}
}

// BenchmarkFig15 — BC MTEPS vs scale (Figure 15), MSA-1P series.
func BenchmarkFig15(b *testing.B) {
	for _, scale := range []int{8, 10} {
		b.Run(fmt.Sprintf("scale=%d", scale), func(b *testing.B) {
			benchApp(b, bench.AppBetweenness, rmatGraph(scale, 16, 115+uint64(scale)), bench.OurSchemes()[:1], 0, "MTEPS")
		})
	}
}

// BenchmarkFig16 — BC across the complement-capable variants and the
// saxpy baseline (Figure 16 data).
func BenchmarkFig16(b *testing.B) {
	benchApp(b, bench.AppBetweenness, rmatGraph(10, 16, 116), bench.Fig16Schemes(), 0, "")
}

// --- Ablations (DESIGN.md §6) ---

// BenchmarkPhases — 1P vs 2P for every algorithm on one workload: the
// paper's headline finding that one-phase wins for masked SpGEMM.
func BenchmarkPhases(b *testing.B) {
	sr := semiring.PlusTimes[float64]{}
	const dim = 1 << 12
	a := gen.ErdosRenyi(dim, 16, 21)
	bb := gen.ErdosRenyi(dim, 16, 22)
	mask := gen.ErdosRenyiPattern(dim, 16, 23)
	for _, algo := range core.PaperAlgorithms() {
		for _, ph := range []core.Phases{core.OnePhase, core.TwoPhase} {
			opt := core.Options{Algorithm: algo, Phases: ph}
			b.Run(opt.SchemeName(), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if _, err := core.MaskedSpGEMM(sr, mask, a, bb, opt); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkOnePhaseLayout — the mask-slab one-phase layout against the
// symbolic two-phase on a mask that wildly overestimates the output
// (worst case for 1P's extra memory) and one that matches it (best
// case).
func BenchmarkOnePhaseLayout(b *testing.B) {
	sr := semiring.PlusTimes[float64]{}
	const dim = 1 << 12
	a := gen.ErdosRenyi(dim, 4, 34)
	bb := gen.ErdosRenyi(dim, 4, 35)
	masks := map[string]*sparse.Pattern{
		"tight-mask": gen.ErdosRenyiPattern(dim, 4, 36),
		"loose-mask": gen.ErdosRenyiPattern(dim, 512, 37),
	}
	for name, mask := range masks {
		for _, ph := range []core.Phases{core.OnePhase, core.TwoPhase} {
			opt := core.Options{Algorithm: core.AlgoMSA, Phases: ph}
			b.Run(name+"/"+opt.SchemeName(), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if _, err := core.MaskedSpGEMM(sr, mask, a, bb, opt); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkHybrid — the §9 future-work hybrid against its two
// ingredients on workloads chosen so each ingredient wins one: the
// hybrid should track the better of the two on both.
func BenchmarkHybrid(b *testing.B) {
	sr := semiring.PlusTimes[float64]{}
	const dim = 1 << 12
	workloads := []struct {
		name       string
		dIn, dMask int
	}{
		{"pull-friendly/denseIn-sparseMask", 64, 2},
		{"push-friendly/sparseIn-denseMask", 4, 128},
	}
	for _, wl := range workloads {
		a := gen.ErdosRenyi(dim, wl.dIn, 41)
		bb := gen.ErdosRenyi(dim, wl.dIn, 42)
		mask := gen.ErdosRenyiPattern(dim, wl.dMask, 43)
		for _, algo := range []core.Algorithm{core.AlgoMSA, core.AlgoInner, core.AlgoHybrid} {
			opt := core.Options{Algorithm: algo}
			b.Run(wl.name+"/"+algo.String(), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if _, err := core.MaskedSpGEMM(sr, mask, a, bb, opt); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkKernels — the kernel bench's case table (DESIGN.md §9,
// §10, §12, §15), one sub-benchmark per (workload, arm): every single
// accumulator family, Hybrid and its menu without MaskedBit on the
// density sweeps and controls, both schedules at each width on
// the tail-hub R-MAT graph and a uniform control, and an execution
// with and without a never-latched cancel token. `mspgemm-bench
// kernels` times the same cases in interleaved rounds and judges the
// CI gates on their paired ratios.
func BenchmarkKernels(b *testing.B) {
	for _, w := range bench.KernelWorkloads(12, 0) {
		b.Run(w.Name, func(b *testing.B) {
			s, err := w.Setup()
			if err != nil {
				b.Fatal(err)
			}
			benchArms(b, s.Arms(), "")
		})
	}
}

// BenchmarkBFSDirection — push vs pull vs direction-optimized BFS
// (§4's motivating application for masking).
func BenchmarkBFSDirection(b *testing.B) {
	g := rmatGraph(13, 16, 44)
	for _, strat := range []graph.BFSStrategy{graph.BFSPush, graph.BFSPull, graph.BFSAuto} {
		b.Run(strat.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := graph.BFS(g, []int32{0}, strat); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkComplement — complemented-mask variants head to head.
func BenchmarkComplement(b *testing.B) {
	sr := semiring.PlusTimes[float64]{}
	const dim = 1 << 11
	a := gen.ErdosRenyi(dim, 8, 38)
	bb := gen.ErdosRenyi(dim, 8, 39)
	mask := gen.ErdosRenyiPattern(dim, 64, 40)
	for _, algo := range []core.Algorithm{core.AlgoMSA, core.AlgoHash, core.AlgoHeap} {
		opt := core.Options{Algorithm: algo, Complement: true}
		b.Run(algo.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := core.MaskedSpGEMM(sr, mask, a, bb, opt); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSessionPlanMissRefs — a plan-cache miss on stored operands,
// in sweep-cold-ref's shape (mspgemm-trajectory; paper Fig. 7): 24
// banded density-sweep masks over one symmetric ER(2¹¹, 8) graph
// A = B, requested round-robin by reference under Hybrid through a
// 16-entry plan cache, so every request plans. One op is one
// MultiplyRefs: the lookup keyed by the refs' fingerprints, a plan
// build that aliases the stored mask and B's shared CSC structure,
// and the execution. B/op is dominated by the result. The masks are
// uploaded in their unit-valued form, so their values alias the
// store's ones slabs (DESIGN.md §13, "Unit values"): the benchmark
// reports the store's resident bytes as store-B and fails unless the
// 24 masks alias at most two slabs.
func BenchmarkSessionPlanMissRefs(b *testing.B) {
	const masks, cacheEntries = 24, 16
	n := 1 << 11
	g := gen.Symmetrize(gen.ErdosRenyi(n, 8, 1))
	s := NewSession(WithPlanCacheEntries(cacheEntries))
	aRef, _ := s.PutOperand(g)
	fps := make([]uint64, masks)
	slabs := make(map[*float64]bool)
	for k := range fps {
		m := bench.BandedMask(n, bench.SweepDensities, 2+uint64(k))
		ones := make([]float64, m.NNZ())
		for j := range ones {
			ones[j] = 1
		}
		ref, _ := s.PutOperand(&Matrix{Pattern: *m, Val: ones})
		fps[k] = ref.Pattern
		stored, _ := s.Operand(ref)
		slabs[&stored.Val[0]] = true
	}
	if len(slabs) > 2 {
		b.Fatalf("the %d unit masks alias %d ones slabs, want at most 2", masks, len(slabs))
	}
	multiply := func(i int) {
		if _, err := s.MultiplyRefs(fps[i%masks], aRef, aRef, WithAlgorithm(Hybrid)); err != nil {
			b.Fatal(err)
		}
	}
	// One pass over the masks fills the cache; from then on the
	// round-robin misses every time.
	for i := range masks {
		multiply(i)
	}
	hits := s.Stats().Cache.Hits
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		multiply(i)
	}
	b.StopTimer()
	if s.Stats().Cache.Hits != hits {
		b.Fatal("a round-robin request hit the plan cache; the benchmark must time misses")
	}
	b.ReportMetric(float64(s.Stats().Store.Bytes), "store-B")
}

// BenchmarkSessionPlanHitRefs — plan-cache hits on stored operands.
// One op is one MultiplyRefs under Hybrid. Two warm executions come
// before the timer: the second publishes the plan's output pattern,
// so every timed op is a hit (DESIGN.md §5, "Known pattern") and
// allocates only the result's values.
//
//   - delta-compl-ref: that workload's shape in mspgemm-trajectory, the
//     complemented product C = ¬A ⊙ (A·A) over one symmetric
//     ER(2¹¹, 8) graph A, about 476k output entries. Two value sets
//     share A's structure and alternate, as values-only deltas do, so
//     every op hits the one cached plan with fresh values.
//   - wide-er17: a wide sparse product, A·A over a directed
//     ER(2¹⁷, 4) graph A masked by the pattern of A·A itself, so every
//     product lands on a known column: about 2.1M output entries over
//     2¹⁷ columns, where a hit's dense per-worker value array is cold.
//     (A self-masked ER(2¹⁷, 4) product would keep almost none.)
//   - compl-er10-48: the complemented product C = ¬A ⊙ (A·A) over one
//     symmetric ER(2¹⁰, 48) graph A, about 9 products per output entry.
//     That breaks the replay rule, and a complemented plan holds no CSC
//     structure of B for a dot bitmap, so its hits run push and Pull
//     under the plan's binding, the tier such products keep (DESIGN.md
//     §5, "Tiers"); the benchmark fails unless the plan neither replays
//     nor walks a bitmap.
func BenchmarkSessionPlanHitRefs(b *testing.B) {
	b.Run("delta-compl-ref", func(b *testing.B) {
		g := gen.Symmetrize(gen.ErdosRenyi(1<<11, 8, 1))
		s := NewSession()
		refs := make([]OperandRef, 2)
		for k := range refs {
			vals := make([]float64, len(g.Val))
			for j, v := range g.Val {
				vals[j] = v * float64(k+1)
			}
			refs[k], _ = s.PutOperand(&Matrix{Pattern: g.Pattern, Val: vals})
		}
		benchPlanHits(b, s, func(i int) error {
			ref := refs[i%len(refs)]
			_, err := s.MultiplyRefs(ref.Pattern, ref, ref, WithAlgorithm(Hybrid), WithComplement())
			return err
		})
	})
	b.Run("wide-er17", func(b *testing.B) {
		g := gen.ErdosRenyi(1<<17, 4, 1)
		sq, err := MultiplyUnmasked(g, g)
		if err != nil {
			b.Fatal(err)
		}
		s := NewSession()
		ref, _ := s.PutOperand(g)
		mask, _ := s.PutOperand(sq)
		benchPlanHits(b, s, func(int) error {
			_, err := s.MultiplyRefs(mask.Pattern, ref, ref, WithAlgorithm(Hybrid))
			return err
		})
	})
	b.Run("compl-er10-48", func(b *testing.B) {
		g := gen.Symmetrize(gen.ErdosRenyi(1<<10, 48, 1))
		s := NewSession()
		ref, _ := s.PutOperand(g)
		benchPlanHits(b, s, func(int) error {
			_, err := s.MultiplyRefs(ref.Pattern, ref, ref, WithAlgorithm(Hybrid), WithComplement())
			return err
		})
		if st := s.Stats().Cache; st.ReplayedPlans != 0 || st.BitmapPlans != 0 {
			b.Fatalf("%d replayed and %d bitmap plans, want the push/Pull tier", st.ReplayedPlans, st.BitmapPlans)
		}
	})
}

// benchPlanHits times multiply(i) for i < b.N after two untimed
// calls, and fails unless every timed call hit s's plan cache.
func benchPlanHits(b *testing.B, s *Session, multiply func(i int) error) {
	for i := range 2 {
		if err := multiply(i); err != nil {
			b.Fatal(err)
		}
	}
	misses := s.Stats().Cache.Misses
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := multiply(i); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if s.Stats().Cache.Misses != misses {
		b.Fatal("a request missed the plan cache; the benchmark must time hits")
	}
}

// BenchmarkSessionPlanHitSelf — a plan-cache hit on a symmetric
// self-product C = A ⊙ (A·A) under Hybrid, by reference, for the
// products of er-warm-inline (a symmetric ER(2¹¹, 8) graph) and
// tc-skew-ref (a scale-12 R-MAT graph relabeled hubs last) in
// mspgemm-trajectory, and through the library's Session.Multiply on
// er-warm-inline's product (library-inline), whose operands are not
// resident. Such a product's first executions compute one triangle and
// mirror it. Two warm executions come before the timer: the second
// publishes the plan's one-triangle record (DESIGN.md §5, "Known
// pattern"), so every timed op writes values in place into the
// remembered pattern, replaying the full product's schedule, which is
// both kinds' one record and checks no values (er-warm-inline's,
// "Replayed hits"), or computing only the known half's columns by
// walking their dot bitmap and then copying each to its transpose
// (tc-skew-ref's, "Bitmap hits"). After the timer, the cached plan runs
// up to 200 more hits on one executor with pass timers on, resident as
// its arm's operands are, and the benchmark reports their mean hit
// numeric pass (core.PassHitNumeric) as numeric-ns/op. It fails unless
// the plan's hits run in that tier, and over a known half, which alone
// runs the transpose copy (core.PassTranspose), exactly for
// tc-skew-ref.
func BenchmarkSessionPlanHitSelf(b *testing.B) {
	er := gen.Symmetrize(gen.ErdosRenyi(1<<11, 8, 1))
	for _, c := range []struct {
		name              string
		g                 *sparse.CSR[float64]
		library           bool
		replayed, bitmaps int
		knownHalf         bool
	}{
		{"er-warm-inline", er, false, 1, 0, false},
		{"library-inline", er, true, 1, 0, false},
		{"tc-skew-ref", bench.SkewedGraph(12, 8, 1), false, 0, 1, true},
	} {
		b.Run(c.name, func(b *testing.B) {
			s := NewSession()
			var ref OperandRef
			if !c.library {
				ref, _ = s.PutOperand(c.g)
			}
			multiply := func() {
				var err error
				if c.library {
					_, err = s.Multiply(c.g.PatternView(), c.g, c.g, WithAlgorithm(Hybrid))
				} else {
					_, err = s.MultiplyRefs(ref.Pattern, ref, ref, WithAlgorithm(Hybrid))
				}
				if err != nil {
					b.Fatal(err)
				}
			}
			multiply()
			multiply()
			st := s.Stats().Cache
			if st.ReplayedPlans != c.replayed || st.BitmapPlans != c.bitmaps {
				b.Fatalf("%d replayed and %d bitmap plans, want %d and %d", st.ReplayedPlans, st.BitmapPlans, c.replayed, c.bitmaps)
			}
			misses := st.Misses
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				multiply()
			}
			b.StopTimer()
			if s.Stats().Cache.Misses != misses {
				b.Fatal("a request missed the plan cache; the benchmark must time hits")
			}
			o := buildOptions([]Option{WithAlgorithm(Hybrid)})
			plan, _, hit, err := s.cache.GetOrPlanObserved(c.g.PatternView(), c.g, c.g, o)
			if !c.library {
				fp := core.Fingerprints{Mask: ref.Pattern, A: ref.Pattern, B: ref.Pattern}
				plan, hit, err = s.cache.GetOrPlanStored(fp, c.g.PatternView(), c.g, c.g, o)
			}
			if err != nil || !hit {
				b.Fatalf("the cached plan: hit %v, %v", hit, err)
			}
			exec := core.NewExecutor[float64](arith{})
			n := min(b.N, 200)
			var numeric, transpose time.Duration
			for range n {
				if _, err := plan.ExecuteOnOpts(exec, c.g, c.g, core.ExecOptions{Resident: !c.library, CollectSchedStats: true}); err != nil {
					b.Fatal(err)
				}
				numeric += exec.PassTimes()[core.PassHitNumeric]
				transpose += exec.PassTimes()[core.PassTranspose]
			}
			if (transpose > 0) != c.knownHalf {
				b.Fatalf("the hits copied values to their transposes for %v, want a known half %v", transpose, c.knownHalf)
			}
			b.ReportMetric(float64(numeric.Nanoseconds())/float64(n), "numeric-ns/op")
		})
	}
}

// BenchmarkSessionPlanPublish — the execution that publishes a cached
// plan's hit record, alone: the second MultiplyRefs of the self-product
// C = A ⊙ (A·A) under Hybrid, by reference, on the products of
// er-warm-inline and tc-skew-ref (as in BenchmarkSessionPlanHitSelf).
// That execution computes one triangle and mirrors it, then builds the
// record its plan's hits run by and publishes it (DESIGN.md §5,
// "Known pattern"): it counts the known half's products, and, as they
// fit the replay rule, builds the full product's schedule directly,
// counting nothing more, as both kinds' one record (er-warm-inline's),
// or, as they do not, keeps the known half with its transpose map and
// dot bitmap (tc-skew-ref's). Each op starts a fresh
// session, stores A and runs the first execution outside the timer, and
// fails unless the timed execution charged the cache for a record.
func BenchmarkSessionPlanPublish(b *testing.B) {
	for _, c := range []struct {
		name string
		g    *sparse.CSR[float64]
	}{
		{"er-warm-inline", gen.Symmetrize(gen.ErdosRenyi(1<<11, 8, 1))},
		{"tc-skew-ref", bench.SkewedGraph(12, 8, 1)},
	} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				s := NewSession()
				ref, _ := s.PutOperand(c.g)
				multiply := func() {
					if _, err := s.MultiplyRefs(ref.Pattern, ref, ref, WithAlgorithm(Hybrid)); err != nil {
						b.Fatal(err)
					}
				}
				multiply()
				before := s.Stats().Cache.Bytes
				b.StartTimer()
				multiply()
				b.StopTimer()
				if s.Stats().Cache.Bytes <= before {
					b.Fatal("the second execution published no hit record")
				}
				b.StartTimer()
			}
		})
	}
}

// BenchmarkFlops — the flop counters after the per-worker partial-sum
// rework: the serial path (small nnz) must report 0 allocs/op, and the
// parallel path's allocations are O(threads) scheduler bookkeeping,
// never O(rows).
func BenchmarkFlops(b *testing.B) {
	small := gen.ErdosRenyi(1<<10, 8, 61)  // below the serial cutoff
	large := gen.ErdosRenyi(1<<14, 16, 62) // parallel path
	mask := gen.ErdosRenyiPattern(1<<10, 8, 63)
	b.Run("Flops/serial", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			core.Flops(small, small)
		}
	})
	b.Run("Flops/parallel", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			core.Flops(large, large)
		}
	})
	b.Run("MaskedFlops/serial", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			core.MaskedFlops(mask, small, small, false)
		}
	})
}
