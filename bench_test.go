// Benchmarks regenerating every evaluation figure of the paper
// (Figures 7–16) at CI scale, plus the design-choice ablations listed
// in DESIGN.md §6. The cmd/mspgemm-bench binary runs the same drivers
// at configurable (paper-sized) scales; these testing.B entry points
// keep each figure reproducible via `go test -bench=.`.
package maskedspgemm

import (
	"fmt"
	"testing"

	"maskedspgemm/internal/bench"
	"maskedspgemm/internal/core"
	"maskedspgemm/internal/gen"
	"maskedspgemm/internal/graph"
	"maskedspgemm/internal/parallel"
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

// BenchmarkFig07 regenerates one Figure-7 panel cell class per
// sub-benchmark: the masked product on ER inputs at three
// characteristic density corners.
func BenchmarkFig07(b *testing.B) {
	sr := semiring.PlusTimes[float64]{}
	corners := []struct {
		name    string
		dIn, dM int
	}{
		{"sparse-mask-dense-input/dM=2/dIn=64", 64, 2},
		{"balanced/dM=16/dIn=16", 16, 16},
		{"dense-mask-sparse-input/dM=256/dIn=4", 4, 256},
	}
	const dim = 1 << 12
	for _, c := range corners {
		a := gen.ErdosRenyi(dim, c.dIn, 1)
		bb := gen.ErdosRenyi(dim, c.dIn, 2)
		mask := gen.ErdosRenyiPattern(dim, c.dM, 3)
		for _, s := range bench.Fig7Schemes() {
			b.Run(c.name+"/"+s.Name, func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, err := core.MaskedSpGEMM(sr, mask, a, bb, s.Opt); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// benchTriangleCount shares the TC benchmark body for Figs 8–11. The
// plan is built outside the timed loop, matching §8.2's "we only
// report the Masked SpGEMM execution time" and exercising the pooled
// executor workspaces across iterations.
func benchTriangleCount(b *testing.B, g *sparse.CSR[float64], schemes []bench.Scheme) {
	w := graph.PrepareTriangleCount(g)
	flops := 2 * float64(w.Flops())
	for _, s := range schemes {
		b.Run(s.Name, func(b *testing.B) {
			// CountWith consumes each product inside the loop, so pooled
			// output buffers are safe.
			opt := s.Opt
			opt.ReuseOutput = true
			plan, err := w.NewPlan(opt, nil)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			var count int64
			for i := 0; i < b.N; i++ {
				count, err = w.CountWith(plan)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(flops/float64(b.Elapsed().Nanoseconds())*float64(b.N), "GFLOPS")
			_ = count
		})
	}
}

// BenchmarkFig08 — TC across our 12 variants (the performance-profile
// data of Figure 8) on one representative suite graph.
func BenchmarkFig08(b *testing.B) {
	benchTriangleCount(b, rmatGraph(12, 16, 101), bench.OurSchemes())
}

// BenchmarkFig09 — TC: our best three vs the SS:GB-style baselines
// (Figure 9).
func BenchmarkFig09(b *testing.B) {
	benchTriangleCount(b, rmatGraph(12, 16, 101),
		append(bench.BestThreeSchemes(), bench.BaselineSchemes()...))
}

// BenchmarkFig10 — TC GFLOPS vs R-MAT scale (Figure 10), MSA-1P series.
func BenchmarkFig10(b *testing.B) {
	for _, scale := range []int{8, 10, 12} {
		g := rmatGraph(scale, 16, 110+uint64(scale))
		w := graph.PrepareTriangleCount(g)
		flops := 2 * float64(w.Flops())
		b.Run(fmt.Sprintf("scale=%d/MSA-1P", scale), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := w.Count(core.Options{Algorithm: core.AlgoMSA}); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(flops/float64(b.Elapsed().Nanoseconds())*float64(b.N), "GFLOPS")
		})
	}
}

// BenchmarkFig11 — TC strong scaling across thread counts (Figure 11).
func BenchmarkFig11(b *testing.B) {
	g := rmatGraph(12, 16, 111)
	w := graph.PrepareTriangleCount(g)
	for _, threads := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("threads=%d/MSA-1P", threads), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := w.Count(core.Options{Algorithm: core.AlgoMSA, Threads: threads}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// benchKTruss shares the k-truss body for Figs 12–14.
func benchKTruss(b *testing.B, g *sparse.CSR[float64], schemes []bench.Scheme) {
	for _, s := range schemes {
		b.Run(s.Name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := graph.KTruss(g, 5, s.Opt); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFig12 — k-truss across our variants (Figure 12 data).
func BenchmarkFig12(b *testing.B) {
	benchKTruss(b, rmatGraph(11, 8, 112), bench.OurSchemes())
}

// BenchmarkFig13 — k-truss: ours vs baselines (Figure 13).
func BenchmarkFig13(b *testing.B) {
	benchKTruss(b, rmatGraph(11, 8, 112),
		append(bench.BestThreeSchemes(), bench.BaselineSchemes()...))
}

// BenchmarkFig14 — k-truss GFLOPS vs scale (Figure 14), MSA-1P series.
func BenchmarkFig14(b *testing.B) {
	for _, scale := range []int{8, 10, 12} {
		g := rmatGraph(scale, 8, 114+uint64(scale))
		b.Run(fmt.Sprintf("scale=%d/MSA-1P", scale), func(b *testing.B) {
			var flops int64
			for i := 0; i < b.N; i++ {
				res, err := graph.KTruss(g, 5, core.Options{Algorithm: core.AlgoMSA})
				if err != nil {
					b.Fatal(err)
				}
				flops = res.Flops
			}
			b.ReportMetric(2*float64(flops)/float64(b.Elapsed().Nanoseconds())*float64(b.N), "GFLOPS")
		})
	}
}

// BenchmarkFig15 — BC MTEPS vs scale (Figure 15), MSA-1P series.
func BenchmarkFig15(b *testing.B) {
	for _, scale := range []int{8, 10} {
		g := rmatGraph(scale, 16, 115+uint64(scale))
		sources := graph.BatchSources(g.Rows, 64)
		edges := float64(g.NNZ()) / 2
		b.Run(fmt.Sprintf("scale=%d/MSA-1P", scale), func(b *testing.B) {
			var masked float64
			for i := 0; i < b.N; i++ {
				res, err := graph.Betweenness(g, sources, core.Options{Algorithm: core.AlgoMSA})
				if err != nil {
					b.Fatal(err)
				}
				masked += res.MaskedTime.Seconds()
			}
			b.ReportMetric(float64(len(sources))*edges*float64(b.N)/masked/1e6, "MTEPS")
		})
	}
}

// BenchmarkFig16 — BC across the complement-capable variants and the
// saxpy baseline (Figure 16 data).
func BenchmarkFig16(b *testing.B) {
	g := rmatGraph(10, 16, 116)
	sources := graph.BatchSources(g.Rows, 64)
	schemes := append(bench.ComplementSchemes(), bench.BaselineSchemes()[0])
	for _, s := range schemes {
		b.Run(s.Name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := graph.Betweenness(g, sources, s.Opt); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
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

// BenchmarkHeapNInspect — the §5.5 NInspect parameter sweep.
func BenchmarkHeapNInspect(b *testing.B) {
	sr := semiring.PlusTimes[float64]{}
	const dim = 1 << 12
	a := gen.ErdosRenyi(dim, 8, 24)
	bb := gen.ErdosRenyi(dim, 8, 25)
	mask := gen.ErdosRenyiPattern(dim, 64, 26)
	for _, n := range []int{core.HeapInspectNone, 1, 4, core.HeapInspectAll} {
		name := fmt.Sprintf("NInspect=%d", n)
		switch n {
		case core.HeapInspectNone:
			name = "NInspect=none"
		case core.HeapInspectAll:
			name = "NInspect=inf"
		}
		opt := core.Options{Algorithm: core.AlgoHeap, HeapNInspect: n}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := core.MaskedSpGEMM(sr, mask, a, bb, opt); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkInnerGallop — two-pointer merge vs galloping dot products
// under balanced and skewed operand lengths.
func BenchmarkInnerGallop(b *testing.B) {
	sr := semiring.PlusTimes[float64]{}
	workloads := []struct {
		name  string
		a, bb *sparse.CSR[float64]
		mask  *sparse.Pattern
	}{
		{
			"balanced",
			gen.ErdosRenyi(1<<12, 16, 45), gen.ErdosRenyi(1<<12, 16, 46),
			gen.ErdosRenyiPattern(1<<12, 8, 47),
		},
		{
			"skewed",
			gen.ErdosRenyi(1<<12, 128, 48), gen.ErdosRenyi(1<<12, 2, 49),
			gen.ErdosRenyiPattern(1<<12, 8, 50),
		},
	}
	for _, wl := range workloads {
		for _, gallop := range []bool{false, true} {
			name := wl.name + "/merge"
			if gallop {
				name = wl.name + "/gallop"
			}
			opt := core.Options{Algorithm: core.AlgoInner, InnerGallop: gallop}
			b.Run(name, func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if _, err := core.MaskedSpGEMM(sr, wl.mask, wl.a, wl.bb, opt); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkHashLoadFactor — the §5.3 load-factor choice.
func BenchmarkHashLoadFactor(b *testing.B) {
	sr := semiring.PlusTimes[float64]{}
	const dim = 1 << 12
	a := gen.ErdosRenyi(dim, 16, 27)
	bb := gen.ErdosRenyi(dim, 16, 28)
	mask := gen.ErdosRenyiPattern(dim, 32, 29)
	for _, lf := range []float64{0.25, 0.5, 0.75} {
		opt := core.Options{Algorithm: core.AlgoHash, HashLoadFactor: lf}
		b.Run(fmt.Sprintf("lf=%.2f", lf), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := core.MaskedSpGEMM(sr, mask, a, bb, opt); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkGrain — scheduler chunk-size sensitivity on a skewed
// (R-MAT) workload.
func BenchmarkGrain(b *testing.B) {
	sr := semiring.PlusPair[int64]{}
	g := rmatGraph(12, 16, 33)
	w := graph.PrepareTriangleCount(g)
	for _, grain := range []int{1, 16, 64, 256, 4096} {
		opt := core.Options{Algorithm: core.AlgoMSA, Grain: grain}
		b.Run(fmt.Sprintf("grain=%d", grain), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := core.MaskedSpGEMM(sr, w.L.PatternView(), w.L, w.L, opt); err != nil {
					b.Fatal(err)
				}
			}
		})
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

// BenchmarkHybridMix — the per-row poly-algorithm (DESIGN.md §10)
// against every single accumulator family. The acceptance targets: on
// the banded mask-density sweep (1e-4 … 0.5 across row bands — no
// single family wins every band) the mixed per-row binding must be
// ≥ 10% faster than the best single family; on the uniform-density
// controls, where one family is globally optimal, it must track that
// family within 3% (the selector binds ~every row to it, so only
// run-dispatch overhead remains). `mspgemm-bench hybridmix` runs the
// same experiment with a best-of-reps harness and emits
// BENCH_hybridmix.json.
func BenchmarkHybridMix(b *testing.B) {
	sr := semiring.PlusTimes[float64]{}
	const scale, ef = 12, 32
	n := 1 << scale
	g := gen.Symmetrize(gen.ErdosRenyi(n, ef, 7))
	workloads := []struct {
		name string
		mask *sparse.Pattern
	}{
		{"density-sweep", bench.BandedMask(n, bench.SweepDensities, 9)},
		{"uniform-dense", gen.ErdosRenyiPattern(n, n/16, 10)},
		{"uniform-sparse", gen.ErdosRenyiPattern(n, 2, 11)},
	}
	algos := []core.Algorithm{core.AlgoMSA, core.AlgoHash, core.AlgoMCA, core.AlgoHeap, core.AlgoInner, core.AlgoHybrid}
	for _, wl := range workloads {
		for _, algo := range algos {
			opt := core.Options{Algorithm: algo, ReuseOutput: true}
			plan, err := core.NewPlan(sr, wl.mask, g, g, opt, nil)
			if err != nil {
				b.Fatal(err)
			}
			b.Run(wl.name+"/"+algo.String(), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, err := plan.Execute(g, g); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkBitmapMix — the MaskedBit bitmap-state accumulator
// (DESIGN.md §12) against the byte-state MSA and the Hybrid menu with
// and without it. The dense-mask workload (mask degree n/4 over
// edge-factor-8 inputs) is walk-dominated — the class MaskedBit's
// 8x-smaller state traffic targets; the density sweep checks the
// Hybrid selector only binds MaskedBit where it wins. `mspgemm-bench
// bitmap` runs the same comparison with a best-of-reps harness and
// emits BENCH_bitmap.json, which CI gates on.
func BenchmarkBitmapMix(b *testing.B) {
	sr := semiring.PlusTimes[float64]{}
	const scale, ef = 12, 8
	n := 1 << scale
	g := gen.Symmetrize(gen.ErdosRenyi(n, ef, 11))
	workloads := []struct {
		name string
		mask *sparse.Pattern
	}{
		{"dense-mask", gen.ErdosRenyiPattern(n, n/4, 13)},
		{"density-sweep", bench.BandedMask(n, bench.SweepDensities, 14)},
		{"uniform-sparse", gen.ErdosRenyiPattern(n, 2, 15)},
	}
	schemes := []struct {
		name string
		opt  core.Options
	}{
		{"MSA", core.Options{Algorithm: core.AlgoMSA, ReuseOutput: true}},
		{"MaskedBit", core.Options{Algorithm: core.AlgoMaskedBit, ReuseOutput: true}},
		{"Hybrid", core.Options{Algorithm: core.AlgoHybrid, ReuseOutput: true}},
		{"Hybrid-noMaskedBit", core.Options{
			Algorithm:      core.AlgoHybrid,
			HybridFamilies: core.Families(core.FamMSA, core.FamHash, core.FamHeap, core.FamPull),
			ReuseOutput:    true,
		}},
	}
	for _, wl := range workloads {
		for _, sc := range schemes {
			plan, err := core.NewPlan(sr, wl.mask, g, g, sc.opt, nil)
			if err != nil {
				b.Fatal(err)
			}
			b.Run(wl.name+"/"+sc.name, func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, err := plan.Execute(g, g); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkCancelOverhead — the cost of cancellation-aware kernels
// (DESIGN.md §15): the same plan on the same executor with no cancel
// token versus a live, never-latched one, on the uniform ER self-mask
// control where a fixed per-block polling cost cannot hide behind row
// skew. `mspgemm-bench cancel` runs the same comparison with an
// interleaved best-of-reps harness and emits BENCH_cancel.json, whose
// ratio CI gates at the ≤2% checkpoint-overhead budget.
func BenchmarkCancelOverhead(b *testing.B) {
	sr := semiring.PlusTimes[float64]{}
	const scale, ef = 12, 8
	g := gen.Symmetrize(gen.ErdosRenyi(1<<scale, ef, 17))
	opt := core.Options{Algorithm: core.AlgoMSA, ReuseOutput: true}
	plan, err := core.NewPlan(sr, g.PatternView(), g, g, opt, nil)
	if err != nil {
		b.Fatal(err)
	}
	exec := core.NewExecutor[float64](sr)
	arms := []struct {
		name string
		eo   core.ExecOptions
	}{
		{"no-token", core.ExecOptions{ReuseOutput: true}},
		{"token", core.ExecOptions{ReuseOutput: true, Cancel: &parallel.CancelToken{}}},
	}
	for _, arm := range arms {
		b.Run(arm.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := plan.ExecuteOnOpts(exec, g, g, arm.eo); err != nil {
					b.Fatal(err)
				}
			}
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

// BenchmarkSchedSkew — the DESIGN.md §9 scheduling experiment: the same
// masked product under fixed-grain, cost-partitioned, and work-stealing
// scheduling, on a degree-ascending R-MAT graph whose tail-adjacent
// hub rows break a fixed 64-row grain (the heavy blocks are claimed
// last, with nothing left to balance them against), and on a uniform
// ER control where the strategies must tie. The acceptance target (cost-guided ≥ 1.3× over
// fixed grain on the skewed input at ≥ 4 threads, ≤ 5% regression on
// ER) needs real hardware parallelism; run with GOMAXPROCS ≥ 4.
func BenchmarkSchedSkew(b *testing.B) {
	sr := semiring.PlusTimes[float64]{}
	workloads := []struct {
		name string
		g    *sparse.CSR[float64]
	}{
		{"rmat-hubs", bench.SkewedGraph(12, 16, 33)},
		{"er-uniform", gen.Symmetrize(gen.ErdosRenyi(1<<12, 16, 34))},
	}
	for _, wl := range workloads {
		mask := wl.g.PatternView()
		for _, threads := range []int{2, 4, 8} {
			for _, mode := range []core.Schedule{core.SchedFixedGrain, core.SchedCostPartition, core.SchedWorkSteal} {
				opt := core.Options{Algorithm: core.AlgoMSA, Threads: threads, Schedule: mode, ReuseOutput: true}
				plan, err := core.NewPlan(sr, mask, wl.g, wl.g, opt, nil)
				if err != nil {
					b.Fatal(err)
				}
				b.Run(fmt.Sprintf("%s/threads=%d/%v", wl.name, threads, mode), func(b *testing.B) {
					b.ReportAllocs()
					for i := 0; i < b.N; i++ {
						if _, err := plan.Execute(wl.g, wl.g); err != nil {
							b.Fatal(err)
						}
					}
				})
			}
		}
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
