// Command mspgemm-bench regenerates the paper's evaluation artifacts
// (Figures 7–16) on synthetic workloads, plus the kernel bench of
// DESIGN.md §9, §10, §12 and §15. Each figure is a subcommand. Every
// figure times its cell groups (one per instance, R-MAT scale, Fig. 7
// cell, or Fig. 11's one graph) in the kernel bench's interleaved
// rounds, and reads each point as the median of its rounds. "all" runs
// every figure at the default (CI-scale) sizes and writes every point,
// with its 99% interval, to BENCH_paper.json in the working directory;
// "kernels" times the kernel case table (single families, Hybrid and
// its ablation, MSA at each width, the cancel token on and off),
// judges its gate rows, prints the tables and writes BENCH_kernels.json
// to the working directory.
//
// Usage:
//
//	mspgemm-bench [flags] fig7|fig8|fig9|fig10|fig11|fig12|fig13|fig14|fig15|fig16|kernels|all
//
// Flags:
//
//	-threads N        worker goroutines (default GOMAXPROCS)
//	-scale-max N      cap on R-MAT/ER scales (default 13; paper used 20)
//	-batch N          betweenness-centrality batch size (default 64; paper 512)
//	-dim N            Fig-7 matrix dimension exponent (default 12, i.e. 2^12)
//	-ktruss N         truss order k (default 5)
//	-selftest         cross-check all schemes before benchmarking
package main

import (
	"flag"
	"fmt"
	"os"

	"maskedspgemm/internal/bench"
	"maskedspgemm/internal/gen"
)

func main() {
	var (
		threads  = flag.Int("threads", 0, "worker goroutines (0 = GOMAXPROCS)")
		scaleMax = flag.Int("scale-max", 13, "largest R-MAT/ER scale used")
		batch    = flag.Int("batch", 64, "BC source batch size")
		dimExp   = flag.Int("dim", 12, "Fig-7 dimension exponent (2^dim)")
		ktrussK  = flag.Int("ktruss", 5, "k-truss order")
		selftest = flag.Bool("selftest", false, "run the cross-scheme self-test first")
	)
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: mspgemm-bench [flags] fig7|...|fig16|kernels|all")
		flag.PrintDefaults()
		os.Exit(2)
	}
	if *selftest {
		if err := bench.CheckCorrectness(*threads); err != nil {
			fmt.Fprintln(os.Stderr, "self-test failed:", err)
			os.Exit(1)
		}
		fmt.Println("self-test: all schemes agree")
	}
	r := runner{
		threads:  *threads,
		scaleMax: *scaleMax,
		batch:    *batch,
		dimExp:   *dimExp,
		ktrussK:  *ktrussK,
	}
	figure := flag.Arg(0)
	var err error
	if figure == "all" {
		rep := bench.NewPaperReport(*threads, *scaleMax)
		for _, f := range []string{"fig7", "fig8", "fig9", "fig10", "fig11", "fig12", "fig13", "fig14", "fig15", "fig16"} {
			var pts []bench.Point
			if pts, err = r.run(f); err != nil {
				break
			}
			rep.Figures = append(rep.Figures, bench.PaperFigure{Figure: f, Points: pts})
			fmt.Println()
		}
		if err == nil {
			err = writeReport(paperOut, rep)
		}
	} else {
		_, err = r.run(figure)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "error:", err)
		os.Exit(1)
	}
}

// The reports "kernels" and "all" write.
const (
	kernelsOut = "BENCH_kernels.json"
	paperOut   = "BENCH_paper.json"
)

// writeReport writes rep as a JSON file in the working directory.
func writeReport(name string, rep any) error {
	f, err := os.Create(name)
	if err != nil {
		return err
	}
	if err := bench.WriteJSON(f, rep); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Printf("wrote %s\n", name)
	return nil
}

type runner struct {
	threads, scaleMax, batch, dimExp, ktrussK int
}

// scales returns the R-MAT sweep 8..scaleMax (paper: 8..20).
func (r runner) scales() []int {
	var out []int
	for s := 8; s <= r.scaleMax; s++ {
		out = append(out, s)
	}
	return out
}

// run runs one figure, prints it, and returns its points.
func (r runner) run(figure string) ([]bench.Point, error) {
	w := os.Stdout
	profile := func(caption string, app bench.AppKind, suite []gen.Instance, schemes []bench.Scheme) ([]bench.Point, error) {
		pts, err := bench.RunProfile(bench.ProfileConfig{
			App: app, Instances: suite, Schemes: schemes,
			Threads: r.threads, KTrussK: r.ktrussK, BCBatch: r.batch,
		})
		if err == nil {
			bench.WriteProfile(w, caption, pts)
		}
		return pts, err
	}
	sweep := func(caption string, app bench.AppKind, schemes []bench.Scheme, seed uint64) ([]bench.Point, error) {
		pts, err := bench.RunScaleSweep(bench.ScaleSweepConfig{
			App: app, Scales: r.scales(), Schemes: schemes,
			Threads: r.threads, KTrussK: r.ktrussK, BCBatch: r.batch, Seed: seed,
		})
		if err == nil {
			bench.WriteSeries(w, caption, "scheme\\scale", app.RateUnit(), pts)
		}
		return pts, err
	}
	switch figure {
	case "fig7":
		cfg := bench.DefaultFig7Config()
		cfg.Dim = 1 << r.dimExp
		cfg.Threads = r.threads
		pts, err := bench.RunFig7(cfg)
		if err == nil {
			bench.WriteFig7(w, cfg, pts)
		}
		return pts, err
	case "fig8":
		return profile("Figure 8: Triangle Counting — our 12 variants (performance profile)",
			bench.AppTriangleCount, gen.Suite(r.scaleMax), bench.OurSchemes())
	case "fig9":
		return profile("Figure 9: Triangle Counting — ours vs SS:GB-style baselines",
			bench.AppTriangleCount, gen.Suite(r.scaleMax), bench.VsBaselineSchemes())
	case "fig10":
		return sweep("Figure 10: Triangle Counting — GFLOPS vs R-MAT scale",
			bench.AppTriangleCount, bench.VsBaselineSchemes(), 10)
	case "fig11":
		scale := min(r.scaleMax, 14)
		pts, err := bench.RunThreadSweep(bench.ThreadSweepConfig{
			Scale: scale, Threads: bench.Widths(), Schemes: bench.VsBaselineSchemes(), Seed: 11,
		})
		if err == nil {
			bench.WriteSeries(w, fmt.Sprintf("Figure 11: Triangle Counting — strong scaling (R-MAT scale %d)", scale),
				"scheme\\thr", "GFLOPS", pts)
		}
		return pts, err
	case "fig12":
		return profile("Figure 12: k-truss — our variants (performance profile)",
			bench.AppKTruss, gen.Suite(r.scaleMax), bench.OurSchemes())
	case "fig13":
		return profile("Figure 13: k-truss — ours vs SS:GB-style baselines",
			bench.AppKTruss, gen.Suite(r.scaleMax), bench.VsBaselineSchemes())
	case "fig14":
		return sweep("Figure 14: k-truss — GFLOPS vs R-MAT scale",
			bench.AppKTruss, bench.VsBaselineSchemes(), 14)
	case "fig15":
		return sweep("Figure 15: Betweenness Centrality — MTEPS vs R-MAT scale",
			bench.AppBetweenness, bench.ComplementSchemes(), 15)
	case "fig16":
		return profile("Figure 16: Betweenness Centrality — ours vs SS:SAXPY*",
			bench.AppBetweenness, gen.SmallSuite(), bench.Fig16Schemes())
	case "kernels":
		rep, err := bench.RunKernels(min(r.scaleMax, 12), r.threads)
		if err != nil {
			return nil, err
		}
		bench.WriteKernels(w, rep)
		return nil, writeReport(kernelsOut, rep)
	}
	return nil, fmt.Errorf("unknown figure %q", figure)
}
