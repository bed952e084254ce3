// Command mspgemm-bench regenerates the paper's evaluation artifacts
// (Figures 7–16) on synthetic workloads, plus the kernel bench of
// DESIGN.md §9, §10, §12 and §15. Each figure is a subcommand; "all"
// runs every figure at the default (CI-scale) sizes; "kernels" times
// the kernel case table (single families, Hybrid and its ablation,
// MSA at each width, the cancel token on and off) in
// interleaved rounds, judges its gate rows, prints the tables and
// writes BENCH_kernels.json to the working directory.
//
// Usage:
//
//	mspgemm-bench [flags] fig7|fig8|fig9|fig10|fig11|fig12|fig13|fig14|fig15|fig16|kernels|all
//
// Flags:
//
//	-threads N        worker goroutines (default GOMAXPROCS)
//	-reps N           timing repetitions per figure point (default 3)
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
		reps     = flag.Int("reps", 3, "timing repetitions per figure point")
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
		reps:     *reps,
		scaleMax: *scaleMax,
		batch:    *batch,
		dimExp:   *dimExp,
		ktrussK:  *ktrussK,
	}
	figure := flag.Arg(0)
	var err error
	if figure == "all" {
		for _, f := range []string{"fig7", "fig8", "fig9", "fig10", "fig11", "fig12", "fig13", "fig14", "fig15", "fig16"} {
			if err = r.run(f); err != nil {
				break
			}
			fmt.Println()
		}
	} else {
		err = r.run(figure)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "error:", err)
		os.Exit(1)
	}
}

// kernelsOut is where "kernels" writes its report.
const kernelsOut = "BENCH_kernels.json"

type runner struct {
	threads, reps, scaleMax, batch, dimExp, ktrussK int
}

// scales returns the R-MAT sweep 8..scaleMax (paper: 8..20).
func (r runner) scales() []int {
	var out []int
	for s := 8; s <= r.scaleMax; s++ {
		out = append(out, s)
	}
	return out
}

func (r runner) run(figure string) error {
	w := os.Stdout
	switch figure {
	case "fig7":
		cfg := bench.DefaultFig7Config()
		cfg.Dim = 1 << r.dimExp
		cfg.Threads = r.threads
		cfg.Reps = r.reps
		cells, err := bench.RunFig7(cfg)
		if err != nil {
			return err
		}
		bench.WriteFig7(w, cfg, cells)
	case "fig8":
		p, err := bench.RunProfile(bench.ProfileConfig{
			App: bench.AppTriangleCount, Instances: gen.Suite(r.scaleMax),
			Schemes: bench.OurSchemes(), Threads: r.threads, Reps: r.reps,
		})
		if err != nil {
			return err
		}
		bench.WriteProfile(w, "Figure 8: Triangle Counting — our 12 variants (performance profile)", p)
	case "fig9":
		p, err := bench.RunProfile(bench.ProfileConfig{
			App: bench.AppTriangleCount, Instances: gen.Suite(r.scaleMax),
			Schemes: append(bench.BestThreeSchemes(), bench.BaselineSchemes()...),
			Threads: r.threads, Reps: r.reps,
		})
		if err != nil {
			return err
		}
		bench.WriteProfile(w, "Figure 9: Triangle Counting — ours vs SS:GB-style baselines", p)
	case "fig10":
		cfg := bench.ScaleSweepConfig{
			App: bench.AppTriangleCount, Scales: r.scales(),
			Schemes: append(bench.BestThreeSchemes(), bench.BaselineSchemes()...),
			Threads: r.threads, Reps: r.reps, Seed: 10,
		}
		pts, err := bench.RunScaleSweep(cfg)
		if err != nil {
			return err
		}
		bench.WriteScaleSweep(w, "Figure 10: Triangle Counting — GFLOPS vs R-MAT scale", "GFLOPS", cfg, pts)
	case "fig11":
		cfg := bench.ThreadSweepConfig{
			Scale: min(r.scaleMax, 14), Threads: bench.Widths(),
			Schemes: append(bench.BestThreeSchemes(), bench.BaselineSchemes()...),
			Reps:    r.reps, Seed: 11,
		}
		pts, err := bench.RunThreadSweep(cfg)
		if err != nil {
			return err
		}
		bench.WriteThreadSweep(w, fmt.Sprintf("Figure 11: Triangle Counting — strong scaling (R-MAT scale %d)", cfg.Scale), cfg, pts)
	case "fig12":
		p, err := bench.RunProfile(bench.ProfileConfig{
			App: bench.AppKTruss, Instances: gen.Suite(r.scaleMax),
			Schemes: bench.OurSchemes(), Threads: r.threads, Reps: r.reps, KTrussK: r.ktrussK,
		})
		if err != nil {
			return err
		}
		bench.WriteProfile(w, "Figure 12: k-truss — our variants (performance profile)", p)
	case "fig13":
		p, err := bench.RunProfile(bench.ProfileConfig{
			App: bench.AppKTruss, Instances: gen.Suite(r.scaleMax),
			Schemes: append(append([]bench.Scheme{}, bench.BestThreeSchemes()...), bench.BaselineSchemes()...),
			Threads: r.threads, Reps: r.reps, KTrussK: r.ktrussK,
		})
		if err != nil {
			return err
		}
		bench.WriteProfile(w, "Figure 13: k-truss — ours vs SS:GB-style baselines", p)
	case "fig14":
		cfg := bench.ScaleSweepConfig{
			App: bench.AppKTruss, Scales: r.scales(),
			Schemes: append(bench.BestThreeSchemes(), bench.BaselineSchemes()...),
			Threads: r.threads, Reps: r.reps, KTrussK: r.ktrussK, Seed: 14,
		}
		pts, err := bench.RunScaleSweep(cfg)
		if err != nil {
			return err
		}
		bench.WriteScaleSweep(w, "Figure 14: k-truss — GFLOPS vs R-MAT scale", "GFLOPS", cfg, pts)
	case "fig15":
		cfg := bench.ScaleSweepConfig{
			App: bench.AppBetweenness, Scales: r.scales(),
			Schemes: bench.ComplementSchemes(),
			Threads: r.threads, Reps: r.reps, BCBatch: r.batch, Seed: 15,
		}
		pts, err := bench.RunScaleSweep(cfg)
		if err != nil {
			return err
		}
		bench.WriteScaleSweep(w, "Figure 15: Betweenness Centrality — MTEPS vs R-MAT scale", "MTEPS", cfg, pts)
	case "fig16":
		schemes := append(bench.ComplementSchemes(), bench.BaselineSchemes()[0]) // + SS:SAXPY*
		p, err := bench.RunProfile(bench.ProfileConfig{
			App: bench.AppBetweenness, Instances: gen.SmallSuite(),
			Schemes: schemes, Threads: r.threads, Reps: r.reps, BCBatch: r.batch,
		})
		if err != nil {
			return err
		}
		bench.WriteProfile(w, "Figure 16: Betweenness Centrality — ours vs SS:SAXPY*", p)
	case "kernels":
		rep, err := bench.RunKernels(min(r.scaleMax, 12), r.threads)
		if err != nil {
			return err
		}
		bench.WriteKernels(w, rep)
		f, err := os.Create(kernelsOut)
		if err != nil {
			return err
		}
		if err := bench.WriteKernelsJSON(f, rep); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Fprintf(w, "wrote %s\n", kernelsOut)
	default:
		return fmt.Errorf("unknown figure %q", figure)
	}
	return nil
}
