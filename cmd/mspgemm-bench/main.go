// Command mspgemm-bench regenerates the paper's evaluation artifacts
// (Figures 7–16) on synthetic workloads, plus the scheduler-skew
// experiment of DESIGN.md §9 and the per-row poly-algorithm
// experiment of DESIGN.md §10. Each figure is a subcommand; "all"
// runs everything at the default (CI-scale) sizes; "sched" runs the
// scheduling sweep (BENCH_sched.json), "hybridmix" the mask-density
// mixed-binding sweep (BENCH_hybridmix.json), "bitmap" the MaskedBit
// accumulator experiment (BENCH_bitmap.json), and "cancel" the
// cancel-token polling overhead experiment (BENCH_cancel.json) behind
// the fault-containment CI gate.
//
// Usage:
//
//	mspgemm-bench [flags] fig7|fig8|fig9|fig10|fig11|fig12|fig13|fig14|fig15|fig16|sched|hybridmix|bitmap|cancel|all
//
// Flags:
//
//	-threads N        worker goroutines (default GOMAXPROCS)
//	-reps N           timing repetitions per point (default 3)
//	-scale-max N      cap on R-MAT/ER scales (default 13; paper used 20)
//	-batch N          betweenness-centrality batch size (default 64; paper 512)
//	-dim N            Fig-7 matrix dimension exponent (default 12, i.e. 2^12)
//	-ktruss N         truss order k (default 5)
//	-sched-out F      where "sched" writes its JSON (default BENCH_sched.json)
//	-hybridmix-out F  where "hybridmix" writes its JSON (default BENCH_hybridmix.json)
//	-bitmap-out F     where "bitmap" writes its JSON (default BENCH_bitmap.json)
//	-cancel-out F     where "cancel" writes its JSON (default BENCH_cancel.json)
//	-selftest         cross-check all schemes before benchmarking
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"

	"maskedspgemm/internal/bench"
	"maskedspgemm/internal/gen"
)

func main() {
	var (
		threads  = flag.Int("threads", 0, "worker goroutines (0 = GOMAXPROCS)")
		reps     = flag.Int("reps", 3, "timing repetitions per point")
		scaleMax = flag.Int("scale-max", 13, "largest R-MAT/ER scale used")
		batch    = flag.Int("batch", 64, "BC source batch size")
		dimExp   = flag.Int("dim", 12, "Fig-7 dimension exponent (2^dim)")
		ktrussK  = flag.Int("ktruss", 5, "k-truss order")
		schedOut = flag.String("sched-out", "BENCH_sched.json", "output path for the sched subcommand's JSON")
		mixOut   = flag.String("hybridmix-out", "BENCH_hybridmix.json", "output path for the hybridmix subcommand's JSON")
		bitOut   = flag.String("bitmap-out", "BENCH_bitmap.json", "output path for the bitmap subcommand's JSON")
		cancOut  = flag.String("cancel-out", "BENCH_cancel.json", "output path for the cancel subcommand's JSON")
		selftest = flag.Bool("selftest", false, "run the cross-scheme self-test first")
	)
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: mspgemm-bench [flags] fig7|...|fig16|sched|hybridmix|bitmap|cancel|all")
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
		schedOut: *schedOut,
		mixOut:   *mixOut,
		bitOut:   *bitOut,
		cancOut:  *cancOut,
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

type runner struct {
	threads, reps, scaleMax, batch, dimExp, ktrussK int
	schedOut, mixOut, bitOut, cancOut               string
}

// scales returns the R-MAT sweep 8..scaleMax (paper: 8..20).
func (r runner) scales() []int {
	var out []int
	for s := 8; s <= r.scaleMax; s++ {
		out = append(out, s)
	}
	return out
}

// threadsSweep returns 1,2,4,…,NumCPU for the strong-scaling figure.
func (r runner) threadsSweep() []int {
	maxT := runtime.GOMAXPROCS(0)
	var out []int
	for t := 1; t <= maxT; t *= 2 {
		out = append(out, t)
	}
	if out[len(out)-1] != maxT {
		out = append(out, maxT)
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
			Scale: min(r.scaleMax, 14), Threads: r.threadsSweep(),
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
	case "sched":
		cfg := bench.DefaultSchedSkewConfig()
		if r.scaleMax < cfg.Scale {
			cfg.Scale = r.scaleMax
		}
		cfg.Reps = r.reps
		cfg.Threads = r.threadsSweep()
		pts, err := bench.RunSchedSkew(cfg)
		if err != nil {
			return err
		}
		bench.WriteSchedSkew(w, cfg, pts)
		f, err := os.Create(r.schedOut)
		if err != nil {
			return err
		}
		if err := bench.WriteSchedJSON(f, cfg, pts); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Fprintf(w, "wrote %s\n", r.schedOut)
	case "hybridmix":
		cfg := bench.DefaultHybridMixConfig()
		if r.scaleMax < cfg.Scale {
			cfg.Scale = r.scaleMax
		}
		cfg.Reps = r.reps
		cfg.Threads = r.threads
		pts, err := bench.RunHybridMix(cfg)
		if err != nil {
			return err
		}
		bench.WriteHybridMix(w, cfg, pts)
		f, err := os.Create(r.mixOut)
		if err != nil {
			return err
		}
		if err := bench.WriteHybridMixJSON(f, cfg, pts); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Fprintf(w, "wrote %s\n", r.mixOut)
	case "bitmap":
		cfg := bench.DefaultBitmapMixConfig()
		if r.scaleMax < cfg.Scale {
			cfg.Scale = r.scaleMax
		}
		cfg.Reps = r.reps
		cfg.Threads = r.threads
		pts, err := bench.RunBitmapMix(cfg)
		if err != nil {
			return err
		}
		bench.WriteBitmapMix(w, cfg, pts)
		f, err := os.Create(r.bitOut)
		if err != nil {
			return err
		}
		if err := bench.WriteBitmapMixJSON(f, cfg, pts); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Fprintf(w, "wrote %s\n", r.bitOut)
	case "cancel":
		cfg := bench.DefaultCancelOverheadConfig()
		if r.scaleMax < cfg.Scale {
			cfg.Scale = r.scaleMax
		}
		cfg.Reps = r.reps
		cfg.Threads = r.threads
		res, err := bench.RunCancelOverhead(cfg)
		if err != nil {
			return err
		}
		bench.WriteCancelOverhead(w, cfg, res)
		f, err := os.Create(r.cancOut)
		if err != nil {
			return err
		}
		if err := bench.WriteCancelOverheadJSON(f, cfg, res); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Fprintf(w, "wrote %s\n", r.cancOut)
	default:
		return fmt.Errorf("unknown figure %q", figure)
	}
	return nil
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
