// Command mspgemm-app runs one of the paper's benchmark applications —
// triangle counting, k-truss, or betweenness centrality — on a graph
// loaded from a Matrix Market file or generated on the fly, printing
// the result and the time spent in masked SpGEMM.
//
// Usage:
//
//	mspgemm-app -app tc|ktruss|bc [-input g.mtx | -rmat 14] [flags]
//
// Examples:
//
//	mspgemm-app -app tc -rmat 14 -algo msa
//	mspgemm-app -app ktruss -k 5 -input graph.mtx -algo hash -two-phase
//	mspgemm-app -app bc -rmat 12 -batch 128 -algo msa
//	mspgemm-app -app ktruss -rmat 12 -repeat 5   # served-traffic shape
//
// With -repeat > 1 the application is run repeatedly over the same
// prepared graph — the served-traffic shape — reusing plans and
// workspaces across runs; the k-truss path reports its plan-cache
// counters afterwards.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"maskedspgemm/internal/core"
	"maskedspgemm/internal/gen"
	"maskedspgemm/internal/graph"
	"maskedspgemm/internal/mtx"
	"maskedspgemm/internal/sparse"
	"maskedspgemm/internal/stats"
)

func main() {
	var (
		app       = flag.String("app", "tc", "application: tc, ktruss, bc, or bfs")
		input     = flag.String("input", "", "Matrix Market file (overrides -rmat)")
		rmat      = flag.Int("rmat", 12, "generate a symmetric R-MAT graph of this scale")
		ef        = flag.Int("ef", 16, "R-MAT edge factor")
		seed      = flag.Uint64("seed", 1, "generator seed")
		algo      = flag.String("algo", "msa", "algorithm: msa, hash, mca, heap, heapdot, inner, maskedbit, hybrid, saxpy, dot")
		twoPhase  = flag.Bool("two-phase", false, "use the symbolic+numeric strategy (the paper's six schemes only)")
		threads   = flag.Int("threads", 0, "worker goroutines (0 = GOMAXPROCS)")
		k         = flag.Int("k", 5, "k-truss order")
		batch     = flag.Int("batch", 64, "BC source batch size")
		repeat    = flag.Int("repeat", 1, "run the application this many times over one prepared graph")
		showStats = flag.Bool("stats", false, "print structural statistics of the graph")
	)
	flag.Parse()

	opt, err := parseOptions(*algo, *twoPhase, *threads)
	if err != nil {
		fatal(err)
	}
	g, err := loadGraph(*input, *rmat, *ef, *seed)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("graph: %d vertices, %d edges\n", g.Rows, g.NNZ()/2)
	if *showStats {
		stats.Collect(g).Write(os.Stdout)
	}

	if *repeat < 1 {
		*repeat = 1
	}
	switch *app {
	case "tc":
		w := graph.PrepareTriangleCount(g)
		// One plan serves every repeat: the structure is fixed, so runs
		// after the first skip all analysis and steady-state allocation.
		plan, err := w.NewPlan(opt, nil)
		if err != nil {
			fatal(err)
		}
		for run := 0; run < *repeat; run++ {
			start := time.Now()
			count, err := w.CountWith(plan)
			if err != nil {
				fatal(err)
			}
			elapsed := time.Since(start)
			fmt.Printf("triangles: %d\n", count)
			fmt.Printf("masked SpGEMM time: %v  (%.3f GFLOPS)\n", elapsed,
				2*float64(w.Flops())/elapsed.Seconds()/1e9)
		}
	case "ktruss":
		w, err := graph.PrepareKTruss(g)
		if err != nil {
			fatal(err)
		}
		for run := 0; run < *repeat; run++ {
			start := time.Now()
			res, err := w.Run(*k, opt)
			if err != nil {
				fatal(err)
			}
			elapsed := time.Since(start)
			fmt.Printf("%d-truss: %d edges in %d iterations (%d plans from cache)\n",
				*k, res.Truss.NNZ()/2, res.Iterations, res.PlansReused)
			fmt.Printf("total time: %v  (%.3f GFLOPS over masked ops)\n", elapsed,
				2*float64(res.Flops)/elapsed.Seconds()/1e9)
		}
		if *repeat > 1 {
			st := w.CacheStats()
			fmt.Printf("plan cache: %d hits, %d misses, %d entries\n", st.Hits, st.Misses, st.Entries)
		}
	case "bc":
		sources := graph.BatchSources(g.Rows, *batch)
		edges := float64(g.NNZ()) / 2
		for run := 0; run < *repeat; run++ {
			res, err := graph.Betweenness(g, sources, opt)
			if err != nil {
				fatal(err)
			}
			top, topv := 0, -1.0
			for v, c := range res.Centrality {
				if c > topv {
					top, topv = v, c
				}
			}
			fmt.Printf("betweenness: batch=%d depth=%d  top vertex %d (%.1f)\n",
				len(sources), res.Depth, top, topv)
			fmt.Printf("masked SpGEMM time: %v  (%.3f MTEPS)\n", res.MaskedTime,
				float64(len(sources))*edges/res.MaskedTime.Seconds()/1e6)
		}
	case "bfs":
		for run := 0; run < *repeat; run++ {
			start := time.Now()
			res, err := graph.BFS(g, []int32{0}, graph.BFSAuto)
			if err != nil {
				fatal(err)
			}
			elapsed := time.Since(start)
			reached := 0
			for _, l := range res.Level {
				if l >= 0 {
					reached++
				}
			}
			fmt.Printf("bfs: reached %d/%d vertices, depth %d (%d push / %d pull levels)\n",
				reached, g.Rows, res.Depth, res.PushLevels, res.PullLevels)
			fmt.Printf("time: %v\n", elapsed)
		}
	default:
		fatal(fmt.Errorf("unknown app %q (want tc, ktruss, bc, or bfs)", *app))
	}
}

// parseOptions maps CLI strings to core.Options.
func parseOptions(algo string, twoPhase bool, threads int) (core.Options, error) {
	opt := core.Options{Threads: threads}
	switch strings.ToLower(algo) {
	case "msa":
		opt.Algorithm = core.AlgoMSA
	case "hash":
		opt.Algorithm = core.AlgoHash
	case "mca":
		opt.Algorithm = core.AlgoMCA
	case "heap":
		opt.Algorithm = core.AlgoHeap
	case "heapdot":
		opt.Algorithm = core.AlgoHeapDot
	case "inner":
		opt.Algorithm = core.AlgoInner
	case "maskedbit":
		opt.Algorithm = core.AlgoMaskedBit
	case "hybrid":
		opt.Algorithm = core.AlgoHybrid
	case "saxpy":
		opt.Algorithm = core.AlgoSaxpyThenMask
	case "dot":
		opt.Algorithm = core.AlgoDotTranspose
	default:
		return opt, fmt.Errorf("unknown algorithm %q", algo)
	}
	if twoPhase {
		opt.Phases = core.TwoPhase
	}
	return opt, nil
}

// loadGraph reads the input file or generates an R-MAT graph, then
// symmetrizes and cleans it for the undirected applications.
func loadGraph(path string, scale, ef int, seed uint64) (*sparse.CSR[float64], error) {
	if path == "" {
		return gen.RMATSymmetric(gen.RMATConfig{Scale: scale, EdgeFactor: ef, Seed: seed}), nil
	}
	m, _, err := mtx.ReadFile(path)
	if err != nil {
		return nil, err
	}
	if m.Rows != m.Cols {
		return nil, fmt.Errorf("graph must be square, got %dx%d", m.Rows, m.Cols)
	}
	return gen.Symmetrize(m), nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "error:", err)
	os.Exit(1)
}
