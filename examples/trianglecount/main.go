// Triangle counting (paper §8.2): count = sum(L ⊙ (L·L)) over
// plus-times on unit values (the plus-pair semiring), where L is the
// lower triangle of the degree-relabeled adjacency matrix. Compares all
// masked-SpGEMM algorithm families on the same graph and reports rates.
package main

import (
	"fmt"
	"log"
	"time"

	maskedspgemm "maskedspgemm"
	"maskedspgemm/internal/core"
	"maskedspgemm/internal/graph"
)

func main() {
	// A scale-13 R-MAT graph (8192 vertices) with Graph500 parameters.
	g := maskedspgemm.RMAT(13, 16, 42)
	fmt.Printf("graph: %d vertices, %d edges\n", g.Rows, g.NNZ()/2)

	// Prepare once (degree sort + lower triangle), then time only the
	// masked multiplication, exactly as the paper benchmarks it.
	w := graph.PrepareTriangleCount(g)
	flops := 2 * float64(w.Flops())

	schemes := []core.Options{
		{Algorithm: core.AlgoMSA},
		{Algorithm: core.AlgoHash},
		{Algorithm: core.AlgoMCA},
		{Algorithm: core.AlgoHeap},
		{Algorithm: core.AlgoHeapDot},
		{Algorithm: core.AlgoInner},
		{Algorithm: core.AlgoMSA, Phases: core.TwoPhase},
		{Algorithm: core.AlgoSaxpyThenMask},
		{Algorithm: core.AlgoDotTranspose},
	}
	var reference int64 = -1
	for _, opt := range schemes {
		start := time.Now()
		count, err := w.Count(opt)
		elapsed := time.Since(start)
		if err != nil {
			log.Fatal(err)
		}
		if reference < 0 {
			reference = count
		} else if count != reference {
			log.Fatalf("scheme %s disagrees: %d != %d", opt.SchemeName(), count, reference)
		}
		fmt.Printf("  %-14s %10d triangles  %8.2fms  %7.3f GFLOPS\n",
			opt.SchemeName(), count, float64(elapsed.Microseconds())/1000,
			flops/elapsed.Seconds()/1e9)
	}
}
