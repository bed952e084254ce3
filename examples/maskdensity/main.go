// Mask-density exploration (paper §8.1 / Figure 7): sweep the mask
// degree against the input degree on Erdős-Rényi matrices and print
// which algorithm family wins each cell — a miniature of the paper's
// heat map, runnable in about half a minute (every cell times each
// family in 15 interleaved rounds).
package main

import (
	"fmt"
	"log"
	"os"

	"maskedspgemm/internal/bench"
)

func main() {
	cfg := bench.Fig7Config{
		Dim:          1 << 11,
		MaskDegrees:  []int{1, 4, 16, 64, 256},
		InputDegrees: []int{1, 4, 16, 64},
		Seed:         7,
	}
	pts, err := bench.RunFig7(cfg)
	if err != nil {
		log.Fatal(err)
	}
	bench.WriteFig7(os.Stdout, cfg, pts)

	fmt.Println("\nreading the grid (paper §8.1):")
	fmt.Println(" * sparse mask + dense inputs (bottom-left)  -> Inner (pull) wins")
	fmt.Println(" * dense mask + sparse inputs (top-right)    -> Heap family wins")
	fmt.Println(" * comparable densities (middle band)        -> MSA / Hash win")
}
