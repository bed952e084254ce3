package accum

import (
	"fmt"
	"math/rand"
	"testing"
)

// BenchmarkMaskedBitCGather times one complemented MaskedBitC row —
// BeginSized, one first-touch one-entry Scatter per output key in
// shuffled order, Gather — with the out keys spread over a span of
// wordsPerKey bitset words per key. The word walk costs one visit per spanned word, a sort
// of the inserted list O(out·log out), so the grid brackets the point
// where one overtakes the other (DESIGN §12 records the result).
func BenchmarkMaskedBitCGather(b *testing.B) {
	for _, out := range []int{4, 32, 256} {
		for _, wordsPerKey := range []int{1, 2, 4, 8, 16, 64} {
			ncols := out * wordsPerKey * 64
			keys := spreadKeys(rand.New(rand.NewSource(1)), out, ncols)
			ops := make([]insertOp, len(keys))
			for i, k := range keys {
				ops[i] = insertOp{k, 1, 1}
			}
			batches := oneEntryBatches(ops)
			acc := NewMaskedBitC[float64](pt, ncols)
			outIdx := make([]int32, out)
			outVal := make([]float64, out)
			b.Run(fmt.Sprintf("out=%d/words-per-key=%d", out, wordsPerKey), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					acc.BeginSized(nil, out)
					for _, bt := range batches {
						acc.Scatter(bt.av, bt.cols, bt.vals)
					}
					if acc.Gather(outIdx, outVal) != out {
						b.Fatal("gather lost keys")
					}
				}
			})
		}
	}
}

// spreadKeys returns out distinct keys in [0, ncols), including both
// ends so the span is the full width, in random first-touch order.
func spreadKeys(r *rand.Rand, out, ncols int) []int32 {
	seen := map[int32]bool{0: true, int32(ncols - 1): true}
	keys := []int32{0, int32(ncols - 1)}
	for len(keys) < out {
		k := int32(r.Intn(ncols))
		if !seen[k] {
			seen[k] = true
			keys = append(keys, k)
		}
	}
	r.Shuffle(len(keys), func(i, j int) { keys[i], keys[j] = keys[j], keys[i] })
	return keys
}
