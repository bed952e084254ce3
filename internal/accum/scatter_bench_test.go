package accum_test

import (
	"testing"

	"maskedspgemm/internal/accum"
	"maskedspgemm/internal/bench"
	"maskedspgemm/internal/gen"
	"maskedspgemm/internal/sparse"
)

// plainRowAcc and complRowAcc are the numeric protocols the push drivers
// in internal/core call; the benchmark drives them the same way, through
// a type parameter, so each Scatter is one dictionary call per A entry.
type plainRowAcc interface {
	Begin(maskRow []int32)
	Scatter(a float64, bCols []int32, bVals []float64)
	Gather(maskRow []int32, outIdx []int32, outVal []float64) int
}

type complRowAcc interface {
	BeginSized(maskRow []int32, bound int)
	Scatter(a float64, bCols []int32, bVals []float64)
	Gather(outIdx []int32, outVal []float64) int
}

// plainProduct runs every row of the self-masked C = A ⊙ (A·A)
// serially: Begin, one Scatter per A entry over its B row, Gather. It
// returns the output nnz.
func plainProduct[A plainRowAcc](acc A, a *sparse.CSR[float64], outIdx []int32, outVal []float64) int {
	nnz := 0
	for i := 0; i < a.Rows; i++ {
		maskRow := a.Row(i)
		if len(maskRow) == 0 {
			continue
		}
		acc.Begin(maskRow)
		vals := a.RowVals(i)
		for t, k := range a.Row(i) {
			acc.Scatter(vals[t], a.Row(int(k)), a.RowVals(int(k)))
		}
		nnz += acc.Gather(maskRow, outIdx, outVal)
	}
	return nnz
}

// complProduct is plainProduct for the complemented C = ¬A ⊙ (A·A).
func complProduct[A complRowAcc](acc A, a *sparse.CSR[float64], outIdx []int32, outVal []float64) int {
	nnz := 0
	for i := 0; i < a.Rows; i++ {
		bound := 0
		for _, k := range a.Row(i) {
			bound += a.RowNNZ(int(k))
		}
		acc.BeginSized(a.Row(i), bound)
		vals := a.RowVals(i)
		for t, k := range a.Row(i) {
			acc.Scatter(vals[t], a.Row(int(k)), a.RowVals(int(k)))
		}
		nnz += acc.Gather(outIdx, outVal)
	}
	return nnz
}

// BenchmarkScatterPlusTimes is the go/no-go measurement for the float64
// plus-times Scatter loops (DESIGN.md §12, "The served semiring,
// specialised"). It times the whole serial row loop of the products the
// two kernel-bound benchmark workloads serve: tc-skew-ref's self-masked
// C = A ⊙ (A·A) on bench.SkewedGraph(12, 8, 1), and delta-compl-ref's
// complemented C = ¬A ⊙ (A·A) on a symmetric ER(2¹¹, degree 8) graph.
// Each accumulator runs generic (the semiring's Add and Mul are
// dictionary calls) and specialised, on the same arrays; both must
// produce the same output nnz.
func BenchmarkScatterPlusTimes(b *testing.B) {
	var sr accum.PlusTimes64
	skew := bench.SkewedGraph(12, 8, 1)
	er := gen.Symmetrize(gen.ErdosRenyi(1<<11, 8, 1))
	outIdx := make([]int32, max(skew.Cols, er.Cols))
	outVal := make([]float64, len(outIdx))
	msa := accum.NewMSA[float64](sr, skew.Cols)
	bit := accum.NewMaskedBit[float64](sr, skew.Cols)
	bitC := accum.NewMaskedBitC[float64](sr, er.Cols)
	type pair struct {
		name              string
		generic, specific func() int
	}
	for _, p := range []pair{
		{"tc-skew-ref/MSA",
			func() int { return plainProduct(msa, skew, outIdx, outVal) },
			func() int { return plainProduct(accum.MSAPlusTimes{MSA: msa}, skew, outIdx, outVal) }},
		{"tc-skew-ref/MaskedBit",
			func() int { return plainProduct(bit, skew, outIdx, outVal) },
			func() int { return plainProduct(accum.MaskedBitPlusTimes{MaskedBit: bit}, skew, outIdx, outVal) }},
		{"delta-compl-ref/MaskedBitC",
			func() int { return complProduct(bitC, er, outIdx, outVal) },
			func() int { return complProduct(accum.MaskedBitCPlusTimes{MaskedBitC: bitC}, er, outIdx, outVal) }},
	} {
		if g, s := p.generic(), p.specific(); g != s {
			b.Fatalf("%s: generic output nnz %d, specialised %d", p.name, g, s)
		}
		for _, run := range []struct {
			kind string
			fn   func() int
		}{{"generic", p.generic}, {"plustimes", p.specific}} {
			b.Run(p.name+"/"+run.kind, func(b *testing.B) {
				for b.Loop() {
					run.fn()
				}
			})
		}
	}
}
