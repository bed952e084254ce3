package accum_test

import (
	"fmt"
	"math"
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

// plainProduct runs every row of C = M ⊙ (A·A) serially: Begin, one
// Scatter per A entry over its B row, Gather. It returns the output
// nnz.
func plainProduct[A plainRowAcc](acc A, mask *sparse.Pattern, a *sparse.CSR[float64], outIdx []int32, outVal []float64) int {
	nnz := 0
	for i := 0; i < a.Rows; i++ {
		nnz += plainRow(acc, mask.Row(i), a, i, outIdx, outVal)
	}
	return nnz
}

// plainRow runs row i of plainProduct.
func plainRow[A plainRowAcc](acc A, maskRow []int32, a *sparse.CSR[float64], i int, outIdx []int32, outVal []float64) int {
	if len(maskRow) == 0 {
		return 0
	}
	acc.Begin(maskRow)
	vals := a.RowVals(i)
	for t, k := range a.Row(i) {
		acc.Scatter(vals[t], a.Row(int(k)), a.RowVals(int(k)))
	}
	return acc.Gather(maskRow, outIdx, outVal)
}

// msaRule is a dense-row rule of the shape of internal/core's
// msaDenseRow: a row runs MSAPlusTimes' dense loop when its mask holds
// at least ncols/ratio entries and it scans at least scan B entries per
// mask entry. A ratio of 0 keeps every row on the sparse loop.
type msaRule struct{ ratio, scan int }

func (r msaRule) String() string {
	switch {
	case r.ratio == 0:
		return "rule=none"
	case r.scan == 0:
		return fmt.Sprintf("rule=n/%d,noscan", r.ratio)
	}
	return fmt.Sprintf("rule=n/%d,scan%d", r.ratio, r.scan)
}

func (r msaRule) dense(maskRow []int32, a *sparse.CSR[float64], i int) bool {
	if r.ratio == 0 || len(maskRow)*r.ratio < a.Cols {
		return false
	}
	scan := 0
	for _, k := range a.Row(i) {
		scan += a.RowNNZ(int(k))
	}
	return scan >= r.scan*len(maskRow)
}

// msaProduct is plainProduct for MSAPlusTimes, each row on the loop
// rule picks.
func msaProduct(msa *accum.MSA[float64, accum.PlusTimes64], rule msaRule, mask *sparse.Pattern, a *sparse.CSR[float64], outIdx []int32, outVal []float64) int {
	nnz := 0
	for i := 0; i < a.Rows; i++ {
		maskRow := mask.Row(i)
		acc := accum.MSAPlusTimes{MSA: msa, Dense: rule.dense(maskRow, a, i)}
		nnz += plainRow(acc, maskRow, a, i, outIdx, outVal)
	}
	return nnz
}

// complProduct is plainProduct for the complemented C = ¬A ⊙ (A·A).
func complProduct[A complRowAcc](acc A, a *sparse.CSR[float64], outIdx []int32, outVal []float64) int {
	nnz := 0
	for i := 0; i < a.Rows; i++ {
		nnz += complRow(acc, a, i, complBound(a, i), outIdx, outVal)
	}
	return nnz
}

// complBound is row i's population bound, Σ nnz(A_k*) over its A
// entries: internal/core's rowGen for B = A.
func complBound(a *sparse.CSR[float64], i int) int {
	bound := 0
	for _, k := range a.Row(i) {
		bound += a.RowNNZ(int(k))
	}
	return bound
}

// complRow runs row i of complProduct.
func complRow[A complRowAcc](acc A, a *sparse.CSR[float64], i, bound int, outIdx []int32, outVal []float64) int {
	acc.BeginSized(a.Row(i), bound)
	vals := a.RowVals(i)
	for t, k := range a.Row(i) {
		acc.Scatter(vals[t], a.Row(int(k)), a.RowVals(int(k)))
	}
	return acc.Gather(outIdx, outVal)
}

// bitCRule is a dense-row rule of the shape of internal/core's
// maskedBitCDenseRow: a row runs MaskedBitCPlusTimes' dense loop when
// its bound is at least ncols/ratio. A ratio of 0 keeps every row on
// the sparse loop, and bitCAllDense puts every row on the dense loop.
type bitCRule int

const bitCAllDense bitCRule = math.MaxInt32

func (r bitCRule) String() string {
	switch r {
	case 0:
		return "rule=none"
	case bitCAllDense:
		return "rule=all"
	}
	return fmt.Sprintf("rule=n/%d", int(r))
}

// bitCProduct is complProduct for MaskedBitCPlusTimes, each row on the
// loop rule picks.
func bitCProduct(bitC *accum.MaskedBitC[float64, accum.PlusTimes64], rule bitCRule, a *sparse.CSR[float64], outIdx []int32, outVal []float64) int {
	nnz := 0
	for i := 0; i < a.Rows; i++ {
		bound := complBound(a, i)
		acc := accum.MaskedBitCPlusTimes{MaskedBitC: bitC, Dense: rule != 0 && bound*int(rule) >= a.Cols, Cols: a.Cols}
		nnz += complRow(acc, a, i, bound, outIdx, outVal)
	}
	return nnz
}

// BenchmarkScatterPlusTimes is the go/no-go measurement for the float64
// plus-times Scatter loops (DESIGN.md §12, "The served semiring,
// specialised" and "Dense-mask rows without the branch"). It times the
// whole serial row loop of the products three benchmark workloads
// serve: tc-skew-ref's self-masked C = A ⊙ (A·A) on
// bench.SkewedGraph(12, 8, 1), er-warm-inline's self-masked product on
// a symmetric ER(2¹¹, degree 8) graph, and delta-compl-ref's
// complemented C = ¬A ⊙ (A·A) on the same ER graph. Each accumulator
// runs generic (the semiring's Add and Mul are dictionary calls) and
// specialised, on the same arrays.
//
// MSA's specialised runs sweep its dense-row rule (msaRule): the
// crossover from ncols/16 to ncols/256 mask entries at the
// production scan ratio 4, the production crossover ncols/64 without
// the scan term, and every row sparse. They also run on the bitmap
// experiment's banded density sweep over ER(2¹², degree 8), whose mask
// rows outnumber their scanned entries, the rows the scan term keeps
// sparse.
//
// MaskedBitC's specialised runs sweep its dense-row rule (bitCRule,
// DESIGN.md §12, "Dense complemented rows") from ncols/16 to
// ncols/1024, with every row sparse and every row dense, on
// delta-compl-ref's product and on complemented products of symmetric
// ER(2¹⁴, degree 2, 4 and 8) graphs, whose rows are 900, 240 and 60
// times narrower in products than in columns. Every run must produce
// the same output nnz.
func BenchmarkScatterPlusTimes(b *testing.B) {
	var sr accum.PlusTimes64
	skew := bench.SkewedGraph(12, 8, 1)
	er := gen.Symmetrize(gen.ErdosRenyi(1<<11, 8, 1))
	er12 := gen.Symmetrize(gen.ErdosRenyi(1<<12, 8, 1))
	sweep := bench.BandedMask(1<<12, bench.SweepDensities, 3)
	outIdx := make([]int32, max(skew.Cols, er12.Cols, 1<<14))
	outVal := make([]float64, len(outIdx))
	type run struct {
		name string
		fn   func() int
	}
	msaRuns := func(mask *sparse.Pattern, a *sparse.CSR[float64]) []run {
		msa := accum.NewMSA[float64](sr, a.Cols)
		runs := []run{{"generic", func() int { return plainProduct(msa, mask, a, outIdx, outVal) }}}
		for _, r := range []msaRule{{0, 0}, {16, 4}, {32, 4}, {64, 4}, {128, 4}, {256, 4}, {64, 0}} {
			runs = append(runs, run{r.String(), func() int { return msaProduct(msa, r, mask, a, outIdx, outVal) }})
		}
		return runs
	}
	bitCRuns := func(a *sparse.CSR[float64]) []run {
		bitC := accum.NewMaskedBitC[float64](sr, a.Cols)
		runs := []run{{"generic", func() int { return complProduct(bitC, a, outIdx, outVal) }}}
		for _, r := range []bitCRule{0, 16, 64, 256, 1024, bitCAllDense} {
			runs = append(runs, run{r.String(), func() int { return bitCProduct(bitC, r, a, outIdx, outVal) }})
		}
		return runs
	}
	bit := accum.NewMaskedBit[float64](sr, skew.Cols)
	for _, p := range []struct {
		name string
		runs []run
	}{
		{"tc-skew-ref/MSA", msaRuns(skew.PatternView(), skew)},
		{"er-warm-inline/MSA", msaRuns(er.PatternView(), er)},
		{"bitmap-er-sweep/MSA", msaRuns(sweep, er12)},
		{"tc-skew-ref/MaskedBit", []run{
			{"generic", func() int { return plainProduct(bit, skew.PatternView(), skew, outIdx, outVal) }},
			{"plustimes", func() int {
				return plainProduct(accum.MaskedBitPlusTimes{MaskedBit: bit}, skew.PatternView(), skew, outIdx, outVal)
			}}}},
		{"delta-compl-ref/MaskedBitC", bitCRuns(er)},
		{"compl-er14-d2/MaskedBitC", bitCRuns(gen.Symmetrize(gen.ErdosRenyi(1<<14, 2, 1)))},
		{"compl-er14-d4/MaskedBitC", bitCRuns(gen.Symmetrize(gen.ErdosRenyi(1<<14, 4, 1)))},
		{"compl-er14-d8/MaskedBitC", bitCRuns(gen.Symmetrize(gen.ErdosRenyi(1<<14, 8, 1)))},
	} {
		want := p.runs[0].fn()
		for _, r := range p.runs[1:] {
			if got := r.fn(); got != want {
				b.Fatalf("%s: generic output nnz %d, %s %d", p.name, want, r.name, got)
			}
		}
		for _, r := range p.runs {
			b.Run(p.name+"/"+r.name, func(b *testing.B) {
				for b.Loop() {
					r.fn()
				}
			})
		}
	}
}
