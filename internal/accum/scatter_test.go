package accum

import (
	"math/rand"
	"slices"
	"testing"
)

// scatterRow is one output row driven through Scatter: a sorted mask row
// and the scaled B rows of its A entries. Columns repeat within a batch
// and across batches, some fall outside the mask (or inside it, under a
// complement), and products are small integers of either sign, so some
// keys sum to an exact zero.
type scatterRow struct {
	mask    []int32
	batches []batch
	entries int // total entries across batches: the §5.2 output bound
}

// randomScatterRows draws n rows of width ncols. A row width of many
// bitset words and a sparse-to-dense spread of mask and batch sizes take
// every accumulator through its distinct paths, including both MaskedBitC
// gathers: few outputs across a wide window sort, many in a narrow one
// walk.
func randomScatterRows(r *rand.Rand, n, ncols int) []scatterRow {
	rows := make([]scatterRow, n)
	for i := range rows {
		var row scatterRow
		seen := map[int32]bool{}
		for k := r.Intn(1 + ncols>>uint(r.Intn(8))); k > 0; k-- {
			j := int32(r.Intn(ncols))
			if !seen[j] {
				seen[j] = true
				row.mask = append(row.mask, j)
			}
		}
		slices.Sort(row.mask)
		// Draw batch columns from a window, so keys repeat within and
		// across batches often enough to exercise accumulation.
		window := 1 + r.Intn(ncols>>uint(r.Intn(8)))
		lo := r.Intn(ncols - window + 1)
		for k := r.Intn(6); k > 0; k-- {
			bt := batch{av: float64(r.Intn(5) - 2)}
			for e := r.Intn(24); e > 0; e-- {
				bt.cols = append(bt.cols, int32(lo+r.Intn(window)))
				bt.vals = append(bt.vals, float64(1+r.Intn(3)))
			}
			row.entries += len(bt.cols)
			row.batches = append(row.batches, bt)
		}
		rows[i] = row
	}
	return rows
}

// refScatter is the per-key reference: a map from admitted column to its
// accumulated value, the first product of a key stored and later ones
// added, emitted in ascending column order.
func refScatter(row scatterRow, complement bool) (idx []int32, val []float64) {
	inMask := map[int32]bool{}
	for _, j := range row.mask {
		inMask[j] = true
	}
	acc := map[int32]float64{}
	for _, bt := range row.batches {
		for t, j := range bt.cols {
			if inMask[j] == complement {
				continue
			}
			if v, ok := acc[j]; ok {
				acc[j] = v + bt.av*bt.vals[t]
			} else {
				acc[j] = bt.av * bt.vals[t]
			}
		}
	}
	for j := range acc {
		idx = append(idx, j)
	}
	slices.Sort(idx)
	for _, j := range idx {
		val = append(val, acc[j])
	}
	return idx, val
}

// scatterCase runs one row through a push accumulator's numeric pass
// and then its symbolic pass, returning the gathered count and the SET
// count. The plain and complement protocols differ only in how a row
// begins and ends.
type scatterCase struct {
	complement bool
	run        func(row scatterRow, outIdx []int32, outVal []float64) (n, symbolic int)
}

func plainCase(acc numericAcc) scatterCase {
	return scatterCase{run: func(row scatterRow, outIdx []int32, outVal []float64) (int, int) {
		acc.Begin(row.mask)
		for _, bt := range row.batches {
			acc.Scatter(bt.av, bt.cols, bt.vals)
		}
		n := acc.Gather(row.mask, outIdx, outVal)
		acc.BeginSymbolic(row.mask)
		for _, bt := range row.batches {
			acc.ScatterPattern(bt.cols)
		}
		return n, acc.EndSymbolic(row.mask)
	}}
}

func complementCase(acc complementAcc) scatterCase {
	return scatterCase{complement: true, run: func(row scatterRow, outIdx []int32, outVal []float64) (int, int) {
		return runComplementRow(acc, row.mask, row.entries, row.batches, outIdx, outVal)
	}}
}

// TestScatterMatchesPerKeyReference drives random B-row batches through
// Scatter and ScatterPattern of all seven push accumulators, plain and
// complement, reusing one accumulator across every row, and compares
// each row against the per-key reference. Once the accumulators have
// seen every row, a second pass must allocate nothing.
func TestScatterMatchesPerKeyReference(t *testing.T) {
	const ncols = 4096
	rows := randomScatterRows(rand.New(rand.NewSource(1)), 400, ncols)
	cases := map[string]scatterCase{}
	for name, acc := range plainAccumulators(ncols, ncols) {
		cases[name] = plainCase(acc)
	}
	for name, acc := range complementAccumulators(ncols) {
		cases[name] = complementCase(acc)
	}
	outIdx := make([]int32, ncols)
	outVal := make([]float64, ncols)
	for name, c := range cases {
		t.Run(name, func(t *testing.T) {
			for i, row := range rows {
				wantIdx, wantVal := refScatter(row, c.complement)
				n, symbolic := c.run(row, outIdx, outVal)
				if n != len(wantIdx) || !eqI(outIdx[:n], wantIdx) || !eqF(outVal[:n], wantVal) {
					t.Fatalf("row %d: got %v %v, want %v %v", i, outIdx[:n], outVal[:n], wantIdx, wantVal)
				}
				if symbolic != n {
					t.Fatalf("row %d: symbolic count %d, numeric %d", i, symbolic, n)
				}
			}
			allocs := testing.AllocsPerRun(3, func() {
				for _, row := range rows {
					c.run(row, outIdx, outVal)
				}
			})
			if allocs != 0 {
				t.Errorf("%.1f allocs per pass over %d rows after warm-up, want 0", allocs, len(rows))
			}
		})
	}
	if len(cases) != 7 { // 6 accumulators; Hash runs at two load factors
		t.Fatalf("covered %d accumulator configurations, want 7", len(cases))
	}
}
