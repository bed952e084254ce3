package accum

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"testing/quick"

	"maskedspgemm/internal/semiring"
)

var pt = semiring.PlusTimes[float64]{}

// numericAcc is the test-side view of the shared numeric protocol.
type numericAcc interface {
	Begin(maskRow []int32)
	Scatter(a float64, bCols []int32, bVals []float64)
	Gather(maskRow []int32, outIdx []int32, outVal []float64) int
	BeginSymbolic(maskRow []int32)
	ScatterPattern(bCols []int32)
	EndSymbolic(maskRow []int32) int
}

func plainAccumulators(ncols, maxMask int) map[string]numericAcc {
	return map[string]numericAcc{
		"MSA":       NewMSA[float64](pt, ncols),
		"Hash":      NewHash[float64](pt, maxMask, 0),
		"Hash-lf1":  NewHash[float64](pt, maxMask, 1.0),
		"MaskedBit": NewMaskedBit[float64](pt, ncols),
	}
}

// insertOp is one product a·b destined for column key: the per-key
// insert stream the paper's interface is written in.
type insertOp struct {
	key  int32
	a, b float64
}

// batch is one scaled B row, the unit Scatter consumes:
// Scatter(av, cols, vals).
type batch struct {
	av   float64
	cols []int32
	vals []float64
}

// oneEntryBatches turns a per-key insert stream into one-entry B rows,
// so the per-key tests drive Scatter in the same order they used to
// insert. The batches share two backing arrays, so replaying them
// allocates nothing.
func oneEntryBatches(ops []insertOp) []batch {
	cols := make([]int32, len(ops))
	vals := make([]float64, len(ops))
	out := make([]batch, len(ops))
	for i, op := range ops {
		cols[i], vals[i] = op.key, op.b
		out[i] = batch{op.a, cols[i : i+1], vals[i : i+1]}
	}
	return out
}

// scatterer is the numeric entry point every push accumulator shares.
type scatterer interface {
	Scatter(a float64, bCols []int32, bVals []float64)
}

// insert scatters the single product a·b into key.
func insert(acc scatterer, key int32, a, b float64) {
	acc.Scatter(a, []int32{key}, []float64{b})
}

// refMaskedRow is the oracle: dense accumulation then mask filter.
func refMaskedRow(ncols int, mask []int32, ops []insertOp) (idx []int32, val []float64) {
	acc := make([]float64, ncols)
	hit := make([]bool, ncols)
	allowed := make([]bool, ncols)
	for _, j := range mask {
		allowed[j] = true
	}
	for _, op := range ops {
		if !allowed[op.key] {
			continue
		}
		if hit[op.key] {
			acc[op.key] += op.a * op.b
		} else {
			acc[op.key] = op.a * op.b
			hit[op.key] = true
		}
	}
	for _, j := range mask {
		if hit[j] {
			idx = append(idx, j)
			val = append(val, acc[j])
		}
	}
	return idx, val
}

func refComplementRow(ncols int, mask []int32, ops []insertOp) (idx []int32, val []float64) {
	acc := make([]float64, ncols)
	hit := make([]bool, ncols)
	blocked := make([]bool, ncols)
	for _, j := range mask {
		blocked[j] = true
	}
	for _, op := range ops {
		if blocked[op.key] {
			continue
		}
		if hit[op.key] {
			acc[op.key] += op.a * op.b
		} else {
			acc[op.key] = op.a * op.b
			hit[op.key] = true
		}
	}
	for j := 0; j < ncols; j++ {
		if hit[j] {
			idx = append(idx, int32(j))
			val = append(val, acc[j])
		}
	}
	return idx, val
}

type rowScenario struct {
	ncols int
	mask  []int32
	ops   []insertOp
}

func (rowScenario) Generate(r *rand.Rand, _ int) reflect.Value {
	ncols := 1 + r.Intn(64)
	maskSet := map[int32]bool{}
	for i := 0; i < r.Intn(ncols+1); i++ {
		maskSet[int32(r.Intn(ncols))] = true
	}
	mask := make([]int32, 0, len(maskSet))
	for j := range maskSet {
		mask = append(mask, j)
	}
	sort.Slice(mask, func(i, j int) bool { return mask[i] < mask[j] })
	ops := make([]insertOp, r.Intn(200))
	for i := range ops {
		ops[i] = insertOp{int32(r.Intn(ncols)), r.Float64(), r.Float64()}
	}
	return reflect.ValueOf(rowScenario{ncols, mask, ops})
}

func eqF(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		d := a[i] - b[i]
		if d < -1e-9 || d > 1e-9 {
			return false
		}
	}
	return true
}

func eqI(a, b []int32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestPlainAccumulatorsQuick property-tests MSA, Hash, and MaskedBit
// against the dense oracle across random insert streams, including
// reuse of the same accumulator across consecutive rows (reset
// correctness).
func TestPlainAccumulatorsQuick(t *testing.T) {
	for name := range plainAccumulators(1, 1) {
		name := name
		t.Run(name, func(t *testing.T) {
			// Reusing one accumulator across quick iterations checks the
			// reset path.
			run := plainCase(plainAccumulators(64, 64)[name]).run
			f := func(s rowScenario) bool {
				if s.ncols > 64 {
					return true
				}
				wantIdx, wantVal := refMaskedRow(s.ncols, s.mask, s.ops)
				outIdx := make([]int32, len(s.mask))
				outVal := make([]float64, len(s.mask))
				n, symbolic := run(scatterRow{mask: s.mask, batches: oneEntryBatches(s.ops)}, outIdx, outVal)
				return n == len(wantIdx) && eqI(outIdx[:n], wantIdx) && eqF(outVal[:n], wantVal) && symbolic == n
			}
			if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
				t.Error(err)
			}
		})
	}
}

// complementAcc is the test-side view of the complement protocol.
type complementAcc interface {
	BeginSized(maskRow []int32, bound int)
	Scatter(a float64, bCols []int32, bVals []float64)
	Gather(outIdx []int32, outVal []float64) int
	BeginSymbolicSized(maskRow []int32, bound int)
	ScatterPattern(bCols []int32)
	EndSymbolic() int
}

// wideCols is the widest complemented row the tests build: 1024 bitset
// words, wide enough for a few far-apart keys to span too many words
// for MaskedBitC to walk, so it takes the sort path.
const wideCols = 1 << 16

func complementAccumulators(ncols int) map[string]complementAcc {
	return map[string]complementAcc{
		"MSAC":       NewMSAC[float64](pt, ncols),
		"HashC":      NewHashC[float64](pt, 16, 0),
		"MaskedBitC": NewMaskedBitC[float64](pt, ncols),
	}
}

// complementScenario is a complemented row drawn from one of four
// shapes: narrow (at most one bitset word, as for the plain
// accumulators), clustered (keys packed into a window of a row a few
// thousand columns wide, so MaskedBitC walks its set words), uniform
// (few keys anywhere in such a row, which takes either MaskedBitC path),
// and far-apart (keys in two distant clusters of a 2¹⁶-wide row, so
// MaskedBitC sorts). Products are small integers of either sign, so some
// keys sum to an exact zero and must still be emitted.
type complementScenario struct{ rowScenario }

func (complementScenario) Generate(r *rand.Rand, size int) reflect.Value {
	var s rowScenario
	switch r.Intn(4) {
	case 0:
		s = rowScenario{}.Generate(r, size).Interface().(rowScenario)
	case 1:
		ncols := 65 + r.Intn(4000)
		width := 1 + r.Intn(min(ncols, 512))
		lo := int32(r.Intn(ncols - width + 1))
		window := func() int32 { return lo + int32(r.Intn(width)) }
		s = randomComplementRow(r, ncols, window, r.Intn(width+1), 1+r.Intn(400))
	case 2:
		ncols := 65 + r.Intn(4000)
		anywhere := func() int32 { return int32(r.Intn(ncols)) }
		s = randomComplementRow(r, ncols, anywhere, r.Intn(64), 1+r.Intn(40))
	default:
		farApart := func() int32 {
			if r.Intn(2) == 0 {
				return int32(r.Intn(8))
			}
			return wideCols - 1 - int32(r.Intn(8))
		}
		s = randomComplementRow(r, wideCols, farApart, r.Intn(4), 1+r.Intn(16))
	}
	return reflect.ValueOf(complementScenario{s})
}

// randomComplementRow draws nMask distinct mask keys and nOps inserts
// from key, with small-integer products of either sign.
func randomComplementRow(r *rand.Rand, ncols int, key func() int32, nMask, nOps int) rowScenario {
	maskSet := map[int32]bool{}
	for i := 0; i < nMask; i++ {
		maskSet[key()] = true
	}
	mask := make([]int32, 0, len(maskSet))
	for j := range maskSet {
		mask = append(mask, j)
	}
	sort.Slice(mask, func(i, j int) bool { return mask[i] < mask[j] })
	ops := make([]insertOp, nOps)
	for i := range ops {
		ops[i] = insertOp{key(), float64(r.Intn(5) - 2), float64(1 + r.Intn(3))}
	}
	return rowScenario{ncols, mask, ops}
}

// runComplementRow runs one row of batches under mask through acc's
// numeric pass and then its symbolic pass, returning the gathered row
// and the symbolic count. bound caps the row's output population.
func runComplementRow(acc complementAcc, mask []int32, bound int, batches []batch, outIdx []int32, outVal []float64) (n, symbolic int) {
	acc.BeginSized(mask, bound)
	for _, bt := range batches {
		acc.Scatter(bt.av, bt.cols, bt.vals)
	}
	n = acc.Gather(outIdx, outVal)
	acc.BeginSymbolicSized(mask, bound)
	for _, bt := range batches {
		acc.ScatterPattern(bt.cols)
	}
	return n, acc.EndSymbolic()
}

// checkComplementRow runs s through acc and compares the gathered row,
// and the symbolic count, against the dense oracle.
func checkComplementRow(acc complementAcc, s rowScenario) bool {
	wantIdx, wantVal := refComplementRow(s.ncols, s.mask, s.ops)
	outIdx := make([]int32, len(s.ops))
	outVal := make([]float64, len(s.ops))
	n, symbolic := runComplementRow(acc, s.mask, len(s.ops), oneEntryBatches(s.ops), outIdx, outVal)
	return n == len(wantIdx) && eqI(outIdx[:n], wantIdx) && eqF(outVal[:n], wantVal) && symbolic == n
}

// TestComplementAccumulatorsQuick property-tests MSAC, HashC and
// MaskedBitC against the dense oracle on narrow, clustered, uniform and
// far-apart rows, reusing each accumulator across every scenario, so
// every row also checks that the previous one left it clean.
func TestComplementAccumulatorsQuick(t *testing.T) {
	for name, acc := range complementAccumulators(wideCols) {
		t.Run(name, func(t *testing.T) {
			f := func(s complementScenario) bool { return checkComplementRow(acc, s.rowScenario) }
			if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
				t.Error(err)
			}
		})
	}
}

// walkRow is a complemented row whose 101 inserted keys lie in four
// adjacent bitset words, so MaskedBitC gathers by walking them; sortRow
// puts its two keys 1023 words apart, so MaskedBitC sorts. Each bans
// keys the other one inserts, and each sums one key to an exact zero.
var (
	walkRow = func() rowScenario {
		s := rowScenario{ncols: wideCols, mask: []int32{5, 130, 65500}}
		for i := 0; i < 100; i++ {
			s.ops = append(s.ops, insertOp{int32(130 - i), float64(i%3 - 1), 2})
		}
		s.ops = append(s.ops, insertOp{200, 2, 3}, insertOp{200, -2, 3})
		return s
	}()
	sortRow = rowScenario{ncols: wideCols, mask: []int32{64, 100}, ops: []insertOp{
		{65500, 1, 4}, {5, 2, 3}, {5, -2, 3}, {65500, 1, 1}, {130, 7, 7}, {64, 9, 9},
	}}
)

// TestComplementAccumulatorsConsecutiveRows alternates rows that take
// MaskedBitC's walk and sort paths, with and without a mask, on one
// accumulator per family. Each row inserts keys the previous row banned
// or set, so leftover banned bits, set bits or values would show as
// dropped or inflated entries. The oracle emits every inserted key, so
// a gather that dropped the exact-zero sums would fail too.
func TestComplementAccumulatorsConsecutiveRows(t *testing.T) {
	unmasked := sortRow
	unmasked.mask = nil
	rows := []rowScenario{walkRow, sortRow, walkRow, unmasked, walkRow, sortRow, sortRow}
	for name, acc := range complementAccumulators(wideCols) {
		for i, s := range rows {
			if !checkComplementRow(acc, s) {
				t.Errorf("%s: row %d disagrees with the oracle", name, i)
			}
		}
	}
}

// TestComplementAccumulatorsZeroAlloc pins the steady state: once an
// accumulator has seen its widest row, a numeric and a symbolic pass
// over walk-path and sort-path rows allocate nothing.
func TestComplementAccumulatorsZeroAlloc(t *testing.T) {
	outIdx := make([]int32, len(walkRow.ops))
	outVal := make([]float64, len(walkRow.ops))
	walk, sort := oneEntryBatches(walkRow.ops), oneEntryBatches(sortRow.ops)
	for name, acc := range complementAccumulators(wideCols) {
		rows := func() {
			runComplementRow(acc, walkRow.mask, len(walkRow.ops), walk, outIdx, outVal)
			runComplementRow(acc, sortRow.mask, len(sortRow.ops), sort, outIdx, outVal)
		}
		rows() // warm-up: grows the inserted lists and HashC's table
		if allocs := testing.AllocsPerRun(20, rows); allocs != 0 {
			t.Errorf("%s: %.1f allocs per row pair after warm-up, want 0", name, allocs)
		}
	}
}

// TestMSAStateTransitions walks the §5.2 automaton explicitly.
func TestMSAStateTransitions(t *testing.T) {
	m := NewMSA[float64](pt, 8)
	mask := []int32{2, 5}
	m.Begin(mask)
	insert(m, 3, 10, 10) // NOTALLOWED: discarded
	insert(m, 2, 2, 3)   // ALLOWED → SET with 6
	insert(m, 2, 1, 4)   // SET: accumulate 10
	idx := make([]int32, 2)
	val := make([]float64, 2)
	n := m.Gather(mask, idx, val)
	if n != 1 || idx[0] != 2 || val[0] != 10 {
		t.Fatalf("gather = %d %v %v, want key 2 = 10", n, idx[:n], val[:n])
	}
	// After gather, everything is reset: inserting on key 2 without
	// Begin must be discarded (NOTALLOWED again).
	m.Begin(nil)
	insert(m, 2, 1, 1)
	if n := m.Gather(nil, idx, val); n != 0 {
		t.Fatalf("post-reset gather = %d, want 0", n)
	}
}

// TestMCADirect exercises the MCA protocol (mask positions, two-state
// automaton).
func TestMCADirect(t *testing.T) {
	m := NewMCA[float64](pt, 4)
	mask := []int32{1, 4, 7}
	m.Insert(0, 2, 5) // mask position 0 (col 1): 10
	m.Insert(2, 3, 2) // mask position 2 (col 7): 6
	m.Insert(2, 1, 1) // accumulate: 7
	idx := make([]int32, 3)
	val := make([]float64, 3)
	n := m.Gather(mask, idx, val)
	if n != 2 || idx[0] != 1 || val[0] != 10 || idx[1] != 7 || val[1] != 7 {
		t.Fatalf("MCA gather = %d %v %v", n, idx[:n], val[:n])
	}
	// Reset happened; a fresh symbolic round sees a clean accumulator.
	m.InsertPattern(1)
	if got := m.EndSymbolic(mask); got != 1 {
		t.Fatalf("symbolic = %d, want 1", got)
	}
	m.Grow(10)
	m.Insert(9, 1, 1)
	bigMask := []int32{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}
	idx = make([]int32, 10)
	val = make([]float64, 10)
	if n := m.Gather(bigMask, idx, val); n != 1 || idx[0] != 9 {
		t.Fatalf("after Grow: gather = %d %v", n, idx[:n])
	}
}

// TestIterHeapOrdering pushes shuffled iterators and checks pops come
// out column-sorted.
func TestIterHeapOrdering(t *testing.T) {
	f := func(colsRaw []uint16) bool {
		h := NewIterHeap(len(colsRaw))
		for _, c := range colsRaw {
			h.Push(RowIter{Col: int32(c)})
		}
		prev := int32(-1)
		for h.Len() > 0 {
			it := h.PopMin()
			if it.Col < prev {
				return false
			}
			prev = it.Col
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestIterHeapReset(t *testing.T) {
	h := NewIterHeap(4)
	h.Push(RowIter{Col: 3})
	h.Push(RowIter{Col: 1})
	if h.Min().Col != 1 {
		t.Fatalf("Min = %d, want 1", h.Min().Col)
	}
	h.Reset()
	if h.Len() != 0 {
		t.Fatalf("Len after Reset = %d", h.Len())
	}
}

// TestHashGrowth forces a row larger than the constructor hint.
func TestHashGrowth(t *testing.T) {
	h := NewHash[float64](pt, 2, 0.25)
	mask := make([]int32, 100)
	for i := range mask {
		mask[i] = int32(i)
	}
	h.Begin(mask)
	for i := range mask {
		insert(h, int32(i), 1, float64(i))
	}
	idx := make([]int32, 100)
	val := make([]float64, 100)
	if n := h.Gather(mask, idx, val); n != 100 {
		t.Fatalf("gather = %d, want 100", n)
	}
	for i := range mask {
		if val[i] != float64(i) {
			t.Fatalf("val[%d] = %v", i, val[i])
		}
	}
}

// TestMaskedBitStateWalk walks the bitmap automaton explicitly: the
// discard path, the fused-add path, and the post-gather reset.
func TestMaskedBitStateWalk(t *testing.T) {
	m := NewMaskedBit[float64](pt, 130) // spans three bitset words
	mask := []int32{2, 65, 129}
	m.Begin(mask)
	insert(m, 3, 10, 10) // not allowed: discarded
	insert(m, 2, 2, 3)   // first touch: 6
	insert(m, 2, 1, 4)   // accumulate: 10
	insert(m, 129, 5, 5) // last word: 25
	insert(m, 128, 9, 9) // same word, not allowed: discarded
	idx := make([]int32, 3)
	val := make([]float64, 3)
	n := m.Gather(mask, idx, val)
	if n != 2 || idx[0] != 2 || val[0] != 10 || idx[1] != 129 || val[1] != 25 {
		t.Fatalf("gather = %d %v %v, want keys 2=10, 129=25", n, idx[:n], val[:n])
	}
	// After gather, everything is reset: inserting on key 2 without it
	// being in the new mask must be discarded.
	m.Begin([]int32{65})
	insert(m, 2, 1, 1)
	if n := m.Gather([]int32{65}, idx, val); n != 0 {
		t.Fatalf("post-reset gather = %d, want 0", n)
	}
}

// TestMaskedBitZeroSum pins pattern fidelity: products that cancel to
// the numeric zero still count as SET, exactly like the MSA — the
// emptiness test is the set bit, never the value.
func TestMaskedBitZeroSum(t *testing.T) {
	m := NewMaskedBit[float64](pt, 8)
	mask := []int32{4}
	m.Begin(mask)
	insert(m, 4, 2, 3)  // +6
	insert(m, 4, -2, 3) // −6: sums to 0.0
	idx := make([]int32, 1)
	val := make([]float64, 1)
	if n := m.Gather(mask, idx, val); n != 1 || val[0] != 0 {
		t.Fatalf("gather = %d %v, want one explicit zero entry", n, val[:n])
	}
	// And the accumulator is clean for the next row despite the zero
	// value having been "re-zeroed" to itself.
	m.Begin(mask)
	if n := m.Gather(mask, idx, val); n != 0 {
		t.Fatalf("next-row gather = %d, want 0", n)
	}
}

// TestMaskedBitEnsureColsGrowth grows both variants between rows and
// checks the fresh region behaves like a clean accumulator.
func TestMaskedBitEnsureColsGrowth(t *testing.T) {
	m := NewMaskedBit[float64](pt, 8)
	mask := []int32{1, 3}
	m.Begin(mask)
	insert(m, 1, 2, 2)
	idx := make([]int32, 4)
	val := make([]float64, 4)
	if n := m.Gather(mask, idx, val); n != 1 || idx[0] != 1 || val[0] != 4 {
		t.Fatalf("pre-growth gather = %d %v %v", n, idx[:n], val[:n])
	}
	m.EnsureCols(200) // new words must come up clean
	wide := []int32{1, 70, 199}
	m.Begin(wide)
	insert(m, 199, 3, 3)
	insert(m, 70, 1, 1)
	insert(m, 100, 1, 1) // not in mask
	if n := m.Gather(wide, idx, val); n != 2 || idx[0] != 70 || idx[1] != 199 || val[1] != 9 {
		t.Fatalf("post-growth gather = %d %v %v", n, idx[:n], val[:n])
	}

	c := NewMaskedBitC[float64](pt, 8)
	c.BeginSized(mask, 4)
	insert(c, 0, 2, 3)
	if n := c.Gather(idx, val); n != 1 || idx[0] != 0 || val[0] != 6 {
		t.Fatalf("complement pre-growth gather = %d %v %v", n, idx[:n], val[:n])
	}
	c.EnsureCols(200)
	c.BeginSized(wide, 4)
	insert(c, 199, 1, 1) // banned
	insert(c, 150, 2, 2)
	if n := c.Gather(idx, val); n != 1 || idx[0] != 150 || val[0] != 4 {
		t.Fatalf("complement post-growth gather = %d %v %v", n, idx[:n], val[:n])
	}
}

func TestNextPow2(t *testing.T) {
	cases := map[int]int{0: 1, 1: 1, 2: 2, 3: 4, 4: 4, 5: 8, 1023: 1024, 1024: 1024}
	for in, want := range cases {
		if got := nextPow2(in); got != want {
			t.Errorf("nextPow2(%d) = %d, want %d", in, got, want)
		}
	}
}
