package accum

import (
	"math"
	"math/bits"
	"slices"

	"maskedspgemm/internal/semiring"
)

// bitWords returns the number of 64-bit words covering ncols bit
// positions.
func bitWords(ncols int) int { return (ncols + 63) >> 6 }

// MaskedBit is a bitmap-state masked accumulator: the MSA's three-state
// byte automaton collapsed into two bitsets plus a values array that is
// kept at the additive identity between rows (restValue). Because
// implementations of semiring.Semiring guarantee Add(x, Zero()) == x,
// "insert into an
// ALLOWED key" and "accumulate into a SET key" become the same fused
// operation — values[key] = Add(values[key], Mul(a, b)) — gated by a
// single word-indexed bit test. The state footprint per column drops
// from one byte to two bits (one allowed bit, one set bit), so on
// dense-mask rows the per-row walks (Begin's fill, Gather's cleanup)
// move an eighth of the memory the MSA does and the discard path of
// Scatter touches only the bitset.
//
// The set bitset exists solely for pattern fidelity: an entry whose
// products cancel to the numeric zero is still present in the output,
// exactly as with the MSA, so the emptiness test is "was inserted at
// least once", never "value != 0".
type MaskedBit[T any, S semiring.Semiring[T]] struct {
	sr S
	// rest is the value every values slot holds between rows
	// (restValue).
	rest T
	// values is indexed by column and holds rest everywhere except the
	// keys inserted since the last Begin; Gather restores the invariant
	// for the keys it emits.
	values []T
	// allowed holds one bit per column: set while the current row's mask
	// admits that column.
	allowed []uint64
	// set holds one bit per column: set once at least one product has
	// been accumulated into that column this row.
	set []uint64
}

// NewMaskedBit returns a MaskedBit accumulator for output rows of width
// ncols.
func NewMaskedBit[T any, S semiring.Semiring[T]](sr S, ncols int) *MaskedBit[T, S] {
	m := &MaskedBit[T, S]{sr: sr, rest: restValue[T](sr)}
	m.EnsureCols(ncols)
	return m
}

// restValue returns the value a MaskedBit keeps its values slots at
// between rows: the semiring zero, except over float64 when the zero is
// +0 and Add keeps −0 + −0 at −0, as IEEE addition does. There it is
// −0, which such an Add returns every x from bit for bit, while +0 + −0
// is +0: starting at −0, a column's value is its first product itself,
// as MSA, Hash, Heap and Pull store it, and a column whose every
// product is −0 emits −0 in every family, so that a row's result does
// not depend on the family that computed it (DESIGN.md §5, "Known
// pattern").
func restValue[T any, S semiring.Semiring[T]](sr S) T {
	zero := sr.Zero()
	z, ok := any(zero).(float64)
	if !ok || math.Float64bits(z) != 0 {
		return zero
	}
	neg := any(math.Copysign(0, -1)).(T)
	if s, _ := any(sr.Add(neg, neg)).(float64); math.Signbit(s) {
		return neg
	}
	return zero
}

// EnsureCols grows the dense arrays to cover output rows of width
// ncols. Fresh values slots are filled with the rest value and fresh
// bitset words are zero (NOTALLOWED), so growing between rows is always
// safe. Used by executor workspaces that keep one MaskedBit per worker
// across products of different widths.
func (m *MaskedBit[T, S]) EnsureCols(ncols int) {
	if ncols <= len(m.values) {
		return
	}
	m.values = make([]T, ncols)
	for i := range m.values {
		m.values[i] = m.rest
	}
	w := bitWords(ncols)
	m.allowed = make([]uint64, w)
	m.set = make([]uint64, w)
}

// Begin marks every key in maskRow allowed. Consecutive mask columns
// usually share a 64-column word, so the fill accumulates bits in a
// register and flushes once per word rather than storing per entry.
// The walk takes sorted entries four at a time: when the first and
// fourth share a word — the common case on the dense rows this
// accumulator targets — the group collapses into a parallel OR tree
// and a single word update. There is deliberately no loop-carried
// pending register: the groups' word updates are independent memory
// operations the CPU can overlap, where a flush-on-word-change walk
// serializes every iteration through the same two registers.
//
//mspgemm:hotpath
func (m *MaskedBit[T, S]) Begin(maskRow []int32) {
	allowed := m.allowed
	for ; len(maskRow) >= 4; maskRow = maskRow[4:] {
		k0 := uint(uint32(maskRow[0]))
		k1 := uint(uint32(maskRow[1]))
		k2 := uint(uint32(maskRow[2]))
		k3 := uint(uint32(maskRow[3]))
		if k0>>6 == k3>>6 {
			allowed[k0>>6] |= uint64(1)<<(k0&63) | uint64(1)<<(k1&63) | uint64(1)<<(k2&63) | uint64(1)<<(k3&63)
			continue
		}
		allowed[k0>>6] |= 1 << (k0 & 63)
		allowed[k1>>6] |= 1 << (k1 & 63)
		allowed[k2>>6] |= 1 << (k2 & 63)
		allowed[k3>>6] |= 1 << (k3 & 63)
	}
	for _, j := range maskRow {
		k := uint(uint32(j))
		allowed[k>>6] |= 1 << (k & 63)
	}
}

// Scatter accumulates Mul(av, b) into column j for every entry (j, b)
// of one B row that the mask admits; the product is not computed for
// masked-out columns. There is no three-way state dispatch: allowed and
// set-but-not-yet-inserted columns take the identical fused-add path
// because values start at the additive identity.
//
//mspgemm:hotpath
func (m *MaskedBit[T, S]) Scatter(av T, bCols []int32, bVals []T) {
	// set shares allowed's length, so after the allowed[w] check the
	// set[w] store is provably in bounds.
	sr := m.sr
	allowed := m.allowed
	set := m.set[:len(allowed)]
	values := m.values
	bVals = bVals[:len(bCols)]
	for t, j := range bCols {
		k := uint(uint32(j))
		w := k >> 6
		bit := uint64(1) << (k & 63)
		if allowed[w]&bit == 0 {
			continue // not in mask: discard without computing the product
		}
		values[k] = sr.Add(values[k], sr.Mul(av, bVals[t]))
		set[w] |= bit
	}
}

// Gather emits the inserted entries in ascending column order —
// identical to mask order, since the set bits are a subset of the mask's
// — restores the emitted values slots to the rest value, and clears
// the touched bitset words. The walk is word-granular: it spans the
// words between the row's first and last mask column, popping set bits
// with TrailingZeros64, so on a dense mask row it touches ~nnz/64 words
// plus one operation per emitted entry instead of re-testing every mask
// entry. This word walk is where the bitmap representation pays off;
// the entry-granular alternative is three O(nnz(mask row)) passes and
// loses to the MSA outright. On a very sparse row the word range can
// exceed the entry count (it is still bounded by ncols/64); the row
// cost model charges for that, steering such rows to other families.
//
//mspgemm:hotpath
func (m *MaskedBit[T, S]) Gather(maskRow []int32, outIdx []int32, outVal []T) int {
	if len(maskRow) == 0 {
		return 0
	}
	w0 := uint(uint32(maskRow[0])) >> 6
	w1 := uint(uint32(maskRow[len(maskRow)-1])) >> 6
	rest := m.rest
	values := m.values
	allowed := m.allowed
	set := m.set[:len(allowed)]
	n := 0
	for w := w0; w <= w1; w++ {
		for b := set[w]; b != 0; b &= b - 1 {
			k := w<<6 + uint(bits.TrailingZeros64(b))
			outIdx[n] = int32(k)
			outVal[n] = values[k]
			values[k] = rest
			n++
		}
		allowed[w] = 0
		set[w] = 0
	}
	return n
}

// MaskedBitC is the complemented-mask MaskedBit: Begin marks the mask's
// keys banned in a bitset and every other key is admitted on first
// touch. Admitted keys cannot be enumerated from the mask, so inserted
// keys are tracked in a list (as in MSAC/HashC). Gather emits them in
// ascending order by walking the set bitset over the inserted keys'
// word span, and sorts the list only when that span is too sparse to
// walk. Values rest at restValue between rows, as the plain variant's
// do, so Scatter is the same fused add plus a first-touch append, and
// an entry whose products are all −0 emits −0, as in every other
// complemented family.
type MaskedBitC[T any, S semiring.Semiring[T]] struct {
	sr S
	// rest is the value every values slot holds between rows
	// (restValue).
	rest T
	// values is indexed by column and holds rest everywhere except the
	// keys inserted since the last BeginSized, and the banned keys a
	// plus-times dense row added +0 to (MaskedBitCPlusTimes).
	values []T
	// banned holds one bit per column excluded by the current row's mask.
	banned []uint64
	// set holds one bit per column inserted this row; it deduplicates
	// the inserted list and is what Gather walks.
	set []uint64
	// inserted lists the keys accumulated this row in first-touch order:
	// Gather reads their span from it, and sorts it when the span is too
	// sparse to walk.
	inserted []int32
	// maskRow is the row passed to BeginSized, kept to clear the banned
	// words during Gather.
	maskRow []int32
}

// NewMaskedBitC returns a complemented MaskedBit for output rows of
// width ncols.
func NewMaskedBitC[T any, S semiring.Semiring[T]](sr S, ncols int) *MaskedBitC[T, S] {
	m := &MaskedBitC[T, S]{sr: sr, rest: restValue[T](sr), inserted: make([]int32, 0, 64)}
	m.EnsureCols(ncols)
	return m
}

// EnsureCols grows the dense arrays to cover output rows of width
// ncols. Fresh values slots are filled with the rest value and fresh
// bitset words are zero, which for the complement variant means
// "admitted, nothing inserted" — exactly the clean between-rows state.
func (m *MaskedBitC[T, S]) EnsureCols(ncols int) {
	if ncols <= len(m.values) {
		return
	}
	m.values = make([]T, ncols)
	for i := range m.values {
		m.values[i] = m.rest
	}
	w := bitWords(ncols)
	m.banned = make([]uint64, w)
	m.set = make([]uint64, w)
}

// BeginSized marks every key in maskRow banned; all other keys are
// admitted. The bound is irrelevant for a dense-array accumulator — the
// parameter exists so MaskedBitC shares the complement protocol with
// MSAC and HashC.
//
//mspgemm:hotpath
func (m *MaskedBitC[T, S]) BeginSized(maskRow []int32, _ int) {
	banned := m.banned
	for _, j := range maskRow {
		k := uint(uint32(j))
		banned[k>>6] |= 1 << (k & 63)
	}
	m.inserted = m.inserted[:0]
	m.maskRow = maskRow
}

// Scatter accumulates Mul(av, b) into column j for every entry (j, b)
// of one B row unless the mask excludes j, listing first touches.
//
//mspgemm:hotpath
func (m *MaskedBitC[T, S]) Scatter(av T, bCols []int32, bVals []T) {
	sr := m.sr
	banned := m.banned
	set := m.set[:len(banned)]
	values := m.values
	inserted := m.inserted
	bVals = bVals[:len(bCols)]
	for t, j := range bCols {
		k := uint(uint32(j))
		w := k >> 6
		bit := uint64(1) << (k & 63)
		if banned[w]&bit != 0 {
			continue // masked out: discard without computing the product
		}
		values[k] = sr.Add(values[k], sr.Mul(av, bVals[t]))
		if set[w]&bit == 0 {
			set[w] |= bit
			inserted = append(inserted, j)
		}
	}
	m.inserted = inserted
}

// Gather emits the inserted entries in ascending column order and
// restores all touched state — emitted values back to the rest value,
// set words, and the banned words marked in BeginSized — so the
// accumulator is clean for the next row. One pass over the inserted
// list finds the smallest and largest key. When their word span is
// below out·bits.Len(out) words, the scale of a sort's comparison count,
// Gather pops set bits word by word with TrailingZeros64, exactly as
// MaskedBit.Gather does, and needs no sort. Otherwise it sorts the
// inserted list, so very wide, very sparse rows keep O(out·log out)
// cost rather than O(ncols/64). BenchmarkMaskedBitCGather puts the
// measured crossover at 2–4, 8–16 and just below 16 words per key for
// 4, 32 and 256 keys; this rule switches at 3, 6 and 9 and stays close
// to the faster path on every row it measures (DESIGN §12). Both paths
// test the set bit, not the value, so entries whose products cancel to
// zero are still emitted.
//
//mspgemm:hotpath
func (m *MaskedBitC[T, S]) Gather(outIdx []int32, outVal []T) int {
	inserted := m.inserted
	if len(inserted) == 0 {
		m.clearBanned()
		return 0
	}
	lo, hi := inserted[0], inserted[0]
	for _, j := range inserted {
		lo = min(lo, j)
		hi = max(hi, j)
	}
	w0 := uint(uint32(lo)) >> 6
	w1 := uint(uint32(hi)) >> 6
	rest := m.rest
	values, set := m.values, m.set
	n := 0
	out := uint(len(inserted))
	if w1-w0 < out*uint(bits.Len(out)) {
		for w := w0; w <= w1; w++ {
			for b := set[w]; b != 0; b &= b - 1 {
				k := w<<6 + uint(bits.TrailingZeros64(b))
				outIdx[n] = int32(k)
				outVal[n] = values[k]
				values[k] = rest
				n++
			}
			set[w] = 0
		}
	} else {
		slices.Sort(inserted)
		for _, j := range inserted {
			k := uint(uint32(j))
			outIdx[n] = j
			outVal[n] = values[k]
			values[k] = rest
			set[k>>6] = 0
			n++
		}
	}
	m.inserted = inserted[:0]
	m.clearBanned()
	return n
}

// clearBanned zeroes the banned words covering the saved mask row and
// drops the row reference.
//
//mspgemm:hotpath
func (m *MaskedBitC[T, S]) clearBanned() {
	banned := m.banned
	last := ^uint(0)
	for _, j := range m.maskRow {
		w := uint(uint32(j)) >> 6
		if w == last {
			continue
		}
		last = w
		banned[w] = 0
	}
	m.maskRow = nil
}
