package accum

import (
	"math"
	"math/bits"

	"maskedspgemm/internal/semiring"
)

// The served semiring, specialised. Generic code is compiled once per GC
// shape and every zero-size semiring shares one, so inside the generic
// Scatter loops sr.Mul and sr.Add are two dictionary calls per admitted
// product that the compiler never inlines. The server runs only
// semiring.PlusTimes[float64], and the push kernels bind these three
// wrappers for it at bind time (internal/core bindMSA, bindMaskedBit,
// bindMaskedBitC): each embeds the generic accumulator and overrides
// Scatter with float64 code over the same arrays; MSA's and MaskedBitC's also override Gather, and
// MSA's Begin, for their dense-row loops. Every other semiring keeps
// the generic loops. A fourth, MSAKnownPlusTimes, runs the push rows of
// a remembered output pattern (internal/core bindPushPull); only the
// served semiring's plans remember one, so it has no generic twin.
//
// Each product is rounded explicitly (float64(av*b)) before it is added,
// so the compiler cannot fuse the multiply-add into an FMA on the
// architectures where it would; the sums are then bit-identical to the
// generic path's Add(x, Mul(a, b)) on every GOARCH.

// PlusTimes64 is the served semiring the wrappers below are written for.
type PlusTimes64 = semiring.PlusTimes[float64]

// MSAPlusTimes is an MSA over PlusTimes64 whose Scatter is float64 code.
// It has two scatter loops, and Dense picks one per row. The sparse
// loop tests each scanned entry against the mask first. The dense loop
// has no branch per entry: every scanned entry is multiplied and
// added, and slot sends the products of masked-out columns to the sink
// block past the columns, where nothing reads them. It pays where the
// mask admits a fair share of many scanned entries, so the sparse
// loop's test mispredicts; the push kernel decides per row (DESIGN.md
// §12, "Dense-mask rows without the branch").
type MSAPlusTimes struct {
	*MSA[float64, PlusTimes64]
	// Dense selects the dense loop for the row; Begin, Scatter and
	// Gather of one row must see the same value.
	Dense bool
}

// negZero is −0, the exact additive identity of IEEE 754 addition:
// −0 + p is p bit for bit for every p, including +0, −0 and NaN, where
// +0 + (−0) would be +0.
var negZero = math.Copysign(0, -1)

// Begin prepares a row. A dense row maps each mask column to itself in
// slot and starts its value at −0, so the first product added is
// stored exactly as the generic ALLOWED case assigns it; its states
// stay NOTALLOWED until a product lands. A sparse row is the generic
// Begin.
//
//mspgemm:hotpath
func (m MSAPlusTimes) Begin(maskRow []int32) {
	a := m.MSA
	if !m.Dense {
		a.Begin(maskRow)
		return
	}
	if len(a.slot)+msaSinks != len(a.states) {
		m.resetSlots()
	}
	slot := a.slot
	values := a.values[:len(slot)]
	zero := negZero
	for _, j := range maskRow {
		k := uint32(j)
		slot[k] = j
		values[k] = zero
	}
}

// resetSlots (re)builds slot for the arrays' current width w: column k
// maps to sink w + k&63. It runs on the first dense row and after the
// arrays grow.
func (m MSAPlusTimes) resetSlots() {
	w := len(m.states) - msaSinks
	slot := make([]int32, w)
	for k := range slot {
		slot[k] = int32(w + k&(msaSinks-1))
	}
	m.slot = slot
}

// Scatter is MSA.Scatter with Mul and Add written out, in the current
// row's loop.
//
// A dense row's loop has no branch per entry. An admitted column's
// slot is itself, so its product is added to its value (−0 after
// Begin) and its state becomes SET; any other column's slot is a sink,
// which takes the product and the state store instead.
//
// A sparse row's loop tests the discard case first: most scanned
// entries are discarded, and a leading not-allowed test measured
// faster than the generic loop's three-way switch.
//
//mspgemm:hotpath
func (m MSAPlusTimes) Scatter(av float64, bCols []int32, bVals []float64) {
	states := m.states
	values := m.values[:len(states)]
	bVals = bVals[:len(bCols)]
	if m.Dense {
		slot := m.slot
		for t, j := range bCols {
			s := uint32(slot[uint32(j)])
			states[s] = stateSet
			values[s] += float64(av * bVals[t])
		}
		return
	}
	for t, j := range bCols {
		k := uint32(j)
		s := states[k]
		if s == stateNotAllowed {
			continue
		}
		p := float64(av * bVals[t])
		if s == stateAllowed {
			values[k] = p
			states[k] = stateSet
		} else {
			values[k] += p
		}
	}
}

// Gather emits the SET entries in mask order, as MSA.Gather does. A
// dense row also returns its mask columns' slots to their sinks.
//
//mspgemm:hotpath
func (m MSAPlusTimes) Gather(maskRow []int32, outIdx []int32, outVal []float64) int {
	a := m.MSA
	if !m.Dense {
		return a.Gather(maskRow, outIdx, outVal)
	}
	slot := a.slot
	states := a.states[:len(slot)]
	values := a.values[:len(slot)]
	sink := int32(len(slot))
	n := 0
	for _, j := range maskRow {
		k := uint32(j)
		if states[k] == stateSet {
			outIdx[n] = j
			outVal[n] = values[k]
			n++
		}
		states[k] = stateNotAllowed
		slot[k] = sink + j&(msaSinks-1)
	}
	return n
}

// MaskedBitPlusTimes is a MaskedBit over PlusTimes64 whose Scatter is
// float64 code.
type MaskedBitPlusTimes struct {
	*MaskedBit[float64, PlusTimes64]
}

// Scatter is MaskedBit.Scatter with Mul and Add written out: values
// start at −0 (restValue), so the first product is added to −0 exactly
// as the generic Add(values[k], Mul(a, b)) does, and is stored bit for
// bit.
//
//mspgemm:hotpath
func (m MaskedBitPlusTimes) Scatter(av float64, bCols []int32, bVals []float64) {
	allowed := m.allowed
	set := m.set[:len(allowed)]
	values := m.values
	bVals = bVals[:len(bCols)]
	for t, j := range bCols {
		k := uint(uint32(j))
		w := k >> 6
		bit := uint64(1) << (k & 63)
		if allowed[w]&bit == 0 {
			continue
		}
		values[k] += float64(av * bVals[t])
		set[w] |= bit
	}
}

// MaskedBitCPlusTimes is a MaskedBitC over PlusTimes64 whose Scatter is
// float64 code. It has two scatter loops, and Dense picks one per row.
// The sparse loop skips banned columns and lists first touches, as the
// generic loop does. The dense loop has no branch and no list: it adds
// every scanned product, with the bits of a banned column's product
// cleared to +0, and sets the column's set bit only when it is
// admitted; its Gather then walks every set word of the product. It
// pays where a row's products cover a fair share of the product's
// width; the complement kernel decides per row (DESIGN.md §12, "Dense
// complemented rows").
type MaskedBitCPlusTimes struct {
	*MaskedBitC[float64, PlusTimes64]
	// Dense selects the dense loop for the row; Scatter and Gather of
	// one row must see the same value.
	Dense bool
	// Cols is the product's width, the columns a dense row's Gather
	// walks. The executor's arrays may be wider, left by a wider
	// product.
	Cols int
}

// Scatter is MaskedBitC.Scatter with Mul and Add written out, in the
// current row's loop.
//
// A dense row's loop has no branch per entry. ok is 1 when the mask
// admits column k and 0 when it bans it, and -ok is then all ones or
// zero: the product's bits ANDed with it are the product or +0. A
// banned column only ever gets +0 added, which can turn its rest value
// −0 into +0 but never into anything else, and Gather restores it; an
// admitted column gets the generic loop's add, in the same order, and
// its set bit.
//
//mspgemm:hotpath
func (m MaskedBitCPlusTimes) Scatter(av float64, bCols []int32, bVals []float64) {
	banned := m.banned
	set := m.set[:len(banned)]
	values := m.values
	bVals = bVals[:len(bCols)]
	if m.Dense {
		for t, j := range bCols {
			k := uint(uint32(j))
			w := k >> 6
			ok := ^(banned[w] >> (k & 63)) & 1
			p := math.Float64bits(float64(av * bVals[t]))
			values[k] += math.Float64frombits(p & -ok)
			set[w] |= ok << (k & 63)
		}
		return
	}
	inserted := m.inserted
	for t, j := range bCols {
		k := uint(uint32(j))
		w := k >> 6
		bit := uint64(1) << (k & 63)
		if banned[w]&bit != 0 {
			continue
		}
		values[k] += float64(av * bVals[t])
		if set[w]&bit == 0 {
			set[w] |= bit
			inserted = append(inserted, j)
		}
	}
	m.inserted = inserted
}

// Gather emits the inserted entries in ascending column order and
// leaves the accumulator clean, as MaskedBitC.Gather does. A dense row
// listed nothing, so its Gather walks the set words of all Cols
// columns, popping set bits with TrailingZeros64, returns each emitted
// value to the rest value and clears each word's banned bits as it
// goes, then returns the banned keys' values to the rest value. A
// sparse row is the generic Gather.
//
//mspgemm:hotpath
func (m MaskedBitCPlusTimes) Gather(outIdx []int32, outVal []float64) int {
	c := m.MaskedBitC
	if !m.Dense {
		return c.Gather(outIdx, outVal)
	}
	set := c.set[:bitWords(m.Cols)]
	banned := c.banned[:len(set)]
	values, rest := c.values, c.rest
	n := 0
	for w, b := range set {
		for ; b != 0; b &= b - 1 {
			k := uint(w)<<6 + uint(bits.TrailingZeros64(b))
			outIdx[n] = int32(k)
			outVal[n] = values[k]
			values[k] = rest
			n++
		}
		set[w] = 0
		banned[w] = 0
	}
	for _, j := range c.maskRow {
		values[uint32(j)] = rest
	}
	c.maskRow = nil
	return n
}

// MSAKnownPlusTimes is an MSA over PlusTimes64 for a row whose output
// columns are known: those of a plan's remembered output pattern, which
// Begin takes as the mask. It runs MSAPlusTimes' dense loop on every
// row (Dense set), without states, as every known column receives a
// product, so Gather reads them all and writes only values. A product
// on any other column lands in a sink, so its value slot is never
// touched.
type MSAKnownPlusTimes struct {
	MSAPlusTimes
}

// Scatter is MSAPlusTimes' dense Scatter without its state stores.
//
//mspgemm:hotpath
func (m MSAKnownPlusTimes) Scatter(av float64, bCols []int32, bVals []float64) {
	slot := m.slot
	values := m.values
	bVals = bVals[:len(bCols)]
	for t, j := range bCols {
		values[uint32(slot[uint32(j)])] += float64(av * bVals[t])
	}
}

// Gather writes the value of every known column of cols into outVal,
// returns its slot to its sink and returns len(cols).
//
//mspgemm:hotpath
func (m MSAKnownPlusTimes) Gather(cols []int32, _ []int32, outVal []float64) int {
	slot := m.slot
	values := m.values[:len(slot)]
	sink := int32(len(slot))
	outVal = outVal[:len(cols)]
	for t, j := range cols {
		k := uint32(j)
		outVal[t] = values[k]
		slot[k] = sink + j&(msaSinks-1)
	}
	return len(cols)
}
