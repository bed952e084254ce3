package accum

import "maskedspgemm/internal/semiring"

// The served semiring, specialised. Generic code is compiled once per GC
// shape and every zero-size semiring shares one, so inside the generic
// Scatter loops sr.Mul and sr.Add are two dictionary calls per admitted
// product that the compiler never inlines. The server runs only
// semiring.PlusTimes[float64], and the push kernels bind these three
// wrappers for it at bind time (internal/core bindMSA, bindMaskedBit,
// bindMaskedBitC): each embeds the generic accumulator, so Begin, Gather
// and the symbolic methods are the generic ones, and overrides Scatter
// with float64 code over the same arrays. Every other semiring keeps the
// generic loops.
//
// Each product is rounded explicitly (float64(av*b)) before it is added,
// so the compiler cannot fuse the multiply-add into an FMA on the
// architectures where it would; the sums are then bit-identical to the
// generic path's Add(x, Mul(a, b)) on every GOARCH.

// PlusTimes64 is the served semiring the wrappers below are written for.
type PlusTimes64 = semiring.PlusTimes[float64]

// MSAPlusTimes is an MSA over PlusTimes64 whose Scatter is float64 code.
type MSAPlusTimes struct{ *MSA[float64, PlusTimes64] }

// Scatter is MSA.Scatter with Mul and Add written out. The discard case
// is tested first: on masked products most scanned entries are
// discarded, and a leading not-allowed test measured faster than the
// generic loop's three-way switch.
//
//mspgemm:hotpath
func (m MSAPlusTimes) Scatter(av float64, bCols []int32, bVals []float64) {
	states := m.states
	values := m.values[:len(states)]
	bVals = bVals[:len(bCols)]
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

// MaskedBitPlusTimes is a MaskedBit over PlusTimes64 whose Scatter is
// float64 code.
type MaskedBitPlusTimes struct {
	*MaskedBit[float64, PlusTimes64]
}

// Scatter is MaskedBit.Scatter with Mul and Add written out: values
// start at +0, so the first product is added to +0 exactly as the
// generic Add(Zero(), Mul(a, b)) does.
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
// float64 code.
type MaskedBitCPlusTimes struct {
	*MaskedBitC[float64, PlusTimes64]
}

// Scatter is MaskedBitC.Scatter with Mul and Add written out.
//
//mspgemm:hotpath
func (m MaskedBitCPlusTimes) Scatter(av float64, bCols []int32, bVals []float64) {
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
