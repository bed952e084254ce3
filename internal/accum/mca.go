package accum

import "maskedspgemm/internal/semiring"

// MCA is the Mask Compressed Accumulator (§5.4), the accumulator the
// paper introduces specifically for masked SpGEMM. The observation: an
// output row can never hold more than nnz(mask row) entries, so the
// values/states arrays need only that many slots — compressed to the
// mask — and are indexed by the *position* of a column within the mask
// row rather than by the column id. Because the mask pre-filters every
// key that reaches the accumulator, only two states are needed:
// ALLOWED (zero value) and SET.
//
// The key-to-position translation is done by the caller's merge loop
// (Algorithm 3 in the paper, implemented in internal/core): for each
// nonzero u_k the sorted row B_k* is merged against the sorted mask row,
// and matches are inserted under their mask position.
type MCA[T any, S semiring.Semiring[T]] struct {
	sr     S
	states []uint8
	values []T
}

// NewMCA returns an empty MCA; Grow sizes it for each mask row.
func NewMCA[T any, S semiring.Semiring[T]](sr S) *MCA[T, S] {
	return &MCA[T, S]{sr: sr}
}

// Grow ensures capacity for mask rows of n entries.
func (m *MCA[T, S]) Grow(n int) {
	if n > len(m.states) {
		m.states = make([]uint8, n)
		m.values = make([]T, n)
	}
}

// Insert accumulates Mul(a, b) into mask position idx. The caller
// guarantees 0 ≤ idx < nnz(mask row), i.e. the key is admitted.
//
//mspgemm:hotpath
func (m *MCA[T, S]) Insert(idx int32, a, b T) {
	if m.states[idx] == stateNotAllowed { // zero value doubles as ALLOWED here
		m.values[idx] = m.sr.Mul(a, b)
		m.states[idx] = stateSet
	} else {
		m.values[idx] = m.sr.Add(m.values[idx], m.sr.Mul(a, b))
	}
}

// InsertPattern marks mask position idx SET (symbolic phase).
//
//mspgemm:hotpath
func (m *MCA[T, S]) InsertPattern(idx int32) {
	m.states[idx] = stateSet
}

// Gather emits the SET positions translated back to column ids via the
// mask row, resets the used prefix, and returns the output count.
// Output order follows the mask, so it is sorted whenever the mask is.
//
//mspgemm:hotpath
func (m *MCA[T, S]) Gather(maskRow []int32, outIdx []int32, outVal []T) int {
	n := 0
	for idx, j := range maskRow {
		if m.states[idx] == stateSet {
			outIdx[n] = j
			outVal[n] = m.values[idx]
			n++
		}
		m.states[idx] = stateNotAllowed
	}
	return n
}

// EndSymbolic counts SET positions among the first len(maskRow) slots
// and resets them.
//
//mspgemm:hotpath
func (m *MCA[T, S]) EndSymbolic(maskRow []int32) int {
	n := 0
	for idx := range maskRow {
		if m.states[idx] == stateSet {
			n++
		}
		m.states[idx] = stateNotAllowed
	}
	return n
}
