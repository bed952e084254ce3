package accum

import "maskedspgemm/internal/semiring"

// MSAEpoch is an alternative MSA implementation used by the reset-
// strategy ablation (DESIGN.md §6): instead of walking the mask row to
// reset states after each gather, every row gets a fresh epoch number
// and a state array of int64 stamps encodes ALLOWED as 2·epoch and SET
// as 2·epoch+1. Stale stamps from previous rows are simply ignored, so
// reset is O(1) at the cost of 8× wider state entries (and hence more
// accumulator cache traffic — the effect the ablation measures).
type MSAEpoch[T any, S semiring.Semiring[T]] struct {
	sr     S
	stamps []int64
	values []T
	epoch  int64
}

// NewMSAEpoch returns an epoch-stamped MSA for rows of width ncols.
func NewMSAEpoch[T any, S semiring.Semiring[T]](sr S, ncols int) *MSAEpoch[T, S] {
	return &MSAEpoch[T, S]{sr: sr, stamps: make([]int64, ncols), values: make([]T, ncols), epoch: 0}
}

// EnsureCols grows the stamp/value arrays to width ncols. Fresh stamps
// are 0, which no live epoch ever equals (Begin increments the epoch
// before use, so ALLOWED stamps are ≥ 2), so growth between rows is
// safe.
func (m *MSAEpoch[T, S]) EnsureCols(ncols int) {
	if ncols > len(m.stamps) {
		m.stamps = make([]int64, ncols)
		m.values = make([]T, ncols)
	}
}

// Begin starts a new row epoch and marks the mask keys ALLOWED.
//
//mspgemm:hotpath
func (m *MSAEpoch[T, S]) Begin(maskRow []int32) {
	m.epoch++
	allowed := 2 * m.epoch
	for _, j := range maskRow {
		m.stamps[j] = allowed
	}
}

// Scatter accumulates Mul(av, b) into column j for every entry (j, b)
// of one B row that the current epoch admits.
//
//mspgemm:hotpath
func (m *MSAEpoch[T, S]) Scatter(av T, bCols []int32, bVals []T) {
	sr := m.sr
	stamps := m.stamps
	values := m.values[:len(stamps)]
	allowed, set := 2*m.epoch, 2*m.epoch+1
	bVals = bVals[:len(bCols)]
	for t, j := range bCols {
		k := uint32(j)
		switch stamps[k] {
		case allowed:
			values[k] = sr.Mul(av, bVals[t])
			stamps[k] = set
		case set:
			values[k] = sr.Add(values[k], sr.Mul(av, bVals[t]))
		}
	}
}

// Gather emits SET entries in mask order; no reset is required.
//
//mspgemm:hotpath
func (m *MSAEpoch[T, S]) Gather(maskRow []int32, outIdx []int32, outVal []T) int {
	set := 2*m.epoch + 1
	n := 0
	for _, j := range maskRow {
		if m.stamps[j] == set {
			outIdx[n] = j
			outVal[n] = m.values[j]
			n++
		}
	}
	return n
}

// BeginSymbolic starts a pattern-only row.
func (m *MSAEpoch[T, S]) BeginSymbolic(maskRow []int32) { m.Begin(maskRow) }

// ScatterPattern marks every allowed column of one B row SET.
//
//mspgemm:hotpath
func (m *MSAEpoch[T, S]) ScatterPattern(bCols []int32) {
	stamps := m.stamps
	allowed, set := 2*m.epoch, 2*m.epoch+1
	for _, j := range bCols {
		k := uint32(j)
		if stamps[k] == allowed {
			stamps[k] = set
		}
	}
}

// EndSymbolic counts SET keys; no reset is required.
//
//mspgemm:hotpath
func (m *MSAEpoch[T, S]) EndSymbolic(maskRow []int32) int {
	set := 2*m.epoch + 1
	n := 0
	for _, j := range maskRow {
		if m.stamps[j] == set {
			n++
		}
	}
	return n
}
