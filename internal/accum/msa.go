package accum

import (
	"slices"

	"maskedspgemm/internal/semiring"
)

// MSA is the Masked Sparse Accumulator (§5.2): two dense arrays of
// length ncols — values and states — where states follows the automaton
// NOTALLOWED → ALLOWED → SET. Initialization marks the mask's keys
// ALLOWED; inserts only land on ALLOWED/SET keys; the gather walks the
// mask in order (making output stable/sorted) and resets the touched
// states, so cleanup costs O(nnz(mask row)) rather than O(ncols).
type MSA[T any, S semiring.Semiring[T]] struct {
	sr     S
	states []uint8
	values []T
}

// NewMSA returns an MSA accumulator for output rows of width ncols.
func NewMSA[T any, S semiring.Semiring[T]](sr S, ncols int) *MSA[T, S] {
	return &MSA[T, S]{sr: sr, states: make([]uint8, ncols), values: make([]T, ncols)}
}

// EnsureCols grows the dense arrays to cover output rows of width
// ncols. Fresh slots start NOTALLOWED (the zero state), so growing
// between rows is always safe. Used by executor workspaces that keep
// one MSA per worker across products of different widths.
func (m *MSA[T, S]) EnsureCols(ncols int) {
	if ncols > len(m.states) {
		m.states = make([]uint8, ncols)
		m.values = make([]T, ncols)
	}
}

// Begin marks every key in maskRow ALLOWED. The scatter is unrolled
// 4-wide: the four stores are independent, so the CPU overlaps them,
// and the block's three extra index loads are bounds-check-free (the
// loop condition covers them).
//
//mspgemm:hotpath
func (m *MSA[T, S]) Begin(maskRow []int32) {
	states := m.states
	for ; len(maskRow) >= 4; maskRow = maskRow[4:] {
		j0, j1, j2, j3 := maskRow[0], maskRow[1], maskRow[2], maskRow[3]
		states[uint32(j0)] = stateAllowed
		states[uint32(j1)] = stateAllowed
		states[uint32(j2)] = stateAllowed
		states[uint32(j3)] = stateAllowed
	}
	for _, j := range maskRow {
		states[uint32(j)] = stateAllowed
	}
}

// Scatter accumulates Mul(av, b) into column j for every entry (j, b)
// of one B row, skipping the columns the mask rules out without forming
// their products (lazy evaluation, §5.1). The state test sits inline in
// the loop: the push drivers are generic over the accumulator, so any
// per-column method call from them is a dictionary call per flop.
//
//mspgemm:hotpath
func (m *MSA[T, S]) Scatter(av T, bCols []int32, bVals []T) {
	// values shares states' length, so after the states[k] check every
	// values[k] access is provably in bounds (len-hint reslicing); bVals
	// walks in lockstep with bCols.
	sr := m.sr
	states := m.states
	values := m.values[:len(states)]
	bVals = bVals[:len(bCols)]
	for t, j := range bCols {
		k := uint32(j)
		switch states[k] {
		case stateAllowed:
			values[k] = sr.Mul(av, bVals[t])
			states[k] = stateSet
		case stateSet:
			values[k] = sr.Add(values[k], sr.Mul(av, bVals[t]))
		}
	}
}

// Gather emits the SET entries in mask order and resets the mask's
// states to NOTALLOWED.
//
//mspgemm:hotpath
func (m *MSA[T, S]) Gather(maskRow []int32, outIdx []int32, outVal []T) int {
	states := m.states
	values := m.values[:len(states)]
	n := 0
	for _, j := range maskRow {
		k := uint32(j)
		if states[k] == stateSet {
			outIdx[n] = j
			outVal[n] = values[k]
			n++
		}
		states[k] = stateNotAllowed
	}
	return n
}

// BeginSymbolic prepares a pattern-only row.
func (m *MSA[T, S]) BeginSymbolic(maskRow []int32) { m.Begin(maskRow) }

// ScatterPattern marks every allowed column of one B row SET, without
// touching values.
//
//mspgemm:hotpath
func (m *MSA[T, S]) ScatterPattern(bCols []int32) {
	states := m.states
	for _, j := range bCols {
		k := uint32(j)
		if states[k] == stateAllowed {
			states[k] = stateSet
		}
	}
}

// EndSymbolic counts SET keys and resets the mask's states.
//
//mspgemm:hotpath
func (m *MSA[T, S]) EndSymbolic(maskRow []int32) int {
	states := m.states
	n := 0
	for _, j := range maskRow {
		k := uint32(j)
		if states[k] == stateSet {
			n++
		}
		states[k] = stateNotAllowed
	}
	return n
}

// MSAC is the complemented-mask MSA (§5.2): the default state is
// ALLOWED and Begin marks the mask's keys NOTALLOWED. Because admitted
// keys are no longer enumerable from the mask, inserted keys are tracked
// in a list (the paper credits this strategy to Gustavson) and sorted at
// gather time so output rows stay sorted.
//
// Internally the state byte meaning is flipped relative to MSA so that
// the zero value of the states array means ALLOWED and no O(ncols)
// initialization is needed per row.
type MSAC[T any, S semiring.Semiring[T]] struct {
	sr       S
	states   []uint8 // 0 = allowed (default), 1 = notallowed, 2 = set
	values   []T
	inserted []int32
	maskRow  []int32 // row passed to Begin, reset during Gather
}

// NewMSAC returns a complemented MSA for output rows of width ncols.
func NewMSAC[T any, S semiring.Semiring[T]](sr S, ncols int) *MSAC[T, S] {
	return &MSAC[T, S]{sr: sr, states: make([]uint8, ncols), values: make([]T, ncols), inserted: make([]int32, 0, 64)}
}

const (
	msacAllowed    uint8 = 0
	msacNotAllowed uint8 = 1
	msacSet        uint8 = 2
)

// EnsureCols grows the dense arrays to cover output rows of width
// ncols. Fresh slots start at the zero state, which for MSAC means
// ALLOWED — exactly the clean between-rows state.
func (m *MSAC[T, S]) EnsureCols(ncols int) {
	if ncols > len(m.states) {
		m.states = make([]uint8, ncols)
		m.values = make([]T, ncols)
	}
}

// Begin marks every key in maskRow NOTALLOWED; all other keys are
// admitted.
//
//mspgemm:hotpath
func (m *MSAC[T, S]) Begin(maskRow []int32) {
	states := m.states
	for _, j := range maskRow {
		states[uint32(j)] = msacNotAllowed
	}
	m.inserted = m.inserted[:0]
	m.maskRow = maskRow
}

// BeginSized is Begin; the bound is irrelevant for a dense-array
// accumulator. It exists so MSAC and HashC share the complement
// protocol.
func (m *MSAC[T, S]) BeginSized(maskRow []int32, _ int) { m.Begin(maskRow) }

// Scatter accumulates Mul(av, b) into column j for every entry (j, b)
// of one B row unless the mask excludes j, appending first touches to
// the inserted list.
//
//mspgemm:hotpath
func (m *MSAC[T, S]) Scatter(av T, bCols []int32, bVals []T) {
	sr := m.sr
	states := m.states
	values := m.values[:len(states)]
	inserted := m.inserted
	bVals = bVals[:len(bCols)]
	for t, j := range bCols {
		k := uint32(j)
		switch states[k] {
		case msacAllowed:
			values[k] = sr.Mul(av, bVals[t])
			states[k] = msacSet
			inserted = append(inserted, j)
		case msacSet:
			values[k] = sr.Add(values[k], sr.Mul(av, bVals[t]))
		}
	}
	m.inserted = inserted
}

// Gather sorts the inserted keys, emits them, and resets all touched
// state — both the inserted keys and the mask keys marked in Begin — so
// the accumulator is clean for the next row. slices.Sort is the generic
// pdqsort, so the per-row sort compares int32s inline rather than
// through sort.Interface.
//
//mspgemm:hotpath
func (m *MSAC[T, S]) Gather(outIdx []int32, outVal []T) int {
	slices.Sort(m.inserted)
	states := m.states
	values := m.values[:len(states)]
	n := 0
	for _, j := range m.inserted {
		k := uint32(j)
		outIdx[n] = j
		outVal[n] = values[k]
		states[k] = msacAllowed
		n++
	}
	m.inserted = m.inserted[:0]
	for _, j := range m.maskRow {
		states[uint32(j)] = msacAllowed
	}
	m.maskRow = nil
	return n
}

// BeginSymbolicSized prepares a pattern-only row.
func (m *MSAC[T, S]) BeginSymbolicSized(maskRow []int32, _ int) { m.Begin(maskRow) }

// ScatterPattern marks every column of one B row SET unless excluded.
//
//mspgemm:hotpath
func (m *MSAC[T, S]) ScatterPattern(bCols []int32) {
	states := m.states
	inserted := m.inserted
	for _, j := range bCols {
		k := uint32(j)
		if states[k] == msacAllowed {
			states[k] = msacSet
			inserted = append(inserted, j)
		}
	}
	m.inserted = inserted
}

// EndSymbolic counts inserted keys and resets all touched state.
//
//mspgemm:hotpath
func (m *MSAC[T, S]) EndSymbolic() int {
	states := m.states
	n := len(m.inserted)
	for _, j := range m.inserted {
		states[uint32(j)] = msacAllowed
	}
	m.inserted = m.inserted[:0]
	for _, j := range m.maskRow {
		states[uint32(j)] = msacAllowed
	}
	m.maskRow = nil
	return n
}
