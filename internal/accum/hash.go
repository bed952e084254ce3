package accum

import (
	"slices"

	"maskedspgemm/internal/semiring"
)

// hashMultiplier is Knuth's multiplicative constant (2654435761 =
// floor(2^32/φ)); with a power-of-two table the high bits spread well
// under linear probing.
const hashMultiplier uint32 = 2654435761

// DefaultLoadFactor is the paper's hash accumulator load factor: the
// table is sized so that nnz(mask row) fills at most a quarter of it,
// trading memory for collision-free probes (§5.3).
const DefaultLoadFactor = 0.25

// Hash is the hash accumulator (§5.3): an open-addressing, linear-probe
// table storing (key, state, value) with no resizing — the key set is
// known up front to be the mask row. Compared to MSA it has a smaller
// footprint (better cache behaviour on large matrices) at the cost of
// hashing on each access.
type Hash[T any, S semiring.Semiring[T]] struct {
	sr     S
	keys   []int32 // -1 = empty slot
	states []uint8 // stateAllowed or stateSet for occupied slots
	values []T
	cap    int // active power-of-two capacity for the current row
	lf     float64
}

// NewHash returns a hash accumulator able to handle mask rows of up to
// maxMaskRow entries at the given load factor (≤ 0 means the paper's
// 0.25).
func NewHash[T any, S semiring.Semiring[T]](sr S, maxMaskRow int, loadFactor float64) *Hash[T, S] {
	if loadFactor <= 0 || loadFactor > 1 {
		loadFactor = DefaultLoadFactor
	}
	h := &Hash[T, S]{sr: sr, lf: loadFactor}
	h.grow(tableCap(maxMaskRow, loadFactor))
	return h
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// tableCap is the one table-sizing rule: the power-of-two capacity for
// n keys at load factor lf, always leaving at least one empty slot so
// linear probing for absent keys terminates even at load factor 1.0
// (a row of exactly c keys would otherwise fill the table and make
// slot() spin forever).
func tableCap(n int, lf float64) int {
	c := nextPow2(maxInt(int(float64(n)/lf), 16))
	for c <= n {
		c <<= 1
	}
	return c
}

// grow reallocates the backing arrays to capacity c when they are
// smaller, leaving every slot empty.
func (h *Hash[T, S]) grow(c int) {
	if c <= len(h.keys) {
		return
	}
	h.keys = make([]int32, c)
	h.states = make([]uint8, c)
	h.values = make([]T, c)
	for i := range h.keys {
		h.keys[i] = -1
	}
}

// Reconfigure adjusts a pooled accumulator for a new product: it adopts
// the given load factor (≤ 0 means the paper's 0.25) and pre-grows the
// table for mask rows of up to maxMaskRow entries. Used by executor
// workspaces that keep one Hash per worker across many multiplications.
func (h *Hash[T, S]) Reconfigure(maxMaskRow int, loadFactor float64) {
	if loadFactor <= 0 || loadFactor > 1 {
		loadFactor = DefaultLoadFactor
	}
	h.lf = loadFactor
	h.grow(tableCap(maxMaskRow, h.lf))
}

// sizeFor picks the active capacity for a row with n mask entries and
// clears that region. Growing beyond the constructor hint is supported
// (it just reallocates), so callers may size optimistically.
func (h *Hash[T, S]) sizeFor(n int) {
	c := tableCap(n, h.lf)
	h.grow(c)
	h.cap = c
	for i := 0; i < c; i++ {
		h.keys[i] = -1
	}
}

// probe linear-probes keys (a power-of-two-sized table using -1 for
// empty slots) for key and returns its slot, or the empty slot
// terminating its chain. A free function over the resliced active
// region rather than a method: the compiler sees the probe index is
// masked by len(keys)-1 and (after the len guard) eliminates the
// bounds check inside the loop, which a h.keys/h.cap formulation
// defeats.
//
//mspgemm:hotpath
func probe(keys []int32, key int32) int {
	if len(keys) == 0 {
		return 0
	}
	// mask stays an int expression over len(keys) so the prove pass can
	// see p&mask < len(keys); routing it through uint32 would lose that.
	mask := len(keys) - 1
	p := int(uint32(key)*hashMultiplier) & mask
	for {
		k := keys[p&mask]
		if k == key || k == -1 {
			return p & mask
		}
		p = (p + 1) & mask
	}
}

// Begin sizes the table for the row and inserts the mask keys as
// ALLOWED. The scatter is unrolled 4-wide; probes of distinct keys are
// independent chains the CPU can overlap, but each insert must land
// before the next probe starts (a later key may hash into the same
// chain), so probe/store pairs stay interleaved.
//
//mspgemm:hotpath
func (h *Hash[T, S]) Begin(maskRow []int32) {
	h.sizeFor(len(maskRow))
	keys := h.keys[:h.cap]
	states := h.states[:len(keys)]
	for ; len(maskRow) >= 4; maskRow = maskRow[4:] {
		j0, j1, j2, j3 := maskRow[0], maskRow[1], maskRow[2], maskRow[3]
		p0 := probe(keys, j0)
		keys[p0], states[p0] = j0, stateAllowed
		p1 := probe(keys, j1)
		keys[p1], states[p1] = j1, stateAllowed
		p2 := probe(keys, j2)
		keys[p2], states[p2] = j2, stateAllowed
		p3 := probe(keys, j3)
		keys[p3], states[p3] = j3, stateAllowed
	}
	for _, j := range maskRow {
		p := probe(keys, j)
		keys[p], states[p] = j, stateAllowed
	}
}

// Scatter accumulates Mul(av, b) into column j for every entry (j, b)
// of one B row whose column is present in the table (i.e. admitted by
// the mask). Probing that lands on an empty slot means the column is
// NOTALLOWED and the product is never computed.
//
//mspgemm:hotpath
func (h *Hash[T, S]) Scatter(av T, bCols []int32, bVals []T) {
	// states and values share keys' length, so after the keys[p] check
	// the remaining accesses are provably in bounds.
	sr := h.sr
	keys := h.keys[:h.cap]
	states := h.states[:len(keys)]
	values := h.values[:len(keys)]
	bVals = bVals[:len(bCols)]
	for t, j := range bCols {
		p := probe(keys, j)
		if keys[p] == -1 {
			continue // not in mask: discard without computing the product
		}
		if states[p] == stateAllowed {
			values[p] = sr.Mul(av, bVals[t])
			states[p] = stateSet
		} else {
			values[p] = sr.Add(values[p], sr.Mul(av, bVals[t]))
		}
	}
}

// Gather re-probes each mask key in order and emits the SET ones; output
// is therefore sorted exactly like the mask. The table needs no explicit
// reset — the next Begin clears its active region.
//
//mspgemm:hotpath
func (h *Hash[T, S]) Gather(maskRow []int32, outIdx []int32, outVal []T) int {
	keys := h.keys[:h.cap]
	states := h.states[:len(keys)]
	values := h.values[:len(keys)]
	n := 0
	for _, j := range maskRow {
		p := probe(keys, j)
		if keys[p] != -1 && states[p] == stateSet {
			outIdx[n] = j
			outVal[n] = values[p]
			n++
		}
	}
	return n
}

// BeginSymbolic prepares a pattern-only row.
func (h *Hash[T, S]) BeginSymbolic(maskRow []int32) { h.Begin(maskRow) }

// ScatterPattern marks every admitted column of one B row SET.
//
//mspgemm:hotpath
func (h *Hash[T, S]) ScatterPattern(bCols []int32) {
	keys := h.keys[:h.cap]
	states := h.states[:len(keys)]
	for _, j := range bCols {
		p := probe(keys, j)
		if keys[p] != -1 && states[p] == stateAllowed {
			states[p] = stateSet
		}
	}
}

// EndSymbolic counts SET keys.
//
//mspgemm:hotpath
func (h *Hash[T, S]) EndSymbolic(maskRow []int32) int {
	keys := h.keys[:h.cap]
	states := h.states[:len(keys)]
	n := 0
	for _, j := range maskRow {
		p := probe(keys, j)
		if keys[p] != -1 && states[p] == stateSet {
			n++
		}
	}
	return n
}

// HashC is the complemented-mask hash accumulator: mask keys are
// inserted as NOTALLOWED sentinels and any other key is admitted on
// first touch. Because admitted keys cannot be enumerated from the mask,
// the table must be sized by an upper bound on the row's output
// (min(ncols − nnz(mask row), Σ nnz(B_k*)) plus the mask sentinels) and
// inserted keys are tracked and sorted at gather time.
type HashC[T any, S semiring.Semiring[T]] struct {
	sr       S
	keys     []int32
	states   []uint8 // stateNotAllowed (sentinel) or stateSet
	values   []T
	cap      int
	lf       float64
	inserted []int32
}

// NewHashC returns a complemented hash accumulator able to hold
// maxEntries keys (mask sentinels + inserted outputs) per row.
func NewHashC[T any, S semiring.Semiring[T]](sr S, maxEntries int, loadFactor float64) *HashC[T, S] {
	if loadFactor <= 0 || loadFactor > 1 {
		loadFactor = 0.5 // complement rows can be large; be less wasteful
	}
	c := nextPow2(maxInt(int(float64(maxEntries)/loadFactor), 16))
	h := &HashC[T, S]{
		sr:     sr,
		keys:   make([]int32, c),
		states: make([]uint8, c),
		values: make([]T, c),
		lf:     loadFactor,
	}
	for i := range h.keys {
		h.keys[i] = -1
	}
	return h
}

// Reconfigure adopts a new load factor (≤ 0 means the complement
// default 0.5) on a pooled accumulator. Table growth is per-row
// (BeginSized), so no pre-sizing is needed here.
func (h *HashC[T, S]) Reconfigure(loadFactor float64) {
	if loadFactor <= 0 || loadFactor > 1 {
		loadFactor = 0.5
	}
	h.lf = loadFactor
}

// BeginSized prepares the table for a row whose mask has the given
// entries and whose output size is bounded by bound.
//
//mspgemm:hotpath
func (h *HashC[T, S]) BeginSized(maskRow []int32, bound int) {
	need := tableCap(bound+len(maskRow), h.lf)
	if need > len(h.keys) {
		h.keys = make([]int32, need)
		h.states = make([]uint8, need)
		h.values = make([]T, need)
	}
	h.cap = need
	for i := 0; i < need; i++ {
		h.keys[i] = -1
	}
	keys := h.keys[:h.cap]
	states := h.states[:len(keys)]
	for _, j := range maskRow {
		p := probe(keys, j)
		keys[p], states[p] = j, stateNotAllowed
	}
	h.inserted = h.inserted[:0]
}

// Scatter accumulates Mul(av, b) into column j for every entry (j, b)
// of one B row unless j is a mask sentinel, listing first touches.
//
//mspgemm:hotpath
func (h *HashC[T, S]) Scatter(av T, bCols []int32, bVals []T) {
	sr := h.sr
	keys := h.keys[:h.cap]
	states := h.states[:len(keys)]
	values := h.values[:len(keys)]
	inserted := h.inserted
	bVals = bVals[:len(bCols)]
	for t, j := range bCols {
		p := probe(keys, j)
		switch {
		case keys[p] == -1:
			keys[p] = j
			states[p] = stateSet
			values[p] = sr.Mul(av, bVals[t])
			inserted = append(inserted, j)
		case states[p] == stateSet:
			values[p] = sr.Add(values[p], sr.Mul(av, bVals[t]))
		}
		// stateNotAllowed: masked out; discard.
	}
	h.inserted = inserted
}

// Gather sorts and emits the inserted keys. The next BeginSized clears
// the table.
//
//mspgemm:hotpath
func (h *HashC[T, S]) Gather(outIdx []int32, outVal []T) int {
	slices.Sort(h.inserted)
	keys := h.keys[:h.cap]
	values := h.values[:len(keys)]
	n := 0
	for _, j := range h.inserted {
		p := probe(keys, j)
		outIdx[n] = j
		outVal[n] = values[p]
		n++
	}
	h.inserted = h.inserted[:0]
	return n
}

// BeginSymbolicSized prepares a pattern-only row.
func (h *HashC[T, S]) BeginSymbolicSized(maskRow []int32, bound int) {
	h.BeginSized(maskRow, bound)
}

// ScatterPattern marks every column of one B row SET unless it is a
// sentinel.
//
//mspgemm:hotpath
func (h *HashC[T, S]) ScatterPattern(bCols []int32) {
	keys := h.keys[:h.cap]
	states := h.states[:len(keys)]
	inserted := h.inserted
	for _, j := range bCols {
		p := probe(keys, j)
		if keys[p] == -1 {
			keys[p] = j
			states[p] = stateSet
			inserted = append(inserted, j)
		}
	}
	h.inserted = inserted
}

// EndSymbolic counts inserted keys.
//
//mspgemm:hotpath
func (h *HashC[T, S]) EndSymbolic() int {
	n := len(h.inserted)
	h.inserted = h.inserted[:0]
	return n
}
