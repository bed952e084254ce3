// Package accum implements the four accumulator data structures the
// paper builds masked SpGEMM on (§5): the Masked Sparse Accumulator
// (MSA), the hash accumulator, the novel Mask Compressed Accumulator
// (MCA), and the heap (multi-way merge) accumulator, plus the
// complemented-mask variants of MSA and hash (§5.2–5.5).
//
// An accumulator merges the scaled rows u_k·B_k* that contribute to one
// output row, while discarding (ideally never computing) products whose
// column is masked out. The paper's interface is
//
//	setAllowed(key) / insert(key, λ) / remove(key)
//
// with three states per key: NOTALLOWED → ALLOWED → SET. Here the
// insert lambda is realised without closure allocation by passing the
// multiplicands, and the unit of work is one scaled B row rather than one
// key: Scatter(a, bCols, bVals) runs the insert for every (j, b) of B_k*,
// multiplying only once column j is known to be allowed, preserving the
// lazy-evaluation semantics of §5.1. Taking the whole row is what keeps
// the state test cheap: the push drivers are generic over the
// accumulator, and Go compiles generic code once per GC shape, so a
// method call on the accumulator from inside a driver is an indirect
// call through the instantiation's dictionary. One such call per A entry
// is noise; one per product was most of the numeric pass. The same holds
// for the semiring inside the generic Scatter loops: sr.Mul and sr.Add
// are two dictionary calls per admitted product. For
// semiring.PlusTimes[float64] the binders of MSA, MaskedBit and
// MaskedBitC instead bind the wrappers in plustimes.go, whose Scatter is
// float64 code over the same arrays.
//
// One accumulator instance is owned by one worker goroutine and reused
// across all rows that worker processes; Begin/Gather (or the symbolic
// Begin/EndSymbolic pair) bracket each row and leave the structure clean
// for the next row in O(row work) time.
package accum

// Key states shared by MSA and MCA. The hash accumulator encodes
// emptiness through its key slots instead.
const (
	stateNotAllowed uint8 = iota // default: masked out (plain) / untouched
	stateAllowed                 // admitted by the mask, nothing inserted yet
	stateSet                     // at least one product accumulated
)

// nextPow2 returns the smallest power of two ≥ n (minimum 1).
func nextPow2(n int) int {
	p := 1
	for p < n {
		p <<= 1
	}
	return p
}

// Numeric is the per-row numeric protocol shared by the plain push
// accumulators (MSA, MaskedBit, Hash); the push kernels in
// internal/core are generic over it. Each method is one dictionary call
// from the driver, so the per-product work lives inside Scatter.
//
// Usage per output row i:
//
//	acc.Begin(maskRow)
//	for each A(i,k): acc.Scatter(a, B_k*.cols, B_k*.vals)
//	n := acc.Gather(maskRow, outIdx, outVal)
type Numeric[T any] interface {
	// Begin prepares the accumulator for a new output row whose admitted
	// keys are the sorted column indices in maskRow.
	Begin(maskRow []int32)
	// Scatter lazily accumulates Mul(a, b) into column j for every entry
	// (j, b) of one B row, discarding without computing the products
	// whose column is not allowed.
	Scatter(a T, bCols []int32, bVals []T)
	// Gather writes the SET entries in mask order into outIdx/outVal,
	// returns how many were written, and resets the accumulator.
	Gather(maskRow []int32, outIdx []int32, outVal []T) int
}

// Symbolic is the per-row symbolic (pattern-only) protocol used by the
// two-phase algorithms' first pass (§6): like Numeric but without
// values. MSA and Hash implement it; MaskedBit runs one-phase only, as
// two-phase is a capability of the paper's schemes.
type Symbolic interface {
	// BeginSymbolic prepares for a new row (pattern-only).
	BeginSymbolic(maskRow []int32)
	// ScatterPattern marks every allowed column of one B row as SET.
	ScatterPattern(bCols []int32)
	// EndSymbolic returns the number of SET keys and resets.
	EndSymbolic(maskRow []int32) int
}

// ComplementNumeric is the numeric protocol for complemented masks
// (C = ¬M ⊙ AB), shared by MSAC, HashC and MaskedBitC: BeginSized marks
// the mask keys as NOTALLOWED, every other key is admitted, and
// gathering must order the output itself because insertions arrive in
// arbitrary column order (§5.2, "Gustavson's strategy"): by sorting the
// tracked keys, or, for MaskedBitC, by walking its set bitset.
type ComplementNumeric[T any] interface {
	// BeginSized prepares for a new output row; keys in maskRow are
	// excluded, and bound caps the row's output population (the §5.2
	// bound min(n − nnz(m_i), Σ nnz(B_k*))), which HashC sizes its table
	// by.
	BeginSized(maskRow []int32, bound int)
	// Scatter lazily accumulates Mul(a, b) into column j for every entry
	// (j, b) of one B row unless j is masked out.
	Scatter(a T, bCols []int32, bVals []T)
	// Gather writes all SET entries in ascending key order, returns the
	// count, and resets. outIdx/outVal must have room for every inserted
	// key.
	Gather(outIdx []int32, outVal []T) int
}

// ComplementSymbolic is the symbolic counterpart of ComplementNumeric,
// implemented by MSAC and HashC.
type ComplementSymbolic interface {
	// BeginSymbolicSized prepares for a new row (pattern-only).
	BeginSymbolicSized(maskRow []int32, bound int)
	// ScatterPattern marks every column of one B row as SET unless it is
	// masked out.
	ScatterPattern(bCols []int32)
	// EndSymbolic returns the number of SET keys and resets.
	EndSymbolic() int
}
