package sparse

import "fmt"

// Vector is a sparse vector: sorted indices with parallel values. It
// is the operand type of the masked SpGEVM kernels (§5: each output
// row of a masked SpGEMM is computed as v⊺ = m⊺ ⊙ (u⊺B), so the
// vector form is the natural single-row API).
type Vector[T any] struct {
	// N is the dimension.
	N int
	// Idx holds the sorted, duplicate-free positions of the nonzeros.
	Idx []int32
	// Val runs parallel to Idx.
	Val []T
}

// NewVector returns an empty sparse vector of dimension n.
func NewVector[T any](n int) *Vector[T] {
	return &Vector[T]{N: n}
}

// NNZ returns the stored-entry count.
func (v *Vector[T]) NNZ() int { return len(v.Idx) }

// Validate checks the sorted/in-range invariants.
func (v *Vector[T]) Validate() error {
	if len(v.Idx) != len(v.Val) {
		return fmt.Errorf("sparse: vector Idx/Val length mismatch %d/%d", len(v.Idx), len(v.Val))
	}
	prev := int32(-1)
	for _, i := range v.Idx {
		if i < 0 || int(i) >= v.N {
			return fmt.Errorf("sparse: vector index %d out of range [0,%d)", i, v.N)
		}
		if i <= prev {
			return fmt.Errorf("sparse: vector indices not strictly increasing (%d after %d)", i, prev)
		}
		prev = i
	}
	return nil
}

// At returns the stored value at position i and whether it is present.
func (v *Vector[T]) At(i int32) (T, bool) {
	lo, hi := 0, len(v.Idx)
	for lo < hi {
		mid := (lo + hi) / 2
		if v.Idx[mid] < i {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(v.Idx) && v.Idx[lo] == i {
		return v.Val[lo], true
	}
	var zero T
	return zero, false
}

// Clone returns a deep copy.
func (v *Vector[T]) Clone() *Vector[T] {
	return &Vector[T]{
		N:   v.N,
		Idx: append([]int32(nil), v.Idx...),
		Val: append([]T(nil), v.Val...),
	}
}
