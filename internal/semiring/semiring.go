// Package semiring defines the algebraic structures masked SpGEMM
// operates over. GraphBLAS generalizes matrix multiplication to an
// arbitrary semiring (add, mul, additive identity). The paper's
// benchmark applications need only arithmetic (§2, §8): the Fig-7
// density sweeps and the betweenness-centrality path counts multiply
// values, and triangle counting and k-truss support count triangles
// with plus-times over unit values, which is the plus-pair semiring
// (every product is 1).
//
// Semirings are zero-size structs implementing a tiny generic interface,
// so kernels take them as a type parameter and never box them in an
// interface value. That does not make Add/Mul free: Go compiles generic
// code once per GC shape, and every zero-size semiring shares one shape,
// so inside a generic kernel Add and Mul are indirect calls through the
// instantiation's dictionary and are not inlined. The accumulators pay
// them only on products the mask admits. PlusTimes[float64], the one
// semiring run outside tests (by the facade, the server and every graph
// application), is the exception in the kernels that bind most served
// rows: MSA, MaskedBit and MaskedBitC bind float64 Scatter loops for it
// at bind time, which multiply and add inline (internal/accum,
// plustimes.go).
package semiring

import "math"

// Semiring is the algebra a masked product is computed over. Zero is the
// additive identity; implementations must satisfy Add(x, Zero()) == x.
// Masked SpGEMM never relies on a multiplicative identity.
type Semiring[T any] interface {
	// Add combines two partial products destined for the same output
	// coordinate.
	Add(x, y T) T
	// Mul forms the partial product of a left entry A(i,k) and a right
	// entry B(k,j).
	Mul(x, y T) T
	// Zero returns the additive identity.
	Zero() T
}

// Commutative marks a semiring whose Mul commutes: Mul(x, y) and
// Mul(y, x) are the same value, bit for bit. A masked product over such
// a semiring may form a product with its operands swapped, which is
// what lets a symmetric self-product C = A ⊙ (A·A) compute one triangle
// of C and mirror it (DESIGN.md §5, "Symmetric self-products"). The
// marker is a method set, not an option: the plan checks the
// semiring's type. (Under IEEE 754 the one exception is a product of
// two NaNs with different payloads, whose result may carry either
// payload.)
type Commutative interface {
	// CommutativeMul is the marker; it is never called.
	CommutativeMul()
}

// Integer constrains to the built-in integer types.
type Integer interface {
	~int | ~int8 | ~int16 | ~int32 | ~int64 |
		~uint | ~uint8 | ~uint16 | ~uint32 | ~uint64 | ~uintptr
}

// Float constrains to the built-in floating-point types.
type Float interface {
	~float32 | ~float64
}

// Number constrains to the numeric types the arithmetic semirings accept.
type Number interface {
	Integer | Float
}

// PlusTimes is the familiar arithmetic semiring (+, ×, 0).
type PlusTimes[T Number] struct{}

// Add returns x + y.
func (PlusTimes[T]) Add(x, y T) T { return x + y }

// Mul returns x × y.
func (PlusTimes[T]) Mul(x, y T) T { return x * y }

// CommutativeMul marks PlusTimes as Commutative: x × y = y × x.
func (PlusTimes[T]) CommutativeMul() {}

// Zero returns 0.
func (PlusTimes[T]) Zero() T { var z T; return z }

// PlusFirst is (+, first, 0): Mul returns its left operand. Useful when
// B is a pattern holding no meaningful values.
type PlusFirst[T Number] struct{}

// Add returns x + y.
func (PlusFirst[T]) Add(x, y T) T { return x + y }

// Mul returns x.
func (PlusFirst[T]) Mul(x, _ T) T { return x }

// Zero returns 0.
func (PlusFirst[T]) Zero() T { var z T; return z }

// PlusSecond is (+, second, 0): Mul returns its right operand.
type PlusSecond[T Number] struct{}

// Add returns x + y.
func (PlusSecond[T]) Add(x, y T) T { return x + y }

// Mul returns y.
func (PlusSecond[T]) Mul(_, y T) T { return y }

// Zero returns 0.
func (PlusSecond[T]) Zero() T { var z T; return z }

// MinPlusF64 is the float64 tropical semiring (min, +, +inf); masked
// products over it compute constrained one-hop shortest-path
// relaxations.
type MinPlusF64 struct{}

// Add returns min(x, y).
func (MinPlusF64) Add(x, y float64) float64 {
	if x < y {
		return x
	}
	return y
}

// Mul returns x + y.
func (MinPlusF64) Mul(x, y float64) float64 { return x + y }

// Zero returns +inf.
func (MinPlusF64) Zero() float64 { return math.Inf(1) }

// MaxPlusF64 is the (max, +, -inf) semiring.
type MaxPlusF64 struct{}

// Add returns max(x, y).
func (MaxPlusF64) Add(x, y float64) float64 {
	if x > y {
		return x
	}
	return y
}

// Mul returns x + y.
func (MaxPlusF64) Mul(x, y float64) float64 { return x + y }

// Zero returns -inf.
func (MaxPlusF64) Zero() float64 { return math.Inf(-1) }

// MinMaxF64 is the (min, max, +inf) semiring, the bottleneck-path
// algebra.
type MinMaxF64 struct{}

// Add returns min(x, y).
func (MinMaxF64) Add(x, y float64) float64 {
	if x < y {
		return x
	}
	return y
}

// Mul returns max(x, y).
func (MinMaxF64) Mul(x, y float64) float64 {
	if x > y {
		return x
	}
	return y
}

// Zero returns +inf.
func (MinMaxF64) Zero() float64 { return math.Inf(1) }

// Boolean is the (∨, ∧, false) semiring over bool; masked products over
// it compute reachability one hop at a time.
type Boolean struct{}

// Add returns x ∨ y.
func (Boolean) Add(x, y bool) bool { return x || y }

// Mul returns x ∧ y.
func (Boolean) Mul(x, y bool) bool { return x && y }

// Zero returns false.
func (Boolean) Zero() bool { return false }
