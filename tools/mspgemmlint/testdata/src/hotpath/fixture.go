// Package hotpath is a deliberately-broken fixture for the flat-loop
// analyzer: bad contains one of every banned construct, flat shows the
// compliant shape, and cold shows that unannotated functions may use
// anything. pushPerProduct and pushPerRow are the per-product and
// per-row shapes of a generic push driver.
package hotpath

// logger is a real interface, unlike the type parameters the live
// kernels dispatch through.
type logger interface {
	Log(string)
}

// sink accepts an interface parameter.
func sink(v any) {}

// global is an interface-typed assignment target.
var global any

// flat is a compliant hot loop: slices, arithmetic, concrete calls.
//
//mspgemm:hotpath
func flat(xs []int) int {
	s := 0
	for _, x := range xs {
		s += x
	}
	return s
}

// bad commits every banned construct once.
//
//mspgemm:hotpath
func bad(xs []int, m map[int]int, l logger, v any) {
	defer flat(xs)               // want `defer in //mspgemm:hotpath function bad`
	go flat(xs)                  // want `go statement in //mspgemm:hotpath function bad`
	f := func() int { return 1 } // want `closure in //mspgemm:hotpath function bad`
	_ = f
	for k := range m { // want `map iteration in //mspgemm:hotpath function bad`
		_ = k
	}
	_ = v.(int)    // want `type assertion in //mspgemm:hotpath function bad`
	l.Log("x")     // want `interface method call hotpath.logger.Log in //mspgemm:hotpath function bad`
	sink(xs[0])    // want `argument converts to interface type any in //mspgemm:hotpath function bad`
	global = xs[0] // want `assignment converts a concrete value to interface type any in //mspgemm:hotpath function bad`
	_ = any(xs)    // want `conversion to interface type any in //mspgemm:hotpath function bad`
}

// semiring and pushAcc mirror the live kernels' constraints: a semiring
// type parameter the accumulators call, and an accumulator type
// parameter the push drivers call.
type semiring[T any] interface {
	Mul(x, y T) T
}

type pushAcc[T any] interface {
	Insert(key int32, a, b T)
	Scatter(a T, bCols []int32, bVals []T)
}

// acc is a generic accumulator over a semiring type parameter.
type acc[T any, S semiring[T]] struct {
	sr     S
	values []T
}

// Scatter is the compliant accumulator shape: the semiring call sits one
// loop deep, once per product of the one B row it was handed.
//
//mspgemm:hotpath
func (m *acc[T, S]) Scatter(av T, bCols []int32, bVals []T) {
	for t, j := range bCols {
		m.values[j] = m.sr.Mul(av, bVals[t])
	}
}

// pushPerProduct is the per-flop shape: an accumulator call two loops
// deep is a dictionary call per product.
//
//mspgemm:hotpath
func pushPerProduct[T any, A pushAcc[T]](a A, aCols []int32, aVals []T, rows [][]int32, vals [][]T) {
	for k, col := range aCols {
		for t, j := range rows[col] {
			a.Insert(j, aVals[k], vals[col][t]) // want `method call a.Insert through type parameter A two loops deep in //mspgemm:hotpath function pushPerProduct`
		}
	}
}

// pushPerRow is the compliant driver shape: one accumulator call per A
// entry, the inner loop inside Scatter.
//
//mspgemm:hotpath
func pushPerRow[T any, A pushAcc[T]](a A, aCols []int32, aVals []T, rows [][]int32, vals [][]T) {
	for k, col := range aCols {
		a.Scatter(aVals[k], rows[col], vals[col])
	}
}

// perStep shows that a three-clause for loop counts as a loop level just
// as a range loop does.
//
//mspgemm:hotpath
func perStep[T any, S semiring[T]](sr S, xs [][]T) T {
	var z T
	for _, row := range xs {
		for i := 0; i < len(row); i++ {
			z = sr.Mul(z, row[i]) // want `method call sr.Mul through type parameter S two loops deep`
		}
	}
	return z
}

//mspgemm:hotpaht // want `unknown directive //mspgemm:hotpaht`

// cold is unannotated: the same constructs are legal here.
func cold(m map[int]int, v any) {
	defer func() {}()
	for k := range m {
		sink(k)
	}
	_ = v
}
