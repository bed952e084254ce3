package semiring

import (
	"math"
	"testing"
	"testing/quick"
)

// checkSemiringLaws verifies additive identity, commutativity of Add,
// and associativity of Add on float64 semirings.
func checkSemiringLaws(t *testing.T, name string, s Semiring[float64], eq func(a, b float64) bool) {
	t.Helper()
	f := func(x, y, z float64) bool {
		if !eq(s.Add(x, s.Zero()), x) {
			return false
		}
		if !eq(s.Add(x, y), s.Add(y, x)) {
			return false
		}
		return eq(s.Add(s.Add(x, y), z), s.Add(x, s.Add(y, z)))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Errorf("%s: %v", name, err)
	}
}

func approxEq(a, b float64) bool {
	if a == b || (math.IsInf(a, 1) && math.IsInf(b, 1)) || (math.IsInf(a, -1) && math.IsInf(b, -1)) {
		return true
	}
	d := math.Abs(a - b)
	return d <= 1e-9*math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
}

func TestSemiringLaws(t *testing.T) {
	checkSemiringLaws(t, "PlusTimes", PlusTimes[float64]{}, approxEq)
	checkSemiringLaws(t, "PlusFirst", PlusFirst[float64]{}, approxEq)
	checkSemiringLaws(t, "PlusSecond", PlusSecond[float64]{}, approxEq)
	checkSemiringLaws(t, "MinPlus", MinPlusF64{}, func(a, b float64) bool { return a == b || approxEq(a, b) })
	checkSemiringLaws(t, "MaxPlus", MaxPlusF64{}, func(a, b float64) bool { return a == b || approxEq(a, b) })
	checkSemiringLaws(t, "MinMax", MinMaxF64{}, func(a, b float64) bool { return a == b || approxEq(a, b) })
}

func TestPlusTimesInt(t *testing.T) {
	s := PlusTimes[int64]{}
	if s.Add(2, 3) != 5 || s.Mul(2, 3) != 6 || s.Zero() != 0 {
		t.Error("PlusTimes[int64] arithmetic wrong")
	}
}

func TestPlusFirstSecond(t *testing.T) {
	if (PlusFirst[float64]{}).Mul(3, 9) != 3 {
		t.Error("PlusFirst.Mul should return left operand")
	}
	if (PlusSecond[float64]{}).Mul(3, 9) != 9 {
		t.Error("PlusSecond.Mul should return right operand")
	}
}

func TestTropical(t *testing.T) {
	mp := MinPlusF64{}
	if mp.Add(3, 5) != 3 || mp.Mul(3, 5) != 8 || !math.IsInf(mp.Zero(), 1) {
		t.Error("MinPlus wrong")
	}
	if mp.Add(7, mp.Zero()) != 7 {
		t.Error("MinPlus identity wrong")
	}
	xp := MaxPlusF64{}
	if xp.Add(3, 5) != 5 || xp.Mul(3, 5) != 8 || !math.IsInf(xp.Zero(), -1) {
		t.Error("MaxPlus wrong")
	}
	mm := MinMaxF64{}
	if mm.Add(3, 5) != 3 || mm.Mul(3, 5) != 5 {
		t.Error("MinMax wrong")
	}
}

func TestBoolean(t *testing.T) {
	b := Boolean{}
	if !b.Add(true, false) || b.Add(false, false) || b.Zero() {
		t.Error("Boolean.Add/Zero wrong")
	}
	if b.Mul(true, false) || !b.Mul(true, true) {
		t.Error("Boolean.Mul wrong")
	}
}
