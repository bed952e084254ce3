package sparse

import (
	"testing"
)

func TestVectorBasics(t *testing.T) {
	v := NewVector[float64](10)
	if v.NNZ() != 0 || v.Validate() != nil {
		t.Fatal("empty vector invalid")
	}
	v.Idx = []int32{1, 4, 7}
	v.Val = []float64{1.5, -2, 3}
	if err := v.Validate(); err != nil {
		t.Fatal(err)
	}
	if x, ok := v.At(4); !ok || x != -2 {
		t.Errorf("At(4) = %v, %v", x, ok)
	}
	if _, ok := v.At(5); ok {
		t.Error("At(5) should be absent")
	}
	c := v.Clone()
	c.Val[0] = 99
	if v.Val[0] == 99 {
		t.Error("Clone aliases storage")
	}
}

func TestVectorValidateErrors(t *testing.T) {
	bad := &Vector[int]{N: 3, Idx: []int32{2, 1}, Val: []int{1, 2}}
	if bad.Validate() == nil {
		t.Error("want error for unsorted indices")
	}
	bad2 := &Vector[int]{N: 3, Idx: []int32{1, 1}, Val: []int{1, 2}}
	if bad2.Validate() == nil {
		t.Error("want error for duplicate indices")
	}
	bad3 := &Vector[int]{N: 3, Idx: []int32{5}, Val: []int{1}}
	if bad3.Validate() == nil {
		t.Error("want error for out-of-range index")
	}
	bad4 := &Vector[int]{N: 3, Idx: []int32{1}, Val: []int{}}
	if bad4.Validate() == nil {
		t.Error("want error for length mismatch")
	}
}
