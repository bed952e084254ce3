package stats

import (
	"bytes"
	"strings"
	"testing"

	"maskedspgemm/internal/gen"
	"maskedspgemm/internal/sparse"
)

func TestCollectKnownMatrix(t *testing.T) {
	// Tridiagonal 5x5: bandwidth 1, symmetric, degrees 2,3,3,3,2.
	m, _ := sparse.FromRows(5, 5, map[int]map[int]float64{
		0: {0: 1, 1: 1},
		1: {0: 1, 1: 1, 2: 1},
		2: {1: 1, 2: 1, 3: 1},
		3: {2: 1, 3: 1, 4: 1},
		4: {3: 1, 4: 1},
	})
	s := Collect(m)
	if s.Bandwidth != 1 {
		t.Errorf("bandwidth = %d, want 1", s.Bandwidth)
	}
	if !s.Symmetric {
		t.Error("tridiagonal pattern is symmetric")
	}
	if s.MinDegree != 2 || s.MaxDegree != 3 || s.MedianDegree != 3 {
		t.Errorf("degrees: %+v", s)
	}
	if s.EmptyRows != 0 {
		t.Errorf("empty rows = %d", s.EmptyRows)
	}
	if s.NNZ != 13 {
		t.Errorf("nnz = %d", s.NNZ)
	}
}

func TestCollectAsymmetricAndEmpty(t *testing.T) {
	m, _ := sparse.FromRows(4, 4, map[int]map[int]float64{0: {3: 1}})
	s := Collect(m)
	if s.Symmetric {
		t.Error("matrix is asymmetric")
	}
	if s.EmptyRows != 3 {
		t.Errorf("empty rows = %d", s.EmptyRows)
	}
	if s.Bandwidth != 3 {
		t.Errorf("bandwidth = %d, want 3", s.Bandwidth)
	}
	empty := sparse.NewCSR[float64](0, 0)
	se := Collect(empty)
	if se.NNZ != 0 || se.MinDegree != 0 {
		t.Errorf("empty stats: %+v", se)
	}
}

func TestWrite(t *testing.T) {
	m := gen.Grid2D(8, 8)
	var buf bytes.Buffer
	Collect(m).Write(&buf)
	out := buf.String()
	for _, want := range []string{"shape", "nnz", "degree", "bandwidth", "symmetric    true"} {
		if !strings.Contains(out, want) {
			t.Errorf("Write output missing %q:\n%s", want, out)
		}
	}
}
