package gen

import (
	"testing"

	"maskedspgemm/internal/sparse"
)

// maxRowNNZ returns the maximum number of stored entries in any row of
// p.
func maxRowNNZ(p *sparse.CSR[float64]) int {
	maxN := 0
	for i := range p.Rows {
		maxN = max(maxN, p.RowNNZ(i))
	}
	return maxN
}

func TestRNGDeterminism(t *testing.T) {
	a, b := NewRNG(42), NewRNG(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed diverged")
		}
	}
	c := NewRNG(43)
	same := true
	a = NewRNG(42)
	for i := 0; i < 10; i++ {
		if a.Uint64() != c.Uint64() {
			same = false
		}
	}
	if same {
		t.Fatal("different seeds produced identical streams")
	}
}

func TestRNGUniformity(t *testing.T) {
	r := NewRNG(7)
	const n, buckets = 100000, 16
	counts := make([]int, buckets)
	for i := 0; i < n; i++ {
		counts[r.Intn(buckets)]++
	}
	want := n / buckets
	for b, c := range counts {
		if c < want*8/10 || c > want*12/10 {
			t.Errorf("bucket %d: %d (expected ≈%d)", b, c, want)
		}
	}
	r2 := NewRNG(8)
	var sum float64
	for i := 0; i < n; i++ {
		f := r2.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of range: %v", f)
		}
		sum += f
	}
	if mean := sum / n; mean < 0.48 || mean > 0.52 {
		t.Errorf("Float64 mean = %v", mean)
	}
}

func TestRNGPerm(t *testing.T) {
	p := NewRNG(3).Perm(100)
	seen := make([]bool, 100)
	for _, v := range p {
		if seen[v] {
			t.Fatal("Perm repeated a value")
		}
		seen[v] = true
	}
}

func TestErdosRenyiShape(t *testing.T) {
	for _, deg := range []int{1, 4, 16, 64} {
		m := ErdosRenyi(256, deg, 5)
		if err := m.Validate(); err != nil {
			t.Fatalf("deg=%d: %v", deg, err)
		}
		avg := float64(m.NNZ()) / 256
		if avg < float64(deg)*0.7 || avg > float64(deg)*1.3 {
			t.Errorf("deg=%d: average row nnz = %v", deg, avg)
		}
	}
	// Degree clamped to n.
	m := ErdosRenyi(8, 100, 1)
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	// Deterministic per seed.
	if !sparse.Equal(ErdosRenyi(64, 8, 9), ErdosRenyi(64, 8, 9)) {
		t.Error("same seed produced different ER matrices")
	}
}

func TestRMATProperties(t *testing.T) {
	cfg := RMATConfig{Scale: 9, EdgeFactor: 8, Seed: 11}
	m := RMAT(cfg)
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	n := 1 << 9
	if m.Rows != n || m.Cols != n {
		t.Fatalf("shape %dx%d", m.Rows, m.Cols)
	}
	// Self-loops removed.
	for i := 0; i < n; i++ {
		for _, j := range m.Row(i) {
			if int(j) == i {
				t.Fatal("self loop survived")
			}
		}
	}
	// Skewed: max degree should far exceed the mean.
	maxDeg := maxRowNNZ(m)
	mean := float64(m.NNZ()) / float64(n)
	if float64(maxDeg) < 3*mean {
		t.Errorf("R-MAT not skewed: max=%d mean=%v", maxDeg, mean)
	}
	if !sparse.Equal(RMAT(cfg), RMAT(cfg)) {
		t.Error("same config produced different R-MAT graphs")
	}
}

func TestRMATNoise(t *testing.T) {
	cfg := RMATConfig{Scale: 8, EdgeFactor: 8, Seed: 19, Noise: 0.1}
	m := RMAT(cfg)
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	if !sparse.Equal(m, RMAT(cfg)) {
		t.Error("noisy R-MAT not deterministic per seed")
	}
	// Noise must not destroy the skew.
	mean := float64(m.NNZ()) / float64(m.Rows)
	if float64(maxRowNNZ(m)) < 2*mean {
		t.Errorf("noisy R-MAT lost skew: max=%d mean=%v", maxRowNNZ(m), mean)
	}
	// Custom quadrant probabilities flow through.
	uniform := RMAT(RMATConfig{Scale: 8, EdgeFactor: 8, Seed: 19, A: 0.25, B: 0.25, C: 0.25})
	if err := uniform.Validate(); err != nil {
		t.Fatal(err)
	}
	// Near-uniform quadrants produce ER-like (low-skew) graphs.
	umean := float64(uniform.NNZ()) / float64(uniform.Rows)
	if float64(maxRowNNZ(uniform)) > 8*umean {
		t.Errorf("uniform quadrants still skewed: max=%d mean=%v", maxRowNNZ(uniform), umean)
	}
}

func TestSymmetrize(t *testing.T) {
	m := RMAT(RMATConfig{Scale: 7, EdgeFactor: 4, Seed: 13})
	s := Symmetrize(m)
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	st := sparse.Transpose(s)
	if !sparse.Equal(s, st) {
		t.Fatal("Symmetrize result is not symmetric")
	}
	for i := 0; i < s.Rows; i++ {
		if s.Has(i, int32(i)) {
			t.Fatal("diagonal entry present")
		}
	}
}

func TestGrid2D(t *testing.T) {
	g := Grid2D(4, 5)
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	// Handshake: grid edges = rows*(cols-1) + (rows-1)*cols, doubled.
	wantNNZ := int64(2 * (4*4 + 3*5))
	if g.NNZ() != wantNNZ {
		t.Errorf("grid nnz = %d, want %d", g.NNZ(), wantNNZ)
	}
	if !sparse.Equal(g, sparse.Transpose(g)) {
		t.Error("grid not symmetric")
	}
	// Corner has degree 2, interior 4.
	if g.RowNNZ(0) != 2 {
		t.Errorf("corner degree = %d", g.RowNNZ(0))
	}
	if g.RowNNZ(1*5+1) != 4 {
		t.Errorf("interior degree = %d", g.RowNNZ(6))
	}
}

func TestBarabasiAlbert(t *testing.T) {
	g := BarabasiAlbert(500, 5, 17)
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if !sparse.Equal(g, sparse.Transpose(g)) {
		t.Error("BA graph not symmetric")
	}
	// Every non-seed vertex has degree ≥ m.
	for v := 6; v < 500; v++ {
		if g.RowNNZ(v) < 5 {
			t.Fatalf("vertex %d degree %d < m", v, g.RowNNZ(v))
		}
	}
	// Heavy tail: someone should have much more than m.
	if maxRowNNZ(g) < 20 {
		t.Errorf("BA max degree = %d, expected heavy tail", maxRowNNZ(g))
	}
}

func TestCompleteAndRing(t *testing.T) {
	k := Complete(6)
	if k.NNZ() != 30 {
		t.Errorf("K6 nnz = %d, want 30", k.NNZ())
	}
	r := Ring(6)
	if r.NNZ() != 12 {
		t.Errorf("C6 nnz = %d, want 12", r.NNZ())
	}
	for _, g := range []*sparse.CSR[float64]{k, r} {
		if err := g.Validate(); err != nil {
			t.Fatal(err)
		}
	}
}

func TestSuiteBuilds(t *testing.T) {
	for _, inst := range SmallSuite() {
		g := inst.Build()
		if err := g.Validate(); err != nil {
			t.Fatalf("%s: %v", inst.Name, err)
		}
		if g.NNZ() == 0 {
			t.Fatalf("%s: empty graph", inst.Name)
		}
		if !sparse.Equal(g, sparse.Transpose(g)) {
			t.Fatalf("%s: not symmetric", inst.Name)
		}
	}
	if len(Suite(0)) < 12 {
		t.Error("full suite unexpectedly small")
	}
	// scaleCap actually caps.
	capped := Suite(8)
	g := capped[0].Build()
	if g.Rows > 1<<8 {
		t.Errorf("scaleCap ignored: %d rows", g.Rows)
	}
}
