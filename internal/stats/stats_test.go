package stats

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"maskedspgemm/internal/gen"
	"maskedspgemm/internal/parallel"
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

func TestDegreeHistogram(t *testing.T) {
	m, _ := sparse.FromRows(4, 16, map[int]map[int]float64{
		0: {0: 1},                                           // degree 1 → bucket 0
		1: {0: 1, 1: 1, 2: 1},                               // degree 3 → bucket 1
		2: {0: 1, 1: 1, 2: 1, 3: 1, 4: 1, 5: 1, 6: 1, 7: 1}, // 8 → bucket 3
	})
	hist := DegreeHistogram(m)
	// Row 3 is empty (degree 0 → bucket 0). hist[0] = 2 (deg 0 and 1).
	if hist[0] != 2 || hist[1] != 1 || hist[3] != 1 {
		t.Errorf("hist = %v", hist)
	}
	// R-MAT should populate high buckets; ER should not.
	rmat := gen.RMATSymmetric(gen.RMATConfig{Scale: 9, EdgeFactor: 8, Seed: 1})
	er := gen.Symmetrize(gen.ErdosRenyi(512, 8, 2))
	if len(DegreeHistogram(rmat)) <= len(DegreeHistogram(er)) {
		t.Error("R-MAT histogram should have a longer tail than ER")
	}
}

func TestAnalyzeMaskedWork(t *testing.T) {
	a, _ := sparse.FromRows(2, 2, map[int]map[int]float64{0: {0: 1, 1: 1}, 1: {1: 1}})
	b, _ := sparse.FromRows(2, 2, map[int]map[int]float64{0: {0: 1}, 1: {0: 1, 1: 1}})
	mask, _ := sparse.FromRows(2, 2, map[int]map[int]float64{0: {0: 1}})
	w := AnalyzeMaskedWork(mask.PatternView(), a, b, 1)
	if w.Flops != 5 || w.OnMask != 2 {
		t.Fatalf("work = %+v", w)
	}
	if w.Wasted < 0.59 || w.Wasted > 0.61 {
		t.Errorf("wasted = %v, want 0.6", w.Wasted)
	}
	if w.MaskCoverage != 1 {
		t.Errorf("coverage = %v", w.MaskCoverage)
	}
}

func TestWriteSchedStats(t *testing.T) {
	st := parallel.SchedStats{Workers: []parallel.WorkerStats{
		{Busy: 3 * time.Millisecond, Claimed: 10, Stolen: 1},
		{Busy: time.Millisecond, Claimed: 4},
	}}
	var buf bytes.Buffer
	WriteSchedStats(&buf, st)
	out := buf.String()
	for _, want := range []string{"worker", "claimed", "14 blocks", "(1 stolen)", "imbalance 1.50"} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in:\n%s", want, out)
		}
	}
}

// TestWriteSchedStatsGolden pins the full rendering — the per-worker
// share column decomposing the imbalance factor, and the aggregate
// line whose "imbalance %.2f" tail external tooling greps for. The
// worker busy times are 3:1, so shares are 75%/25% and the imbalance
// (max busy / mean busy) is 1.50.
func TestWriteSchedStatsGolden(t *testing.T) {
	st := parallel.SchedStats{Workers: []parallel.WorkerStats{
		{Busy: 3 * time.Millisecond, Claimed: 10, Stolen: 1},
		{Busy: time.Millisecond, Claimed: 4},
	}}
	var buf bytes.Buffer
	WriteSchedStats(&buf, st)
	want := "" +
		"  worker           busy   share    claimed   stolen\n" +
		"  0                 3ms   75.0%         10        1\n" +
		"  1                 1ms   25.0%          4        0\n" +
		"  total busy 4ms over 14 blocks (1 stolen), imbalance 1.50\n"
	if got := buf.String(); got != want {
		t.Errorf("WriteSchedStats rendering drifted.\ngot:\n%swant:\n%s", got, want)
	}
}

// TestWriteSchedStatsGoldenIdle pins the degenerate cases the share
// division must survive: an idle worker set renders 0% shares and
// imbalance 0.
func TestWriteSchedStatsGoldenIdle(t *testing.T) {
	st := parallel.SchedStats{Workers: []parallel.WorkerStats{{}, {}}}
	var buf bytes.Buffer
	WriteSchedStats(&buf, st)
	want := "" +
		"  worker           busy   share    claimed   stolen\n" +
		"  0                  0s    0.0%          0        0\n" +
		"  1                  0s    0.0%          0        0\n" +
		"  total busy 0s over 0 blocks (0 stolen), imbalance 0.00\n"
	if got := buf.String(); got != want {
		t.Errorf("WriteSchedStats idle rendering drifted.\ngot:\n%swant:\n%s", got, want)
	}
}
