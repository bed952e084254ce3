package mtx

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"math"
	"math/rand"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"maskedspgemm/internal/core"
	"maskedspgemm/internal/gen"
	"maskedspgemm/internal/semiring"
	"maskedspgemm/internal/sparse"
)

// referenceWrite is the fmt encoder Write replaced: one Fprintf per
// entry. Write must produce exactly its bytes.
func referenceWrite(w io.Writer, m *sparse.CSR[float64]) error {
	bw := bufio.NewWriterSize(w, 1<<20)
	if _, err := fmt.Fprintf(bw, "%%%%MatrixMarket matrix coordinate real general\n"); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(bw, "%d %d %d\n", m.Rows, m.Cols, m.NNZ()); err != nil {
		return err
	}
	for i := 0; i < m.Rows; i++ {
		vals := m.RowVals(i)
		for k, j := range m.Row(i) {
			if _, err := fmt.Fprintf(bw, "%d %d %.17g\n", i+1, j+1, vals[k]); err != nil {
				return err
			}
		}
	}
	return bw.Flush()
}

// referenceWritePattern is the fmt encoder WritePattern replaced.
func referenceWritePattern(w io.Writer, p *sparse.Pattern) error {
	bw := bufio.NewWriterSize(w, 1<<20)
	if _, err := fmt.Fprintf(bw, "%%%%MatrixMarket matrix coordinate pattern general\n"); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(bw, "%d %d %d\n", p.Rows, p.Cols, p.NNZ()); err != nil {
		return err
	}
	for i := 0; i < p.Rows; i++ {
		for _, j := range p.Row(i) {
			if _, err := fmt.Fprintf(bw, "%d %d\n", i+1, j+1); err != nil {
				return err
			}
		}
	}
	return bw.Flush()
}

// specialValues are the values where %.17g and strconv's 'g' format
// could plausibly disagree: infinities, NaN, negative zero, the
// smallest subnormal, huge and negative magnitudes, and exact integers.
var specialValues = []float64{
	math.Inf(1), math.Inf(-1), math.NaN(), math.Copysign(0, -1), 0,
	5e-324, 1e308, math.MaxFloat64, -math.SmallestNonzeroFloat64,
	1, -1, 0.1, 1.0 / 3, 123456789012345678, 1e21, 1e-7, 2.5e-5,
}

func TestWriteMatchesFmt(t *testing.T) {
	specials := sparse.NewCSR[float64](1, len(specialValues))
	for j, v := range specialValues {
		specials.ColIdx = append(specials.ColIdx, int32(j))
		specials.Val = append(specials.Val, v)
	}
	specials.RowPtr[1] = int64(len(specialValues))
	cases := map[string]*sparse.CSR[float64]{
		"0x0":            sparse.NewCSR[float64](0, 0),
		"all rows empty": sparse.NewCSR[float64](5, 7),
		"special values": specials,
		"random":         randomCSR(5, 40, 30, 200),
		"multi-chunk":    randomCSR(7, 2000, 2000, 20000), // ~0.7 MB of lines
	}
	for name, m := range cases {
		var want, got bytes.Buffer
		if err := referenceWrite(&want, m); err != nil {
			t.Fatal(err)
		}
		if err := Write(&got, m); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Errorf("%s: Write differs from the fmt reference (%d vs %d bytes)", name, got.Len(), want.Len())
		}
		want.Reset()
		got.Reset()
		if err := referenceWritePattern(&want, m.PatternView()); err != nil {
			t.Fatal(err)
		}
		if err := WritePattern(&got, m.PatternView()); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Errorf("%s: WritePattern differs from the fmt reference (%d vs %d bytes)", name, got.Len(), want.Len())
		}
	}
}

// allocBytesPerCall reports the heap bytes one call of f allocates,
// averaged over several calls after a warm-up call.
func allocBytesPerCall(f func()) uint64 {
	const runs = 10
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return (after.TotalAlloc - before.TotalAlloc) / runs
}

func TestWriteAllocatesOneChunk(t *testing.T) {
	m := randomCSR(6, 2000, 2000, 20000)
	for name, write := range map[string]func() error{
		"Write":        func() error { return Write(io.Discard, m) },
		"WritePattern": func() error { return WritePattern(io.Discard, m.PatternView()) },
	} {
		got := allocBytesPerCall(func() {
			if err := write(); err != nil {
				t.Fatal(err)
			}
		})
		if limit := uint64(chunkBytes + 1024); got > limit {
			t.Errorf("%s allocates %d bytes per call, want ≤ %d", name, got, limit)
		}
	}
}

// complProduct is the product one delta-compl-ref response carries:
// C = ¬A ⊙ (A·A) on a symmetrized Erdős–Rényi graph with 2^11 vertices
// and degree 8 (about 476k entries).
func complProduct(tb testing.TB) *sparse.CSR[float64] {
	a := gen.Symmetrize(gen.ErdosRenyi(1<<11, 8, 1))
	c, err := core.MaskedSpGEMM(semiring.PlusTimes[float64]{}, a.PatternView(), a, a, core.Options{Complement: true})
	if err != nil {
		tb.Fatal(err)
	}
	return c
}

func BenchmarkWrite(b *testing.B) {
	c := complProduct(b)
	var enc bytes.Buffer
	if err := Write(&enc, c); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(enc.Len()))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := Write(io.Discard, c); err != nil {
			b.Fatal(err)
		}
	}
}

func randomCSR(seed int64, rows, cols, nnz int) *sparse.CSR[float64] {
	r := rand.New(rand.NewSource(seed))
	coo := sparse.NewCOO[float64](rows, cols, nnz)
	for k := 0; k < nnz; k++ {
		coo.Append(int32(r.Intn(rows)), int32(r.Intn(cols)), r.NormFloat64())
	}
	m, err := coo.ToCSR(func(a, b float64) float64 { return a + b })
	if err != nil {
		panic(err)
	}
	return m
}

func TestRoundTrip(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		m := randomCSR(seed, 17, 23, 60)
		var buf bytes.Buffer
		if err := Write(&buf, m); err != nil {
			t.Fatal(err)
		}
		back, h, err := Read(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if h.Field != "real" || h.Symmetry != "general" {
			t.Errorf("header = %+v", h)
		}
		if !sparse.EqualFunc(m, back, sparse.FloatEq(1e-15)) {
			t.Fatalf("round trip mismatch: %s", sparse.Diff(m, back, sparse.FloatEq(1e-15)))
		}
	}
}

func TestReadPattern(t *testing.T) {
	in := `%%MatrixMarket matrix coordinate pattern general
% a comment
3 4 3
1 1
2 3
3 4
`
	m, h, err := Read(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if h.Field != "pattern" {
		t.Errorf("field = %q", h.Field)
	}
	if m.NNZ() != 3 {
		t.Fatalf("nnz = %d", m.NNZ())
	}
	if v, ok := m.At(1, 2); !ok || v != 1 {
		t.Errorf("pattern value = %v, %v", v, ok)
	}
}

func TestReadSymmetric(t *testing.T) {
	in := `%%MatrixMarket matrix coordinate real symmetric
3 3 3
1 1 5.0
2 1 2.0
3 2 -1.5
`
	m, _, err := Read(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	// Off-diagonal entries expand to both triangles; diagonal stays
	// single.
	if m.NNZ() != 5 {
		t.Fatalf("nnz = %d, want 5", m.NNZ())
	}
	if v, _ := m.At(0, 1); v != 2.0 {
		t.Errorf("mirrored (0,1) = %v", v)
	}
	if v, _ := m.At(1, 2); v != -1.5 {
		t.Errorf("mirrored (1,2) = %v", v)
	}
}

func TestReadSkewSymmetric(t *testing.T) {
	in := `%%MatrixMarket matrix coordinate real skew-symmetric
2 2 1
2 1 3.0
`
	m, _, err := Read(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := m.At(0, 1); v != -3.0 {
		t.Errorf("skew mirror = %v, want -3", v)
	}
}

func TestReadErrors(t *testing.T) {
	cases := map[string]string{
		"no banner":     "1 1 0\n",
		"bad object":    "%%MatrixMarket vector coordinate real general\n1 1 0\n",
		"dense":         "%%MatrixMarket matrix array real general\n2 2\n1\n2\n3\n4\n",
		"complex":       "%%MatrixMarket matrix coordinate complex general\n1 1 1\n1 1 1 0\n",
		"bad symmetry":  "%%MatrixMarket matrix coordinate real hermitian\n1 1 0\n",
		"short banner":  "%%MatrixMarket matrix\n",
		"missing size":  "%%MatrixMarket matrix coordinate real general\n",
		"bad entry":     "%%MatrixMarket matrix coordinate real general\n2 2 1\nx y z\n",
		"out of range":  "%%MatrixMarket matrix coordinate real general\n2 2 1\n3 1 1.0\n",
		"missing entry": "%%MatrixMarket matrix coordinate real general\n2 2 2\n1 1 1.0\n",
		"pattern short": "%%MatrixMarket matrix coordinate pattern general\n2 2 1\n1\n",
		"bad value":     "%%MatrixMarket matrix coordinate real general\n2 2 1\n1 1 zzz\n",
	}
	for name, in := range cases {
		if _, _, err := Read(strings.NewReader(in)); err == nil {
			t.Errorf("%s: want error", name)
		}
	}
}

func TestFileRoundTrip(t *testing.T) {
	m := randomCSR(9, 10, 10, 30)
	path := filepath.Join(t.TempDir(), "m.mtx")
	if err := WriteFile(path, m); err != nil {
		t.Fatal(err)
	}
	back, _, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !sparse.EqualFunc(m, back, sparse.FloatEq(1e-15)) {
		t.Fatal("file round trip mismatch")
	}
	if _, _, err := ReadFile(filepath.Join(t.TempDir(), "absent.mtx")); err == nil {
		t.Error("want error for missing file")
	}
}

func TestWritePattern(t *testing.T) {
	m := randomCSR(4, 6, 6, 12)
	var buf bytes.Buffer
	if err := WritePattern(&buf, m.PatternView()); err != nil {
		t.Fatal(err)
	}
	back, h, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if h.Field != "pattern" {
		t.Errorf("field = %q", h.Field)
	}
	if !sparse.PatternEqual(m.PatternView(), back.PatternView()) {
		t.Error("pattern round trip mismatch")
	}
}

func TestReadIntegerField(t *testing.T) {
	in := `%%MatrixMarket matrix coordinate integer general
2 2 2
1 1 4
2 2 -7
`
	m, _, err := Read(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := m.At(1, 1); v != -7 {
		t.Errorf("integer value = %v", v)
	}
}

func TestDuplicatesSummed(t *testing.T) {
	in := `%%MatrixMarket matrix coordinate real general
2 2 2
1 1 1.5
1 1 2.5
`
	m, _, err := Read(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := m.At(0, 0); v != 4.0 {
		t.Errorf("duplicate sum = %v, want 4", v)
	}
}
