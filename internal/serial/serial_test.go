package serial

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math"
	"path/filepath"
	"runtime"
	"testing"

	"maskedspgemm/internal/core"
	"maskedspgemm/internal/gen"
	"maskedspgemm/internal/semiring"
	"maskedspgemm/internal/sparse"
)

// referenceWrite is the word-at-a-time encoder Write replaced: one
// bufio call per element. Write must produce exactly its bytes.
func referenceWrite(w io.Writer, m *sparse.CSR[float64]) error {
	bw := bufio.NewWriterSize(w, 1<<20)
	if _, err := bw.WriteString(magic); err != nil {
		return err
	}
	hdr := make([]byte, 4+8+8+8)
	binary.LittleEndian.PutUint32(hdr[0:], version)
	binary.LittleEndian.PutUint64(hdr[4:], uint64(m.Rows))
	binary.LittleEndian.PutUint64(hdr[12:], uint64(m.Cols))
	binary.LittleEndian.PutUint64(hdr[20:], uint64(m.NNZ()))
	if _, err := bw.Write(hdr); err != nil {
		return err
	}
	var buf [8]byte
	for _, p := range m.RowPtr {
		binary.LittleEndian.PutUint64(buf[:], uint64(p))
		if _, err := bw.Write(buf[:8]); err != nil {
			return err
		}
	}
	for _, j := range m.ColIdx {
		binary.LittleEndian.PutUint32(buf[:4], uint32(j))
		if _, err := bw.Write(buf[:4]); err != nil {
			return err
		}
	}
	for _, v := range m.Val {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
		if _, err := bw.Write(buf[:8]); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// chunkRecorder keeps every byte written and the size of each write.
type chunkRecorder struct {
	bytes.Buffer
	sizes []int
}

func (c *chunkRecorder) Write(p []byte) (int, error) {
	c.sizes = append(c.sizes, len(p))
	return c.Buffer.Write(p)
}

// multiChunk returns a matrix whose ColIdx and Val sections each span
// several chunks. Its nnz is odd, so Val starts 4 bytes into a word
// and a chunk boundary falls where no whole value fits.
func multiChunk() *sparse.CSR[float64] {
	m := gen.ErdosRenyi(1<<13, 8, 3)
	if m.NNZ()%2 == 0 {
		m.RowPtr[m.Rows]--
		m.ColIdx = m.ColIdx[:len(m.ColIdx)-1]
		m.Val = m.Val[:len(m.Val)-1]
	}
	return m
}

func TestWriteMatchesReference(t *testing.T) {
	emptyRows := gen.ErdosRenyi(40, 3, 7)
	for _, i := range []int{0, 17, 39} { // first, middle and last row emptied
		lo, hi := emptyRows.RowPtr[i], emptyRows.RowPtr[i+1]
		n := hi - lo
		emptyRows.ColIdx = append(emptyRows.ColIdx[:lo], emptyRows.ColIdx[hi:]...)
		emptyRows.Val = append(emptyRows.Val[:lo], emptyRows.Val[hi:]...)
		for r := i + 1; r <= emptyRows.Rows; r++ {
			emptyRows.RowPtr[r] -= n
		}
	}
	specials := gen.Random(3, 4, 2, 5)
	copy(specials.Val, []float64{math.Inf(1), math.Inf(-1), math.NaN(), math.Copysign(0, -1), 5e-324, 1e308})
	big := multiChunk()
	if cb, vb := 4*len(big.ColIdx), 8*len(big.Val); cb < 3*chunkBytes || vb < 3*chunkBytes {
		t.Fatalf("multi-chunk fixture too small: colidx %d B, val %d B", cb, vb)
	}
	cases := map[string]*sparse.CSR[float64]{
		"0x0":            sparse.NewCSR[float64](0, 0),
		"all rows empty": sparse.NewCSR[float64](5, 7),
		"some rows nnz0": emptyRows,
		"special values": specials,
		"multi-chunk":    big,
		"1x1":            gen.Random(1, 1, 1, 3),
	}
	for name, m := range cases {
		if err := m.Validate(); err != nil {
			t.Fatalf("%s: fixture invalid: %v", name, err)
		}
		var want bytes.Buffer
		if err := referenceWrite(&want, m); err != nil {
			t.Fatal(err)
		}
		var got chunkRecorder
		if err := Write(&got, m); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Errorf("%s: encoding differs from the word-at-a-time reference (%d vs %d bytes)", name, got.Len(), want.Len())
		}
		for k, n := range got.sizes {
			if n == 0 || n > chunkBytes {
				t.Errorf("%s: write %d has %d bytes, want 1..%d", name, k, n, chunkBytes)
			}
		}
		if wantWrites := (want.Len() + chunkBytes - 1) / chunkBytes; len(got.sizes) < wantWrites || len(got.sizes) > wantWrites+1 {
			t.Errorf("%s: %d writes for %d bytes, want %d or %d", name, len(got.sizes), want.Len(), wantWrites, wantWrites+1)
		}
	}
}

func TestWriteSizesBuffer(t *testing.T) {
	var buf bytes.Buffer
	if err := Write(&buf, multiChunk()); err != nil {
		t.Fatal(err)
	}
	// An 8 KiB page of rounding is fine; a doubling per chunk is not.
	if slack := cap(buf.Bytes()) - buf.Len(); slack > 8<<10 {
		t.Errorf("bytes.Buffer holds %d bytes in %d capacity, want at most 8 KiB slack", buf.Len(), cap(buf.Bytes()))
	}
}

func TestWriteRejectsHeaderMismatch(t *testing.T) {
	extra := gen.ErdosRenyi(20, 4, 1)
	extra.ColIdx = append(extra.ColIdx, 0) // past RowPtr[Rows]
	extra.Val = append(extra.Val, 1)
	extraVal := gen.ErdosRenyi(20, 4, 1)
	extraVal.Val = append(extraVal.Val, 1)
	shortCol := gen.ErdosRenyi(20, 4, 1)
	shortCol.ColIdx = shortCol.ColIdx[:len(shortCol.ColIdx)-1]
	shortRowPtr := gen.ErdosRenyi(20, 4, 1)
	shortRowPtr.RowPtr = shortRowPtr.RowPtr[:shortRowPtr.Rows]
	for name, m := range map[string]*sparse.CSR[float64]{
		"entries past nnz": extra,
		"values past nnz":  extraVal,
		"colidx short":     shortCol,
		"rowptr short":     shortRowPtr,
	} {
		var buf bytes.Buffer
		if err := Write(&buf, m); err == nil {
			t.Errorf("%s: want error", name)
		}
		if buf.Len() != 0 {
			t.Errorf("%s: %d bytes written before the error, want 0", name, buf.Len())
		}
	}
}

var errSink = errors.New("sink full")

// failAfter accepts limit bytes, then fails every write.
type failAfter struct {
	limit, written int
	calls          int // Write calls after the first failure
	failed         bool
}

func (f *failAfter) Write(p []byte) (int, error) {
	if f.failed {
		f.calls++
		return 0, errSink
	}
	if f.written+len(p) > f.limit {
		n := f.limit - f.written
		f.written, f.failed = f.limit, true
		return n, errSink
	}
	f.written += len(p)
	return len(p), nil
}

func TestWriteStopsAtFirstError(t *testing.T) {
	m := multiChunk()
	for _, k := range []int{0, 10, chunkBytes - 1, chunkBytes, 3*chunkBytes + 5} {
		f := &failAfter{limit: k}
		if err := Write(f, m); !errors.Is(err, errSink) {
			t.Errorf("fail after %d bytes: err = %v, want %v", k, err, errSink)
		}
		if !f.failed || f.calls != 0 {
			t.Errorf("fail after %d bytes: failed=%v, %d writes after the failure, want true and 0", k, f.failed, f.calls)
		}
	}
}

// allocBytesPerCall reports the heap bytes one call of f allocates,
// averaged over several calls after a warm-up call.
func allocBytesPerCall(f func()) uint64 {
	const runs = 20
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
	m := multiChunk()
	got := allocBytesPerCall(func() {
		if err := Write(io.Discard, m); err != nil {
			t.Fatal(err)
		}
	})
	if limit := uint64(chunkBytes + 1024); got > limit {
		t.Errorf("Write allocates %d bytes per call, want ≤ %d", got, limit)
	}
}

// complProduct is the product one delta-compl-ref response carries:
// C = ¬A ⊙ (A·A) on a symmetrized Erdős–Rényi graph with 2^11 vertices
// and degree 8 (about 476k entries, 5.7 MB encoded).
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

func TestRoundTrip(t *testing.T) {
	matrices := []*sparse.CSR[float64]{
		gen.ErdosRenyi(100, 8, 1),
		gen.RMATSymmetric(gen.RMATConfig{Scale: 8, EdgeFactor: 8, Seed: 2}),
		sparse.NewCSR[float64](5, 7), // empty
		gen.Random(1, 1, 1, 3),       // 1x1
	}
	for i, m := range matrices {
		var buf bytes.Buffer
		if err := Write(&buf, m); err != nil {
			t.Fatalf("matrix %d: %v", i, err)
		}
		back, err := Read(&buf)
		if err != nil {
			t.Fatalf("matrix %d: %v", i, err)
		}
		if !sparse.EqualFunc(m, back, func(x, y float64) bool { return x == y }) {
			t.Fatalf("matrix %d: round trip mismatch", i)
		}
	}
}

func TestReadErrors(t *testing.T) {
	// Bad magic.
	if _, err := Read(bytes.NewReader([]byte("XXXX12345678901234567890123456789"))); err == nil {
		t.Error("want error for bad magic")
	}
	// Truncated header.
	if _, err := Read(bytes.NewReader([]byte("MS"))); err == nil {
		t.Error("want error for short header")
	}
	// Truncated body.
	var buf bytes.Buffer
	if err := Write(&buf, gen.ErdosRenyi(20, 4, 4)); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	if _, err := Read(bytes.NewReader(full[:len(full)/2])); err == nil {
		t.Error("want error for truncated body")
	}
	// Wrong version.
	bad := append([]byte(nil), full...)
	bad[4] = 99
	if _, err := Read(bytes.NewReader(bad)); err == nil {
		t.Error("want error for wrong version")
	}
	// Corrupt structure (unsorted column indices) must fail validation.
	corrupt := append([]byte(nil), full...)
	// ColIdx starts after magic+header+rowptr; swap the first two
	// column entries of a row with ≥ 2 entries by brute force: flip
	// bytes until Validate fails or we run out — simplest: corrupt one
	// colidx byte to a huge value.
	off := 4 + 4 + 24 + 8*21 // magic+ver+dims + rowptr(21 entries)
	corrupt[off+3] = 0x7f    // column index becomes enormous
	if _, err := Read(bytes.NewReader(corrupt)); err == nil {
		t.Error("want error for corrupt column index")
	}
}

func TestFileAndCached(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "m.bin")
	m := gen.ErdosRenyi(50, 6, 5)
	if err := WriteFile(path, m); err != nil {
		t.Fatal(err)
	}
	back, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !sparse.EqualFunc(m, back, func(x, y float64) bool { return x == y }) {
		t.Fatal("file round trip mismatch")
	}

	builds := 0
	cachePath := filepath.Join(dir, "cache.bin")
	build := func() *sparse.CSR[float64] {
		builds++
		return gen.ErdosRenyi(30, 4, 6)
	}
	c1, err := Cached(cachePath, build)
	if err != nil {
		t.Fatal(err)
	}
	c2, err := Cached(cachePath, build)
	if err != nil {
		t.Fatal(err)
	}
	if builds != 1 {
		t.Errorf("build called %d times, want 1", builds)
	}
	if !sparse.EqualFunc(c1, c2, func(x, y float64) bool { return x == y }) {
		t.Error("cached copies differ")
	}
	if _, err := ReadFile(filepath.Join(dir, "absent.bin")); err == nil {
		t.Error("want error for missing file")
	}
}
