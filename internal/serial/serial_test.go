package serial

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"maps"
	"math"
	"runtime"
	"slices"
	"strings"
	"testing"
	"testing/iotest"

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

// codecPaths are the codec's two paths by name: the word loops, which
// every host runs and big-endian hosts run alone, and, on a
// little-endian host, the bulk path that moves each section as its
// array's bytes. Every check of Write, Read and ReadValues runs on
// both.
func codecPaths() map[string]bool {
	paths := map[string]bool{"words": false}
	if hostLittleEndian {
		paths["bulk"] = true
	}
	return paths
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

// codecCases are the fixtures both directions of the codec are checked
// on: the degenerate shapes, empty rows at the edges and in the middle,
// special float bit patterns, and a body whose every section crosses
// several chunk boundaries.
func codecCases(tb testing.TB) map[string]*sparse.CSR[float64] {
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
	nanBits := gen.Random(3, 4, 2, 6)
	copy(nanBits.Val, []float64{
		math.Float64frombits(0x7ff8000000000001), // quiet NaN with a payload
		math.Float64frombits(0xfff0000000000001), // signalling, negative NaN
		math.Float64frombits(0x000fffffffffffff), // largest subnormal
		math.Float64frombits(0x8000000000000001), // smallest negative subnormal
		math.Float64frombits(1 << 63),            // -0
		math.Float64frombits(0x7fefffffffffffff), // largest finite
	})
	big := multiChunk()
	if cb, vb := 4*len(big.ColIdx), 8*len(big.Val); cb < 3*ChunkBytes || vb < 3*ChunkBytes {
		tb.Fatalf("multi-chunk fixture too small: colidx %d B, val %d B", cb, vb)
	}
	cases := map[string]*sparse.CSR[float64]{
		"0x0":                    sparse.NewCSR[float64](0, 0),
		"all rows empty":         sparse.NewCSR[float64](5, 7),
		"some rows nnz0":         emptyRows,
		"special values":         specials,
		"nan and subnormal bits": nanBits,
		"multi-chunk":            big,
		"1x1":                    gen.Random(1, 1, 1, 3),
	}
	for name, m := range cases {
		if err := m.Validate(); err != nil {
			tb.Fatalf("%s: fixture invalid: %v", name, err)
		}
	}
	return cases
}

// sized returns a rows×2 matrix of nnz entries, rows ≤ nnz ≤ 2·rows:
// the first nnz−rows rows hold two entries, the rest one. Its encoding
// is Size = 40 + 8·rows + 12·nnz bytes, which picks where a reply ends
// against the chunk.
func sized(rows, nnz int) *sparse.CSR[float64] {
	m := sparse.NewCSR[float64](rows, 2)
	for i := range rows {
		k := 1
		if i < nnz-rows {
			k = 2
		}
		for j := range k {
			m.ColIdx = append(m.ColIdx, int32(j))
			m.Val = append(m.Val, float64(i)+0.5*float64(j))
		}
		m.RowPtr[i+1] = int64(len(m.ColIdx))
	}
	return m
}

// chunkEdges are replies that end a word before, exactly at, and a
// word after one chunk, beside codecCases' smaller and larger ones:
// below a chunk Write's buffer is the reply's own size.
func chunkEdges(tb testing.TB) map[string]*sparse.CSR[float64] {
	cases := map[string]*sparse.CSR[float64]{
		"one chunk less a word": sized(2185, 4001),
		"one chunk":             sized(2187, 4000),
		"one chunk and a word":  sized(2186, 4001),
	}
	for name, want := range map[string]int64{"one chunk less a word": ChunkBytes - 4, "one chunk": ChunkBytes, "one chunk and a word": ChunkBytes + 4} {
		if err := cases[name].Validate(); err != nil {
			tb.Fatalf("%s: fixture invalid: %v", name, err)
		}
		if got := Size(cases[name]); got != want {
			tb.Fatalf("%s: fixture encodes to %d bytes, want %d", name, got, want)
		}
	}
	return cases
}

// callerChunks are the chunks the write checks hand WriteChunk: none
// (Write's own buffer), exactly one chunk, a larger one of which only
// a chunk may be used, and one too small to use. The caller's chunks
// start full of stale bytes, which must never reach w.
func callerChunks() map[string][]byte {
	stale := func(n int) []byte { return bytes.Repeat([]byte{0xa5}, n) }
	return map[string][]byte{
		"own":       nil,
		"one chunk": stale(ChunkBytes),
		"larger":    stale(3*ChunkBytes + 5),
		"too small": stale(ChunkBytes/2 - 3),
	}
}

// TestWriteMatchesReference checks both paths' bytes against the
// word-at-a-time reference, through Write's own buffer and through
// each caller chunk, and that they all hand w the same writes: at most
// ChunkBytes each, and only as many as the bytes need.
func TestWriteMatchesReference(t *testing.T) {
	cases := codecCases(t)
	maps.Copy(cases, chunkEdges(t))
	for name, m := range cases {
		var want bytes.Buffer
		if err := referenceWrite(&want, m); err != nil {
			t.Fatal(err)
		}
		var sizes []int
		for path, bulk := range codecPaths() {
			for src, chunk := range callerChunks() {
				var got chunkRecorder
				if err := write(&got, m, chunk, bulk); err != nil {
					t.Fatalf("%s, %s path, %s chunk: %v", name, path, src, err)
				}
				if !bytes.Equal(got.Bytes(), want.Bytes()) {
					t.Errorf("%s, %s path, %s chunk: encoding differs from the word-at-a-time reference (%d vs %d bytes)", name, path, src, got.Len(), want.Len())
				}
				for k, n := range got.sizes {
					if n == 0 || n > ChunkBytes {
						t.Errorf("%s, %s path, %s chunk: write %d has %d bytes, want 1..%d", name, path, src, k, n, ChunkBytes)
					}
				}
				if wantWrites := (want.Len() + ChunkBytes - 1) / ChunkBytes; len(got.sizes) < wantWrites || len(got.sizes) > wantWrites+1 {
					t.Errorf("%s, %s path, %s chunk: %d writes for %d bytes, want %d or %d", name, path, src, len(got.sizes), want.Len(), wantWrites, wantWrites+1)
				}
				if sizes != nil && !slices.Equal(got.sizes, sizes) {
					t.Errorf("%s, %s chunk: the write sizes differ across paths and chunks: %v and %v", name, src, got.sizes, sizes)
				}
				sizes = got.sizes
			}
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
	for path, bulk := range codecPaths() {
		for _, k := range []int{0, 10, ChunkBytes - 1, ChunkBytes, 3*ChunkBytes + 5} {
			f := &failAfter{limit: k}
			if err := write(f, m, nil, bulk); !errors.Is(err, errSink) {
				t.Errorf("%s path, fail after %d bytes: err = %v, want %v", path, k, err, errSink)
			}
			if !f.failed || f.calls != 0 {
				t.Errorf("%s path, fail after %d bytes: failed=%v, %d writes after the failure, want true and 0", path, k, f.failed, f.calls)
			}
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

// TestWriteAllocatesOneChunk bounds what one encode allocates: a chunk
// for a reply of several, the reply's own size for one smaller than a
// chunk, and nothing beyond a few words when the caller's chunk is used.
func TestWriteAllocatesOneChunk(t *testing.T) {
	small := sized(200, 300) // 5,240 bytes
	chunk := make([]byte, ChunkBytes)
	for path, bulk := range codecPaths() {
		for _, c := range []struct {
			name  string
			m     *sparse.CSR[float64]
			chunk []byte
			limit uint64
		}{
			{"multi-chunk", multiChunk(), nil, ChunkBytes + 1024},
			{"small", small, nil, uint64(Size(small)) + 1024},
			{"multi-chunk, caller chunk", multiChunk(), chunk, 1024},
			{"small, caller chunk", small, chunk, 1024},
		} {
			got := allocBytesPerCall(func() {
				if err := write(io.Discard, c.m, c.chunk, bulk); err != nil {
					t.Fatal(err)
				}
			})
			if got > c.limit {
				t.Errorf("%s path, %s: Write allocates %d bytes per call, want ≤ %d", path, c.name, got, c.limit)
			}
		}
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

// BenchmarkWrite encodes the delta-compl-ref reply on each path into a
// sink that copies every write, as a server's response writer does:
// a bytes.Buffer reset between iterations, so after the first one it
// allocates nothing.
func BenchmarkWrite(b *testing.B) {
	c := complProduct(b)
	for _, path := range []string{"words", "bulk"} {
		bulk, ok := codecPaths()[path]
		if !ok {
			continue
		}
		b.Run(path, func(b *testing.B) {
			var sink bytes.Buffer
			if err := write(&sink, c, nil, bulk); err != nil {
				b.Fatal(err)
			}
			b.SetBytes(int64(sink.Len()))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sink.Reset()
				if err := write(&sink, c, nil, bulk); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// referenceRead is the decoder Read replaced: a 1 MiB bufio.Reader per
// call, arrays reserved up to 1 Mi words from the header alone, three
// more 64 KiB buffers, and one append per element. Read must accept
// exactly the bodies it accepts and decode them to the same bits.
func referenceRead(r io.Reader) (*sparse.CSR[float64], error) {
	br := bufio.NewReaderSize(r, 1<<20)
	head := make([]byte, headerBytes)
	if _, err := io.ReadFull(br, head); err != nil {
		return nil, fmt.Errorf("serial: short header: %w", err)
	}
	if string(head[:4]) != magic {
		return nil, fmt.Errorf("serial: bad magic %q", head[:4])
	}
	if v := binary.LittleEndian.Uint32(head[4:]); v != version {
		return nil, fmt.Errorf("serial: unsupported version %d", v)
	}
	rows := binary.LittleEndian.Uint64(head[8:])
	cols := binary.LittleEndian.Uint64(head[16:])
	nnz := binary.LittleEndian.Uint64(head[24:])
	const sanity = 1 << 40
	if rows > sanity || cols > sanity || nnz > sanity {
		return nil, fmt.Errorf("serial: implausible header rows=%d cols=%d nnz=%d", rows, cols, nnz)
	}
	prealloc := func(n uint64) int { return int(min(n, 1<<20)) }
	m := &sparse.CSR[float64]{
		Pattern: sparse.Pattern{
			Rows:   int(rows),
			Cols:   int(cols),
			RowPtr: make([]int64, 0, prealloc(rows+1)),
			ColIdx: make([]int32, 0, prealloc(nnz)),
		},
		Val: make([]float64, 0, prealloc(nnz)),
	}
	err := referenceReadChunked(br, rows+1, 8, "rowptr", func(chunk []byte) {
		for off := 0; off < len(chunk); off += 8 {
			m.RowPtr = append(m.RowPtr, int64(binary.LittleEndian.Uint64(chunk[off:])))
		}
	})
	if err != nil {
		return nil, err
	}
	err = referenceReadChunked(br, nnz, 4, "colidx", func(chunk []byte) {
		for off := 0; off < len(chunk); off += 4 {
			m.ColIdx = append(m.ColIdx, int32(binary.LittleEndian.Uint32(chunk[off:])))
		}
	})
	if err != nil {
		return nil, err
	}
	err = referenceReadChunked(br, nnz, 8, "values", func(chunk []byte) {
		for off := 0; off < len(chunk); off += 8 {
			m.Val = append(m.Val, math.Float64frombits(binary.LittleEndian.Uint64(chunk[off:])))
		}
	})
	if err != nil {
		return nil, err
	}
	if err := m.Validate(); err != nil {
		return nil, fmt.Errorf("serial: corrupt matrix: %w", err)
	}
	return m, nil
}

// referenceReadChunked streams count words through emit in 64 KiB
// chunks, each read into a fresh buffer.
func referenceReadChunked(br io.Reader, count uint64, width int, what string, emit func(chunk []byte)) error {
	buf := make([]byte, 1<<16)
	for remaining := count * uint64(width); remaining > 0; {
		n := min(uint64(len(buf)), remaining)
		if _, err := io.ReadFull(br, buf[:n]); err != nil {
			return fmt.Errorf("serial: short %s: %w", what, err)
		}
		emit(buf[:n])
		remaining -= n
	}
	return nil
}

// unsized hides a source's Len, as a network body or a bufio.Reader
// does: Read must then grow its arrays as the bytes arrive.
type unsized struct{ r io.Reader }

func (u unsized) Read(p []byte) (int, error) { return u.r.Read(p) }

// sameBits reports whether two matrices have the same shape, structure
// and value bit patterns (NaN payloads and the sign of zero included).
func sameBits(a, b *sparse.CSR[float64]) bool {
	if a.Rows != b.Rows || a.Cols != b.Cols || !slices.Equal(a.RowPtr, b.RowPtr) || !slices.Equal(a.ColIdx, b.ColIdx) || len(a.Val) != len(b.Val) {
		return false
	}
	for i, v := range a.Val {
		if math.Float64bits(v) != math.Float64bits(b.Val[i]) {
			return false
		}
	}
	return true
}

// encoded returns Write's bytes for m.
func encoded(tb testing.TB, m *sparse.CSR[float64]) []byte {
	var buf bytes.Buffer
	if err := Write(&buf, m); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// sources are the reader shapes Read is driven through: a source that
// reports its length, one that does not, and one that delivers a few
// bytes per call.
var sources = map[string]func([]byte) io.Reader{
	"sized":   func(b []byte) io.Reader { return bytes.NewReader(b) },
	"unsized": func(b []byte) io.Reader { return unsized{bytes.NewReader(b)} },
	"trickle": func(b []byte) io.Reader { return iotest.HalfReader(unsized{bytes.NewReader(b)}) },
}

func TestReadMatchesReference(t *testing.T) {
	for name, m := range codecCases(t) {
		body := encoded(t, m)
		want, err := referenceRead(bytes.NewReader(body))
		if err != nil {
			t.Fatalf("%s: reference: %v", name, err)
		}
		if !sameBits(want, m) {
			t.Fatalf("%s: reference decode differs from the encoded matrix", name)
		}
		for path, bulk := range codecPaths() {
			for src, open := range sources {
				got, err := read(open(body), bulk)
				if err != nil {
					t.Fatalf("%s, %s path, %s source: %v", name, path, src, err)
				}
				if !sameBits(got, want) {
					t.Errorf("%s, %s path, %s source: decode differs from the reference", name, path, src)
				}
				// A complete body leaves no slack: the store keeps these
				// arrays for as long as the operand is resident.
				if cap(got.RowPtr) != len(got.RowPtr) || cap(got.ColIdx) != len(got.ColIdx) || cap(got.Val) != len(got.Val) {
					t.Errorf("%s, %s path, %s source: capacities %d/%d/%d for lengths %d/%d/%d", name, path, src,
						cap(got.RowPtr), cap(got.ColIdx), cap(got.Val), len(got.RowPtr), len(got.ColIdx), len(got.Val))
				}
			}
		}
	}
}

func TestReadTruncations(t *testing.T) {
	// Every prefix of a small body: each header field, every word of
	// every section, and the cut inside each word.
	small := encoded(t, codecCases(t)["some rows nnz0"])
	for cut := 0; cut < len(small); cut++ {
		for path, bulk := range codecPaths() {
			for src, open := range sources {
				if m, err := read(open(small[:cut]), bulk); err == nil {
					t.Fatalf("small body cut at %d of %d, %s path, %s source: decoded %dx%d", cut, len(small), path, src, m.Rows, m.Cols)
				}
			}
		}
	}
	// The multi-chunk body at its section boundaries, its chunk
	// boundaries, and one byte either side of each.
	m := multiChunk()
	body := encoded(t, m)
	rowEnd := headerBytes + 8*len(m.RowPtr)
	colEnd := rowEnd + 4*len(m.ColIdx)
	var cuts []int
	for _, at := range []int{headerBytes, rowEnd, colEnd, len(body)} {
		cuts = append(cuts, at-1, at, at+1, at+3, at+5)
	}
	for at := ChunkBytes; at < len(body); at += ChunkBytes {
		cuts = append(cuts, at-1, at, at+1)
	}
	for _, sec := range []int{headerBytes, rowEnd, colEnd} {
		for at := sec + ChunkBytes; at < len(body); at += ChunkBytes {
			cuts = append(cuts, at-1, at, at+1)
		}
	}
	for _, cut := range cuts {
		if cut < 0 || cut >= len(body) {
			continue
		}
		for path, bulk := range codecPaths() {
			for src, open := range sources {
				if _, err := read(open(body[:cut]), bulk); err == nil {
					t.Errorf("multi-chunk body cut at %d of %d, %s path, %s source: want an error", cut, len(body), path, src)
				}
			}
		}
	}
}

// hostileHeader is a 48-byte body whose header declares 2^39 rows,
// columns and entries: within the sanity bound, so only the payload's
// absence stops it.
func hostileHeader() []byte {
	body := []byte(magic + "\x01\x00\x00\x00")
	for range 3 {
		body = binary.LittleEndian.AppendUint64(body, 1<<39)
	}
	return append(body, make([]byte, 16)...)
}

func TestReadHostileHeaderAllocatesLittle(t *testing.T) {
	body := hostileHeader()
	for path, bulk := range codecPaths() {
		for src, open := range sources {
			var err error
			got := allocBytesPerCall(func() { _, err = read(open(body), bulk) })
			if err == nil || !strings.Contains(err.Error(), "short rowptr") || !errors.Is(err, io.ErrUnexpectedEOF) {
				t.Errorf("%s path, %s source: err = %v, want a short rowptr read", path, src, err)
			}
			if limit := uint64(256 << 10); got > limit {
				t.Errorf("%s path, %s source: %d bytes allocated per call, want < %d", path, src, got, limit)
			}
		}
	}
}

// sink keeps an allocation a test measures from being optimised away.
var sink *sparse.CSR[float64]

func TestReadAllocatesOneChunk(t *testing.T) {
	m := multiChunk()
	body := encoded(t, m)
	// The arrays' own cost, the allocator's size-class rounding included.
	arrays := allocBytesPerCall(func() {
		sink = &sparse.CSR[float64]{
			Pattern: sparse.Pattern{RowPtr: make([]int64, len(m.RowPtr)), ColIdx: make([]int32, len(m.ColIdx))},
			Val:     make([]float64, len(m.Val)),
		}
	})
	r := bytes.NewReader(body)
	for path, bulk := range codecPaths() {
		got := allocBytesPerCall(func() {
			r.Reset(body)
			if _, err := read(r, bulk); err != nil {
				t.Fatal(err)
			}
		})
		if limit := arrays + ChunkBytes + 1024; got > limit {
			t.Errorf("%s path: Read allocates %d bytes per call for %d bytes of arrays, want ≤ %d", path, got, arrays, limit)
		}
		// Without a length the arrays double as words arrive: every
		// earlier copy of an array is smaller than its final size,
		// together at most that size again.
		got = allocBytesPerCall(func() {
			r.Reset(body)
			if _, err := read(unsized{r}, bulk); err != nil {
				t.Fatal(err)
			}
		})
		if limit := 2*arrays + ChunkBytes + 1024; got > limit {
			t.Errorf("%s path: Read from an unsized source allocates %d bytes per call for %d bytes of arrays, want ≤ %d", path, got, arrays, limit)
		}
	}
}

// valuesBody returns vals as a values-only delta body.
func valuesBody(vals []float64) []byte {
	body := make([]byte, 0, 8*len(vals))
	for _, v := range vals {
		body = binary.LittleEndian.AppendUint64(body, math.Float64bits(v))
	}
	return body
}

func TestReadValues(t *testing.T) {
	vals := multiChunk().Val
	body := valuesBody(vals)
	// A body the size of delta-compl-ref's: 32768 values, 262 KB.
	delta := valuesBody(vals[:1<<15])
	deltaArray := allocBytesPerCall(func() { _ = make([]float64, 1<<15) })
	for path, bulk := range codecPaths() {
		for src, open := range sources {
			for _, size := range []int64{int64(len(body)), -1} {
				got, err := readValues(open(body), size, bulk)
				if err != nil {
					t.Fatalf("%s path, %s source, size %d: %v", path, src, size, err)
				}
				if !slices.Equal(got, vals) {
					t.Fatalf("%s path, %s source, size %d: values differ", path, src, size)
				}
				if size >= 0 && cap(got) != len(got) {
					t.Errorf("%s path, %s source, declared size: capacity %d for %d values", path, src, cap(got), len(got))
				}
			}
			if got, err := readValues(open(nil), 0, bulk); err != nil || len(got) != 0 {
				t.Errorf("%s path, %s source, empty: %d values, err %v; want none and no error", path, src, len(got), err)
			}
			for _, n := range []int{3, 8*5 + 3, ChunkBytes + 1, len(body) - 1} {
				if _, err := readValues(open(body[:n]), int64(n), bulk); err == nil {
					t.Errorf("%s path, %s source, %d bytes: want an error for a partial word", path, src, n)
				}
			}
			// More bytes than declared are still values: the declared
			// size only stops the reservation and the doubling.
			if got, err := readValues(open(body), int64(len(delta)), bulk); err != nil || !slices.Equal(got, vals) {
				t.Errorf("%s path, %s source, body past its declared size: %d values, err %v; want all %d", path, src, len(got), err, len(vals))
			}
		}
		// A declared size reserves the whole array up front, so a
		// sized delta lands in one array: the word path adds its chunk
		// buffer, the bulk path nothing.
		got := allocBytesPerCall(func() {
			if _, err := readValues(unsized{bytes.NewReader(delta)}, int64(len(delta)), bulk); err != nil {
				t.Fatal(err)
			}
		})
		limit := deltaArray + 1024
		if !bulk {
			limit += ChunkBytes
		}
		if got > limit {
			t.Errorf("%s path: ReadValues of a declared %d-byte delta allocates %d bytes, want ≤ %d (one %d-byte array)", path, len(delta), got, limit, deltaArray)
		}
		// A declared size the body never delivers reserves at most
		// 1 MiB.
		got = allocBytesPerCall(func() {
			if _, err := readValues(unsized{bytes.NewReader(body[:8])}, 64<<20, bulk); err != nil {
				t.Fatal(err)
			}
		})
		if limit = 1<<20 + ChunkBytes + 1024; got > limit {
			t.Errorf("%s path: ReadValues of 8 bytes declared as 64 MiB allocates %d bytes, want ≤ %d", path, got, limit)
		}
	}
}

// FuzzRead is differential: on any body Read, on each path, and
// referenceRead both fail, or both return the same matrix bit for bit,
// whether or not the source reports its length.
func FuzzRead(f *testing.F) {
	for name, m := range codecCases(f) {
		if name == "multi-chunk" {
			continue // too large for a mutation corpus; TestReadMatchesReference covers it
		}
		body := encoded(f, m)
		f.Add(body)
		f.Add(body[:len(body)/2])
	}
	f.Add(hostileHeader())
	f.Add([]byte(magic))
	f.Fuzz(func(t *testing.T, data []byte) {
		want, wantErr := referenceRead(bytes.NewReader(data))
		for path, bulk := range codecPaths() {
			for src, open := range sources {
				got, err := read(open(data), bulk)
				switch {
				case (err == nil) != (wantErr == nil):
					t.Fatalf("%s path, %s source: err = %v, reference err = %v", path, src, err, wantErr)
				case err == nil && !sameBits(got, want):
					t.Fatalf("%s path, %s source: decode differs from the reference", path, src)
				}
			}
		}
	})
}

// BenchmarkRead decodes the two bodies the trajectory workloads spend
// decode time on: er-warm-inline's inline request operand (a
// symmetrized Erdős–Rényi graph, 2^11 vertices, degree 8, about 408 KB),
// read as the server reads it, behind a 64 KiB bufio.Reader with no
// length; and the delta-compl-ref product (see complProduct), read as a
// client reads a reply it holds in memory. Each runs on both paths.
func BenchmarkRead(b *testing.B) {
	bodies := []struct {
		name string
		m    *sparse.CSR[float64]
		open func(*bytes.Reader) io.Reader
	}{
		{"er-warm-inline", gen.Symmetrize(gen.ErdosRenyi(1<<11, 8, 1)), func(r *bytes.Reader) io.Reader { return bufio.NewReaderSize(r, 1<<16) }},
		{"delta-compl-ref", complProduct(b), func(r *bytes.Reader) io.Reader { return r }},
	}
	for _, c := range bodies {
		body := encoded(b, c.m)
		for _, path := range []string{"words", "bulk"} {
			bulk, ok := codecPaths()[path]
			if !ok {
				continue
			}
			b.Run(c.name+"/"+path, func(b *testing.B) {
				r := bytes.NewReader(body)
				src := c.open(r)
				b.SetBytes(int64(len(body)))
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					r.Reset(body)
					if br, ok := src.(*bufio.Reader); ok {
						br.Reset(r)
					}
					if _, err := read(src, bulk); err != nil {
						b.Fatal(err)
					}
				}
			})
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
