// Package serial provides a fast little-endian binary codec for CSR
// matrices — the binary operand format of the serving front end
// (internal/serve), where Matrix Market's decimal round trip would cost
// more than the product itself. The format is versioned and
// self-describing:
//
//	magic "MSPG" | version u32 | rows u64 | cols u64 | nnz u64
//	rowptr [rows+1]u64 | colidx [nnz]u32 | val [nnz]f64
package serial

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"

	"maskedspgemm/internal/sparse"
)

const (
	magic   = "MSPG"
	version = 1
	// headerBytes is magic, version, rows, cols and nnz.
	headerBytes = 4 + 4 + 8 + 8 + 8
)

// chunkBytes is the encoder's one buffer. A server response streams
// through it in chunks this size: large enough that a multi-megabyte
// product costs only ~16 writes per MiB, small enough that even a tiny
// reply does not pay for zeroing a big buffer.
const chunkBytes = 1 << 16

// Size returns the number of bytes Write produces for m: the header,
// then 8 bytes per row pointer and 12 per entry (a column index and a
// value), i.e. 32 + 8·(rows+1) + 12·nnz. A server sends it as the
// response's Content-Length so a client can size its read up front.
func Size(m *sparse.CSR[float64]) int64 {
	return headerBytes + 8*int64(len(m.RowPtr)) + 12*m.NNZ()
}

// Write encodes a float64 CSR matrix. Sections are encoded in bulk into
// one chunkBytes buffer that is handed to w each time it fills, so w
// sees writes of at most chunkBytes and the bytes are identical to a
// word-at-a-time encoding. A matrix whose arrays disagree with the
// header it would produce (RowPtr not Rows+1 long, or ColIdx/Val not
// NNZ() long) is rejected before any byte is written.
func Write(w io.Writer, m *sparse.CSR[float64]) error {
	if len(m.RowPtr) != m.Rows+1 {
		return fmt.Errorf("serial: RowPtr has %d entries, want rows+1 = %d", len(m.RowPtr), m.Rows+1)
	}
	nnz := m.NNZ()
	if int64(len(m.ColIdx)) != nnz || int64(len(m.Val)) != nnz {
		return fmt.Errorf("serial: nnz %d but %d column indices and %d values", nnz, len(m.ColIdx), len(m.Val))
	}
	// A destination that can reserve room (a bytes.Buffer) is grown once
	// to the exact encoded size: grown chunk by chunk it would double
	// past it, and a caller keeping the bytes would keep the slack.
	if g, ok := w.(interface{ Grow(n int) }); ok {
		g.Grow(int(Size(m)))
	}
	e := encoder{w: w, buf: make([]byte, chunkBytes)}
	copy(e.buf, magic)
	binary.LittleEndian.PutUint32(e.buf[4:], version)
	binary.LittleEndian.PutUint64(e.buf[8:], uint64(m.Rows))
	binary.LittleEndian.PutUint64(e.buf[16:], uint64(m.Cols))
	binary.LittleEndian.PutUint64(e.buf[24:], uint64(nnz))
	e.n = headerBytes
	for rest := m.RowPtr; len(rest) > 0 && e.err == nil; {
		dst := e.room(8, len(rest))
		k := len(dst) / 8
		for i, p := range rest[:k] {
			binary.LittleEndian.PutUint64(dst[8*i:], uint64(p))
		}
		rest = rest[k:]
	}
	for rest := m.ColIdx; len(rest) > 0 && e.err == nil; {
		dst := e.room(4, len(rest))
		k := len(dst) / 4
		for i, j := range rest[:k] {
			binary.LittleEndian.PutUint32(dst[4*i:], uint32(j))
		}
		rest = rest[k:]
	}
	for rest := m.Val; len(rest) > 0 && e.err == nil; {
		dst := e.room(8, len(rest))
		k := len(dst) / 8
		for i, v := range rest[:k] {
			binary.LittleEndian.PutUint64(dst[8*i:], math.Float64bits(v))
		}
		rest = rest[k:]
	}
	e.flush()
	return e.err
}

// encoder is Write's chunk buffer: buf[:n] is encoded and not yet
// written. After the first failed write err is set and nothing more is
// written.
type encoder struct {
	w   io.Writer
	buf []byte
	n   int
	err error
}

// room reserves the free tail of the buffer for up to want words of the
// given width and returns it, flushing first when not one word fits.
// The caller fills the whole returned slice.
func (e *encoder) room(width, want int) []byte {
	if len(e.buf)-e.n < width {
		e.flush()
	}
	k := min((len(e.buf)-e.n)/width, want)
	dst := e.buf[e.n : e.n+k*width]
	e.n += k * width
	return dst
}

// flush hands the encoded bytes to w.
func (e *encoder) flush() {
	if e.err == nil && e.n > 0 {
		_, e.err = e.w.Write(e.buf[:e.n])
	}
	e.n = 0
}

// Read decodes a matrix written by Write, validating structure before
// returning. Each section (RowPtr, ColIdx, Val) is read from r into one
// chunkBytes buffer and decoded by index into its array, so r sees
// reads of at most chunkBytes and nothing else is buffered.
//
// A header's declared size reserves nothing by itself: a hostile (or
// fuzzed) header promising 2^39 rows against a 48-byte body must fail
// with a short read, not attempt a terabyte allocation. An array is
// reserved whole only when r reports how many bytes it still holds (a
// bytes.Reader's Len), and then no larger than those bytes allow.
// Otherwise it grows as chunks arrive, to at most twice the words
// delivered and never past the declared count, so a complete body
// leaves no slack behind in the arrays it returns.
func Read(r io.Reader) (*sparse.CSR[float64], error) {
	buf := make([]byte, chunkBytes)
	head := buf[:headerBytes]
	if _, err := io.ReadFull(r, head); err != nil {
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
	rowPtr, err := readSection(r, buf, rows+1, 8, "rowptr", decodeInt64s)
	if err != nil {
		return nil, err
	}
	colIdx, err := readSection(r, buf, nnz, 4, "colidx", decodeInt32s)
	if err != nil {
		return nil, err
	}
	val, err := readSection(r, buf, nnz, 8, "values", decodeFloat64s)
	if err != nil {
		return nil, err
	}
	m := &sparse.CSR[float64]{
		Pattern: sparse.Pattern{Rows: int(rows), Cols: int(cols), RowPtr: rowPtr, ColIdx: colIdx},
		Val:     val,
	}
	if err := m.Validate(); err != nil {
		return nil, fmt.Errorf("serial: corrupt matrix: %w", err)
	}
	return m, nil
}

// ReadValues decodes a bare run of little-endian float64 words (the
// body of a values-only delta), reading r to EOF through one chunkBytes
// buffer and the word decoder Read uses. size is the byte count r
// declares (an HTTP Content-Length), or negative when unknown. Like a
// header's counts it reserves nothing by itself: it only stops the
// array's doubling at the declared length, so a complete body leaves
// no slack in an array the caller keeps. An r that ends inside a word
// is an error; an empty r yields no values.
func ReadValues(r io.Reader, size int64) ([]float64, error) {
	limit := uint64(math.MaxUint64)
	if size >= 0 {
		limit = uint64(size) / 8
	}
	buf := make([]byte, chunkBytes)
	out := make([]float64, 0, reserve(r, limit, 8))
	total := 0
	for {
		n, err := io.ReadFull(r, buf)
		total += n
		k := n / 8
		out = grow(out, k, limit)
		decodeFloat64s(out[len(out)-k:], buf[:8*k])
		switch {
		case err == io.EOF || err == io.ErrUnexpectedEOF:
			if n%8 != 0 {
				return nil, fmt.Errorf("serial: %d bytes of values end inside a word (want a multiple of 8)", total)
			}
			return out, nil
		case err != nil:
			return nil, fmt.Errorf("serial: reading values: %w", err)
		}
	}
}

// readSection reads count words of the given width from r through buf
// (whose length is a multiple of every width used here) and decodes
// them into a new array, chunk by chunk.
func readSection[T any](r io.Reader, buf []byte, count uint64, width int, what string, decode func(dst []T, src []byte)) ([]T, error) {
	out := make([]T, 0, reserve(r, count, width))
	per := uint64(len(buf) / width)
	for left := count; left > 0; {
		k := min(left, per)
		src := buf[:k*uint64(width)]
		if _, err := io.ReadFull(r, src); err != nil {
			return nil, fmt.Errorf("serial: short %s: %w", what, err)
		}
		out = grow(out, int(k), count)
		decode(out[len(out)-int(k):], src)
		left -= k
	}
	return out, nil
}

// reserve is the capacity to allocate for up to count words of the
// given width before any of them is read: none, unless r reports the
// bytes it still holds, and then no more words than those bytes carry.
func reserve(r io.Reader, count uint64, width int) int {
	if s, ok := r.(interface{ Len() int }); ok {
		if n := s.Len(); n > 0 {
			return int(min(count, uint64(n/width)))
		}
	}
	return 0
}

// grow extends out by k words that have just been read. The capacity
// doubles with the words delivered, so each word is copied O(1) times
// amortised, and stops at limit, the count the source declared, so a
// complete section's array ends exactly full.
func grow[T any](out []T, k int, limit uint64) []T {
	n := len(out)
	if cap(out)-n >= k {
		return out[:n+k]
	}
	c := max(2*n, n+k)
	if uint64(c) > limit {
		c = max(n+k, int(limit))
	}
	g := make([]T, n+k, c)
	copy(g, out)
	return g
}

// decodeInt64s, decodeInt32s and decodeFloat64s are the word decoders:
// each fills dst by index from the little-endian words in src, which
// holds exactly len(dst) of them.
func decodeInt64s(dst []int64, src []byte) {
	src = src[:8*len(dst)]
	for i := range dst {
		dst[i] = int64(binary.LittleEndian.Uint64(src[8*i:]))
	}
}

func decodeInt32s(dst []int32, src []byte) {
	src = src[:4*len(dst)]
	for i := range dst {
		dst[i] = int32(binary.LittleEndian.Uint32(src[4*i:]))
	}
}

func decodeFloat64s(dst []float64, src []byte) {
	src = src[:8*len(dst)]
	for i := range dst {
		dst[i] = math.Float64frombits(binary.LittleEndian.Uint64(src[8*i:]))
	}
}
