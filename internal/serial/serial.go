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
	"unsafe"

	"maskedspgemm/internal/sparse"
)

const (
	magic   = "MSPG"
	version = 1
	// headerBytes is magic, version, rows, cols and nnz.
	headerBytes = 4 + 4 + 8 + 8 + 8
)

// ChunkBytes is the encoder's largest buffer. A server response
// streams through it in chunks this size: large enough that a
// multi-megabyte product costs only ~16 writes per MiB. A reply
// smaller than one chunk gets a buffer of its own size, so it does not
// pay for zeroing a big one.
const ChunkBytes = 1 << 16

// Size returns the number of bytes Write produces for m: the header,
// then 8 bytes per row pointer and 12 per entry (a column index and a
// value), i.e. 32 + 8·(rows+1) + 12·nnz. A server sends it as the
// response's Content-Length so a client can size its read up front.
func Size(m *sparse.CSR[float64]) int64 {
	return headerBytes + 8*int64(len(m.RowPtr)) + 12*m.NNZ()
}

// Write encodes a float64 CSR matrix. Sections are encoded in bulk into
// one buffer of min(ChunkBytes, Size(m)) bytes that is handed to w each
// time it fills, so w sees writes of at most ChunkBytes and the bytes
// are identical to a word-at-a-time encoding. On a little-endian host
// each section is copied into the buffer as its array's own bytes;
// elsewhere the word loops encode it, word by word, to the same bytes
// and the same writes. A matrix whose arrays disagree with the header
// it would produce (RowPtr not Rows+1 long, or ColIdx/Val not NNZ()
// long) is rejected before any byte is written.
func Write(w io.Writer, m *sparse.CSR[float64]) error {
	return write(w, m, nil, hostLittleEndian)
}

// WriteChunk is Write encoding through the caller's chunk instead of a
// buffer of its own, when chunk's capacity holds the buffer Write would
// allocate (ChunkBytes, or Size(m) when that is less); otherwise it
// allocates that buffer as Write does. Only the buffer's length is used
// and the bytes and writes w sees are Write's. Since w must not retain
// what it is given, the caller may reuse chunk once WriteChunk returns.
func WriteChunk(w io.Writer, m *sparse.CSR[float64], chunk []byte) error {
	return write(w, m, chunk, hostLittleEndian)
}

// write is WriteChunk with the path chosen: bulk copies each section's
// bytes, which only a little-endian host may do, and the word loops
// run otherwise.
func write(w io.Writer, m *sparse.CSR[float64], chunk []byte, bulk bool) error {
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
	size := Size(m)
	if g, ok := w.(interface{ Grow(n int) }); ok {
		g.Grow(int(size))
	}
	n := int(min(size, ChunkBytes))
	if cap(chunk) < n {
		chunk = make([]byte, n)
	}
	e := encoder{w: w, buf: chunk[:n]}
	copy(e.buf, magic)
	binary.LittleEndian.PutUint32(e.buf[4:], version)
	binary.LittleEndian.PutUint64(e.buf[8:], uint64(m.Rows))
	binary.LittleEndian.PutUint64(e.buf[16:], uint64(m.Cols))
	binary.LittleEndian.PutUint64(e.buf[24:], uint64(nnz))
	e.n = headerBytes
	putSection(&e, m.RowPtr, 8, bulk, encodeInt64s)
	putSection(&e, m.ColIdx, 4, bulk, encodeInt32s)
	putSection(&e, m.Val, 8, bulk, encodeFloat64s)
	e.flush()
	return e.err
}

// putSection encodes one section's words, each width bytes, into e's
// buffer, as many whole words per chunk as fit. The bulk path copies
// the words' own bytes; the word path runs encode. Both fill the same
// chunks, so w sees the same writes either way.
func putSection[T word](e *encoder, words []T, width int, bulk bool, encode func(dst []byte, src []T)) {
	for len(words) > 0 && e.err == nil {
		dst := e.room(width, len(words))
		k := len(dst) / width
		if bulk {
			copy(dst, wordBytes(words[:k]))
		} else {
			encode(dst, words[:k])
		}
		words = words[k:]
	}
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
// returning. On a little-endian host each section (RowPtr, ColIdx, Val)
// is read from r straight into its array's bytes; elsewhere it is read
// into one ChunkBytes buffer and decoded by index into its array, so r
// sees reads of at most ChunkBytes.
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
	return read(r, hostLittleEndian)
}

// read is Read with the path chosen, as for write.
func read(r io.Reader, bulk bool) (*sparse.CSR[float64], error) {
	var head [headerBytes]byte
	if _, err := io.ReadFull(r, head[:]); err != nil {
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
	// The word path decodes through one chunk buffer; the bulk path
	// needs none.
	var buf []byte
	if !bulk {
		buf = make([]byte, ChunkBytes)
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

// reserveMax caps what a declared size reserves before any byte of it
// arrives, the rule internal/serve's readBody uses for operand bodies.
const reserveMax = 1 << 20

// ReadValues decodes a bare run of little-endian float64 words (the
// body of a values-only delta), reading r to EOF, on a little-endian
// host straight into the array's bytes and elsewhere through one
// ChunkBytes buffer and the word decoder Read uses. size is the byte
// count r declares (an HTTP Content-Length), or negative when unknown.
// A declared size reserves at most min(size, 1 MiB) before any byte
// arrives, so an honest delta of up to 1 MiB lands in one array; past
// that the array doubles as bytes arrive and stops at the declared
// length, so a complete body leaves no slack in an array the caller
// keeps. An r that ends inside a word is an error; an empty r yields
// no values.
func ReadValues(r io.Reader, size int64) ([]float64, error) {
	return readValues(r, size, hostLittleEndian)
}

// readValues is ReadValues with the path chosen, as for write.
func readValues(r io.Reader, size int64, bulk bool) ([]float64, error) {
	limit := uint64(math.MaxUint64)
	if size >= 0 {
		limit = uint64(size) / 8
	}
	c := reserve(r, limit, 8)
	if size >= 0 {
		c = max(c, int(min(uint64(size), reserveMax)/8))
	}
	out := make([]float64, 0, c)
	if bulk {
		return readValuesBulk(r, out, limit)
	}
	buf := make([]byte, ChunkBytes)
	total := 0
	for {
		n, err := io.ReadFull(r, buf)
		total += n
		k := n / 8
		out = grow(out, k, limit)
		decodeFloat64s(out[len(out)-k:], buf[:8*k])
		if err != nil {
			return valuesEnd(out, total, err)
		}
	}
}

// readValuesBulk is readValues' bulk path: each read fills out's spare
// capacity, or one chunk's worth of new words when there is none.
// Once out is full at the declared count limit, the body should end,
// so the next read takes a single word and the array grows only if one
// arrives.
func readValuesBulk(r io.Reader, out []float64, limit uint64) ([]float64, error) {
	const per = ChunkBytes / 8
	total := 0
	for {
		n := len(out)
		if n == cap(out) && uint64(n) >= limit {
			var w [8]byte
			got, err := io.ReadFull(r, w[:])
			total += got
			if err != nil {
				return valuesEnd(out, total, err)
			}
			out = append(out, math.Float64frombits(binary.LittleEndian.Uint64(w[:])))
			continue
		}
		k := cap(out) - n
		if k == 0 {
			k = int(min(per, limit-uint64(n)))
		}
		out = grow(out, k, limit)
		got, err := io.ReadFull(r, wordBytes(out[n:]))
		total += got
		out = out[:n+got/8]
		if err != nil {
			return valuesEnd(out, total, err)
		}
	}
}

// valuesEnd finishes a values read that stopped with err after total
// bytes: EOF after whole words returns out, anything else is an error.
func valuesEnd(out []float64, total int, err error) ([]float64, error) {
	if err != io.EOF && err != io.ErrUnexpectedEOF {
		return nil, fmt.Errorf("serial: reading values: %w", err)
	}
	if total%8 != 0 {
		return nil, fmt.Errorf("serial: %d bytes of values end inside a word (want a multiple of 8)", total)
	}
	return out, nil
}

// readSection reads count words of the given width from r into a new
// array. With buf nil (the bulk path) each read fills the array's
// spare capacity, or one chunk's worth of new words when there is
// none, straight from r. Otherwise each chunk is read into buf (whose
// length is a multiple of every width used here) and decoded into the
// array. The array grows as words arrive either way.
func readSection[T word](r io.Reader, buf []byte, count uint64, width int, what string, decode func(dst []T, src []byte)) ([]T, error) {
	out := make([]T, 0, reserve(r, count, width))
	per := uint64(ChunkBytes / width)
	for left := count; left > 0; {
		k := min(left, per)
		n := len(out)
		if buf == nil {
			if spare := uint64(cap(out) - n); spare > 0 {
				k = min(left, spare)
			}
			out = grow(out, int(k), count)
			if _, err := io.ReadFull(r, wordBytes(out[n:])); err != nil {
				return nil, shortSection(what, n, err)
			}
		} else {
			src := buf[:k*uint64(width)]
			if _, err := io.ReadFull(r, src); err != nil {
				return nil, shortSection(what, n, err)
			}
			out = grow(out, int(k), count)
			decode(out[n:], src)
		}
		left -= k
	}
	return out, nil
}

// shortSection is the error of a section whose read failed with err
// after n of its words arrived. A source that ends after some of them
// ends unexpectedly, wherever the paths' reads happen to split the
// section, so io.EOF is reported only when none arrived.
func shortSection(what string, n int, err error) error {
	if err == io.EOF && n > 0 {
		err = io.ErrUnexpectedEOF
	}
	return fmt.Errorf("serial: short %s: %w", what, err)
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

// word is the element types of the format's sections.
type word interface{ int32 | int64 | float64 }

// hostLittleEndian reports whether this host stores a word's bytes
// least significant first, as the format does. Only then are a
// section's array bytes its encoding.
var hostLittleEndian = binary.NativeEndian.Uint16([]byte{1, 0}) == 1

// wordBytes returns the bytes of the words in s, aliasing s's array:
// len(s) times the word's size. It is the codec's one use of unsafe,
// and only the bulk path calls it, on a little-endian host, where those
// bytes are the section's encoding exactly: Write copies them into its
// chunk and Read and ReadValues fill them straight from the source.
// Every bit pattern is a valid int32, int64 and float64, so any bytes
// read into them are well-formed words, and Read validates structure
// after.
func wordBytes[T word](s []T) []byte {
	if len(s) == 0 {
		return nil
	}
	return unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(s))), len(s)*int(unsafe.Sizeof(s[0])))
}

// encodeInt64s, encodeInt32s and encodeFloat64s are the word path's
// encoders: each writes the words of src by index into dst as
// little-endian bytes; dst holds exactly len(src) of them.
func encodeInt64s(dst []byte, src []int64) {
	dst = dst[:8*len(src)]
	for i, p := range src {
		binary.LittleEndian.PutUint64(dst[8*i:], uint64(p))
	}
}

func encodeInt32s(dst []byte, src []int32) {
	dst = dst[:4*len(src)]
	for i, j := range src {
		binary.LittleEndian.PutUint32(dst[4*i:], uint32(j))
	}
}

func encodeFloat64s(dst []byte, src []float64) {
	dst = dst[:8*len(src)]
	for i, v := range src {
		binary.LittleEndian.PutUint64(dst[8*i:], math.Float64bits(v))
	}
}

// decodeInt64s, decodeInt32s and decodeFloat64s are the word path's
// decoders: each fills dst by index from the little-endian words in
// src, which holds exactly len(dst) of them.
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
