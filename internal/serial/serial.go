// Package serial provides a fast little-endian binary codec for CSR
// matrices — the cache format for large generated benchmark inputs,
// where Matrix Market's decimal round trip costs more than the graph
// generation itself. The format is versioned and self-describing:
//
//	magic "MSPG" | version u32 | rows u64 | cols u64 | nnz u64
//	rowptr [rows+1]u64 | colidx [nnz]u32 | val [nnz]f64
package serial

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"os"

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
		g.Grow(headerBytes + 8*len(m.RowPtr) + 12*int(nnz))
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
// returning.
func Read(r io.Reader) (*sparse.CSR[float64], error) {
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
	// The arrays are grown as bytes actually arrive, never allocated to
	// the header's declared size up front: a hostile (or fuzzed) header
	// promising 2^39 rows against a 40-byte body must fail with a short
	// read, not attempt a terabyte allocation.
	m := &sparse.CSR[float64]{
		Pattern: sparse.Pattern{
			Rows:   int(rows),
			Cols:   int(cols),
			RowPtr: make([]int64, 0, prealloc(rows+1)),
			ColIdx: make([]int32, 0, prealloc(nnz)),
		},
		Val: make([]float64, 0, prealloc(nnz)),
	}
	err := readChunked(br, rows+1, 8, "rowptr", func(chunk []byte) {
		for off := 0; off < len(chunk); off += 8 {
			m.RowPtr = append(m.RowPtr, int64(binary.LittleEndian.Uint64(chunk[off:])))
		}
	})
	if err != nil {
		return nil, err
	}
	err = readChunked(br, nnz, 4, "colidx", func(chunk []byte) {
		for off := 0; off < len(chunk); off += 4 {
			m.ColIdx = append(m.ColIdx, int32(binary.LittleEndian.Uint32(chunk[off:])))
		}
	})
	if err != nil {
		return nil, err
	}
	err = readChunked(br, nnz, 8, "values", func(chunk []byte) {
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

// preallocWords caps how much array capacity a header's declared size
// may reserve before any payload bytes have been read (1 Mi words;
// larger matrices grow by append as their bytes arrive).
const preallocWords = 1 << 20

// prealloc clamps a declared element count to the pre-read capacity cap.
func prealloc(n uint64) int {
	if n > preallocWords {
		return preallocWords
	}
	return int(n)
}

// readChunked streams count fixed-width words through emit in bounded
// chunks, so decode memory tracks delivered bytes rather than declared
// counts. The chunk size is a multiple of every word width used here.
func readChunked(br io.Reader, count uint64, width int, what string, emit func(chunk []byte)) error {
	buf := make([]byte, 1<<16)
	remaining := count * uint64(width)
	for remaining > 0 {
		n := uint64(len(buf))
		if n > remaining {
			n = remaining
		}
		if _, err := io.ReadFull(br, buf[:n]); err != nil {
			return fmt.Errorf("serial: short %s: %w", what, err)
		}
		emit(buf[:n])
		remaining -= n
	}
	return nil
}

// WriteFile writes a matrix to disk.
func WriteFile(path string, m *sparse.CSR[float64]) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := Write(f, m); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// ReadFile reads a matrix from disk.
func ReadFile(path string) (*sparse.CSR[float64], error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return Read(f)
}

// Cached returns the matrix stored at path, generating and caching it
// on a miss — the memoization helper the big benchmark sweeps use.
func Cached(path string, build func() *sparse.CSR[float64]) (*sparse.CSR[float64], error) {
	if m, err := ReadFile(path); err == nil {
		return m, nil
	}
	m := build()
	if err := WriteFile(path, m); err != nil {
		return nil, err
	}
	return m, nil
}
