// Package mtx reads and writes the Matrix Market exchange format, the
// distribution format of the SuiteSparse Matrix Collection the paper's
// real-world inputs come from (§7). Supporting it means real graphs can
// be dropped into this reproduction in place of the synthetic suite.
//
// Supported: coordinate format, fields real/integer/pattern, symmetry
// general/symmetric/skew-symmetric. Dense ("array") files and complex
// fields are rejected with a clear error.
package mtx

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"maskedspgemm/internal/sparse"
)

const (
	// maxDim bounds declared matrix dimensions; beyond it the row-pointer
	// array alone exceeds a gigabyte, which no text-format input warrants.
	maxDim = 1 << 27
	// preallocEntries caps how much COO capacity the declared nnz may
	// reserve before any entry has parsed.
	preallocEntries = 1 << 20
)

// Header describes a Matrix Market file's declared type.
type Header struct {
	// Object is "matrix" (the only supported object).
	Object string
	// Format is "coordinate" (sparse) — "array" is rejected.
	Format string
	// Field is "real", "integer", or "pattern".
	Field string
	// Symmetry is "general", "symmetric", or "skew-symmetric".
	Symmetry string
}

// Read parses a Matrix Market stream into CSR. Symmetric inputs are
// expanded (both triangles populated); pattern inputs get unit values;
// duplicate coordinates are summed. A *bufio.Reader is read as is, so a
// caller that picks its own buffer (the server's operand reader, whose
// bytes are already in memory) pays for that one; any other reader
// gets a 1 MiB one.
func Read(r io.Reader) (*sparse.CSR[float64], *Header, error) {
	br, ok := r.(*bufio.Reader)
	if !ok {
		br = bufio.NewReaderSize(r, 1<<20)
	}
	line, err := br.ReadString('\n')
	if err != nil && line == "" {
		return nil, nil, fmt.Errorf("mtx: empty input: %w", err)
	}
	if !strings.HasPrefix(line, "%%MatrixMarket") {
		return nil, nil, fmt.Errorf("mtx: missing %%%%MatrixMarket banner")
	}
	fields := strings.Fields(strings.ToLower(line))
	if len(fields) < 5 {
		return nil, nil, fmt.Errorf("mtx: malformed banner %q", strings.TrimSpace(line))
	}
	h := &Header{Object: fields[1], Format: fields[2], Field: fields[3], Symmetry: fields[4]}
	if h.Object != "matrix" {
		return nil, nil, fmt.Errorf("mtx: unsupported object %q", h.Object)
	}
	if h.Format != "coordinate" {
		return nil, nil, fmt.Errorf("mtx: unsupported format %q (only coordinate)", h.Format)
	}
	switch h.Field {
	case "real", "integer", "pattern":
	default:
		return nil, nil, fmt.Errorf("mtx: unsupported field %q", h.Field)
	}
	switch h.Symmetry {
	case "general", "symmetric", "skew-symmetric":
	default:
		return nil, nil, fmt.Errorf("mtx: unsupported symmetry %q", h.Symmetry)
	}

	// Size line (after comments).
	var rows, cols, nnz int
	for {
		line, err = br.ReadString('\n')
		if err != nil && line == "" {
			return nil, nil, fmt.Errorf("mtx: missing size line: %w", err)
		}
		s := strings.TrimSpace(line)
		if s == "" || strings.HasPrefix(s, "%") {
			continue
		}
		parts := strings.Fields(s)
		if len(parts) != 3 {
			return nil, nil, fmt.Errorf("mtx: bad size line %q: want rows cols nnz", s)
		}
		var err1, err2, err3 error
		rows, err1 = strconv.Atoi(parts[0])
		cols, err2 = strconv.Atoi(parts[1])
		nnz, err3 = strconv.Atoi(parts[2])
		if err1 != nil || err2 != nil || err3 != nil {
			return nil, nil, fmt.Errorf("mtx: bad size line %q", s)
		}
		break
	}
	if rows < 0 || cols < 0 || nnz < 0 {
		return nil, nil, fmt.Errorf("mtx: negative dimensions in size line")
	}
	// The size line is untrusted input: CSR conversion allocates rows+1
	// row pointers up front, so an implausible declared dimension must be
	// rejected here rather than honoured with a multi-gigabyte make.
	if rows > maxDim || cols > maxDim {
		return nil, nil, fmt.Errorf("mtx: dimensions %dx%d exceed the %d limit", rows, cols, maxDim)
	}

	// The capacity hint is only a hint — clamp it so a hostile nnz can
	// reserve at most a bounded buffer; real entries grow it by append
	// as they actually parse.
	capHint := nnz
	if h.Symmetry != "general" {
		capHint *= 2
	}
	if capHint > preallocEntries {
		capHint = preallocEntries
	}
	coo := sparse.NewCOO[float64](rows, cols, capHint)
	read := 0
	for read < nnz {
		line, err = br.ReadString('\n')
		s := strings.TrimSpace(line)
		if s == "" || strings.HasPrefix(s, "%") {
			if err != nil {
				return nil, nil, fmt.Errorf("mtx: expected %d entries, got %d", nnz, read)
			}
			continue
		}
		parts := strings.Fields(s)
		want := 3
		if h.Field == "pattern" {
			want = 2
		}
		if len(parts) < want {
			return nil, nil, fmt.Errorf("mtx: entry %d malformed: %q", read+1, s)
		}
		i, err1 := strconv.Atoi(parts[0])
		j, err2 := strconv.Atoi(parts[1])
		if err1 != nil || err2 != nil {
			return nil, nil, fmt.Errorf("mtx: entry %d has bad indices: %q", read+1, s)
		}
		v := 1.0
		if h.Field != "pattern" {
			v, err = strconv.ParseFloat(parts[2], 64)
			if err != nil {
				return nil, nil, fmt.Errorf("mtx: entry %d has bad value: %q", read+1, s)
			}
		}
		if i < 1 || i > rows || j < 1 || j > cols {
			return nil, nil, fmt.Errorf("mtx: entry %d out of range: %q", read+1, s)
		}
		coo.Append(int32(i-1), int32(j-1), v)
		if h.Symmetry != "general" && i != j {
			mirror := v
			if h.Symmetry == "skew-symmetric" {
				mirror = -v
			}
			coo.Append(int32(j-1), int32(i-1), mirror)
		}
		read++
	}
	m, err := coo.ToCSR(func(a, b float64) float64 { return a + b })
	if err != nil {
		return nil, nil, fmt.Errorf("mtx: %v", err)
	}
	return m, h, nil
}

// ReadFile reads a Matrix Market file from disk.
func ReadFile(path string) (*sparse.CSR[float64], *Header, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, err
	}
	defer f.Close()
	return Read(f)
}

const (
	// chunkBytes is the one output buffer: lines are formatted into it
	// and it is handed to w whenever fewer than maxLine bytes are free.
	chunkBytes = 1 << 16
	// maxLine bounds one formatted line: two 20-character integers, a
	// 24-character value ("-4.9406564584124654e-324"), two spaces and a
	// newline.
	maxLine = 96
)

// Write emits a CSR matrix in coordinate/real/general form. Values are
// printed with 17 significant digits (%.17g), so they read back
// bit-exactly. The banner, size line and one line per entry are
// formatted into one chunkBytes buffer. The output is byte-identical to
// printing each line with fmt: strconv's 'g' format at precision 17 is
// what %.17g prints, ±Inf, NaN and -0 included. After the first failed
// write nothing more is written.
func Write(w io.Writer, m *sparse.CSR[float64]) error {
	buf := make([]byte, 0, chunkBytes)
	buf = append(buf, "%%MatrixMarket matrix coordinate real general\n"...)
	buf = strconv.AppendInt(buf, int64(m.Rows), 10)
	buf = append(buf, ' ')
	buf = strconv.AppendInt(buf, int64(m.Cols), 10)
	buf = append(buf, ' ')
	buf = strconv.AppendInt(buf, m.NNZ(), 10)
	buf = append(buf, '\n')
	for i := 0; i < m.Rows; i++ {
		vals := m.RowVals(i)
		for k, j := range m.Row(i) {
			if len(buf) > chunkBytes-maxLine {
				if _, err := w.Write(buf); err != nil {
					return err
				}
				buf = buf[:0]
			}
			buf = strconv.AppendInt(buf, int64(i+1), 10)
			buf = append(buf, ' ')
			buf = strconv.AppendInt(buf, int64(j)+1, 10)
			buf = append(buf, ' ')
			buf = strconv.AppendFloat(buf, vals[k], 'g', 17, 64)
			buf = append(buf, '\n')
		}
	}
	_, err := w.Write(buf)
	return err
}

// WriteFile writes a matrix to disk in Matrix Market form.
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
