package serve

import (
	"bufio"
	"bytes"
	"fmt"
	"hash/maphash"
	"io"
	"mime"
	"mime/multipart"
	"net/http"
	"runtime"
	"strconv"
	"strings"

	maskedspgemm "maskedspgemm"
	"maskedspgemm/internal/mtx"
	"maskedspgemm/internal/serial"
)

// operand is one matrix read off the wire by readOperand.
type operand struct {
	m *maskedspgemm.Matrix
	// digest names the exact bytes m was read from.
	digest maskedspgemm.OperandDigest
	// ref is m's content address once stored is set: by a digest hit,
	// or when the request files m in the store.
	ref    maskedspgemm.OperandRef
	stored bool
}

// operands are one request's matrices. Omitted operands default along
// the graph-workload diagonal: one matrix means C = A ⊙ (A·A) (the
// triangle-counting shape), mask without b means B = A.
type operands struct {
	// mask is the mask part; nil when the mask defaults to A's
	// pattern.
	mask *operand
	// a and b are the factors; b is a when it defaulted.
	a, b *operand
}

// maskPattern is the request's mask: the mask part's structure, or
// A's.
func (o *operands) maskPattern() *maskedspgemm.Pattern {
	if o.mask == nil {
		return o.a.m.PatternView()
	}
	return o.mask.m.PatternView()
}

// reserveMax caps what readBody reserves before any byte arrives.
const reserveMax = 1 << 20

// bodySeeds key the operand digest: two independent per-process seeds
// make it 128 bits, and because they never leave the process a client
// cannot aim a collision at a resident operand.
var bodySeeds = [2]maphash.Seed{maphash.MakeSeed(), maphash.MakeSeed()}

// digestOf is the 128-bit digest of an operand body.
func digestOf(body []byte) maskedspgemm.OperandDigest {
	return maskedspgemm.OperandDigest{maphash.Bytes(bodySeeds[0], body), maphash.Bytes(bodySeeds[1], body)}
}

// readOperand is the one operand reader: raw bodies, multipart parts
// and /v1/operands uploads all come through it. It reads r whole
// (readBody) into a spare buffer that covers readBody's reservation,
// and digests the bytes. When the store holds an operand filed from
// identical bytes, that resident operand is the result: no decode, no
// Validate, no fingerprinting, no new arrays. Otherwise the bytes are
// decoded, and fileOperand files the digest with the matrix when the
// caller stores it. size bounds the bytes r can deliver (the request's
// Content-Length), or is negative when unknown. Neither the digest nor
// a decoded matrix aliases the body, so the buffer goes back on the
// server's spare list when readOperand returns.
func (s *Server) readOperand(r io.Reader, size int64) (*operand, error) {
	sp := s.spares.get(reservation(size))
	defer s.spares.put(sp)
	body, err := readBody(r, size, sp.buf)
	if cap(body) > cap(sp.buf) {
		// The body outgrew the spare: keep the larger buffer.
		sp.buf = body[:0]
	}
	if err != nil {
		return nil, fmt.Errorf("serve: reading operand: %w", err)
	}
	op := &operand{digest: digestOf(body)}
	if m, ref, ok := s.session.OperandByDigest(op.digest); ok {
		op.m, op.ref, op.stored = m, ref, true
		return op, nil
	}
	if op.m, err = decodeBody(body); err != nil {
		return nil, err
	}
	return op, nil
}

// reservation is what readBody reserves for a body of the given
// declared size before any byte arrives: min(size, reserveMax), and 512
// bytes when size is unknown (negative).
func reservation(size int64) int {
	if size < 0 {
		return 512
	}
	return int(min(size, reserveMax))
}

// readBody reads r to EOF into one buffer. A Content-Length only
// promises bytes — MaxBodyBytes defaults to 1 GiB — so before any
// arrive it reserves at most min(size, reserveMax), and 512 bytes when
// size is unknown. It then doubles as bytes arrive, never past size:
// an honest body ends in an exactly full buffer, a short one costs
// what it delivered plus the reservation, and a source with more
// bytes than size is an error. A spare whose capacity covers the
// reservation is read into instead, its capacity cut to size, so the
// same rules hold: the body never holds more than size bytes, and one
// that outgrows the spare moves to a new buffer. A smaller spare is
// not used.
func readBody(r io.Reader, size int64, spare []byte) ([]byte, error) {
	var buf []byte
	switch c := reservation(size); {
	case cap(spare) < c:
		buf = make([]byte, 0, c)
	case size >= 0:
		buf = spare[:0:min(int64(cap(spare)), size)]
	default:
		buf = spare[:0]
	}
	for {
		if len(buf) == cap(buf) {
			if size >= 0 && int64(len(buf)) >= size {
				// Full at the declared length: the next read must end the
				// body.
				var probe [1]byte
				n, err := r.Read(probe[:])
				switch {
				case n > 0:
					return nil, fmt.Errorf("body longer than its declared %d bytes", size)
				case err == io.EOF:
					return buf, nil
				case err != nil:
					return nil, err
				}
				continue
			}
			c := max(2*int64(cap(buf)), 512)
			if size >= 0 {
				c = min(c, size)
			}
			grown := make([]byte, len(buf), c)
			copy(grown, buf)
			buf = grown
		}
		n, err := r.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		if err == io.EOF {
			return buf, nil
		}
		if err != nil {
			return nil, err
		}
	}
}

// decodeBody decodes one operand body in either wire format, sniffing
// the leading bytes: the serial codec's "MSPG" magic or Matrix
// Market's "%%MatrixMarket" banner. Sniffing (rather than trusting
// the request Content-Type) is what makes the endpoint curl-able — a
// .mtx file and a binary dump both just work. A serial body decodes
// from a bytes.Reader, whose Len sizes every array exactly.
func decodeBody(body []byte) (*maskedspgemm.Matrix, error) {
	switch {
	case len(body) < 4:
		return nil, fmt.Errorf("serve: operand too short to sniff (%d bytes)", len(body))
	case string(body[:4]) == "MSPG":
		return serial.Read(bytes.NewReader(body))
	case body[0] == '%':
		// mtx.Read parses lines through the *bufio.Reader it is given;
		// over bytes already in memory a small one does.
		m, _, err := mtx.Read(bufio.NewReaderSize(bytes.NewReader(body), mtxLineBuffer))
		return m, err
	default:
		return nil, fmt.Errorf("serve: operand is neither MSPG binary nor Matrix Market (leading bytes %q)", body[:4])
	}
}

// mtxLineBuffer is the bufio size a Matrix Market body is parsed
// through: lines are short, and the bytes are already in memory.
const mtxLineBuffer = 4 << 10

// decodeOperands parses a multiply/warm request body. Two shapes are
// accepted:
//
//   - a raw body holding one matrix (either format): A, with
//     mask = A and B = A — the self-product every graph kernel uses;
//   - multipart/form-data with parts named "mask", "a", "b" (each in
//     either format); "a" is required, omitted "b" defaults to A,
//     omitted "mask" defaults to A's pattern.
func (s *Server) decodeOperands(r *http.Request) (*operands, error) {
	ct := r.Header.Get("Content-Type")
	mediaType, params, err := mime.ParseMediaType(ct)
	if ct != "" && err == nil && strings.HasPrefix(mediaType, "multipart/") {
		return s.decodeMultipart(multipart.NewReader(r.Body, params["boundary"]), r.ContentLength)
	}
	a, err := s.readOperand(r.Body, r.ContentLength)
	if err != nil {
		return nil, err
	}
	return &operands{a: a, b: a}, nil
}

// decodeMultipart reads the named operand parts in order. size is the
// whole body's Content-Length, which bounds every part.
func (s *Server) decodeMultipart(mr *multipart.Reader, size int64) (*operands, error) {
	var ops operands
	for {
		part, err := mr.NextPart()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("serve: bad multipart body: %w", err)
		}
		name := part.FormName()
		op, err := s.readOperand(part, size)
		part.Close()
		if err != nil {
			return nil, fmt.Errorf("serve: part %q: %w", name, err)
		}
		switch name {
		case "mask":
			ops.mask = op
		case "a":
			ops.a = op
		case "b":
			ops.b = op
		default:
			return nil, fmt.Errorf("serve: unknown operand part %q (want mask, a, b)", name)
		}
	}
	if ops.a == nil {
		return nil, fmt.Errorf("serve: multipart request is missing operand part %q", "a")
	}
	if ops.b == nil {
		ops.b = ops.a
	}
	return &ops, nil
}

// parseOptions turns query parameters into facade options. Every
// request runs the Hybrid per-row selector one-phase (DESIGN.md §10);
// the other knobs are optional. Recognized: algorithm (only "hybrid",
// any case, or absent), phases (only "1", or absent), complement
// (0|1|false|true, any case), threads (int, at most GOMAXPROCS — the
// parameter picks a width within the host's parallelism, it must not
// size allocations).
func parseOptions(r *http.Request) ([]maskedspgemm.Option, error) {
	q := r.URL.Query()
	if name := q.Get("algorithm"); name != "" && !strings.EqualFold(name, "hybrid") {
		return nil, fmt.Errorf("serve: algorithm %q is not served (this server runs hybrid only)", name)
	}
	if ph := q.Get("phases"); ph != "" && ph != "1" {
		return nil, fmt.Errorf("serve: phases=%q is not served (this server runs one-phase only)", ph)
	}
	opts := []maskedspgemm.Option{maskedspgemm.WithAlgorithm(maskedspgemm.Hybrid)}
	switch c := q.Get("complement"); strings.ToLower(c) {
	case "", "0", "false":
	case "1", "true":
		opts = append(opts, maskedspgemm.WithComplement())
	default:
		return nil, fmt.Errorf("serve: complement must be 0, 1, false or true, got %q", c)
	}
	if t := q.Get("threads"); t != "" {
		n, err := strconv.Atoi(t)
		if err != nil || n < 1 {
			return nil, fmt.Errorf("serve: threads must be a positive integer, got %q", t)
		}
		// Clamp hard: worker counts size per-thread scratch allocations
		// (scheduler state, telemetry, partition bounds), so an
		// unauthenticated ?threads=1e9 would be a one-request OOM. The
		// width is execution-only, so distinct counts share one cached
		// plan.
		if max := runtime.GOMAXPROCS(0); n > max {
			return nil, fmt.Errorf("serve: threads=%d exceeds this server's parallelism (max %d)", n, max)
		}
		opts = append(opts, maskedspgemm.WithThreads(n))
	}
	return opts, nil
}

// parseFormat validates the response format up front — before a
// request takes an execution slot — so a typo'd ?format= is a cheap
// 400, not a full multiplication thrown away.
func parseFormat(r *http.Request) (string, error) {
	switch format := r.URL.Query().Get("format"); format {
	case "", "serial", "mtx", "summary":
		return format, nil
	default:
		return "", fmt.Errorf("serve: unknown format %q (want serial, mtx, or summary)", format)
	}
}

// resultSummary is the ?format=summary response: enough to assert a
// product without shipping it — shape, nnz, and the value sum (an
// order-independent checksum; for triangle-count style requests the
// masked sum is itself the answer).
type resultSummary struct {
	// Rows and Cols are the result shape.
	Rows int `json:"rows"`
	Cols int `json:"cols"`
	// NNZ is the result's stored-entry count.
	NNZ int64 `json:"nnz"`
	// Sum is the sum of all stored values.
	Sum float64 `json:"sum"`
}

// summarize computes the ?format=summary payload for a result.
func summarize(m *maskedspgemm.Matrix) resultSummary {
	s := resultSummary{Rows: m.Rows, Cols: m.Cols, NNZ: m.NNZ()}
	for _, v := range m.Val {
		s.Sum += v
	}
	return s
}
