package serve

import (
	"bufio"
	"fmt"
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

// operands are one request's decoded matrices. Omitted operands
// default along the graph-workload diagonal: one matrix means
// C = A ⊙ (A·A) (the triangle-counting shape), mask without b means
// B = A.
type operands struct {
	mask *maskedspgemm.Pattern
	a, b *maskedspgemm.Matrix
	// maskM is the matrix the mask part decoded from, when it was a
	// distinct upload (nil when the mask defaulted to A's pattern); the
	// store-through path files it so later requests can reference the
	// mask structure by fingerprint.
	maskM *maskedspgemm.Matrix
}

// decodeMatrix reads one matrix in either wire format, sniffing the
// leading bytes: the serial codec's "MSPG" magic or Matrix Market's
// "%%MatrixMarket" banner. Sniffing (rather than trusting the request
// Content-Type) is what makes the endpoint curl-able — a .mtx file and
// a binary dump both just work.
func decodeMatrix(r io.Reader) (*maskedspgemm.Matrix, error) {
	br := bufio.NewReaderSize(r, 1<<16)
	head, err := br.Peek(4)
	if err != nil {
		return nil, fmt.Errorf("serve: operand too short to sniff: %w", err)
	}
	switch {
	case string(head) == "MSPG":
		return serial.Read(br)
	case head[0] == '%':
		m, _, err := mtx.Read(br)
		return m, err
	default:
		return nil, fmt.Errorf("serve: operand is neither MSPG binary nor Matrix Market (leading bytes %q)", head)
	}
}

// decodeOperands parses a multiply/warm request body. Two shapes are
// accepted:
//
//   - a raw body holding one matrix (either format): A, with
//     mask = A and B = A — the self-product every graph kernel uses;
//   - multipart/form-data with parts named "mask", "a", "b" (each in
//     either format); "a" is required, omitted "b" defaults to A,
//     omitted "mask" defaults to A's pattern.
func decodeOperands(r *http.Request) (*operands, error) {
	ct := r.Header.Get("Content-Type")
	mediaType, params, err := mime.ParseMediaType(ct)
	if ct != "" && err == nil && strings.HasPrefix(mediaType, "multipart/") {
		return decodeMultipart(multipart.NewReader(r.Body, params["boundary"]))
	}
	a, err := decodeMatrix(r.Body)
	if err != nil {
		return nil, err
	}
	return &operands{mask: a.PatternView(), a: a, b: a}, nil
}

// decodeMultipart reads the named operand parts in order.
func decodeMultipart(mr *multipart.Reader) (*operands, error) {
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
		m, err := decodeMatrix(part)
		part.Close()
		if err != nil {
			return nil, fmt.Errorf("serve: part %q: %w", name, err)
		}
		switch name {
		case "mask":
			ops.mask = m.PatternView()
			ops.maskM = m
		case "a":
			ops.a = m
		case "b":
			ops.b = m
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
	if ops.mask == nil {
		ops.mask = ops.a.PatternView()
	}
	return &ops, nil
}

// parseOptions turns query parameters into facade options; every knob
// is optional. Recognized: algorithm (scheme name, case-insensitive),
// phases (1|2), complement (bool), sched_stats (bool), threads (int,
// at most GOMAXPROCS — the parameter picks a width within the host's
// parallelism, it must not size allocations).
func parseOptions(r *http.Request) ([]maskedspgemm.Option, error) {
	q := r.URL.Query()
	var opts []maskedspgemm.Option
	if name := q.Get("algorithm"); name != "" {
		algo, ok := algorithmByName(name)
		if !ok {
			return nil, fmt.Errorf("serve: unknown algorithm %q (want one of %s)", name, algorithmNames())
		}
		opts = append(opts, maskedspgemm.WithAlgorithm(algo))
	}
	switch q.Get("phases") {
	case "", "1":
	case "2":
		opts = append(opts, maskedspgemm.WithTwoPhase())
	default:
		return nil, fmt.Errorf("serve: phases must be 1 or 2, got %q", q.Get("phases"))
	}
	if isTrue(q.Get("complement")) {
		opts = append(opts, maskedspgemm.WithComplement())
	}
	if isTrue(q.Get("sched_stats")) {
		opts = append(opts, maskedspgemm.WithSchedStats())
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

// isTrue parses query-parameter booleans permissively.
func isTrue(v string) bool {
	switch strings.ToLower(v) {
	case "1", "true", "yes", "on":
		return true
	}
	return false
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
