package serve

import (
	"bytes"
	"encoding/binary"
	"math"
	"mime/multipart"
	"net/http"
	"runtime"
	"slices"
	"strings"
	"testing"

	maskedspgemm "maskedspgemm"
	"maskedspgemm/internal/serve/servetest"
)

// fuzzSeeds are the corpus of body prefixes the sniffing codec must
// survive: both wire-format magics (whole and truncated), near-misses,
// and plain junk. Valid bodies are appended by the fuzz targets.
func fuzzSeeds() [][]byte {
	return [][]byte{
		[]byte("MSPG"),
		[]byte("MSPG\x01\x00\x00\x00"),
		[]byte("MSP"),
		[]byte("MSPX full of garbage"),
		[]byte("%%MatrixMarket matrix coordinate real general\n3 3 2\n1 1 1.0\n2 2 2.0\n"),
		[]byte("%%MatrixMarket matrix coordinate real general\n"),
		[]byte("%% almost a banner"),
		[]byte("%"),
		[]byte("junk body"),
		{},
		{0x00, 0xff, 0x00, 0xff},
	}
}

// fuzzStatusOK reports whether a decode failure mapped to a status the
// codec contract allows: client errors only — a malformed body must
// never surface as a 5xx.
func fuzzStatusOK(status int) bool {
	switch status {
	case http.StatusBadRequest, http.StatusRequestTimeout, http.StatusRequestEntityTooLarge:
		return true
	}
	return false
}

// readBytes runs body through srv's operand reader as a request with
// an honest Content-Length delivers it.
func readBytes(srv *Server, body []byte) (*operand, error) {
	return srv.readOperand(bytes.NewReader(body), int64(len(body)))
}

// sameBits reports whether two matrices hold bit-identical shapes,
// structures and value words.
func sameBits(x, y *maskedspgemm.Matrix) bool {
	if x.Rows != y.Rows || x.Cols != y.Cols || !slices.Equal(x.RowPtr, y.RowPtr) ||
		!slices.Equal(x.ColIdx, y.ColIdx) || len(x.Val) != len(y.Val) {
		return false
	}
	for i, v := range x.Val {
		if math.Float64bits(v) != math.Float64bits(y.Val[i]) {
			return false
		}
	}
	return true
}

// FuzzDecodeMatrix drives the operand reader with arbitrary prefixes:
// it must never panic, and every failure must map to a client-error
// status. A body that decodes is then filed with its digest, and the
// same bytes read again must hit the resident operand and be
// bit-identical to what the decode produced.
func FuzzDecodeMatrix(f *testing.F) {
	for _, seed := range fuzzSeeds() {
		f.Add(seed)
	}
	f.Add(servetest.EncodeSerial(f, maskedspgemm.ErdosRenyi(16, 3, 1)))
	f.Add(servetest.EncodeMTX(f, maskedspgemm.ErdosRenyi(16, 3, 2)))
	srv := New(Config{})
	f.Fuzz(func(t *testing.T, data []byte) {
		op, err := readBytes(srv, data)
		if err != nil {
			if status := operandStatus(err, nil); !fuzzStatusOK(status) {
				t.Fatalf("decode error mapped to status %d: %v", status, err)
			}
			return
		}
		if op.m == nil {
			t.Fatal("nil matrix without an error")
		}
		decoded := op.m
		srv.fileOperand(op)
		again, err := readBytes(srv, data)
		if err != nil {
			t.Fatalf("resident body failed on re-read: %v", err)
		}
		if !again.stored || again.ref != op.ref {
			t.Fatalf("re-read of a filed body: stored=%v ref=%v, want the digest hit on %v", again.stored, again.ref, op.ref)
		}
		if !sameBits(again.m, decoded) {
			t.Fatal("digest hit differs from the decoded body")
		}
	})
}

// FuzzDecodeOperands drives the full request decoder — content-type
// dispatch included, so the multipart path is in scope — with
// arbitrary bodies and content types. Same contract: no panic, client
// errors only.
func FuzzDecodeOperands(f *testing.F) {
	for _, seed := range fuzzSeeds() {
		f.Add("", seed)
	}
	serialBody := servetest.EncodeSerial(f, maskedspgemm.ErdosRenyi(16, 3, 3))
	f.Add("application/x-mspgemm", serialBody)

	var mbody bytes.Buffer
	mw := multipart.NewWriter(&mbody)
	fw, err := mw.CreateFormField("a")
	if err != nil {
		f.Fatal(err)
	}
	if _, err := fw.Write(serialBody); err != nil {
		f.Fatal(err)
	}
	mw.Close()
	f.Add(mw.FormDataContentType(), mbody.Bytes())
	f.Add(mw.FormDataContentType(), []byte("--not-the-boundary\r\njunk"))
	f.Add("multipart/form-data", []byte("missing boundary parameter"))
	f.Add("multipart/form-data; boundary=x", []byte("--x\r\nContent-Disposition: form-data; name=\"q\"\r\n\r\nMSPG\r\n--x--\r\n"))

	srv := New(Config{})
	f.Fuzz(func(t *testing.T, contentType string, data []byte) {
		req, err := http.NewRequest(http.MethodPost, "/v1/multiply", bytes.NewReader(data))
		if err != nil {
			t.Skip()
		}
		if contentType != "" {
			req.Header.Set("Content-Type", contentType)
		}
		ops, err := srv.decodeOperands(req)
		if err != nil {
			if status := operandStatus(err, nil); !fuzzStatusOK(status) {
				t.Fatalf("decode error mapped to status %d: %v", status, err)
			}
			return
		}
		if ops.a == nil || ops.b == nil || ops.maskPattern() == nil {
			t.Fatalf("decoded operands with a hole: %+v", ops)
		}
	})
}

// FuzzDecodeUploads covers the PUT /v1/operands decoder the same way:
// any-name multipart parts and raw bodies, never a panic, client
// errors only.
func FuzzDecodeUploads(f *testing.F) {
	for _, seed := range fuzzSeeds() {
		f.Add("", seed)
	}
	f.Add("", servetest.EncodeMTX(f, maskedspgemm.ErdosRenyi(16, 3, 4)))
	srv := New(Config{})
	f.Fuzz(func(t *testing.T, contentType string, data []byte) {
		req, err := http.NewRequest(http.MethodPut, "/v1/operands", bytes.NewReader(data))
		if err != nil {
			t.Skip()
		}
		if contentType != "" {
			req.Header.Set("Content-Type", contentType)
		}
		ups, err := srv.decodeUploads(req)
		if err != nil {
			if status := operandStatus(err, nil); !fuzzStatusOK(status) {
				t.Fatalf("decode error mapped to status %d: %v", status, err)
			}
			return
		}
		for _, up := range ups {
			if up.op == nil || up.op.m == nil {
				t.Fatal("nil upload without an error")
			}
		}
	})
}

// TestDecodeMatrixTruncations replays every prefix of a valid body
// through the decoder — the systematic version of what fuzzing samples:
// truncation at any byte is a clean client error, not a panic and not
// a phantom success.
func TestDecodeMatrixTruncations(t *testing.T) {
	srv := New(Config{})
	for name, body := range map[string][]byte{
		"serial": servetest.EncodeSerial(t, maskedspgemm.ErdosRenyi(24, 4, 5)),
		"mtx":    servetest.EncodeMTX(t, maskedspgemm.ErdosRenyi(24, 4, 5)),
	} {
		for cut := 0; cut < len(body); cut++ {
			op, err := readBytes(srv, body[:cut])
			if err == nil {
				// Matrix Market tolerates a truncated final line only when
				// the entry count still matches; anything the decoder
				// accepts must at least be a well-formed matrix.
				if op.m == nil {
					t.Fatalf("%s cut at %d: nil matrix without error", name, cut)
				}
				continue
			}
			if status := operandStatus(err, nil); !fuzzStatusOK(status) {
				t.Fatalf("%s cut at %d: status %d: %v", name, cut, status, err)
			}
		}
	}
}

// TestDecodeMatrixOversizedHeader pins the decoder against a header
// that promises absurd sizes, sent with an honest Content-Length: the
// serial reader must refuse declared dimensions it cannot hold rather
// than attempt the allocation, and a plausible-looking one the body
// cannot back must fail as the short read it is after allocating only
// what arrived. TestServeLyingContentLength covers the lying length.
func TestDecodeMatrixOversizedHeader(t *testing.T) {
	srv := New(Config{})
	header := func(dim uint64, payload int) []byte {
		body := []byte("MSPG\x01\x00\x00\x00")
		for range 3 {
			body = binary.LittleEndian.AppendUint64(body, dim)
		}
		return append(body, make([]byte, payload)...)
	}
	for _, c := range []struct {
		name string
		body []byte
		want string
	}{
		// Past the 2^40 sanity bound: rejected from the header alone.
		{"2^60 header", header(1<<60, 0), "implausible header"},
		// Within the bound, 48 bytes in all: fails on the missing
		// row pointers.
		{"2^39 header", header(1<<39, 16), "short rowptr"},
	} {
		var op *operand
		var err error
		alloc := allocBytesPerCall(func() { op, err = readBytes(srv, c.body) })
		if err == nil {
			t.Fatalf("%s: decoded into %v", c.name, op.m)
		}
		if !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: err = %v, want %q", c.name, err, c.want)
		}
		if status := operandStatus(err, nil); status != http.StatusBadRequest {
			t.Fatalf("%s: status %d, want 400", c.name, status)
		}
		if limit := uint64(256 << 10); alloc > limit {
			t.Errorf("%s: %d bytes allocated per decode, want < %d", c.name, alloc, limit)
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

// TestDecodeMatrixAllocatesOneBuffer bounds what one small operand
// costs to read and decode in each wire format when its digest misses:
// the operand reader's one body buffer, sized exactly by the
// Content-Length, then the decode from it. The serial reader adds its
// one 64 KiB chunk and arrays sized exactly from the buffer's length;
// the Matrix Market parser reads through a 4 KiB bufio.Reader over
// the buffer. Each format's own arrays and parsed lines fit in the
// remaining slack.
func TestDecodeMatrixAllocatesOneBuffer(t *testing.T) {
	srv := New(Config{})
	g := maskedspgemm.ErdosRenyi(24, 4, 5)
	for _, c := range []struct {
		name  string
		body  []byte
		limit uint64
	}{
		{"serial", servetest.EncodeSerial(t, g), 1<<16 + 8<<10},
		{"mtx", servetest.EncodeMTX(t, g), 24 << 10},
	} {
		alloc := allocBytesPerCall(func() {
			if _, err := readBytes(srv, c.body); err != nil {
				t.Fatalf("%s: %v", c.name, err)
			}
		})
		if alloc > c.limit {
			t.Errorf("%s: %d bytes allocated per decode of a %d-byte body, want ≤ %d", c.name, alloc, len(c.body), c.limit)
		}
	}
}
