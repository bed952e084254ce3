package serve

import (
	"bytes"
	"io"
	"math"
	"net/http"
	"testing"

	maskedspgemm "maskedspgemm"
	"maskedspgemm/internal/gen"
	"maskedspgemm/internal/serial"
	"maskedspgemm/internal/serve/servetest"
	"maskedspgemm/internal/sparse"
)

// checkProduct decodes a serial multiply response and compares it with
// the unmasked-multiply-then-filter oracle for mask ⊙ (a·b).
func checkProduct(t *testing.T, resp servetest.Response, mask *maskedspgemm.Pattern, a, b *maskedspgemm.Matrix) {
	t.Helper()
	if resp.Status != http.StatusOK {
		t.Fatalf("multiply: status %d: %s", resp.Status, resp.Body)
	}
	got, err := serial.Read(bytes.NewReader(resp.Body))
	if err != nil {
		t.Fatal(err)
	}
	want, err := maskedspgemm.Multiply(mask, a, b, maskedspgemm.WithAlgorithm(maskedspgemm.SaxpyThenMask))
	if err != nil {
		t.Fatal(err)
	}
	near := func(x, y float64) bool { return math.Abs(x-y) <= 1e-12*math.Max(1, math.Abs(y)) }
	if !sparse.EqualFunc(got, want, near) {
		t.Fatal("product differs from the oracle")
	}
}

// storeCounters reads the store block of /stats.
func storeCounters(t *testing.T, h *servetest.Server) maskedspgemm.StoreStats {
	t.Helper()
	return getStats(t, h).Session.Store
}

// TestServeDigestHitsOnlyIdenticalBytes pins when a body is served
// from the resident operand: the same bytes hit (no second entry, one
// body hit, one reput, the same refs); a body differing in a single
// value byte misses, decodes, and files a new entry whose product is
// its own.
func TestServeDigestHitsOnlyIdenticalBytes(t *testing.T) {
	h := servetest.Start(t, New(Config{}))
	g := maskedspgemm.ErdosRenyi(96, 6, 81)
	body := servetest.EncodeSerial(t, g)

	first := h.Post("/v1/multiply", body, nil)
	checkProduct(t, first, g.PatternView(), g, g)
	if st := storeCounters(t, h); st.BodyHits != 0 || st.Puts != 1 {
		t.Fatalf("after the first body: %+v, want one put and no body hit", st)
	}
	second := h.Post("/v1/multiply", body, nil)
	checkProduct(t, second, g.PatternView(), g, g)
	if st := storeCounters(t, h); st.BodyHits != 1 || st.Reputs != 1 || st.Puts != 1 || st.Operands != 1 {
		t.Fatalf("after the same body again: %+v, want one body hit counted as a reput", st)
	}
	for _, hdr := range []string{"X-Operand-Mask", "X-Operand-A", "X-Operand-B"} {
		if a, b := first.Header.Get(hdr), second.Header.Get(hdr); a == "" || a != b {
			t.Fatalf("%s: %q on the decode, %q on the hit", hdr, a, b)
		}
	}

	// Flip one byte of the last value's lowest mantissa byte.
	flipped := bytes.Clone(body)
	flipped[len(flipped)-8] ^= 1
	fm, err := serial.Read(bytes.NewReader(flipped))
	if err != nil {
		t.Fatal(err)
	}
	third := h.Post("/v1/multiply", flipped, nil)
	checkProduct(t, third, fm.PatternView(), fm, fm)
	if st := storeCounters(t, h); st.BodyHits != 1 || st.Puts != 2 || st.Operands != 2 {
		t.Fatalf("after a one-byte change: %+v, want a miss filing a second entry", st)
	}
	if third.Header.Get("X-Operand-A") == first.Header.Get("X-Operand-A") {
		t.Fatal("a changed value kept the old content address")
	}
	checkProduct(t, h.Post("/v1/multiply", flipped, nil), fm.PatternView(), fm, fm)
	checkProduct(t, h.Post("/v1/multiply", body, nil), g.PatternView(), g, g)
	if st := storeCounters(t, h); st.BodyHits != 3 || st.Puts != 2 {
		t.Fatalf("after both bodies again: %+v, want each to hit its own entry", st)
	}
}

// TestServeDigestEncodingsShareEntry sends one matrix in both wire
// formats: the Matrix Market body decodes to the content the serial
// body filed, so it re-puts that entry and files its own digest there.
// From then on either encoding hits the one entry.
func TestServeDigestEncodingsShareEntry(t *testing.T) {
	h := servetest.Start(t, New(Config{}))
	g := maskedspgemm.ErdosRenyi(80, 5, 82)
	ser, mtxBody := servetest.EncodeSerial(t, g), servetest.EncodeMTX(t, g)

	refs := map[string]bool{}
	for i, body := range [][]byte{ser, mtxBody, mtxBody, ser} {
		resp := h.Post("/v1/multiply", body, nil)
		checkProduct(t, resp, g.PatternView(), g, g)
		refs[resp.Header.Get("X-Operand-A")] = true
		st := storeCounters(t, h)
		if st.Operands != 1 || st.Puts != 1 {
			t.Fatalf("request %d: %+v, want one entry for both encodings", i, st)
		}
		if want := []uint64{0, 0, 1, 2}[i]; st.BodyHits != want {
			t.Fatalf("request %d: %d body hits, want %d", i, st.BodyHits, want)
		}
	}
	if len(refs) != 1 {
		t.Fatalf("the two encodings answered refs %v, want one", refs)
	}
}

// TestServeDigestEvictionDecodes pins that a digest leaves with its
// entry: under a tiny budget, once the operand is evicted the same
// bytes decode again (a correct product, a new put) and hit after
// being filed anew.
func TestServeDigestEvictionDecodes(t *testing.T) {
	h := servetest.Start(t, New(Config{
		SessionOptions: []maskedspgemm.SessionOption{maskedspgemm.WithMemoryBudget(64 << 10)},
	}))
	g := maskedspgemm.ErdosRenyi(128, 6, 83)
	body := servetest.EncodeSerial(t, g)
	for range 2 {
		checkProduct(t, h.Post("/v1/multiply", body, nil), g.PatternView(), g, g)
	}
	if st := storeCounters(t, h); st.BodyHits != 1 {
		t.Fatalf("before eviction: %+v, want one body hit", st)
	}
	for seed := uint64(90); seed < 98; seed++ {
		filler := servetest.EncodeSerial(t, maskedspgemm.ErdosRenyi(128, 6, seed))
		if resp := h.Put("/v1/operands", filler, nil); resp.Status != http.StatusOK {
			t.Fatalf("filler put: status %d: %s", resp.Status, resp.Body)
		}
	}
	before := storeCounters(t, h)
	if before.Evictions == 0 {
		t.Fatalf("filler flood did not evict: %+v", before)
	}
	checkProduct(t, h.Post("/v1/multiply", body, nil), g.PatternView(), g, g)
	after := storeCounters(t, h)
	if after.BodyHits != before.BodyHits || after.Puts != before.Puts+1 {
		t.Fatalf("evicted body: %+v after %+v, want a decode and a fresh put", after, before)
	}
	checkProduct(t, h.Post("/v1/multiply", body, nil), g.PatternView(), g, g)
	if st := storeCounters(t, h); st.BodyHits != after.BodyHits+1 {
		t.Fatalf("re-filed body: %+v, want it to hit again", st)
	}
}

// TestServeDigestSharedAcrossEndpoints pins that raw bodies, multipart
// parts and /v1/operands uploads read through one reader and one
// digest table: bytes filed by any of them hit from every other.
func TestServeDigestSharedAcrossEndpoints(t *testing.T) {
	h := servetest.Start(t, New(Config{}))
	g := maskedspgemm.ErdosRenyi(96, 6, 84)
	m := maskedspgemm.ErdosRenyi(96, 4, 85)
	gBody, mBody, mMTX := servetest.EncodeSerial(t, g), servetest.EncodeSerial(t, m), servetest.EncodeMTX(t, m)

	resp := h.Put("/v1/operands", gBody, nil)
	if resp.Status != http.StatusOK || !resp.JSON(t).Bool("operands.0.created") {
		t.Fatalf("upload: status %d: %s", resp.Status, resp.Body)
	}
	checkProduct(t, h.Post("/v1/multiply", gBody, nil), g.PatternView(), g, g)
	if st := storeCounters(t, h); st.BodyHits != 1 {
		t.Fatalf("inline body after its upload: %+v, want a body hit", st)
	}

	multi, ctype := servetest.Multipart(t,
		servetest.Part{Name: "mask", Data: mMTX},
		servetest.Part{Name: "a", Data: gBody},
		servetest.Part{Name: "b", Data: mBody},
	)
	hdr := map[string]string{"Content-Type": ctype}
	checkProduct(t, h.Post("/v1/multiply", multi, hdr), m.PatternView(), g, m)
	if st := storeCounters(t, h); st.BodyHits != 2 || st.Operands != 2 {
		t.Fatalf("multipart: %+v, want part a to hit and m to be filed once", st)
	}
	checkProduct(t, h.Post("/v1/multiply", multi, hdr), m.PatternView(), g, m)
	if st := storeCounters(t, h); st.BodyHits != 5 {
		t.Fatalf("multipart again: %+v, want all three parts to hit", st)
	}

	up, upType := servetest.Multipart(t,
		servetest.Part{Name: "x", Data: mBody},
		servetest.Part{Name: "y", Data: gBody},
	)
	doc := h.Put("/v1/operands", up, map[string]string{"Content-Type": upType}).JSON(t)
	if doc.Bool("operands.0.created") || doc.Bool("operands.1.created") {
		t.Fatal("uploads of resident bodies reported created")
	}
	if st := storeCounters(t, h); st.BodyHits != 7 || st.Puts != 2 {
		t.Fatalf("multipart upload: %+v, want both parts to hit", st)
	}
	if resp := h.Post("/v1/warm", gBody, nil); resp.Status != http.StatusOK {
		t.Fatalf("warm: status %d: %s", resp.Status, resp.Body)
	}
	if st := storeCounters(t, h); st.BodyHits != 8 {
		t.Fatalf("warm: %+v, want its body to hit", st)
	}
}

// TestReadBodySizing pins the operand reader's buffer policy: an
// honest length fills exactly, a short body keeps what arrived within
// the 1 MiB reservation, an unknown length grows from a small start,
// and a source longer than it declared is refused. A spare that covers
// the reservation is read into, its capacity cut to the declared size;
// a smaller one is not used.
func TestReadBodySizing(t *testing.T) {
	data := bytes.Repeat([]byte("0123456789abcdef"), 1<<17) // 2 MiB
	for _, c := range []struct {
		name    string
		n       int
		size    int64
		spare   int // the spare's capacity; 0 reads without one
		wantCap int
		inSpare bool
	}{
		{"honest", len(data), int64(len(data)), 0, len(data), false},
		{"honest small", 100, 100, 0, 100, false},
		{"short body", 48, 64 << 20, 0, reserveMax, false},
		{"unknown", len(data), -1, 0, -1, false},
		{"empty", 0, 0, 0, 0, false},
		{"spare larger than size", 100, 100, 4096, 100, true},
		{"spare covers the reservation, short body", 48, 64 << 20, reserveMax + 5, reserveMax + 5, true},
		{"spare under the reservation", 100, 100, 99, 100, false},
		{"spare outgrown", len(data), -1, 4096, -1, false},
	} {
		spare := make([]byte, c.spare)
		// A reader that hides its length, as a request body does.
		r := struct{ io.Reader }{bytes.NewReader(data[:c.n])}
		got, err := readBody(r, c.size, spare)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if !bytes.Equal(got, data[:c.n]) {
			t.Fatalf("%s: read %d bytes, want the %d sent", c.name, len(got), c.n)
		}
		if c.wantCap >= 0 && cap(got) != c.wantCap {
			t.Errorf("%s: buffer capacity %d, want %d", c.name, cap(got), c.wantCap)
		}
		if c.size >= 0 && int64(cap(got)) > c.size {
			t.Errorf("%s: buffer capacity %d exceeds the declared %d bytes", c.name, cap(got), c.size)
		}
		if in := c.n > 0 && c.spare > 0 && &got[0] == &spare[:1][0]; in != c.inSpare {
			t.Errorf("%s: read into the spare = %v, want %v", c.name, in, c.inSpare)
		}
	}
	for _, spare := range [][]byte{nil, make([]byte, 4096)} {
		if _, err := readBody(bytes.NewReader(data[:300]), 100, spare); err == nil {
			t.Fatalf("a source longer than its declared length was accepted (spare capacity %d)", cap(spare))
		}
	}
}

// BenchmarkDecodeOperands reads er-warm-inline's operand (symmetrised
// ER 2¹¹, degree 8: a 408 KB MSPG body) as a handler receives it:
// behind MaxBytesReader, with a Content-Length and no Len. The hit arm
// finds it resident by digest; the miss arm decodes it every time.
func BenchmarkDecodeOperands(b *testing.B) {
	g := gen.Symmetrize(gen.ErdosRenyi(1<<11, 8, 1))
	body := servetest.EncodeSerial(b, g)
	request := func() *http.Request {
		req, err := http.NewRequest(http.MethodPost, "/v1/multiply", nil)
		if err != nil {
			b.Fatal(err)
		}
		req.Body = http.MaxBytesReader(nil, io.NopCloser(struct{ io.Reader }{bytes.NewReader(body)}), 1<<30)
		req.ContentLength = int64(len(body))
		return req
	}
	for _, arm := range []struct {
		name     string
		resident bool
	}{{"hit", true}, {"miss", false}} {
		b.Run(arm.name, func(b *testing.B) {
			srv := New(Config{})
			if arm.resident {
				ops, err := srv.decodeOperands(request())
				if err != nil {
					b.Fatal(err)
				}
				srv.fileOperand(ops.a)
			}
			b.SetBytes(int64(len(body)))
			b.ReportAllocs()
			b.ResetTimer()
			for range b.N {
				ops, err := srv.decodeOperands(request())
				if err != nil {
					b.Fatal(err)
				}
				if ops.a.stored != arm.resident {
					b.Fatalf("resident = %v, want %v", ops.a.stored, arm.resident)
				}
			}
		})
	}
}
