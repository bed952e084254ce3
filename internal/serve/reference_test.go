package serve

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"testing"

	maskedspgemm "maskedspgemm"
	"maskedspgemm/internal/serve/servetest"
)

// encodeValues renders a values-only delta body: raw little-endian
// float64 words.
func encodeValues(vals []float64) []byte {
	out := make([]byte, 8*len(vals))
	for i, v := range vals {
		binary.LittleEndian.PutUint64(out[8*i:], math.Float64bits(v))
	}
	return out
}

// TestServeReferenceLifecycle walks the full operand-store contract
// over the wire: PUT stores and is idempotent, multiply-by-reference
// resolves and hits the plan cache, budget pressure evicts the
// operand, the dangling reference 404s naming exactly what is
// missing, and a re-PUT heals it.
func TestServeReferenceLifecycle(t *testing.T) {
	// Budget sized to hold one working set but not the filler flood:
	// the lifecycle's eviction is forced, not simulated.
	h := servetest.Start(t, New(Config{
		SessionOptions: []maskedspgemm.SessionOption{maskedspgemm.WithMemoryBudget(64 << 10)},
	}))
	g := maskedspgemm.ErdosRenyi(128, 6, 60)
	body := servetest.EncodeSerial(t, g)

	// PUT: stored, created.
	resp := h.Put("/v1/operands", body, nil)
	if resp.Status != http.StatusOK {
		t.Fatalf("put: status %d: %s", resp.Status, resp.Body)
	}
	doc := resp.JSON(t)
	if !doc.Bool("operands.0.created") {
		t.Fatal("first PUT must report created")
	}
	ref := doc.Str("operands.0.ref")
	pattern := doc.Str("operands.0.pattern")
	if doc.Int("store.puts") != 1 || doc.Int("store.operands") != 1 {
		t.Fatalf("store after first PUT: %s", resp.Body)
	}

	// Idempotent re-PUT: cheap 200, not a second resident copy.
	doc = h.Put("/v1/operands", body, nil).JSON(t)
	if doc.Bool("operands.0.created") {
		t.Fatal("re-PUT of resident content must not report created")
	}
	if doc.Str("operands.0.ref") != ref {
		t.Fatal("re-PUT changed the content address")
	}
	if doc.Int("store.reputs") != 1 || doc.Int("store.operands") != 1 {
		t.Fatalf("store after re-PUT: %s", resp.Body)
	}

	// Multiply by reference: the body is empty, the result matches the
	// library, and the second request hits the plan the first planted.
	want, err := maskedspgemm.Multiply(g.PatternView(), g, g)
	if err != nil {
		t.Fatal(err)
	}
	wantSum := summarize(want)
	for round, wantHits := range []int64{0, 1} {
		resp = h.Post("/v1/multiply?a="+ref+"&format=summary", nil, nil)
		if resp.Status != http.StatusOK {
			t.Fatalf("by-ref round %d: status %d: %s", round, resp.Status, resp.Body)
		}
		var sum resultSummary
		if err := json.Unmarshal(resp.Body, &sum); err != nil {
			t.Fatal(err)
		}
		if sum != wantSum {
			t.Fatalf("by-ref round %d: summary %+v, want %+v", round, sum, wantSum)
		}
		stats := h.Get("/stats").JSON(t)
		if got := stats.Int("session.cache.hits"); got != wantHits {
			t.Fatalf("by-ref round %d: cache hits = %d, want %d", round, got, wantHits)
		}
		if got := stats.Int("session.cache.misses"); got != 1 {
			t.Fatalf("by-ref round %d: cache misses = %d, want 1", round, got)
		}
	}

	// Flood the budget with distinct structures: the shared budget
	// rebalances by global LRU, so the oldest content — g — is evicted.
	for seed := uint64(70); seed < 78; seed++ {
		filler := servetest.EncodeSerial(t, maskedspgemm.ErdosRenyi(128, 6, seed))
		if resp := h.Put("/v1/operands", filler, nil); resp.Status != http.StatusOK {
			t.Fatalf("filler put: status %d: %s", resp.Status, resp.Body)
		}
	}
	stats := h.Get("/stats").JSON(t)
	if stats.Int("session.store.evictions") == 0 {
		t.Fatalf("filler flood did not force eviction: %s", h.Get("/stats").Body)
	}
	if used, max := stats.Int("session.budget.used_bytes"), stats.Int("session.budget.max_bytes"); used > max {
		t.Fatalf("budget over its ceiling after rebalance: used %d > max %d", used, max)
	}

	// The dangling reference is a 404 that names the missing operands —
	// the self-mask default means both the mask structure and A.
	resp = h.Post("/v1/multiply?a="+ref+"&format=summary", nil, nil)
	if resp.Status != http.StatusNotFound {
		t.Fatalf("dangling ref: status %d, want 404: %s", resp.Status, resp.Body)
	}
	doc = resp.JSON(t)
	found := false
	for i := 0; i < doc.Len("missing"); i++ {
		p := fmt.Sprintf("missing.%d", i)
		if doc.Str(p+".operand") == "a" {
			found = true
			if got := doc.Str(p+".pattern") + ":" + doc.Str(p+".values"); got != ref {
				t.Fatalf("404 names %q, want the dangling ref %q", got, ref)
			}
		}
	}
	if !found {
		t.Fatalf("404 did not name operand a: %s", resp.Body)
	}

	// Re-PUT heals: the same bytes land under the same address and the
	// reference works again.
	doc = h.Put("/v1/operands", body, nil).JSON(t)
	if !doc.Bool("operands.0.created") || doc.Str("operands.0.ref") != ref {
		t.Fatalf("healing re-PUT: %s", resp.Body)
	}
	resp = h.Post("/v1/multiply?a="+ref+"&format=summary", nil, nil)
	if resp.Status != http.StatusOK {
		t.Fatalf("healed by-ref: status %d: %s", resp.Status, resp.Body)
	}
	_ = pattern
}

// TestServeValuesDelta pins the iterative-workload fast path: a
// values-only upload re-keys fresh numbers under the resident
// structure, and because the structure (hence every plan key) is
// unchanged, the multiply through the new reference is a guaranteed
// plan-cache hit — Hits increments, Misses does not.
func TestServeValuesDelta(t *testing.T) {
	h := servetest.Start(t, New(Config{}))
	g := maskedspgemm.ErdosRenyi(96, 6, 62)

	doc := h.Put("/v1/operands", servetest.EncodeSerial(t, g), nil).JSON(t)
	ref := doc.Str("operands.0.ref")
	pattern := doc.Str("operands.0.pattern")

	// Plant the plan through the original reference.
	resp := h.Post("/v1/multiply?a="+ref+"&format=summary", nil, nil)
	if resp.Status != http.StatusOK {
		t.Fatalf("initial by-ref: status %d: %s", resp.Status, resp.Body)
	}
	var base resultSummary
	if err := json.Unmarshal(resp.Body, &base); err != nil {
		t.Fatal(err)
	}
	before := h.Get("/stats").JSON(t)
	misses := before.Int("session.cache.misses")
	hits := before.Int("session.cache.hits")

	// Values delta: the same structure, every value doubled.
	scaled := make([]float64, len(g.Val))
	for i, v := range g.Val {
		scaled[i] = 2 * v
	}
	resp = h.Put("/v1/operands?values_for="+pattern, encodeValues(scaled), nil)
	if resp.Status != http.StatusOK {
		t.Fatalf("values delta: status %d: %s", resp.Status, resp.Body)
	}
	doc = resp.JSON(t)
	if !doc.Bool("operands.0.created") {
		t.Fatal("fresh values must report created")
	}
	if doc.Str("operands.0.pattern") != pattern {
		t.Fatal("values delta changed the structure fingerprint")
	}
	ref2 := doc.Str("operands.0.ref")
	if ref2 == ref {
		t.Fatal("doubled values landed under the original reference")
	}

	// The multiply through the delta'd reference: correct numbers
	// (doubling A scales A·A by exactly 4) and a plan-cache hit.
	resp = h.Post("/v1/multiply?a="+ref2+"&format=summary", nil, nil)
	if resp.Status != http.StatusOK {
		t.Fatalf("delta by-ref: status %d: %s", resp.Status, resp.Body)
	}
	var got resultSummary
	if err := json.Unmarshal(resp.Body, &got); err != nil {
		t.Fatal(err)
	}
	if got.NNZ != base.NNZ || got.Sum != 4*base.Sum {
		t.Fatalf("delta summary %+v, want nnz %d and sum %g (4× the base)", got, base.NNZ, 4*base.Sum)
	}
	after := h.Get("/stats").JSON(t)
	if got := after.Int("session.cache.misses"); got != misses {
		t.Fatalf("cache misses went %d → %d; the values delta must not re-plan", misses, got)
	}
	if got := after.Int("session.cache.hits"); got != hits+1 {
		t.Fatalf("cache hits went %d → %d, want %d (delta multiply must hit)", hits, got, hits+1)
	}

	// A delta against a structure that was never uploaded is a 404
	// naming the pattern; a wrong-length delta is a 422.
	resp = h.Put("/v1/operands?values_for=00000000deadbeef", encodeValues(scaled), nil)
	if resp.Status != http.StatusNotFound {
		t.Fatalf("delta for unknown pattern: status %d, want 404: %s", resp.Status, resp.Body)
	}
	if doc := resp.JSON(t); doc.Str("missing.0.pattern") != "00000000deadbeef" {
		t.Fatalf("unknown-pattern 404 names %q", doc.Str("missing.0.pattern"))
	}
	resp = h.Put("/v1/operands?values_for="+pattern, encodeValues(scaled[:len(scaled)-1]), nil)
	if resp.Status != http.StatusUnprocessableEntity {
		t.Fatalf("wrong-length delta: status %d, want 422: %s", resp.Status, resp.Body)
	}
}

// TestServeValuesBodyFraming pins the values-only delta's framing: a
// body that is empty or ends inside a float64 word is a 400, even
// against a resident structure, and nothing is stored for it.
func TestServeValuesBodyFraming(t *testing.T) {
	h := servetest.Start(t, New(Config{}))
	g := maskedspgemm.ErdosRenyi(64, 4, 63)
	pattern := h.Put("/v1/operands", servetest.EncodeSerial(t, g), nil).JSON(t).Str("operands.0.pattern")
	whole := encodeValues(g.Val)
	for name, body := range map[string][]byte{
		"empty":        nil,
		"8k+3 bytes":   whole[:8*5+3],
		"one byte off": whole[:len(whole)-1],
	} {
		resp := h.Put("/v1/operands?values_for="+pattern, body, nil)
		if resp.Status != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400: %s", name, resp.Status, resp.Body)
		}
	}
	if puts := h.Get("/stats").JSON(t).Int("session.store.puts"); puts != 1 {
		t.Errorf("store puts = %d after rejected deltas, want 1 (the full upload)", puts)
	}
	if resp := h.Put("/v1/operands?values_for="+pattern, whole, nil); resp.Status != http.StatusOK {
		t.Fatalf("whole delta: status %d: %s", resp.Status, resp.Body)
	}
}

// TestServeReferenceWireBytes is the transfer-size acceptance pin: on
// the triangle-counting workload shape (the k-truss example's inner
// loop — self-masked A·A over a fixed graph), a by-reference multiply
// of warm operands must put less than 1% of the inline request's bytes
// on the wire. Both request sizes are measured on a raw socket, so the
// ratio is wire truth, not client-library accounting.
func TestServeReferenceWireBytes(t *testing.T) {
	h := servetest.Start(t, New(Config{}))
	g := maskedspgemm.ErdosRenyi(512, 8, 61)
	body := servetest.EncodeSerial(t, g)

	// Inline request: the operand rides the body; the response's
	// X-Operand-* headers hand back the references store-through filed.
	inlineBytes, resp := h.RawRequest(http.MethodPost, "/v1/multiply?format=summary", nil, body)
	if resp.Status != http.StatusOK {
		t.Fatalf("inline multiply: status %d: %s", resp.Status, resp.Body)
	}
	aRef := resp.Header.Get("X-Operand-A")
	if aRef == "" || resp.Header.Get("X-Operand-Mask") == "" || resp.Header.Get("X-Operand-B") == "" {
		t.Fatalf("inline multiply missing X-Operand-* headers: %v", resp.Header)
	}

	// Reference request: the envelope is the entire transfer.
	refBytes, resp := h.RawRequest(http.MethodPost, "/v1/multiply?format=summary&a="+aRef, nil, nil)
	if resp.Status != http.StatusOK {
		t.Fatalf("by-ref multiply: status %d: %s", resp.Status, resp.Body)
	}
	if 100*refBytes >= inlineBytes {
		t.Fatalf("reference request is %d bytes vs %d inline — not under 1%%", refBytes, inlineBytes)
	}

	// Warm-path guarantees: the by-ref request hit the plan the inline
	// request planted, and resolved its operand from the store.
	stats := h.Get("/stats").JSON(t)
	if got := stats.Int("session.cache.hits"); got < 1 {
		t.Fatalf("by-ref multiply missed the plan cache: hits = %d", got)
	}
	if got := stats.Int("session.cache.misses"); got != 1 {
		t.Fatalf("cache misses = %d, want only the inline request's plan", got)
	}
	if got := stats.Int("session.store.hits"); got < 1 {
		t.Fatalf("store hits = %d, want the by-ref resolution", got)
	}
	t.Logf("inline %d bytes, by-ref %d bytes (%.3f%%)", inlineBytes, refBytes, 100*float64(refBytes)/float64(inlineBytes))
}

// TestServePatternMaskOnOnesSlab pins the unit-values path over the
// wire: a Matrix Market pattern file decodes to unit values, so its
// upload is filed on the store's ones slab (store.unit_bytes is its
// nnz words, store.bytes charges no values for it), and a multiply
// masked by its ref matches the library's product.
func TestServePatternMaskOnOnesSlab(t *testing.T) {
	h := servetest.Start(t, New(Config{}))
	g := maskedspgemm.ErdosRenyi(64, 4, 80)
	mask := maskedspgemm.ErdosRenyi(64, 6, 81).PatternView()
	var mtx bytes.Buffer
	fmt.Fprintf(&mtx, "%%%%MatrixMarket matrix coordinate pattern general\n%d %d %d\n", mask.Rows, mask.Cols, mask.NNZ())
	for i := range mask.Rows {
		for _, j := range mask.ColIdx[mask.RowPtr[i]:mask.RowPtr[i+1]] {
			fmt.Fprintf(&mtx, "%d %d\n", i+1, j+1)
		}
	}
	doc := h.Put("/v1/operands", mtx.Bytes(), nil).JSON(t)
	maskFP := doc.Str("operands.0.pattern")
	if got, want := doc.Int("store.unit_bytes"), 8*mask.NNZ(); got != want {
		t.Fatalf("store.unit_bytes = %d after a pattern upload, want its %d words", got, want)
	}
	ref := h.Put("/v1/operands", servetest.EncodeSerial(t, g), nil).JSON(t).Str("operands.0.ref")
	resp := h.Post("/v1/multiply?a="+ref+"&mask="+maskFP+"&format=summary", nil, nil)
	if resp.Status != http.StatusOK {
		t.Fatalf("masked by ref: status %d: %s", resp.Status, resp.Body)
	}
	want, err := maskedspgemm.Multiply(mask, g, g)
	if err != nil {
		t.Fatal(err)
	}
	var sum resultSummary
	if err := json.Unmarshal(resp.Body, &sum); err != nil {
		t.Fatal(err)
	}
	if sum != summarize(want) {
		t.Fatalf("summary %+v, want %+v", sum, summarize(want))
	}
}
