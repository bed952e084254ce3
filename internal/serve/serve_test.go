package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/url"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	maskedspgemm "maskedspgemm"
	"maskedspgemm/internal/mtx"
	"maskedspgemm/internal/serial"
	"maskedspgemm/internal/serve/servetest"
	"maskedspgemm/internal/sparse"
)

// getStats fetches and decodes /stats into the typed response.
func getStats(t testing.TB, h *servetest.Server) statsResponse {
	t.Helper()
	resp := h.Get("/stats")
	if resp.Status != http.StatusOK {
		t.Fatalf("/stats: status %d: %s", resp.Status, resp.Body)
	}
	var st statsResponse
	if err := json.Unmarshal(resp.Body, &st); err != nil {
		t.Fatal(err)
	}
	return st
}

// TestAdmissionStateMachine unit-tests the front door: capacity,
// queueing, shedding, deadline expiry, and cancellation.
func TestAdmissionStateMachine(t *testing.T) {
	a := newAdmission(2, 1)
	ctx := context.Background()

	if got := a.acquire(ctx, 0); got != admitted {
		t.Fatalf("slot 1: %v", got)
	}
	if got := a.acquire(ctx, 0); got != admitted {
		t.Fatalf("slot 2: %v", got)
	}

	// Third request queues; it should be admitted once a slot frees.
	admittedCh := make(chan admitOutcome, 1)
	go func() { admittedCh <- a.acquire(ctx, time.Minute) }()
	servetest.WaitFor(t, func() bool { return a.stats().QueueDepth == 1 })

	// Fourth request finds the queue full: shed.
	if got := a.acquire(ctx, 0); got != admitShed {
		t.Fatalf("queue-full request: got %v, want shed", got)
	}

	a.release()
	if got := <-admittedCh; got != admitted {
		t.Fatalf("queued request after release: %v", got)
	}

	// A queued request with a short deadline expires.
	if got := a.acquire(ctx, 10*time.Millisecond); got != admitExpired {
		t.Fatalf("deadline request: got %v, want expired", got)
	}

	// A zero deadline is now-or-never: with slots full but the queue
	// empty, the request is shed instead of queued.
	if got := a.acquire(ctx, 0); got != admitShed {
		t.Fatalf("zero-deadline request: got %v, want shed", got)
	}

	// A queued request whose context ends is dropped as canceled.
	cctx, cancel := context.WithCancel(ctx)
	outcomeCh := make(chan admitOutcome, 1)
	go func() { outcomeCh <- a.acquire(cctx, time.Minute) }()
	servetest.WaitFor(t, func() bool { return a.stats().QueueDepth == 1 })
	cancel()
	if got := <-outcomeCh; got != admitCanceled {
		t.Fatalf("canceled request: %v", got)
	}

	st := a.stats()
	if st.Admitted != 3 || st.Shed != 2 || st.DeadlineExpired != 1 || st.Canceled != 1 {
		t.Fatalf("counters = %+v", st)
	}
}

// TestAdmissionDrain pins drain semantics: queued waiters are rejected,
// in-flight work finishes, the drain channel closes only after the last
// release, and later arrivals bounce immediately.
func TestAdmissionDrain(t *testing.T) {
	a := newAdmission(1, 4)
	ctx := context.Background()
	if got := a.acquire(ctx, 0); got != admitted {
		t.Fatal(got)
	}
	queuedCh := make(chan admitOutcome, 1)
	go func() { queuedCh <- a.acquire(ctx, time.Minute) }()
	servetest.WaitFor(t, func() bool { return a.stats().QueueDepth == 1 })

	done := a.beginDrain()
	if got := <-queuedCh; got != admitDraining {
		t.Fatalf("queued waiter during drain: %v", got)
	}
	select {
	case <-done:
		t.Fatal("drain completed with a request still in flight")
	case <-time.After(20 * time.Millisecond):
	}
	if got := a.acquire(ctx, 0); got != admitDraining {
		t.Fatalf("arrival during drain: %v", got)
	}
	a.release()
	select {
	case <-done:
	case <-time.After(time.Second):
		t.Fatal("drain did not complete after the last release")
	}
	if !a.stats().Draining {
		t.Fatal("stats must report draining")
	}
}

// TestServeMultiplyFormats checks the wire contract end to end: raw
// serial and Matrix Market bodies, multipart operands, and all three
// response formats agree with the library computed locally.
func TestServeMultiplyFormats(t *testing.T) {
	g := maskedspgemm.ErdosRenyi(96, 6, 42)
	want, err := maskedspgemm.Multiply(g.PatternView(), g, g, maskedspgemm.WithAlgorithm(maskedspgemm.Hybrid))
	if err != nil {
		t.Fatal(err)
	}
	h := servetest.Start(t, New(Config{}))

	// Raw serial body, serial response.
	resp := h.Post("/v1/multiply", servetest.EncodeSerial(t, g), nil)
	if resp.Status != http.StatusOK {
		t.Fatalf("serial: status %d: %s", resp.Status, resp.Body)
	}
	got, err := serial.Read(bytes.NewReader(resp.Body))
	if err != nil {
		t.Fatal(err)
	}
	if !sparse.Equal(want, got) {
		t.Fatal("serial round trip: result differs from local Multiply")
	}

	// Raw Matrix Market body, mtx response.
	resp = h.Post("/v1/multiply?format=mtx", servetest.EncodeMTX(t, g), nil)
	if resp.Status != http.StatusOK {
		t.Fatalf("mtx: status %d: %s", resp.Status, resp.Body)
	}
	got, _, err = mtx.Read(bytes.NewReader(resp.Body))
	if err != nil {
		t.Fatal(err)
	}
	if !sparse.EqualFunc(want, got, func(x, y float64) bool { return x == y }) {
		t.Fatal("mtx round trip: result differs from local Multiply")
	}

	// Summary response: shape, nnz, and value sum.
	resp = h.Post("/v1/multiply?format=summary", servetest.EncodeSerial(t, g), nil)
	if resp.Status != http.StatusOK {
		t.Fatalf("summary: status %d: %s", resp.Status, resp.Body)
	}
	var sum resultSummary
	if err := json.Unmarshal(resp.Body, &sum); err != nil {
		t.Fatal(err)
	}
	wantSum := summarize(want)
	if sum != wantSum {
		t.Fatalf("summary = %+v, want %+v", sum, wantSum)
	}

	// Multipart operands in mixed formats: mask as Matrix Market, a and
	// b as serial. Use an asymmetric product so operand routing matters.
	hm := maskedspgemm.ErdosRenyi(96, 4, 43)
	wantMulti, err := maskedspgemm.Multiply(hm.PatternView(), g, hm, maskedspgemm.WithAlgorithm(maskedspgemm.Hybrid))
	if err != nil {
		t.Fatal(err)
	}
	mbody, ctype := servetest.Multipart(t,
		servetest.Part{Name: "mask", Data: servetest.EncodeMTX(t, hm)},
		servetest.Part{Name: "a", Data: servetest.EncodeSerial(t, g)},
		servetest.Part{Name: "b", Data: servetest.EncodeSerial(t, hm)},
	)
	resp = h.Post("/v1/multiply", mbody, map[string]string{"Content-Type": ctype})
	if resp.Status != http.StatusOK {
		t.Fatalf("multipart: status %d: %s", resp.Status, resp.Body)
	}
	got, err = serial.Read(bytes.NewReader(resp.Body))
	if err != nil {
		t.Fatal(err)
	}
	if !sparse.Equal(wantMulti, got) {
		t.Fatal("multipart: result differs from local Multiply")
	}
}

// TestServeSerialContentLength pins the sized serial response: the
// MSPG body's length is known before its first byte, so the response
// declares it in Content-Length instead of being chunked — inline and
// by reference, and for an empty product.
func TestServeSerialContentLength(t *testing.T) {
	g := maskedspgemm.ErdosRenyi(96, 6, 44)
	h := servetest.Start(t, New(Config{}))
	ref := h.Put("/v1/operands", servetest.EncodeSerial(t, g), nil).JSON(t).Str("operands.0.ref")
	empty := maskedspgemm.ErdosRenyi(96, 0, 45)
	emptyBody, ctype := servetest.Multipart(t,
		servetest.Part{Name: "mask", Data: servetest.EncodeSerial(t, empty)},
		servetest.Part{Name: "a", Data: servetest.EncodeSerial(t, g)},
	)
	for _, c := range []struct {
		name, path string
		body       []byte
		ctype      string
	}{
		{"inline", "/v1/multiply", servetest.EncodeSerial(t, g), ""},
		{"reference", "/v1/multiply?a=" + ref, nil, ""},
		{"explicit format", "/v1/multiply?a=" + ref + "&format=serial", nil, ""},
		{"empty product", "/v1/multiply", emptyBody, ctype},
	} {
		req, err := http.NewRequest(http.MethodPost, h.URL+c.path, bytes.NewReader(c.body))
		if err != nil {
			t.Fatal(err)
		}
		if c.ctype != "" {
			req.Header.Set("Content-Type", c.ctype)
		}
		resp, err := h.Client.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d: %s", c.name, resp.StatusCode, body)
		}
		if len(resp.TransferEncoding) != 0 {
			t.Errorf("%s: response is %v-encoded, want a sized body", c.name, resp.TransferEncoding)
		}
		if hdr := resp.Header.Get("Content-Length"); hdr != strconv.Itoa(len(body)) {
			t.Errorf("%s: Content-Length %q, body is %d bytes", c.name, hdr, len(body))
		}
		got, err := serial.Read(bytes.NewReader(body))
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if want := 32 + 8*(got.Rows+1) + 12*int(got.NNZ()); len(body) != want {
			t.Errorf("%s: body is %d bytes, want 32 + 8·(rows+1) + 12·nnz = %d", c.name, len(body), want)
		}
		if c.name == "empty product" && got.NNZ() != 0 {
			t.Errorf("empty mask produced %d entries", got.NNZ())
		}
	}
}

// TestServeWarmThenMultiplyHits drives the headline bugfix through the
// wire: /v1/warm plants the plan, a later /v1/multiply with its own
// ?threads= width must hit it — one miss, one hit, one cache entry.
// Width is execution-only, so it may not fragment the cache.
func TestServeWarmThenMultiplyHits(t *testing.T) {
	g := maskedspgemm.ErdosRenyi(80, 6, 44)
	h := servetest.Start(t, New(Config{}))
	body := servetest.EncodeSerial(t, g)

	resp := h.Post("/v1/warm", body, nil)
	if resp.Status != http.StatusOK {
		t.Fatalf("warm: status %d: %s", resp.Status, resp.Body)
	}
	// threads is clamped to the host's parallelism; widen to 2 where
	// the host allows it.
	threads := min(2, runtime.GOMAXPROCS(0))
	resp = h.Post(fmt.Sprintf("/v1/multiply?threads=%d", threads), body, nil)
	if resp.Status != http.StatusOK {
		t.Fatalf("multiply: status %d: %s", resp.Status, resp.Body)
	}
	st := getStats(t, h)
	if c := st.Session.Cache; c.Hits != 1 || c.Misses != 1 || c.Entries != 1 {
		t.Fatalf("cache = %+v, want Hits == 1, Misses == 1, Entries == 1 (warm → threads=%d multiply must hit)", c, threads)
	}
	if len(st.RecentMisses) != 1 || !st.RecentMisses[0].Warm {
		t.Fatalf("recent misses = %+v, want the single warm plant", st.RecentMisses)
	}
}

// TestServeStatsHybridFamilyRows checks the operator view of per-row
// family adoption: a fresh server reports no family rows, and after a
// multiply /stats carries hybrid_family_rows summing to the mask's row
// count.
func TestServeStatsHybridFamilyRows(t *testing.T) {
	g := maskedspgemm.ErdosRenyi(80, 6, 45)
	h := servetest.Start(t, New(Config{}))
	body := servetest.EncodeSerial(t, g)

	if rows := getStats(t, h).Session.Cache.HybridFamilyRows; rows != nil {
		t.Fatalf("a fresh server reported family rows %v", rows)
	}
	resp := h.Post("/v1/multiply", body, nil)
	if resp.Status != http.StatusOK {
		t.Fatalf("hybrid multiply: status %d: %s", resp.Status, resp.Body)
	}
	rows := getStats(t, h).Session.Cache.HybridFamilyRows
	if len(rows) == 0 {
		t.Fatal("hybrid plan reported no family rows")
	}
	var total int64
	for _, n := range rows {
		total += n
	}
	if total != 80 {
		t.Fatalf("family rows %v sum to %d, want the mask's 80", rows, total)
	}
}

// TestServeStatsBlockSet pins the /stats block set: the session
// carries exactly the cache, store, budget, pool, and faults blocks
// beside the admission counters and the miss log.
func TestServeStatsBlockSet(t *testing.T) {
	h := servetest.Start(t, New(Config{}))
	resp := h.Get("/stats")
	if resp.Status != http.StatusOK {
		t.Fatalf("/stats: status %d: %s", resp.Status, resp.Body)
	}
	var doc struct {
		Session      map[string]json.RawMessage `json:"session"`
		Admission    json.RawMessage            `json:"admission"`
		RecentMisses json.RawMessage            `json:"recent_misses"`
	}
	if err := json.Unmarshal(resp.Body, &doc); err != nil {
		t.Fatal(err)
	}
	if doc.Admission == nil || doc.RecentMisses == nil {
		t.Errorf("/stats lacks admission or recent_misses: %s", resp.Body)
	}
	want := []string{"budget", "cache", "faults", "pool", "store"}
	var got []string
	for k := range doc.Session {
		got = append(got, k)
	}
	sort.Strings(got)
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("session blocks = %v, want %v", got, want)
	}
}

// TestServeSaturation is the admission-control acceptance test: with
// pool size P and 8·P concurrent clients, at most P products execute
// concurrently, excess queues up to the bound, everything beyond is
// shed with 429 + Retry-After, and draining bounces new requests with
// 503 while leaking no goroutines. Run under -race in CI.
func TestServeSaturation(t *testing.T) {
	const (
		pool    = 2
		queue   = 2
		clients = 8 * pool
	)
	checkLeaks := servetest.AssertNoLeaks(t)

	srv := New(Config{MaxInFlight: pool, MaxQueue: queue, QueueTimeout: 30 * time.Second})
	gate := make(chan struct{})
	var cur, peak atomic.Int64
	srv.execGate = func() {
		c := cur.Add(1)
		for {
			p := peak.Load()
			if c <= p || peak.CompareAndSwap(p, c) {
				break
			}
		}
		<-gate
		cur.Add(-1)
	}
	h := servetest.Start(t, srv)
	h.Client.Timeout = time.Minute

	g := maskedspgemm.ErdosRenyi(64, 4, 45)
	body := servetest.EncodeSerial(t, g)

	// Fill every execution slot, then every queue seat.
	var wg sync.WaitGroup
	codes := make(chan int, clients)
	launch := func(n int) {
		for i := 0; i < n; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				resp := h.Post("/v1/multiply", body, nil)
				if resp.Status == http.StatusTooManyRequests && resp.Header.Get("Retry-After") == "" {
					t.Error("429 without Retry-After")
				}
				codes <- resp.Status
			}()
		}
	}
	launch(pool)
	servetest.WaitFor(t, func() bool { return srv.adm.stats().InFlight == pool })

	// With slots full but queue room free, a request with its own short
	// deadline queues, expires, and gets 503.
	resp := h.Post("/v1/multiply", body, map[string]string{"X-Queue-Deadline-Ms": "1"})
	if resp.Status != http.StatusServiceUnavailable {
		t.Fatalf("expired request: status %d, want 503", resp.Status)
	}

	launch(queue)
	servetest.WaitFor(t, func() bool { return srv.adm.stats().QueueDepth == queue })

	// Every further client must be shed immediately: slots and queue are
	// both full and nothing can free while the gate is closed.
	launch(clients - pool - queue)
	servetest.WaitFor(t, func() bool { return srv.adm.stats().Shed == clients-pool-queue })

	// Open the gate: the P in-flight and Q queued requests all finish.
	close(gate)
	wg.Wait()
	close(codes)
	var ok200, shed429 int
	for code := range codes {
		switch code {
		case http.StatusOK:
			ok200++
		case http.StatusTooManyRequests:
			shed429++
		default:
			t.Fatalf("unexpected status %d", code)
		}
	}
	if ok200 != pool+queue || shed429 != clients-pool-queue {
		t.Fatalf("outcomes: %d ok / %d shed, want %d / %d", ok200, shed429, pool+queue, clients-pool-queue)
	}
	if p := peak.Load(); p > pool {
		t.Fatalf("%d products executed concurrently, bound is %d", p, pool)
	}

	st := srv.adm.stats()
	if st.Shed != uint64(clients-pool-queue) || st.DeadlineExpired != 1 {
		t.Fatalf("admission counters = %+v", st)
	}

	// Drain: in-flight is zero, so it completes at once and later
	// requests bounce with 503.
	select {
	case <-srv.Drain():
	case <-time.After(time.Second):
		t.Fatal("drain did not complete with no requests in flight")
	}
	resp = h.Post("/v1/multiply", body, nil)
	if resp.Status != http.StatusServiceUnavailable {
		t.Fatalf("post-drain request: status %d, want 503", resp.Status)
	}
	resp = h.Post("/v1/warm", body, nil)
	if resp.Status != http.StatusServiceUnavailable {
		t.Fatalf("post-drain warm: status %d, want 503 (warming must not delay shutdown)", resp.Status)
	}
	if hresp := h.Get("/healthz"); hresp.Status != http.StatusServiceUnavailable {
		t.Fatalf("healthz while draining: %d, want 503", hresp.Status)
	}

	// Zero goroutine leak once the listener closes: every queued waiter,
	// timer, and handler goroutine must be gone.
	h.Close()
	checkLeaks()
}

// TestServeBadRequests pins the failure-mode statuses: bad options,
// undecodable bodies, wrong methods, and invalid operand shapes.
func TestServeBadRequests(t *testing.T) {
	h := servetest.Start(t, New(Config{}))
	g := maskedspgemm.ErdosRenyi(32, 4, 46)

	// A typo'd format is rejected up front, before a slot or a
	// multiplication is spent on it.
	resp := h.Post("/v1/multiply?format=json", servetest.EncodeSerial(t, g), nil)
	if resp.Status != http.StatusBadRequest {
		t.Fatalf("unknown format: %d", resp.Status)
	}
	resp = h.Post("/v1/multiply", []byte("junk body"), nil)
	if resp.Status != http.StatusBadRequest {
		t.Fatalf("junk body: %d", resp.Status)
	}
	// threads is clamped to the host's parallelism: a giant value must
	// be a 400, not a per-thread allocation storm (and not a fresh
	// plan-cache key per count).
	resp = h.Post("/v1/multiply?threads=1000000000", servetest.EncodeSerial(t, g), nil)
	if resp.Status != http.StatusBadRequest {
		t.Fatalf("oversized threads: %d: %s", resp.Status, resp.Body)
	}
	// Trailing garbage no longer parses (Sscanf would have taken "2x" as 2).
	resp = h.Post("/v1/multiply?threads=2x", servetest.EncodeSerial(t, g), nil)
	if resp.Status != http.StatusBadRequest {
		t.Fatalf("malformed threads: %d", resp.Status)
	}
	if hresp := h.Get("/v1/multiply"); hresp.Status != http.StatusMethodNotAllowed {
		t.Fatalf("GET multiply: %d", hresp.Status)
	}

	// Shape mismatch (mask 32×32, A 16×16) is a planning error: 422.
	small := maskedspgemm.ErdosRenyi(16, 4, 47)
	mbody, ctype := servetest.Multipart(t,
		servetest.Part{Name: "mask", Data: servetest.EncodeSerial(t, g)},
		servetest.Part{Name: "a", Data: servetest.EncodeSerial(t, small)},
	)
	resp = h.Post("/v1/multiply", mbody, map[string]string{"Content-Type": ctype})
	if resp.Status != http.StatusUnprocessableEntity {
		t.Fatalf("shape mismatch: %d: %s", resp.Status, resp.Body)
	}
	if !strings.Contains(string(resp.Body), "mask is") {
		t.Fatalf("shape mismatch error lost: %s", resp.Body)
	}
}

// TestServeHybridOnly pins the served algorithm: every request runs
// Hybrid. algorithm= absent, "hybrid" or "HYBRID" is the same request
// — one result, one cached plan — on /v1/multiply and /v1/warm alike.
// Any other value, a registry scheme such as msa or hash or the
// retired MSA-Epoch ablation, is a 400 that names it, answered before
// the request takes an admission slot.
func TestServeHybridOnly(t *testing.T) {
	g := maskedspgemm.ErdosRenyi(48, 6, 73)
	body := servetest.EncodeSerial(t, g)
	want, err := maskedspgemm.Multiply(g.PatternView(), g, g, maskedspgemm.WithAlgorithm(maskedspgemm.Hybrid))
	if err != nil {
		t.Fatal(err)
	}
	h := servetest.Start(t, New(Config{}))
	for _, q := range []string{"", "?algorithm=hybrid", "?algorithm=HYBRID"} {
		t.Run("accept"+q, func(t *testing.T) {
			if resp := h.Post("/v1/warm"+q, body, nil); resp.Status != http.StatusOK {
				t.Fatalf("warm: status %d: %s", resp.Status, resp.Body)
			}
			resp := h.Post("/v1/multiply"+q, body, nil)
			if resp.Status != http.StatusOK {
				t.Fatalf("multiply: status %d: %s", resp.Status, resp.Body)
			}
			got, err := serial.Read(bytes.NewReader(resp.Body))
			if err != nil {
				t.Fatal(err)
			}
			if !sparse.Equal(want, got) {
				t.Fatal("result differs from local Hybrid")
			}
		})
	}
	st := getStats(t, h)
	if c := st.Session.Cache; c.Entries != 1 || c.Misses != 1 || c.Hits != 5 {
		t.Fatalf("cache = %+v, want one entry planned once and hit by the other five requests", c)
	}
	for _, name := range []string{"msa", "hash", "nope", "MSA-Epoch", "Hybrid-1P"} {
		t.Run("reject?algorithm="+name, func(t *testing.T) {
			admitted := getStats(t, h).Admission.Admitted
			for _, path := range []string{"/v1/multiply", "/v1/warm"} {
				resp := h.Post(path+"?algorithm="+name, body, nil)
				if resp.Status != http.StatusBadRequest {
					t.Fatalf("%s: status %d: %s, want 400", path, resp.Status, resp.Body)
				}
				if !strings.Contains(string(resp.Body), strconv.Quote(name)) {
					t.Errorf("%s: the rejection does not name the value: %s", path, resp.Body)
				}
			}
			if got := getStats(t, h).Admission.Admitted; got != admitted {
				t.Fatalf("admitted %d after the rejected requests, want %d: a 400 took a slot", got, admitted)
			}
		})
	}
}

// TestServeOnePhaseOnly pins the served phase count: every request runs
// one-phase, since two-phase is the paper's §6 comparison for its own
// schemes and Hybrid does not run it. phases= absent or "1" is the same
// request — one result, one cached plan — on /v1/multiply and /v1/warm
// alike. Any other value, 2 included, is a 400 that names it, answered
// before the request takes an admission slot.
func TestServeOnePhaseOnly(t *testing.T) {
	g := maskedspgemm.ErdosRenyi(48, 6, 75)
	body := servetest.EncodeSerial(t, g)
	want, err := maskedspgemm.Multiply(g.PatternView(), g, g, maskedspgemm.WithAlgorithm(maskedspgemm.Hybrid))
	if err != nil {
		t.Fatal(err)
	}
	h := servetest.Start(t, New(Config{}))
	for _, q := range []string{"", "?phases=1"} {
		t.Run("accept"+q, func(t *testing.T) {
			if resp := h.Post("/v1/warm"+q, body, nil); resp.Status != http.StatusOK {
				t.Fatalf("warm: status %d: %s", resp.Status, resp.Body)
			}
			resp := h.Post("/v1/multiply"+q, body, nil)
			if resp.Status != http.StatusOK {
				t.Fatalf("multiply: status %d: %s", resp.Status, resp.Body)
			}
			got, err := serial.Read(bytes.NewReader(resp.Body))
			if err != nil {
				t.Fatal(err)
			}
			if !sparse.Equal(want, got) {
				t.Fatal("result differs from local one-phase Hybrid")
			}
		})
	}
	st := getStats(t, h)
	if c := st.Session.Cache; c.Entries != 1 || c.Misses != 1 || c.Hits != 3 {
		t.Fatalf("cache = %+v, want one entry planned once and hit by the other three requests", c)
	}
	for _, v := range []string{"2", "0", "3", "two", "2P", " 1"} {
		t.Run("reject?phases="+v, func(t *testing.T) {
			admitted := getStats(t, h).Admission.Admitted
			for _, path := range []string{"/v1/multiply", "/v1/warm"} {
				resp := h.Post(path+"?phases="+url.QueryEscape(v), body, nil)
				if resp.Status != http.StatusBadRequest {
					t.Fatalf("%s: status %d: %s, want 400", path, resp.Status, resp.Body)
				}
				if !strings.Contains(string(resp.Body), "one-phase only") {
					t.Errorf("%s: the rejection does not say why: %s", path, resp.Body)
				}
			}
			if got := getStats(t, h).Admission.Admitted; got != admitted {
				t.Fatalf("admitted %d after the rejected requests, want %d: a 400 took a slot", got, admitted)
			}
		})
	}
}

// TestServeStrictComplement pins complement= parsing: 1 and true (any
// case) complement the mask and match the library's complemented
// product; absent, 0 and false do not; any other value is a 400 before
// admission, never a silent plain product.
func TestServeStrictComplement(t *testing.T) {
	g := maskedspgemm.ErdosRenyi(48, 6, 74)
	body := servetest.EncodeSerial(t, g)
	hy := maskedspgemm.WithAlgorithm(maskedspgemm.Hybrid)
	plain, err := maskedspgemm.Multiply(g.PatternView(), g, g, hy)
	if err != nil {
		t.Fatal(err)
	}
	compl, err := maskedspgemm.Multiply(g.PatternView(), g, g, hy, maskedspgemm.WithComplement())
	if err != nil {
		t.Fatal(err)
	}
	h := servetest.Start(t, New(Config{}))
	for _, c := range []struct {
		value string
		want  *maskedspgemm.Matrix
	}{
		{"", plain}, {"0", plain}, {"false", plain}, {"FALSE", plain},
		{"1", compl}, {"true", compl}, {"True", compl},
	} {
		t.Run("accept="+c.value, func(t *testing.T) {
			resp := h.Post("/v1/multiply?complement="+c.value, body, nil)
			if resp.Status != http.StatusOK {
				t.Fatalf("status %d: %s", resp.Status, resp.Body)
			}
			got, err := serial.Read(bytes.NewReader(resp.Body))
			if err != nil {
				t.Fatal(err)
			}
			if !sparse.Equal(c.want, got) {
				t.Fatal("result differs from the local product")
			}
		})
	}
	for _, v := range []string{"ture", "2", "yes", "on", "-1", " 1"} {
		t.Run("reject="+v, func(t *testing.T) {
			admitted := getStats(t, h).Admission.Admitted
			for _, path := range []string{"/v1/multiply", "/v1/warm"} {
				resp := h.Post(path+"?complement="+url.QueryEscape(v), body, nil)
				if resp.Status != http.StatusBadRequest {
					t.Fatalf("%s: status %d: %s, want 400", path, resp.Status, resp.Body)
				}
			}
			if got := getStats(t, h).Admission.Admitted; got != admitted {
				t.Fatalf("admitted %d after the rejected requests, want %d: a 400 took a slot", got, admitted)
			}
		})
	}
}

// TestServeBodyTooLarge pins the size-cap status: a body over
// MaxBodyBytes is 413 Content Too Large on all body-reading endpoints,
// not a generic 400 that hides the cap from clients.
func TestServeBodyTooLarge(t *testing.T) {
	h := servetest.Start(t, New(Config{MaxBodyBytes: 64}))
	g := maskedspgemm.ErdosRenyi(64, 4, 48)
	// Both wire formats: the Matrix Market decoder reports truncation as
	// a parse error without wrapping the cause, so the 413 must come
	// from the tracked transport error, not the decoder's message.
	for name, body := range map[string][]byte{"serial": servetest.EncodeSerial(t, g), "mtx": servetest.EncodeMTX(t, g)} {
		if len(body) <= 64 {
			t.Fatalf("%s test body must exceed the 64-byte cap, got %d bytes", name, len(body))
		}
		for _, ep := range []string{"/v1/multiply", "/v1/warm"} {
			resp := h.Post(ep, body, nil)
			if resp.Status != http.StatusRequestEntityTooLarge {
				t.Fatalf("%s %s oversized body: status %d: %s", name, ep, resp.Status, resp.Body)
			}
		}
		if resp := h.Put("/v1/operands", body, nil); resp.Status != http.StatusRequestEntityTooLarge {
			t.Fatalf("%s PUT /v1/operands oversized body: status %d: %s", name, resp.Status, resp.Body)
		}
	}
}

// TestServeZeroQueueDeadline pins the now-or-never contract: an
// explicit X-Queue-Deadline-Ms: 0 with every slot busy is shed with
// 429 immediately — even with queue room free — rather than coerced to
// the server's default patience.
func TestServeZeroQueueDeadline(t *testing.T) {
	srv := New(Config{MaxInFlight: 1, MaxQueue: 4, QueueTimeout: 30 * time.Second})
	gate := make(chan struct{})
	srv.execGate = func() { <-gate }
	h := servetest.Start(t, srv)
	body := servetest.EncodeSerial(t, maskedspgemm.ErdosRenyi(64, 4, 49))

	done := make(chan int, 1)
	go func() {
		done <- h.Post("/v1/multiply", body, nil).Status
	}()
	servetest.WaitFor(t, func() bool { return srv.adm.stats().InFlight == 1 })

	resp := h.Post("/v1/multiply", body, map[string]string{"X-Queue-Deadline-Ms": "0"})
	if resp.Status != http.StatusTooManyRequests {
		t.Fatalf("zero-deadline request: status %d: %s (want immediate 429)", resp.Status, resp.Body)
	}
	if st := srv.adm.stats(); st.Shed != 1 || st.QueueDepth != 0 {
		t.Fatalf("admission stats = %+v, want one shed and nothing queued", st)
	}
	close(gate)
	if code := <-done; code != http.StatusOK {
		t.Fatalf("slot-holding request: status %d", code)
	}
}

// TestServeHugeQueueDeadline pins the cap of X-Queue-Deadline-Ms at
// the server default for a value past the largest Duration: with every
// slot busy and queue room free, the request queues, rather than being
// shed (429) as a wrapped, negative patience would have it, and is
// served once the slot frees.
func TestServeHugeQueueDeadline(t *testing.T) {
	srv := New(Config{MaxInFlight: 1, MaxQueue: 4, QueueTimeout: 30 * time.Second})
	gate := make(chan struct{})
	srv.execGate = func() { <-gate }
	h := servetest.Start(t, srv)
	unpark := sync.OnceFunc(func() { close(gate) })
	t.Cleanup(unpark)
	body := servetest.EncodeSerial(t, maskedspgemm.ErdosRenyi(64, 4, 50))

	done := make(chan int, 2)
	go func() {
		done <- h.Post("/v1/multiply", body, nil).Status
	}()
	servetest.WaitFor(t, func() bool { return srv.adm.stats().InFlight == 1 })
	go func() {
		done <- h.Post("/v1/multiply", body, map[string]string{"X-Queue-Deadline-Ms": "9223372036855"}).Status
	}()
	servetest.WaitFor(t, func() bool { return srv.adm.stats().QueueDepth == 1 })
	unpark()
	for range 2 {
		if code := <-done; code != http.StatusOK {
			t.Fatalf("status %d, want 200", code)
		}
	}
	if st := srv.adm.stats(); st.Shed != 0 || st.DeadlineExpired != 0 {
		t.Fatalf("admission stats = %+v, want nothing shed or expired", st)
	}
}

// TestServeWarmAdmitted pins that /v1/warm takes a slot from the
// admission gate multiplies and uploads share. While a parked multiply
// holds the one slot, a warm that will not queue is shed with 429 and
// counted as shed; once the slot frees, a warm is admitted and plants
// the plan the next multiply hits; once draining, a warm gets 503 and
// is counted as rejected_draining.
func TestServeWarmAdmitted(t *testing.T) {
	srv := New(Config{MaxInFlight: 1})
	gate := make(chan struct{})
	srv.execGate = func() { <-gate }
	h := servetest.Start(t, srv)
	// Registered after Start, so a failing check unparks the multiply
	// before the server shuts down instead of hanging the test.
	unpark := sync.OnceFunc(func() { close(gate) })
	t.Cleanup(unpark)
	parked := servetest.EncodeSerial(t, maskedspgemm.ErdosRenyi(64, 4, 52))
	body := servetest.EncodeSerial(t, maskedspgemm.ErdosRenyi(64, 4, 54))

	done := make(chan int, 1)
	go func() {
		done <- h.Post("/v1/multiply?format=summary", parked, nil).Status
	}()
	servetest.WaitFor(t, func() bool { return srv.adm.stats().InFlight == 1 })

	// A zero queue deadline refuses to wait, so the busy slot sheds the
	// warm at once instead of queueing it.
	resp := h.Post("/v1/warm", body, map[string]string{"X-Queue-Deadline-Ms": "0"})
	if resp.Status != http.StatusTooManyRequests {
		t.Fatalf("warm at a busy slot: status %d: %s, want 429", resp.Status, resp.Body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("shed warm missing Retry-After")
	}
	if st := getStats(t, h).Admission; st.Shed != 1 || st.Admitted != 1 {
		t.Fatalf("admission = %+v, want the warm shed and only the multiply admitted", st)
	}

	unpark()
	if code := <-done; code != http.StatusOK {
		t.Fatalf("parked multiply: status %d", code)
	}
	if resp := h.Post("/v1/warm", body, nil); resp.Status != http.StatusOK {
		t.Fatalf("warm after release: status %d: %s", resp.Status, resp.Body)
	}
	before := getStats(t, h).Session.Cache
	if resp := h.Post("/v1/multiply?format=summary", body, nil); resp.Status != http.StatusOK {
		t.Fatalf("multiply after warm: status %d: %s", resp.Status, resp.Body)
	}
	st := getStats(t, h)
	if c := st.Session.Cache; c.Hits != before.Hits+1 || c.Misses != before.Misses {
		t.Fatalf("cache %+v after %+v: the multiply must hit the warmed plan", c, before)
	}
	if st.Admission.Admitted != 3 {
		t.Fatalf("admission = %+v, want 3 admitted: multiply, warm, multiply", st.Admission)
	}

	srv.Drain()
	if resp := h.Post("/v1/warm", body, nil); resp.Status != http.StatusServiceUnavailable {
		t.Fatalf("warm while draining: status %d: %s, want 503", resp.Status, resp.Body)
	}
	if st := getStats(t, h).Admission; st.RejectedDraining != 1 {
		t.Fatalf("admission = %+v, want the draining warm counted", st)
	}
}

// parkMultiply starts a multiply that takes the server's one admission
// slot and parks on execGate before it reads its body. It returns the
// function that unparks it (also registered as a cleanup, so a failing
// check never hangs the server's shutdown) and the multiply's status.
func parkMultiply(t *testing.T) (*Server, *servetest.Server, func(), <-chan int) {
	t.Helper()
	srv := New(Config{MaxInFlight: 1, QueueTimeout: 30 * time.Second})
	gate := make(chan struct{})
	srv.execGate = func() { <-gate }
	h := servetest.Start(t, srv)
	unpark := sync.OnceFunc(func() { close(gate) })
	t.Cleanup(unpark)
	body := servetest.EncodeSerial(t, maskedspgemm.ErdosRenyi(64, 4, 52))
	done := make(chan int, 1)
	go func() {
		done <- h.Post("/v1/multiply?format=summary", body, nil).Status
	}()
	servetest.WaitFor(t, func() bool { return srv.adm.stats().InFlight == 1 })
	return srv, h, unpark, done
}

// TestServeWarmBounded pins that warms are bounded by the admission
// slots, not planned beside them: with the one slot held, a warm waits
// in the queue without planning, is dropped with 503 and Retry-After
// when its queue deadline passes first, and plans once the slot frees.
func TestServeWarmBounded(t *testing.T) {
	srv, h, unpark, done := parkMultiply(t)
	body := servetest.EncodeSerial(t, maskedspgemm.ErdosRenyi(64, 4, 55))

	resp := h.Post("/v1/warm", body, map[string]string{"X-Queue-Deadline-Ms": "20"})
	if resp.Status != http.StatusServiceUnavailable {
		t.Fatalf("warm past its queue deadline: status %d: %s, want 503", resp.Status, resp.Body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("expired warm missing Retry-After")
	}
	if st := srv.adm.stats(); st.DeadlineExpired != 1 || st.Queued != 1 {
		t.Fatalf("admission = %+v, want the warm queued once and expired", st)
	}

	warmed := make(chan servetest.Response, 1)
	go func() {
		warmed <- h.Post("/v1/warm", body, nil)
	}()
	servetest.WaitFor(t, func() bool { return srv.adm.stats().QueueDepth == 1 })
	if st := srv.adm.stats(); st.InFlight != 1 {
		t.Fatalf("admission = %+v, want the queued warm outside the one slot", st)
	}
	if c := srv.Session().Stats().Cache; c.Misses != 0 || c.Entries != 0 {
		t.Fatalf("cache %+v: a queued warm planned", c)
	}
	unpark()
	if code := <-done; code != http.StatusOK {
		t.Fatalf("parked multiply: status %d", code)
	}
	if resp := <-warmed; resp.Status != http.StatusOK {
		t.Fatalf("queued warm: status %d: %s", resp.Status, resp.Body)
	}
	if st := srv.adm.stats(); st.Admitted != 2 || st.Queued != 2 {
		t.Fatalf("admission = %+v, want the multiply and the queued warm admitted", st)
	}
}

// TestServeWarmDrainRace pins drain against a queued warm: a warm
// waiting for a slot when drain begins is woken and rejected with 503
// without planning into a cache that is being discarded, while the
// in-flight multiply it waited behind still completes.
func TestServeWarmDrainRace(t *testing.T) {
	srv, h, unpark, done := parkMultiply(t)
	body := servetest.EncodeSerial(t, maskedspgemm.ErdosRenyi(64, 4, 54))

	warmed := make(chan servetest.Response, 1)
	go func() {
		warmed <- h.Post("/v1/warm", body, nil)
	}()
	servetest.WaitFor(t, func() bool { return srv.adm.stats().QueueDepth == 1 })
	idle := srv.Drain()
	if resp := <-warmed; resp.Status != http.StatusServiceUnavailable {
		t.Fatalf("warm queued when drain began: status %d: %s, want 503", resp.Status, resp.Body)
	}
	if st := srv.adm.stats(); st.RejectedDraining != 1 || st.QueueDepth != 0 || st.InFlight != 1 {
		t.Fatalf("admission = %+v, want the queued warm rejected and the multiply still in flight", st)
	}
	if c := srv.Session().Stats().Cache; c.Misses != 0 || c.Entries != 0 {
		t.Fatalf("cache %+v: the rejected warm planned", c)
	}
	unpark()
	if code := <-done; code != http.StatusOK {
		t.Fatalf("in-flight multiply under drain: status %d", code)
	}
	select {
	case <-idle:
	case <-time.After(10 * time.Second):
		t.Fatal("drain never reached idle after the multiply released its slot")
	}
}

// TestServeAdmitOutcomes pins the one admission helper behind every
// endpoint that reads a body: multiply, warm and operand upload each
// answer a malformed queue deadline with 400 before the gate, a
// refused-to-queue request at a busy slot with 429 and Retry-After, and
// a request while draining with 503, each counted in /stats, and none
// of them reads, stores or plans anything.
func TestServeAdmitOutcomes(t *testing.T) {
	body := servetest.EncodeSerial(t, maskedspgemm.ErdosRenyi(64, 4, 56))
	endpoints := []struct {
		name, method, path string
	}{
		{"multiply", http.MethodPost, "/v1/multiply?format=summary"},
		{"warm", http.MethodPost, "/v1/warm"},
		{"operands", http.MethodPut, "/v1/operands"},
	}
	untouched := func(t *testing.T, h *servetest.Server) {
		t.Helper()
		if st := getStats(t, h).Session; st.Store.Puts != 0 || st.Store.Reputs != 0 || st.Cache.Misses != 0 {
			t.Fatalf("session %+v / %+v: a refused request reached the store or the planner", st.Store, st.Cache)
		}
	}
	for _, ep := range endpoints {
		t.Run(ep.name+"/400", func(t *testing.T) {
			h := servetest.Start(t, New(Config{MaxInFlight: 1}))
			resp := h.Do(ep.method, ep.path, body, map[string]string{"X-Queue-Deadline-Ms": "-1"})
			if resp.Status != http.StatusBadRequest {
				t.Fatalf("malformed queue deadline: status %d: %s, want 400", resp.Status, resp.Body)
			}
			if st := getStats(t, h).Admission; st.Admitted != 0 || st.Shed != 0 || st.Queued != 0 {
				t.Fatalf("admission = %+v, want the request refused before the gate", st)
			}
			untouched(t, h)
		})
		t.Run(ep.name+"/429", func(t *testing.T) {
			_, h, unpark, done := parkMultiply(t)
			resp := h.Do(ep.method, ep.path, body, map[string]string{"X-Queue-Deadline-Ms": "0"})
			if resp.Status != http.StatusTooManyRequests {
				t.Fatalf("busy slot, zero queue deadline: status %d: %s, want 429", resp.Status, resp.Body)
			}
			if resp.Header.Get("Retry-After") == "" {
				t.Fatal("shed request missing Retry-After")
			}
			if st := getStats(t, h).Admission; st.Shed != 1 || st.Admitted != 1 {
				t.Fatalf("admission = %+v, want the request shed and only the parked multiply admitted", st)
			}
			untouched(t, h)
			unpark()
			if code := <-done; code != http.StatusOK {
				t.Fatalf("parked multiply: status %d", code)
			}
		})
		t.Run(ep.name+"/503", func(t *testing.T) {
			srv := New(Config{MaxInFlight: 1})
			h := servetest.Start(t, srv)
			srv.Drain()
			resp := h.Do(ep.method, ep.path, body, nil)
			if resp.Status != http.StatusServiceUnavailable {
				t.Fatalf("draining: status %d: %s, want 503", resp.Status, resp.Body)
			}
			if st := getStats(t, h).Admission; st.RejectedDraining != 1 || st.Admitted != 0 {
				t.Fatalf("admission = %+v, want the request rejected as draining", st)
			}
			untouched(t, h)
		})
	}
}

// TestServeSlowBodyTimeout pins the slot-starvation fix: a client that
// sends headers and then trickles its body cannot hold an execution
// slot past BodyReadTimeout — the read deadline fires, the request
// gets 408, and the slot frees for the waiting request.
func TestServeSlowBodyTimeout(t *testing.T) {
	srv := New(Config{MaxInFlight: 1, BodyReadTimeout: 100 * time.Millisecond})
	h := servetest.Start(t, srv)

	conn := h.Dial()
	// Headers complete, body stalls after the format sniff bytes.
	fmt.Fprintf(conn, "POST /v1/multiply HTTP/1.1\r\nHost: x\r\nContent-Length: 100000\r\n\r\nMSPG")
	reply := make([]byte, 64)
	if err := conn.SetReadDeadline(time.Now().Add(5 * time.Second)); err != nil {
		t.Fatal(err)
	}
	n, err := conn.Read(reply)
	if err != nil {
		t.Fatalf("no response to the stalled upload: %v", err)
	}
	if line := string(reply[:n]); !strings.Contains(line, "408") {
		t.Fatalf("stalled upload answered %q, want 408", line)
	}
	// The slot freed: a healthy request is served.
	g := maskedspgemm.ErdosRenyi(64, 4, 53)
	resp := h.Post("/v1/multiply?format=summary", servetest.EncodeSerial(t, g), nil)
	if resp.Status != http.StatusOK {
		t.Fatalf("request after stalled upload: status %d: %s", resp.Status, resp.Body)
	}
}

// TestServeLyingContentLength drives the operand reader over a raw
// connection with a body that lies twice: its Content-Length declares
// 64 MiB and its 48-byte MSPG header declares 2³⁹ rows. The client
// then stalls (408 at BodyReadTimeout) or closes its side (400, the
// body ended early). Either way the request may allocate at most the
// reader's 1 MiB reservation plus 64 KiB for everything else: neither
// declared size reserves memory before its bytes arrive.
func TestServeLyingContentLength(t *testing.T) {
	body := []byte("MSPG\x01\x00\x00\x00")
	for range 3 {
		body = binary.LittleEndian.AppendUint64(body, 1<<39)
	}
	body = append(body, make([]byte, 16)...)
	for _, c := range []struct {
		name  string
		close bool
		want  int
	}{
		{"stall", false, http.StatusRequestTimeout},
		{"close", true, http.StatusBadRequest},
	} {
		t.Run(c.name, func(t *testing.T) {
			h := servetest.Start(t, New(Config{BodyReadTimeout: 200 * time.Millisecond}))
			conn := h.Dial()
			if err := conn.SetDeadline(time.Now().Add(10 * time.Second)); err != nil {
				t.Fatal(err)
			}
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			fmt.Fprintf(conn, "POST /v1/multiply HTTP/1.1\r\nHost: x\r\nContent-Length: %d\r\n\r\n", 64<<20)
			if _, err := conn.Write(body); err != nil {
				t.Fatal(err)
			}
			if c.close {
				if err := conn.(*net.TCPConn).CloseWrite(); err != nil {
					t.Fatal(err)
				}
			}
			resp, err := http.ReadResponse(bufio.NewReader(conn), nil)
			if err != nil {
				t.Fatalf("no response: %v", err)
			}
			msg, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			runtime.ReadMemStats(&after)
			if resp.StatusCode != c.want {
				t.Fatalf("status %d (%s), want %d", resp.StatusCode, bytes.TrimSpace(msg), c.want)
			}
			if alloc, limit := after.TotalAlloc-before.TotalAlloc, uint64(1<<20+64<<10); alloc > limit {
				t.Errorf("%d bytes allocated for the request, want ≤ %d", alloc, limit)
			}
		})
	}
}

// TestServeConcurrentMixedTraffic hammers one server with recurring
// structures from many clients and verifies every payload — the
// network-level analogue of TestSessionConcurrent. Run under -race.
func TestServeConcurrentMixedTraffic(t *testing.T) {
	graphs := []*maskedspgemm.Matrix{
		maskedspgemm.ErdosRenyi(64, 6, 50),
		maskedspgemm.ErdosRenyi(96, 4, 51),
	}
	// Three requests per structure: plain, complemented, and plain
	// again spelling out the one served algorithm.
	variants := []struct {
		query string
		opts  []maskedspgemm.Option
	}{
		{"", nil},
		{"&complement=1", []maskedspgemm.Option{maskedspgemm.WithComplement()}},
		{"&algorithm=hybrid", nil},
	}
	type query struct {
		body []byte
		url  string
		want resultSummary
	}
	h := servetest.Start(t, New(Config{MaxInFlight: 4, MaxQueue: 64, QueueTimeout: 30 * time.Second}))
	var queries []query
	for _, g := range graphs {
		for _, v := range variants {
			opts := append([]maskedspgemm.Option{maskedspgemm.WithAlgorithm(maskedspgemm.Hybrid)}, v.opts...)
			want, err := maskedspgemm.Multiply(g.PatternView(), g, g, opts...)
			if err != nil {
				t.Fatal(err)
			}
			queries = append(queries, query{
				body: servetest.EncodeSerial(t, g),
				url:  "/v1/multiply?format=summary" + v.query,
				want: summarize(want),
			})
		}
	}
	const workers = 8
	const rounds = 6
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(worker int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				q := queries[(worker+r)%len(queries)]
				resp := h.Post(q.url, q.body, nil)
				if resp.Status != http.StatusOK {
					t.Errorf("worker %d: status %d: %s", worker, resp.Status, resp.Body)
					return
				}
				var got resultSummary
				if err := json.Unmarshal(resp.Body, &got); err != nil {
					t.Error(err)
					return
				}
				if got != q.want {
					t.Errorf("worker %d: summary %+v, want %+v", worker, got, q.want)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	st := getStats(t, h)
	if st.Session.Cache.Hits == 0 {
		t.Fatal("recurring traffic produced no cache hits")
	}
	if lookups := st.Session.Cache.Hits + st.Session.Cache.Misses; lookups != workers*rounds {
		t.Fatalf("cache saw %d lookups, want %d", lookups, workers*rounds)
	}
}
