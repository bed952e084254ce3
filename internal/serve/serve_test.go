package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"runtime"
	"sort"
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
	want, err := maskedspgemm.Multiply(g.PatternView(), g, g, maskedspgemm.WithAlgorithm(maskedspgemm.Hash))
	if err != nil {
		t.Fatal(err)
	}
	h := servetest.Start(t, New(Config{}))

	// Raw serial body, serial response.
	resp := h.Post("/v1/multiply?algorithm=hash", servetest.EncodeSerial(t, g), nil)
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
	resp = h.Post("/v1/multiply?algorithm=hash&format=mtx", servetest.EncodeMTX(t, g), nil)
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
	resp = h.Post("/v1/multiply?algorithm=hash&format=summary", servetest.EncodeSerial(t, g), nil)
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
	wantMulti, err := maskedspgemm.Multiply(hm.PatternView(), g, hm)
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

// TestServeWarmThenMultiplyHits drives the headline bugfix through the
// wire: /v1/warm plants the plan, a later /v1/multiply with telemetry
// on and its own ?threads= width must hit it — one miss, one hit, one
// cache entry. Width and telemetry are execution-only, so neither may
// fragment the cache.
func TestServeWarmThenMultiplyHits(t *testing.T) {
	g := maskedspgemm.ErdosRenyi(80, 6, 44)
	h := servetest.Start(t, New(Config{}))
	body := servetest.EncodeSerial(t, g)

	resp := h.Post("/v1/warm?algorithm=msa", body, nil)
	if resp.Status != http.StatusOK {
		t.Fatalf("warm: status %d: %s", resp.Status, resp.Body)
	}
	// threads is clamped to the host's parallelism; widen to 2 where
	// the host allows it.
	threads := min(2, runtime.GOMAXPROCS(0))
	resp = h.Post(fmt.Sprintf("/v1/multiply?algorithm=msa&sched_stats=1&threads=%d", threads), body, nil)
	if resp.Status != http.StatusOK {
		t.Fatalf("multiply: status %d: %s", resp.Status, resp.Body)
	}
	st := getStats(t, h)
	if c := st.Session.Cache; c.Hits != 1 || c.Misses != 1 || c.Entries != 1 {
		t.Fatalf("cache = %+v, want Hits == 1, Misses == 1, Entries == 1 (warm → threads=%d stats-multiply must hit)", c, threads)
	}
	if len(st.RecentMisses) != 1 || !st.RecentMisses[0].Warm {
		t.Fatalf("recent misses = %+v, want the single warm plant", st.RecentMisses)
	}
}

// TestServeStatsHybridFamilyRows checks the operator view of per-row
// family adoption: after a hybrid multiply, /stats carries
// hybrid_family_rows summing to the mask's row count; uniform-scheme
// traffic reports none.
func TestServeStatsHybridFamilyRows(t *testing.T) {
	g := maskedspgemm.ErdosRenyi(80, 6, 45)
	h := servetest.Start(t, New(Config{}))
	body := servetest.EncodeSerial(t, g)

	resp := h.Post("/v1/multiply?algorithm=msa", body, nil)
	if resp.Status != http.StatusOK {
		t.Fatalf("msa multiply: status %d: %s", resp.Status, resp.Body)
	}
	if rows := getStats(t, h).Session.Cache.HybridFamilyRows; rows != nil {
		t.Fatalf("uniform traffic reported family rows %v", rows)
	}
	resp = h.Post("/v1/multiply?algorithm=hybrid", body, nil)
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
// carries exactly the cache, store, budget, pool, sched, and faults
// blocks beside the admission counters and the miss log.
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
	want := []string{"budget", "cache", "faults", "pool", "sched", "store"}
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

	resp := h.Post("/v1/multiply?algorithm=nope", servetest.EncodeSerial(t, g), nil)
	if resp.Status != http.StatusBadRequest {
		t.Fatalf("unknown algorithm: %d", resp.Status)
	}
	// A typo'd format is rejected up front, before a slot or a
	// multiplication is spent on it.
	resp = h.Post("/v1/multiply?format=json", servetest.EncodeSerial(t, g), nil)
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

// TestServeRetiredAlgorithm checks that the deleted MSA-Epoch ablation
// is an unknown scheme on the wire: 400, naming every registered
// scheme and not the retired one.
func TestServeRetiredAlgorithm(t *testing.T) {
	h := servetest.Start(t, New(Config{}))
	resp := h.Post("/v1/multiply?algorithm=MSA-Epoch", servetest.EncodeSerial(t, maskedspgemm.ErdosRenyi(16, 4, 73)), nil)
	if resp.Status != http.StatusBadRequest {
		t.Fatalf("MSA-Epoch: status %d: %s", resp.Status, resp.Body)
	}
	msg := string(resp.Body)
	if !strings.Contains(msg, "want one of "+algorithmNames()) || strings.Contains(algorithmNames(), "Epoch") {
		t.Errorf("MSA-Epoch rejection does not list the remaining schemes: %s", msg)
	}
	for _, name := range []string{"MSA", "MaskedBit", "Hash", "Hybrid"} {
		if !strings.Contains(msg, name) {
			t.Errorf("rejection omits %s: %s", name, msg)
		}
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

// TestServeWarmBounded pins the planning bound: /v1/warm no longer
// bypasses admission wholesale — at most MaxWarmInFlight warms plan
// concurrently, and a warm that cannot start within QueueTimeout is
// shed with 429 + Retry-After.
func TestServeWarmBounded(t *testing.T) {
	srv := New(Config{MaxWarmInFlight: 1, QueueTimeout: 30 * time.Millisecond})
	gate := make(chan struct{})
	srv.planGate = func() { <-gate }
	h := servetest.Start(t, srv)
	body := servetest.EncodeSerial(t, maskedspgemm.ErdosRenyi(64, 4, 52))

	done := make(chan int, 1)
	go func() {
		done <- h.Post("/v1/warm", body, nil).Status
	}()
	servetest.WaitFor(t, func() bool { return len(srv.warmGate) == 1 })

	resp := h.Post("/v1/warm", body, nil)
	if resp.Status != http.StatusTooManyRequests {
		t.Fatalf("second warm: status %d: %s (want 429 at the planning bound)", resp.Status, resp.Body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("shed warm missing Retry-After")
	}
	close(gate)
	if code := <-done; code != http.StatusOK {
		t.Fatalf("gated warm: status %d", code)
	}
}

// TestServeWarmDrainRace pins the post-token drain re-check: a warm
// that wins its warmGate token concurrently with Drain beginning must
// be rejected with 503 before it starts reading or planning, not
// silently plan into a cache that is being discarded.
func TestServeWarmDrainRace(t *testing.T) {
	srv := New(Config{MaxWarmInFlight: 1})
	gate := make(chan struct{})
	srv.planGate = func() { <-gate }
	h := servetest.Start(t, srv)
	body := servetest.EncodeSerial(t, maskedspgemm.ErdosRenyi(64, 4, 54))

	done := make(chan int, 1)
	go func() {
		done <- h.Post("/v1/warm", body, nil).Status
	}()
	// The warm holds its token and is paused just before the re-check;
	// drain begins, then the warm resumes.
	servetest.WaitFor(t, func() bool { return len(srv.warmGate) == 1 })
	srv.Drain()
	close(gate)
	if code := <-done; code != http.StatusServiceUnavailable {
		t.Fatalf("warm that raced drain: status %d, want 503", code)
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

// TestServeConcurrentMixedTraffic hammers one server with recurring
// structures from many clients and verifies every payload — the
// network-level analogue of TestSessionConcurrent. Run under -race.
func TestServeConcurrentMixedTraffic(t *testing.T) {
	graphs := []*maskedspgemm.Matrix{
		maskedspgemm.ErdosRenyi(64, 6, 50),
		maskedspgemm.ErdosRenyi(96, 4, 51),
	}
	algos := []string{"msa", "hash", "inner"}
	type query struct {
		body []byte
		url  string
		want resultSummary
	}
	h := servetest.Start(t, New(Config{MaxInFlight: 4, MaxQueue: 64, QueueTimeout: 30 * time.Second}))
	var queries []query
	for _, g := range graphs {
		for _, algo := range algos {
			want, err := maskedspgemm.Multiply(g.PatternView(), g, g, mustAlgo(t, algo))
			if err != nil {
				t.Fatal(err)
			}
			queries = append(queries, query{
				body: servetest.EncodeSerial(t, g),
				url:  fmt.Sprintf("/v1/multiply?algorithm=%s&format=summary", algo),
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

// mustAlgo resolves a query-parameter algorithm name to a facade
// option, failing the test on registry drift.
func mustAlgo(t testing.TB, name string) maskedspgemm.Option {
	t.Helper()
	a, ok := algorithmByName(name)
	if !ok {
		t.Fatalf("algorithm %q missing from registry", name)
	}
	return maskedspgemm.WithAlgorithm(a)
}
