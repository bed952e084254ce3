package serve

import (
	"fmt"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	maskedspgemm "maskedspgemm"
	"maskedspgemm/internal/faultinject"
	"maskedspgemm/internal/serve/servetest"
)

// The HTTP half of the chaos suite (DESIGN.md §15): fault injection
// drives kernel panics, execution deadlines, and client disconnects
// through the full serving stack, and the tests assert the containment
// contract — the process survives, slot accounting stays exact, no
// goroutines leak, the pool refills, and the next request succeeds.
// All of it runs under -race in CI.

// chaosServeKinds are the injected panics the serve chaos test sends
// through Hybrid, the one served algorithm, which runs one-phase: the
// numeric pass of a plain and of a complemented product on the
// parallel claim loop, and of a plain product on the serial one
// (threads=1). Each panics at its own row, so each is a distinct
// (family, value) key of the panic log. Per-family containment is
// core's TestChaosPanicEachFamily, and the symbolic pass's, which only
// the paper's two-phase schemes run, TestChaosPanicSymbolicPass.
var chaosServeKinds = []struct {
	query string
	hooks faultinject.Hooks
}{
	{"", faultinject.Hooks{PanicArmed: true, PanicRow: 3, PanicPass: faultinject.PassNumeric}},
	{"?complement=1", faultinject.Hooks{PanicArmed: true, PanicRow: 5, PanicPass: faultinject.PassNumeric}},
	{"?threads=1", faultinject.Hooks{PanicArmed: true, PanicRow: 7, PanicPass: faultinject.PassNumeric}},
}

// TestServeChaosPanicPerKind injects a kernel panic of each kind
// through the HTTP path: the request answers 500 naming the
// containment, the server keeps serving (the same request succeeds
// once disarmed), /stats counts the panic and the discarded executor,
// and the rate-limited panic log sees exactly one full entry per kind
// despite a retry.
func TestServeChaosPanicPerKind(t *testing.T) {
	t.Cleanup(faultinject.Disarm)
	checkLeaks := servetest.AssertNoLeaks(t)
	srv := New(Config{MaxInFlight: 2})
	var logMu sync.Mutex
	var logged []string
	srv.panics.logf = func(format string, args ...any) {
		logMu.Lock()
		logged = append(logged, fmt.Sprintf(format, args...))
		logMu.Unlock()
	}
	h := servetest.Start(t, srv)
	g := maskedspgemm.ErdosRenyi(96, 6, 60)
	body := servetest.EncodeSerial(t, g)

	var wantPanics uint64
	for _, kind := range chaosServeKinds {
		url := "/v1/multiply" + kind.query
		faultinject.Arm(kind.hooks)
		// Two identical failing requests: both must answer 500, but the
		// second's stack is rate-limited out of the log.
		for rep := 0; rep < 2; rep++ {
			resp := h.Post(url, body, nil)
			if resp.Status != http.StatusInternalServerError {
				t.Fatalf("%s rep %d: status %d, want 500: %s", url, rep, resp.Status, resp.Body)
			}
			if !strings.Contains(string(resp.Body), "kernel panic contained") {
				t.Fatalf("%s: body does not name the containment: %s", url, resp.Body)
			}
			wantPanics++
		}
		faultinject.Disarm()
		if resp := h.Post(url, body, nil); resp.Status != http.StatusOK {
			t.Fatalf("%s after disarm: status %d, want 200: %s", url, resp.Status, resp.Body)
		}
	}

	st := getStats(t, h)
	if got := st.Session.Faults.KernelPanics; got != wantPanics {
		t.Errorf("kernel_panics = %d, want %d", got, wantPanics)
	}
	if got := st.Session.Faults.ExecutorsDiscarded; got != wantPanics {
		t.Errorf("executors_discarded = %d, want %d", got, wantPanics)
	}
	if st.Session.Faults.ExecCanceled != 0 {
		t.Errorf("exec_canceled = %d, want 0", st.Session.Faults.ExecCanceled)
	}
	logMu.Lock()
	nLogged := len(logged)
	logMu.Unlock()
	// One full log entry per kind: the repeat within the interval is
	// suppressed, and each logged entry carries a stack and the request
	// operand fingerprints.
	if nLogged != len(chaosServeKinds) {
		t.Errorf("panic log entries = %d, want %d (repeats must be rate-limited)", nLogged, len(chaosServeKinds))
	}
	for _, entry := range logged {
		if !strings.Contains(entry, "goroutine") || !strings.Contains(entry, "mask=") {
			t.Errorf("log entry lacks stack or request refs: %.120s", entry)
		}
	}
	h.Close()
	checkLeaks()
}

// TestServeExecDeadline pins X-Exec-Deadline-Ms: a numeric pass held
// long past the budget answers 503 quickly (not after the full delay),
// the cancellation is counted, the slot accounting returns to zero, and
// the server serves the next request.
func TestServeExecDeadline(t *testing.T) {
	t.Cleanup(faultinject.Disarm)
	checkLeaks := servetest.AssertNoLeaks(t)
	srv := New(Config{MaxInFlight: 1})
	h := servetest.Start(t, srv)
	g := maskedspgemm.ErdosRenyi(96, 6, 61)
	body := servetest.EncodeSerial(t, g)

	if resp := h.Post("/v1/multiply", body, map[string]string{"X-Exec-Deadline-Ms": "soon"}); resp.Status != http.StatusBadRequest {
		t.Fatalf("bad deadline header: status %d, want 400", resp.Status)
	}

	faultinject.Arm(faultinject.Hooks{Delay: 5 * time.Second, DelayPass: faultinject.PassNumeric})
	start := time.Now()
	resp := h.Post("/v1/multiply", body, map[string]string{"X-Exec-Deadline-Ms": "30"})
	elapsed := time.Since(start)
	if resp.Status != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want 503: %s", resp.Status, resp.Body)
	}
	if !strings.Contains(string(resp.Body), "execution deadline exceeded") {
		t.Fatalf("body does not name the deadline: %s", resp.Body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("503 without Retry-After")
	}
	// The injected delay is 5s; answering fast proves the deadline
	// stopped the pass mid-flight rather than waiting it out.
	if elapsed > 2*time.Second {
		t.Errorf("deadline took %v to fire, want well under the 5s injected delay", elapsed)
	}
	faultinject.Disarm()

	st := getStats(t, h)
	if st.Session.Faults.ExecCanceled == 0 {
		t.Error("exec_canceled not counted")
	}
	if st.Admission.InFlight != 0 {
		t.Errorf("in_flight = %d after deadline, want 0", st.Admission.InFlight)
	}
	if resp := h.Post("/v1/multiply", body, nil); resp.Status != http.StatusOK {
		t.Fatalf("after deadline: status %d, want 200: %s", resp.Status, resp.Body)
	}
	h.Close()
	checkLeaks()
}

// TestServeHugeExecDeadline pins X-Exec-Deadline-Ms past the largest
// Duration: such a budget means no execution deadline, so a request
// whose numeric pass is held for 50 ms answers 200, at the first value
// that would overflow and at one whose product wraps to a budget of
// under a millisecond.
func TestServeHugeExecDeadline(t *testing.T) {
	t.Cleanup(faultinject.Disarm)
	srv := New(Config{MaxInFlight: 1})
	h := servetest.Start(t, srv)
	body := servetest.EncodeSerial(t, maskedspgemm.ErdosRenyi(96, 6, 63))
	faultinject.Arm(faultinject.Hooks{Delay: 50 * time.Millisecond, DelayPass: faultinject.PassNumeric})
	for _, ms := range []string{"9223372036855", "18446744073710"} {
		if resp := h.Post("/v1/multiply", body, map[string]string{"X-Exec-Deadline-Ms": ms}); resp.Status != http.StatusOK {
			t.Fatalf("X-Exec-Deadline-Ms: %s: status %d, want 200: %s", ms, resp.Status, resp.Body)
		}
	}
	if st := getStats(t, h); st.Session.Faults.ExecCanceled != 0 {
		t.Fatalf("exec_canceled = %d, want 0", st.Session.Faults.ExecCanceled)
	}
}

// TestServeDisconnectFreesSlot is the raw-socket disconnect pin: with
// one execution slot and a numeric pass held open by fault injection, a
// client that uploads a full request and drops the connection must have
// its execution canceled and its slot freed almost immediately — not
// held for the rest of the pass — so the next client gets served.
func TestServeDisconnectFreesSlot(t *testing.T) {
	t.Cleanup(faultinject.Disarm)
	checkLeaks := servetest.AssertNoLeaks(t)
	srv := New(Config{MaxInFlight: 1})
	h := servetest.Start(t, srv)
	g := maskedspgemm.ErdosRenyi(96, 6, 62)
	body := servetest.EncodeSerial(t, g)

	// Hold the numeric pass far longer than the test will wait: only
	// cancellation can free the slot in time.
	faultinject.Arm(faultinject.Hooks{Delay: 30 * time.Second, DelayPass: faultinject.PassNumeric})

	conn := h.Dial()
	req := fmt.Sprintf("POST /v1/multiply HTTP/1.1\r\nHost: servetest\r\nContent-Length: %d\r\n\r\n", len(body))
	if _, err := conn.Write(append([]byte(req), body...)); err != nil {
		t.Fatal(err)
	}
	servetest.WaitFor(t, func() bool { return srv.adm.stats().InFlight == 1 })

	// Drop the connection mid-execution and time how long the slot
	// stays held. The chain is: conn close → request context done →
	// cancel token latch → the delay hook's 1ms poll observes it →
	// CanceledError → release. Nominal single-digit milliseconds; the
	// bound leaves slack for race-instrumented CI.
	if err := conn.Close(); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	servetest.WaitFor(t, func() bool { return srv.adm.stats().InFlight == 0 })
	if freed := time.Since(start); freed > time.Second {
		t.Errorf("slot held %v after disconnect, want near-immediate release", freed)
	}
	faultinject.Disarm()

	st := getStats(t, h)
	if st.Session.Faults.ExecCanceled != 1 {
		t.Errorf("exec_canceled = %d, want 1", st.Session.Faults.ExecCanceled)
	}
	if st.Session.Faults.ExecutorsDiscarded != 1 {
		t.Errorf("executors_discarded = %d, want 1", st.Session.Faults.ExecutorsDiscarded)
	}
	// The freed slot must actually serve: the follow-up request runs on
	// a fresh executor while the fault is disarmed.
	if resp := h.Post("/v1/multiply", body, nil); resp.Status != http.StatusOK {
		t.Fatalf("after disconnect: status %d, want 200: %s", resp.Status, resp.Body)
	}
	h.Close()
	checkLeaks()
}

// TestServeOperandsNoLeaks extends the goroutine-leak check to the
// upload endpoint: a mix of successful, idempotent, and failing PUTs
// must leave no goroutine behind once the listener closes.
func TestServeOperandsNoLeaks(t *testing.T) {
	checkLeaks := servetest.AssertNoLeaks(t)
	srv := New(Config{MaxInFlight: 2})
	h := servetest.Start(t, srv)
	g := maskedspgemm.ErdosRenyi(64, 4, 63)
	body := servetest.EncodeSerial(t, g)
	for i := 0; i < 3; i++ {
		if resp := h.Put("/v1/operands", body, nil); resp.Status != http.StatusOK {
			t.Fatalf("upload %d: status %d: %s", i, resp.Status, resp.Body)
		}
	}
	if resp := h.Put("/v1/operands", []byte("not a matrix"), nil); resp.Status != http.StatusBadRequest {
		t.Fatalf("bad upload: status %d, want 400", resp.Status)
	}
	h.Close()
	checkLeaks()
}

// TestServeWarmNoLeaks extends the goroutine-leak check to /v1/warm:
// successful and failing warms leave no goroutine behind.
func TestServeWarmNoLeaks(t *testing.T) {
	checkLeaks := servetest.AssertNoLeaks(t)
	srv := New(Config{MaxInFlight: 2})
	h := servetest.Start(t, srv)
	g := maskedspgemm.ErdosRenyi(64, 4, 64)
	body := servetest.EncodeSerial(t, g)
	for i := 0; i < 3; i++ {
		if resp := h.Post("/v1/warm", body, nil); resp.Status != http.StatusOK {
			t.Fatalf("warm %d: status %d: %s", i, resp.Status, resp.Body)
		}
	}
	if resp := h.Post("/v1/warm", []byte("not a matrix"), nil); resp.Status != http.StatusBadRequest {
		t.Fatalf("bad warm: status %d, want 400", resp.Status)
	}
	h.Close()
	checkLeaks()
}
