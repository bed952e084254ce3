// Package serve is the network front-end over the Session serving
// facade: an HTTP server that accepts masked-product requests with
// operands on the wire, serves them through the session's
// structure-keyed plan cache and bounded executor pool, and — the
// point — applies admission control so saturation degrades predictably
// (bounded concurrency, bounded queueing, load shedding) instead of
// queueing unboundedly. See DESIGN.md §11.
//
// Endpoints:
//
//	POST /v1/multiply  — compute C = M ⊙ (A·B); operands in the body
//	                     (MSPG binary or Matrix Market, raw single
//	                     matrix or multipart mask/a/b parts) or named
//	                     by reference (?a=, ?b=, ?mask= fingerprints
//	                     of stored operands; dangling refs → 404
//	                     naming what's missing), options as query
//	                     parameters, result as MSPG binary, Matrix
//	                     Market, or a JSON summary. Inline operands
//	                     are stored through; the response's
//	                     X-Operand-* headers carry their refs.
//	PUT  /v1/operands  — upload operands once for later reference;
//	                     idempotent, content-addressed. With
//	                     ?values_for=<pattern-fp>, a values-only
//	                     delta re-keys fresh numbers under a
//	                     resident structure.
//	POST /v1/warm      — plan the operands' structure without
//	                     executing, pre-populating the plan cache.
//	GET  /stats        — JSON session + admission counters and the
//	                     recent plan-miss log.
//	GET  /healthz      — liveness; 503 once draining begins.
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"strconv"
	"strings"
	"sync"
	"time"

	maskedspgemm "maskedspgemm"
	"maskedspgemm/internal/core"
	"maskedspgemm/internal/mtx"
	"maskedspgemm/internal/parallel"
	"maskedspgemm/internal/serial"
)

// Config sizes a Server. The zero value is serviceable: every field
// has a default chosen to match the session's executor pool.
type Config struct {
	// MaxInFlight bounds concurrent multiplications (default
	// GOMAXPROCS, matching the executor pool's idle bound, so
	// steady-state traffic reuses pooled executors instead of growing
	// new ones).
	MaxInFlight int
	// MaxQueue bounds requests waiting for an execution slot (default
	// 4×MaxInFlight). Requests beyond it are shed with 429.
	MaxQueue int
	// QueueTimeout is the default per-request queue deadline (default
	// 2s); requests may lower it via the X-Queue-Deadline-Ms header.
	QueueTimeout time.Duration
	// RetryAfter is the hint attached to 429/503 responses (default 1s).
	RetryAfter time.Duration
	// MaxBodyBytes bounds a request body (default 1 GiB). Bodies over
	// the cap are rejected with 413.
	MaxBodyBytes int64
	// BodyReadTimeout bounds how long one request may spend uploading
	// its body (default 1 minute). Operands are decoded while the
	// request holds its execution slot — that keeps decode concurrency
	// bounded by MaxInFlight — so without this deadline a slow-trickling
	// client would hold a slot for the duration of its upload; with it,
	// the slot is reclaimed and the client gets 408.
	BodyReadTimeout time.Duration
	// PanicLogEvery rate-limits kernel-panic logging (default 1
	// minute): the first contained panic of a given family and panic
	// value logs its full stack and request fingerprints, repeats
	// within the interval are counted instead of logged.
	PanicLogEvery time.Duration
	// MaxWarmInFlight bounds concurrent /v1/warm requests (default 2).
	// Warming bypasses the execution semaphore — it only plans — but
	// planning distinct structures is real CPU work, so it gets its own
	// small bound; warms that cannot start within QueueTimeout are shed
	// with 429.
	MaxWarmInFlight int
	// SessionOptions configures the session the server constructs
	// (cache bounds, executor-pool bound). The server installs its own
	// miss observer in addition — observers compose, so a caller-
	// provided WithMissObserver still fires.
	SessionOptions []maskedspgemm.SessionOption
}

// withDefaults resolves the zero values.
func (c Config) withDefaults() Config {
	if c.MaxInFlight <= 0 {
		c.MaxInFlight = parallel.Threads(0)
	}
	if c.MaxQueue <= 0 {
		c.MaxQueue = 4 * c.MaxInFlight
	}
	if c.QueueTimeout <= 0 {
		c.QueueTimeout = 2 * time.Second
	}
	if c.RetryAfter <= 0 {
		c.RetryAfter = time.Second
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 1 << 30
	}
	if c.BodyReadTimeout <= 0 {
		c.BodyReadTimeout = time.Minute
	}
	if c.MaxWarmInFlight <= 0 {
		c.MaxWarmInFlight = 2
	}
	return c
}

// Server is the HTTP front-end. Construct with New, mount as an
// http.Handler, and call Drain before shutting the listener down.
type Server struct {
	cfg     Config
	session *maskedspgemm.Session
	adm     *admission
	misses  *missLog
	panics  *panicLog
	mux     *http.ServeMux

	// warmGate is the planning semaphore /v1/warm requests hold: one
	// token per permitted concurrent warm (MaxWarmInFlight).
	warmGate chan struct{}

	// execGate, when non-nil, is invoked while an admitted request
	// holds its execution slot — a test seam for observing (and
	// widening) the concurrency window.
	execGate func()
	// planGate, when non-nil, is invoked while a warm request holds its
	// warmGate token — the analogous seam for the planning window.
	planGate func()
}

// New builds a Server and its Session from cfg.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	misses := newMissLog(missLogDepth)
	// The pool bound default may be overridden by caller options; miss
	// observers compose, so the server's own rides alongside any the
	// caller installed.
	sopts := append([]maskedspgemm.SessionOption{
		maskedspgemm.WithMaxIdleExecutors(cfg.MaxInFlight),
	}, cfg.SessionOptions...)
	sopts = append(sopts, maskedspgemm.WithMissObserver(misses.observe))
	s := &Server{
		cfg:      cfg,
		session:  maskedspgemm.NewSession(sopts...),
		adm:      newAdmission(cfg.MaxInFlight, cfg.MaxQueue),
		misses:   misses,
		panics:   newPanicLog(cfg.PanicLogEvery, nil),
		warmGate: make(chan struct{}, cfg.MaxWarmInFlight),
	}
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("/v1/multiply", s.handleMultiply)
	s.mux.HandleFunc("/v1/operands", s.handleOperands)
	s.mux.HandleFunc("/v1/warm", s.handleWarm)
	s.mux.HandleFunc("/stats", s.handleStats)
	s.mux.HandleFunc("/healthz", s.handleHealthz)
	return s
}

// Session exposes the server's session (for warming at startup).
func (s *Server) Session() *maskedspgemm.Session { return s.session }

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mux.ServeHTTP(w, r)
}

// Drain moves the server to the draining state — new and queued
// multiply requests are rejected with 503 — and returns a channel that
// closes once the last in-flight multiplication finishes. Pair with
// http.Server.Shutdown: Drain first (stop accepting work), then
// Shutdown (wait out the connections).
func (s *Server) Drain() <-chan struct{} {
	return s.adm.beginDrain()
}

// handleMultiply is the serving path: admission first (shedding is
// cheap and happens before the body is read), then decode, then the
// session's cached plan + pooled executor do the work.
func (s *Server) handleMultiply(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		httpError(w, http.StatusMethodNotAllowed, "POST required")
		return
	}
	opts, err := parseOptions(r)
	if err != nil {
		httpError(w, http.StatusBadRequest, err.Error())
		return
	}
	format, err := parseFormat(r)
	if err != nil {
		httpError(w, http.StatusBadRequest, err.Error())
		return
	}
	// The reference form is recognized (and rejected if malformed)
	// before the request queues for a slot: a bad ref is a cheap 400.
	refs, err := parseRefForm(r.URL.Query())
	if err != nil {
		httpError(w, http.StatusBadRequest, err.Error())
		return
	}
	execWait, err := execDeadline(r)
	if err != nil {
		httpError(w, http.StatusBadRequest, err.Error())
		return
	}
	wait, err := queueDeadline(r, s.cfg.QueueTimeout)
	if err != nil {
		httpError(w, http.StatusBadRequest, err.Error())
		return
	}
	// release frees the execution slot at most once: explicitly the
	// moment the multiplication returns — response writing happens off
	// the slot, so a slow reader never holds back the admission queue —
	// with the deferred call as the backstop for every error path.
	var release func()
	switch s.adm.acquire(r.Context(), wait) {
	case admitted:
		release = sync.OnceFunc(s.adm.release)
		defer release()
	case admitShed:
		s.retryAfter(w)
		httpError(w, http.StatusTooManyRequests, "admission queue full; retry later")
		return
	case admitExpired:
		s.retryAfter(w)
		httpError(w, http.StatusServiceUnavailable, "queue deadline expired before an execution slot freed")
		return
	case admitDraining:
		httpError(w, http.StatusServiceUnavailable, "server is draining")
		return
	case admitCanceled:
		// The client is gone; nothing useful to write.
		return
	}
	if s.execGate != nil {
		s.execGate()
	}
	// Execution runs under the request context — a client disconnect
	// cancels the kernels cooperatively mid-pass — tightened by the
	// X-Exec-Deadline-Ms budget when the client set one. The timeout
	// starts here, after admission: queueing time does not eat the
	// execution budget.
	ctx := r.Context()
	if execWait > 0 {
		var cancelCtx context.CancelFunc
		ctx, cancelCtx = context.WithTimeout(ctx, execWait)
		defer cancelCtx()
	}
	if refs != nil {
		// Reference form: no body to read — the operands are already
		// resident, the request cost is the envelope. A dangling ref is
		// a 404 that names every missing operand.
		out, err := s.session.MultiplyRefsCtx(ctx, refs.maskFP, refs.aRef, refs.bRef, opts...)
		release()
		if err != nil {
			s.writeExecError(w, r, err, refs.describe())
			return
		}
		s.writeResult(w, format, out)
		return
	}
	// The body is decoded while holding the slot — deliberately, so at
	// most MaxInFlight bodies are ever in memory at once — but under
	// BodyReadTimeout, so a slow-trickling upload surrenders the slot at
	// the deadline (408) instead of starving the queue.
	ops, status, err := s.readOperands(w, r)
	if err != nil {
		httpError(w, status, err.Error())
		return
	}
	// Inline operands are stored through on the way in, and the refs
	// they landed under ride back on X-Operand-* headers: the upload a
	// client just paid buys its next request the reference form.
	s.storeThrough(w, ops)
	out, err := s.session.MultiplyCtx(ctx, ops.mask, ops.a, ops.b, opts...)
	release()
	if err != nil {
		// The store-through headers double as the panic log's request
		// fingerprints: the offending operands are resident and named.
		h := w.Header()
		s.writeExecError(w, r, err, fmt.Sprintf("mask=%s a=%s b=%s",
			h.Get("X-Operand-Mask"), h.Get("X-Operand-A"), h.Get("X-Operand-B")))
		return
	}
	s.writeResult(w, format, out)
}

// writeExecError maps a failed multiplication to its response. A
// contained kernel panic is a 500 — the server stays up, the poisoned
// executor is already discarded — logged through the rate-limited
// panic log with refs naming the request's operands. A cooperative
// cancellation is a 503 when the server's execution deadline fired, and
// nothing at all when the client itself is gone. Dangling references
// keep their 404, everything else its 422.
func (s *Server) writeExecError(w http.ResponseWriter, r *http.Request, err error, refs string) {
	var kp *maskedspgemm.KernelPanicError
	var ce *maskedspgemm.CanceledError
	var missing *maskedspgemm.MissingOperandsError
	switch {
	case errors.As(err, &kp):
		s.panics.observe(kp, refs)
		httpError(w, http.StatusInternalServerError,
			fmt.Sprintf("kernel panic contained in %s; the request was aborted, the server is healthy", kp.Family))
	case errors.As(err, &ce):
		if r.Context().Err() != nil {
			// The client disconnected; the cancellation is its own doing
			// and there is nobody to answer.
			return
		}
		s.retryAfter(w)
		httpError(w, http.StatusServiceUnavailable,
			fmt.Sprintf("execution deadline exceeded during %s pass", ce.Pass))
	case errors.As(err, &missing):
		writeMissing(w, missing)
	default:
		httpError(w, http.StatusUnprocessableEntity, err.Error())
	}
}

// handleWarm plans without executing. Warming bypasses the execution
// semaphore — it touches only the plan cache, never the executor pool
// the semaphore protects — so a deploy can pre-plan its corpus while
// traffic is being served. But singleflight only coalesces *identical*
// structures, and planning a distinct structure is real analysis CPU,
// so warms hold their own small semaphore (MaxWarmInFlight): the
// bounded-concurrency guarantee covers the planner too, and a burst of
// distinct-structure warms queues up to QueueTimeout then sheds with
// 429. Warming still honors drain: planning into a cache that is about
// to be discarded only delays shutdown.
func (s *Server) handleWarm(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		httpError(w, http.StatusMethodNotAllowed, "POST required")
		return
	}
	if s.adm.stats().Draining {
		httpError(w, http.StatusServiceUnavailable, "server is draining")
		return
	}
	opts, err := parseOptions(r)
	if err != nil {
		httpError(w, http.StatusBadRequest, err.Error())
		return
	}
	timer := time.NewTimer(s.cfg.QueueTimeout)
	defer timer.Stop()
	select {
	case s.warmGate <- struct{}{}:
		defer func() { <-s.warmGate }()
	case <-timer.C:
		s.retryAfter(w)
		httpError(w, http.StatusTooManyRequests, "warm concurrency limit reached; retry later")
		return
	case <-s.adm.drainCh:
		httpError(w, http.StatusServiceUnavailable, "server is draining")
		return
	case <-r.Context().Done():
		return
	}
	if s.planGate != nil {
		s.planGate()
	}
	// Re-check after winning the token: a warm that raced a free token
	// against the drain signal must not start planning (the same
	// post-select re-check admission.acquire does for multiplies).
	if s.adm.stats().Draining {
		httpError(w, http.StatusServiceUnavailable, "server is draining")
		return
	}
	ops, status, err := s.readOperands(w, r)
	if err != nil {
		httpError(w, status, err.Error())
		return
	}
	if err := s.session.Warm(ops.mask, ops.a, ops.b, opts...); err != nil {
		httpError(w, http.StatusUnprocessableEntity, err.Error())
		return
	}
	writeJSON(w, map[string]any{"warmed": true, "cache": s.session.Stats().Cache})
}

// statsResponse is the /stats payload. Every block is a stats type
// encoded through its own JSON tags, so /stats, /v1/warm, and the Go
// API share one vocabulary.
type statsResponse struct {
	// Session carries the plan-cache, store, budget, executor-pool,
	// scheduler, and fault counters.
	Session maskedspgemm.SessionStats `json:"session"`
	// Admission carries the front door's counters.
	Admission AdmissionStats `json:"admission"`
	// RecentMisses is the tail of the plan-miss log, newest last — the
	// structures a warm-by-prediction loop would pre-plan.
	RecentMisses []missRecord `json:"recent_misses"`
}

// handleStats reports the counters a dashboard or autoscaler reads.
func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, statsResponse{
		Session:      s.session.Stats(),
		Admission:    s.adm.stats(),
		RecentMisses: s.misses.recent(),
	})
}

// handleHealthz is the liveness/readiness probe: 200 while serving,
// 503 once draining begins (load balancers stop routing here first).
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if s.adm.stats().Draining {
		httpError(w, http.StatusServiceUnavailable, "draining")
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
}

// readGuarded decodes a request body under the configured size cap
// (over it → 413) and read deadline (a body still trickling in at
// BodyReadTimeout → 408, and the slot or warm token the caller holds
// frees). On failure the returned status is the HTTP code the caller
// should answer with. Every body-reading endpoint goes through here so
// the guards can't drift apart per handler.
func readGuarded[T any](s *Server, w http.ResponseWriter, r *http.Request, decode func(*http.Request) (T, error)) (T, int, error) {
	rc := http.NewResponseController(w)
	// SetReadDeadline is unsupported on some wrapped writers; a request
	// that can't be deadlined still gets the size cap.
	deadlined := rc.SetReadDeadline(time.Now().Add(s.cfg.BodyReadTimeout)) == nil
	// The tracker remembers the transport-level read failure (cap
	// tripped, deadline expired) independently of the decode error:
	// the decoders see truncated input and may report the resulting
	// parse confusion without wrapping the cause.
	body := &trackedBody{ReadCloser: http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)}
	r.Body = body
	out, err := decode(r)
	if err != nil {
		var zero T
		return zero, operandStatus(err, body.readErr), err
	}
	if deadlined {
		// Decoded fully: stop the deadline from bleeding into the next
		// request on this kept-alive connection. On error the deadline
		// deliberately stays armed — net/http drains the unread body
		// after the handler returns, and that drain must time out too,
		// or a stalled upload would block the error response itself.
		_ = rc.SetReadDeadline(time.Time{})
	}
	return out, http.StatusOK, nil
}

// readOperands is readGuarded specialized to multiply/warm bodies.
func (s *Server) readOperands(w http.ResponseWriter, r *http.Request) (*operands, int, error) {
	return readGuarded(s, w, r, decodeOperands)
}

// trackedBody records the first non-EOF error a body read surfaces.
type trackedBody struct {
	io.ReadCloser
	readErr error
}

// Read delegates and remembers the first real failure.
func (b *trackedBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	if err != nil && err != io.EOF && b.readErr == nil {
		b.readErr = err
	}
	return n, err
}

// operandStatus maps a body-decode failure to its HTTP status,
// consulting both the decoder's error and the underlying read error:
// the size cap surfaces as 413 (so clients learn the limit exists), an
// expired read deadline as 408, anything else — a malformed body — as
// 400.
func operandStatus(decodeErr, readErr error) int {
	var tooBig *http.MaxBytesError
	for _, err := range []error{decodeErr, readErr} {
		switch {
		case err == nil:
		case errors.As(err, &tooBig):
			return http.StatusRequestEntityTooLarge
		case errors.Is(err, os.ErrDeadlineExceeded):
			return http.StatusRequestTimeout
		}
	}
	return http.StatusBadRequest
}

// writeResult encodes a product in the requested format: MSPG binary
// (default), Matrix Market (?format=mtx), or a JSON summary
// (?format=summary). format was validated by parseFormat before the
// request was admitted.
func (s *Server) writeResult(w http.ResponseWriter, format string, out *maskedspgemm.Matrix) {
	switch format {
	case "", "serial":
		w.Header().Set("Content-Type", "application/x-mspgemm")
		// A failed write means the client is gone; nothing to recover.
		_ = serial.Write(w, out)
	case "mtx":
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		_ = mtx.Write(w, out)
	case "summary":
		writeJSON(w, summarize(out))
	}
}

// retryAfter attaches the backoff hint to a shed response.
func (s *Server) retryAfter(w http.ResponseWriter) {
	secs := int(s.cfg.RetryAfter / time.Second)
	if secs < 1 {
		secs = 1
	}
	w.Header().Set("Retry-After", strconv.Itoa(secs))
}

// queueDeadline resolves the per-request queue deadline: the
// X-Queue-Deadline-Ms header when present (capped at the server
// default — a client may ask for less patience, not more), else the
// server default. An explicit 0 means exactly what it says — no
// patience: the request is served only if a slot is free right now,
// and shed (429) instead of queued otherwise.
func queueDeadline(r *http.Request, def time.Duration) (time.Duration, error) {
	h := r.Header.Get("X-Queue-Deadline-Ms")
	if h == "" {
		return def, nil
	}
	ms, err := strconv.Atoi(h)
	if err != nil || ms < 0 {
		return 0, fmt.Errorf("serve: X-Queue-Deadline-Ms must be a non-negative integer, got %q", h)
	}
	d := time.Duration(ms) * time.Millisecond
	if d > def {
		return def, nil
	}
	return d, nil
}

// execDeadline parses the X-Exec-Deadline-Ms header: the client's
// budget for the execution itself, started once the request is
// admitted (queueing time is budgeted separately by
// X-Queue-Deadline-Ms). When the budget expires the kernels stop
// cooperatively at their next checkpoint and the request answers 503.
// Absent or 0 means no execution deadline.
func execDeadline(r *http.Request) (time.Duration, error) {
	h := r.Header.Get("X-Exec-Deadline-Ms")
	if h == "" {
		return 0, nil
	}
	ms, err := strconv.Atoi(h)
	if err != nil || ms < 0 {
		return 0, fmt.Errorf("serve: X-Exec-Deadline-Ms must be a non-negative integer, got %q", h)
	}
	return time.Duration(ms) * time.Millisecond, nil
}

// httpError writes a plain-text error response.
func httpError(w http.ResponseWriter, code int, msg string) {
	http.Error(w, msg, code)
}

// writeJSON writes v as an indented JSON response.
func writeJSON(w http.ResponseWriter, v any) {
	writeJSONStatus(w, http.StatusOK, v)
}

// writeJSONStatus writes v as an indented JSON response under an
// explicit status code.
func writeJSONStatus(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

// algorithmByName resolves a scheme by its registry name,
// case-insensitively ("hash" → AlgoHash).
func algorithmByName(name string) (maskedspgemm.Algorithm, bool) {
	for _, a := range core.Algorithms() {
		if strings.EqualFold(a.String(), name) {
			return a, true
		}
	}
	return 0, false
}

// algorithmNames lists the registry's scheme names for error messages.
func algorithmNames() string {
	var names []string
	for _, a := range core.Algorithms() {
		names = append(names, a.String())
	}
	return strings.Join(names, ", ")
}

// missLogDepth bounds the recent-miss ring exposed by /stats.
const missLogDepth = 32

// missRecord is one observed plan-cache miss as /stats reports it —
// the raw material of the ROADMAP's warm-by-prediction loop: a
// recurring fingerprint in this log is a structure worth pre-planning.
type missRecord struct {
	// MaskFP, AFP, BFP are the operands' structural fingerprints, hex.
	MaskFP string `json:"mask_fp"`
	AFP    string `json:"a_fp"`
	BFP    string `json:"b_fp"`
	// Scheme is the plan's scheme name ("MSA-1P").
	Scheme string `json:"scheme"`
	// Complement marks complemented-mask requests.
	Complement bool `json:"complement,omitempty"`
	// Warm marks misses planted by /v1/warm rather than live traffic.
	Warm bool `json:"warm,omitempty"`
}

// missLog is a bounded ring of recent plan-cache misses fed by the
// session's miss observer.
type missLog struct {
	mu   sync.Mutex
	ring []missRecord
	next int
}

// newMissLog returns a ring holding the last depth misses.
func newMissLog(depth int) *missLog {
	return &missLog{ring: make([]missRecord, 0, depth)}
}

// observe is the maskedspgemm.PlanMiss observer wired into the
// session.
func (l *missLog) observe(ev maskedspgemm.PlanMiss) {
	rec := missRecord{
		MaskFP:     fmt.Sprintf("%016x", ev.MaskFingerprint),
		AFP:        fmt.Sprintf("%016x", ev.AFingerprint),
		BFP:        fmt.Sprintf("%016x", ev.BFingerprint),
		Scheme:     ev.Scheme,
		Complement: ev.Complement,
		Warm:       ev.Warm,
	}
	l.mu.Lock()
	if len(l.ring) < cap(l.ring) {
		l.ring = append(l.ring, rec)
	} else {
		l.ring[l.next] = rec
		l.next = (l.next + 1) % cap(l.ring)
	}
	l.mu.Unlock()
}

// recent returns the logged misses oldest-first.
func (l *missLog) recent() []missRecord {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]missRecord, 0, len(l.ring))
	out = append(out, l.ring[l.next:]...)
	out = append(out, l.ring[:l.next]...)
	return out
}
