package maskedspgemm

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"

	"maskedspgemm/internal/core"
	"maskedspgemm/internal/parallel"
	"maskedspgemm/internal/semiring"
	"maskedspgemm/internal/store"
)

// arith is the facade's fixed semiring: float64 ⟨+,×⟩.
type arith = semiring.PlusTimes[float64]

// Session is the serving facade for server-style workloads: many
// masked products, issued concurrently, against recurring structures
// (the paper's motivating scenario — §8's applications re-multiply
// over a fixed graph, and a query server does the same across
// requests). A Session wires together the two pieces that make that
// cheap:
//
//   - a structure-keyed plan cache, so a product whose mask/A/B
//     structure has been seen before skips all per-structure analysis
//     (validation, slab layout, CSC transposition, hybrid cost
//     modeling) — repeat-structure planning is allocation-free and an
//     order of magnitude cheaper than planning anew;
//   - a bounded executor pool, so the per-worker accumulators and
//     scratch buffers — deliberately not concurrency-safe — are checked
//     out per request and reused across requests, keeping steady-state
//     execution allocation near zero while capping retained memory.
//
// All Session methods are safe for concurrent use by multiple
// goroutines. Construct one Session per served dataset (or per
// process) and share it.
//
// For single-goroutine iterative loops the lower-level NewPlan /
// Executor API remains the sharper tool; see DESIGN.md §8 for how the
// pieces relate.
type Session struct {
	cache *core.PlanCache[float64, arith]
	pool  *core.ExecutorPool[float64, arith]
	// operands is the content-addressed operand store; it shares budget
	// with the plan cache, so resident operands and cached plans evict
	// under one global-LRU byte bound (DESIGN.md §13).
	operands *store.Store
	// budget is the shared byte budget cache and store draw from.
	budget *core.MemBudget
	// onMiss holds the observers installed via WithMissObserver, each
	// called after every plan-cache miss that planned successfully.
	onMiss []func(PlanMiss)

	schedMu sync.Mutex
	sched   parallel.SchedSummary

	// execCanceled and kernelPanics count executions retired early by
	// cooperative cancellation and by a recovered kernel panic; together
	// with the pool's poisoned count they make up FaultStats.
	execCanceled atomic.Uint64
	kernelPanics atomic.Uint64
}

// SessionOption configures NewSession.
type SessionOption func(*sessionConfig)

// sessionConfig collects the tunables behind SessionOption.
type sessionConfig struct {
	cacheEntries int
	cacheBytes   int64
	budgetBytes  int64
	maxIdle      int
	onMiss       []func(PlanMiss)
}

// PlanMiss describes one plan-cache miss a session observed: a request
// whose operand structure (under its plan-affecting options) had not
// been planned before. A serving layer can aggregate these — which
// structures keep missing, whether warming covered the live traffic —
// and feed a warm-by-prediction loop that pre-plans recurring shapes.
type PlanMiss struct {
	// MaskFingerprint, AFingerprint, BFingerprint are the structural
	// fingerprints of the missed operands (sparse.Pattern.Fingerprint) —
	// the same identities the plan cache keys on.
	MaskFingerprint, AFingerprint, BFingerprint uint64
	// Scheme is the plan's scheme name ("MSA-1P" style, as in the
	// paper's figures).
	Scheme string
	// Complement reports whether the missed request used a complemented
	// mask.
	Complement bool
	// Warm reports whether the miss came from Warm rather than Multiply:
	// warming misses are expected (they are the point of warming), serve
	// misses are the signal worth predicting away.
	Warm bool
}

// WithMissObserver installs f as a plan-miss observer: it is called
// synchronously after every cache miss that planned successfully, from
// the goroutine that issued the Multiply or Warm. The option may be
// given more than once; observers run in installation order. Keep them
// fast and non-blocking; they must not call back into the session.
// Every lookup not answered from the cache reports a miss, including
// requests that coalesced onto another goroutine's in-flight planning —
// observers see demand, not planning work.
func WithMissObserver(f func(PlanMiss)) SessionOption {
	return func(c *sessionConfig) { c.onMiss = append(c.onMiss, f) }
}

// WithPlanCacheEntries bounds the number of cached plans (default
// core's DefaultPlanCacheEntries, 128). Least-recently-used plans are
// evicted beyond the bound.
func WithPlanCacheEntries(n int) SessionOption {
	return func(c *sessionConfig) { c.cacheEntries = n }
}

// WithPlanCacheBytes bounds the estimated analysis memory retained by
// the plan cache (default unbounded). Least-recently-used plans are
// evicted beyond the bound.
func WithPlanCacheBytes(n int64) SessionOption {
	return func(c *sessionConfig) { c.cacheBytes = n }
}

// WithMemoryBudget bounds the one byte budget the plan cache and the
// operand store share (default core.DefaultMemoryBudgetBytes, 1 GiB):
// cached analyses and resident operands evict globally least recently
// used against it, so a burst of uploads squeezes cold plans out and
// vice versa. WithPlanCacheEntries/WithPlanCacheBytes remain local
// caps applied on top.
func WithMemoryBudget(n int64) SessionOption {
	return func(c *sessionConfig) { c.budgetBytes = n }
}

// WithMaxIdleExecutors bounds how many idle executors the session
// retains between requests (default GOMAXPROCS). Each idle executor
// holds accumulators sized by the largest product it has executed, so
// this bound caps the session's retained scratch memory.
func WithMaxIdleExecutors(n int) SessionOption {
	return func(c *sessionConfig) { c.maxIdle = n }
}

// NewSession returns an empty session: nothing is cached or pooled
// until the first Multiply.
func NewSession(opts ...SessionOption) *Session {
	var cfg sessionConfig
	for _, f := range opts {
		f(&cfg)
	}
	sr := arith{}
	budget := core.NewMemBudget(cfg.budgetBytes)
	s := &Session{
		cache:    core.NewPlanCache[float64](sr, cfg.cacheEntries, cfg.cacheBytes),
		pool:     core.NewExecutorPool[float64](sr, cfg.maxIdle),
		operands: store.New(budget),
		budget:   budget,
		onMiss:   cfg.onMiss,
	}
	s.cache.AttachBudget(budget)
	return s
}

// observeMiss reports a plan-cache miss to the installed observer. The
// fingerprint recomputation is cheap relative to the planning the miss
// just paid for, and hits — the steady state — never reach here.
func (s *Session) observeMiss(mask *Pattern, a, b *Matrix, o core.Options, warm bool) {
	if len(s.onMiss) == 0 {
		return
	}
	ev := PlanMiss{
		MaskFingerprint: mask.Fingerprint(),
		Scheme:          o.SchemeName(),
		Complement:      o.Complement,
		Warm:            warm,
	}
	if &a.Pattern == mask {
		ev.AFingerprint = ev.MaskFingerprint
	} else {
		ev.AFingerprint = a.Pattern.Fingerprint()
	}
	switch {
	case &b.Pattern == mask:
		ev.BFingerprint = ev.MaskFingerprint
	case &b.Pattern == &a.Pattern:
		ev.BFingerprint = ev.AFingerprint
	default:
		ev.BFingerprint = b.Pattern.Fingerprint()
	}
	for _, f := range s.onMiss {
		f(ev)
	}
}

// Multiply computes C = M ⊙ (A·B) like the package-level Multiply, but
// through the session's plan cache and executor pool: a product whose
// operand structure (and plan-affecting options) recur pays only the
// numeric work. Execution-only options never fragment the cache:
// WithThreads and WithSchedStats are honored per execution against the
// shared plan, so a structure warmed at one width without telemetry
// still hits when requested at another width with it. Safe for
// concurrent use.
//
// WithReuseOutput is ignored here — the result must outlive the pooled
// executor that produced it, so outputs are always freshly allocated.
func (s *Session) Multiply(mask *Pattern, a, b *Matrix, opts ...Option) (*Matrix, error) {
	return s.MultiplyCtx(context.Background(), mask, a, b, opts...)
}

// MultiplyCtx is Multiply under a context: when ctx is canceled — client
// disconnect, deadline — the execution stops cooperatively at its next
// checkpoint (scheduler block claim or pass boundary) and the error
// matches ErrCanceled. Interrupted executions leave accumulator scratch
// half-mutated, so their executors are discarded rather than pooled;
// FaultStats counts both outcomes. A kernel panic inside any worker is
// likewise contained: the session stays serviceable and the call returns
// a *KernelPanicError.
func (s *Session) MultiplyCtx(ctx context.Context, mask *Pattern, a, b *Matrix, opts ...Option) (*Matrix, error) {
	o := buildOptions(opts)
	plan, hit, err := s.cache.GetOrPlanObserved(mask, a, b, o)
	if err != nil {
		return nil, err
	}
	if !hit {
		s.observeMiss(mask, a, b, o, false)
	}
	exec := s.pool.Get()
	// Retirement is outcome-dependent (Put clean executors, Discard
	// interrupted ones), so it runs explicitly after telemetry rather
	// than as a blanket deferred Put; the defer only covers panics that
	// escape past ExecuteOnCtx's own containment (nothing engine-side
	// does, but observeMiss callbacks and semiring code could).
	retired := false
	defer func() {
		if !retired {
			s.pool.Discard(exec)
		}
	}()
	// The request's width rides in ExecOptions. ReuseOutput stays off:
	// the result must outlive the pooled executor.
	eo := core.ExecOptions{Threads: o.Threads, CollectSchedStats: o.CollectSchedStats}
	out, err := plan.ExecuteOnCtx(ctx, exec, a, b, eo)
	if eo.CollectSchedStats {
		// Record telemetry even when the execution errored: dashboards
		// must see the passes that misbehaved, not only the clean ones.
		// ExecuteOnOpts resets the stats before anything can fail, so an
		// errored pass reads as empty rather than replaying the previous
		// execution's record.
		st := exec.SchedStats()
		s.schedMu.Lock()
		s.sched.Record(st)
		s.schedMu.Unlock()
	}
	s.retire(exec, err)
	retired = true
	return out, err
}

// retire ends ownership of a checked-out executor according to how its
// execution finished: clean (or failed before touching scratch) goes
// back to the pool; interrupted mid-pass — kernel panic or cooperative
// cancellation — is poisoned and discarded, because half-mutated
// accumulator scratch must never serve another request. Fault counters
// are bumped here so FaultStats sees every containment event exactly
// once.
func (s *Session) retire(exec *core.Executor[float64, arith], err error) {
	var kp *core.KernelPanicError
	switch {
	case errors.As(err, &kp):
		s.kernelPanics.Add(1)
		s.pool.Discard(exec)
	case errors.Is(err, core.ErrCanceled):
		s.execCanceled.Add(1)
		s.pool.Discard(exec)
	default:
		s.pool.Put(exec)
	}
}

// Warm plans (or confirms a cached plan for) the given structure
// without executing, so a server can pre-populate its cache at startup
// and keep first-request latency flat. Warming is keyed like serving:
// execution-only options are normalized out, so a warmed structure hits
// for any width, telemetry, or output-ownership choice a later request
// makes.
func (s *Session) Warm(mask *Pattern, a, b *Matrix, opts ...Option) error {
	o := buildOptions(opts)
	_, hit, err := s.cache.GetOrPlanObserved(mask, a, b, o)
	if err != nil {
		return err
	}
	if !hit {
		s.observeMiss(mask, a, b, o, true)
	}
	return nil
}

// OperandRef content-addresses a stored operand: its structure
// fingerprint paired with its values fingerprint (store.Ref). Obtain
// one from PutOperand and spend it in MultiplyRefs.
type OperandRef = store.Ref

// PutOperand files a matrix in the session's content-addressed
// operand store and returns its reference, taking ownership of m: the
// caller must not mutate it afterwards (resident operands are shared
// with concurrent readers and executions). Re-putting identical
// content is idempotent — created reports false and the resident
// entry is refreshed, not duplicated. Resident operands are evicted
// least-recently-used under the session's shared memory budget.
func (s *Session) PutOperand(m *Matrix) (ref OperandRef, created bool) {
	return s.operands.Put(m)
}

// PutOperandValues files a fresh value set under an already-resident
// structure — the values-only delta for iterative workloads whose
// pattern is fixed. Only vals is supplied (ownership transfers); the
// structure is named by its fingerprint and must be resident, or a
// *store.ErrUnknownPattern is returned. Because the returned ref
// shares the resident structure byte for byte, a MultiplyRefs through
// it hits any plan the structure already has cached.
func (s *Session) PutOperandValues(patternFP uint64, vals []float64) (ref OperandRef, created bool, err error) {
	return s.operands.PutValues(patternFP, vals)
}

// Operand resolves a reference to its resident matrix (shared,
// read-only), refreshing its eviction recency. ok is false when the
// content is not (or no longer) resident.
func (s *Session) Operand(ref OperandRef) (*Matrix, bool) {
	return s.operands.Get(ref)
}

// OperandPattern resolves a structure fingerprint to its resident
// pattern — the mask form of a reference (masks are structure-only,
// so they resolve without a values half and stay resident while any
// value set shares the structure).
func (s *Session) OperandPattern(fp uint64) (*Pattern, bool) {
	return s.operands.GetPattern(fp)
}

// MissingOperand names one operand a reference-based multiply could
// not resolve.
type MissingOperand struct {
	// Operand is the request role: "mask", "a", or "b".
	Operand string
	// Pattern is the unresolved structure fingerprint.
	Pattern uint64
	// Values is the unresolved values fingerprint; zero for masks,
	// which are referenced by structure alone.
	Values uint64
}

// String renders "a 0123…:89ab…" / "mask 0123…" for error messages.
func (m MissingOperand) String() string {
	if m.Values == 0 && m.Operand == "mask" {
		return fmt.Sprintf("%s %016x", m.Operand, m.Pattern)
	}
	return fmt.Sprintf("%s %016x:%016x", m.Operand, m.Pattern, m.Values)
}

// MissingOperandsError reports which operands of a MultiplyRefs were
// not resident — the caller learns exactly what to re-upload. The
// serving layer maps it to 404 with the missing fingerprints named.
type MissingOperandsError struct {
	// Missing lists the unresolved operands in mask, a, b order.
	Missing []MissingOperand
}

// Error implements error.
func (e *MissingOperandsError) Error() string {
	parts := make([]string, len(e.Missing))
	for i, m := range e.Missing {
		parts[i] = m.String()
	}
	return "maskedspgemm: operands not resident: " + strings.Join(parts, ", ")
}

// MultiplyRefs is Multiply with every operand named by reference
// instead of carried by value: the mask by its structure fingerprint,
// A and B by full content references from PutOperand. Resolution
// failures return a *MissingOperandsError listing every dangling
// operand (not just the first), so one round trip tells the caller
// everything to re-upload. A resolved request proceeds exactly as
// Multiply — same plan cache, same pooled executors — and since
// resident operands have stable structure, warm traffic by reference
// is a guaranteed plan-cache hit.
func (s *Session) MultiplyRefs(maskFP uint64, aRef, bRef OperandRef, opts ...Option) (*Matrix, error) {
	return s.MultiplyRefsCtx(context.Background(), maskFP, aRef, bRef, opts...)
}

// MultiplyRefsCtx is MultiplyRefs under a context, with MultiplyCtx's
// cancellation semantics: operand resolution is instantaneous and never
// interrupted, the execution stops cooperatively when ctx is canceled.
func (s *Session) MultiplyRefsCtx(ctx context.Context, maskFP uint64, aRef, bRef OperandRef, opts ...Option) (*Matrix, error) {
	a, aOK := s.operands.Get(aRef)
	var b *Matrix
	bOK := true
	if bRef == aRef {
		b = a
	} else {
		b, bOK = s.operands.Get(bRef)
	}
	// Resolve the mask from A's own pattern when the fingerprints
	// agree (the self-mask graph shape): pointer identity lets the
	// plan-cache key hash one structure instead of three.
	var mask *Pattern
	maskOK := true
	if aOK && maskFP == aRef.Pattern {
		mask = a.PatternView()
	} else {
		mask, maskOK = s.operands.GetPattern(maskFP)
	}
	if !maskOK || !aOK || !bOK {
		err := &MissingOperandsError{}
		if !maskOK {
			err.Missing = append(err.Missing, MissingOperand{Operand: "mask", Pattern: maskFP})
		}
		if !aOK {
			err.Missing = append(err.Missing, MissingOperand{Operand: "a", Pattern: aRef.Pattern, Values: aRef.Values})
		}
		if !bOK {
			err.Missing = append(err.Missing, MissingOperand{Operand: "b", Pattern: bRef.Pattern, Values: bRef.Values})
		}
		return nil, err
	}
	return s.MultiplyCtx(ctx, mask, a, b, opts...)
}

// CacheStats re-exports the plan cache counters (see SessionStats).
type CacheStats = core.PlanCacheStats

// PoolStats re-exports the executor pool counters (see SessionStats).
type PoolStats = core.ExecutorPoolStats

// SchedSummary re-exports cumulative scheduler telemetry (see
// SessionStats): recorded passes, total worker busy time, blocks
// claimed and stolen, and the worst per-execution imbalance.
type SchedSummary = parallel.SchedSummary

// StoreStats re-exports the operand store counters (see SessionStats).
type StoreStats = store.Stats

// BudgetStats reports the shared memory budget cached plans and
// resident operands draw from.
type BudgetStats struct {
	// UsedBytes is the accounted total across cache and store.
	UsedBytes int64 `json:"used_bytes"`
	// MaxBytes is the configured budget (WithMemoryBudget).
	MaxBytes int64 `json:"max_bytes"`
}

// FaultStats counts the session's fault-containment events: executions
// retired early and the executors poisoned by them (DESIGN.md §15).
type FaultStats struct {
	// ExecCanceled counts executions stopped by cooperative
	// cancellation — a canceled MultiplyCtx context or a latched token —
	// before completing.
	ExecCanceled uint64 `json:"exec_canceled"`
	// KernelPanics counts executions that ended in a recovered kernel
	// panic (*KernelPanicError).
	KernelPanics uint64 `json:"kernel_panics"`
	// ExecutorsDiscarded counts executors dropped un-pooled because an
	// interrupted execution left their scratch unsafe to reuse; tracks
	// the pool's Poisoned counter.
	ExecutorsDiscarded uint64 `json:"executors_discarded"`
}

// SessionStats is a point-in-time snapshot of a session's cache, pool,
// store, and scheduler behaviour, for dashboards and capacity tuning.
// Its JSON encoding is the session block of mspgemm-serve's /stats.
type SessionStats struct {
	// Cache reports plan-cache hits, misses (including coalesced
	// misses), evictions, and footprint.
	Cache CacheStats `json:"cache"`
	// Store reports operand-store hits, misses, puts, evictions, and
	// residency.
	Store StoreStats `json:"store"`
	// Budget reports the shared byte budget cache and store evict
	// against.
	Budget BudgetStats `json:"budget"`
	// Pool reports executor creations, reuses, discards, and idle count.
	Pool PoolStats `json:"pool"`
	// Sched accumulates scheduler telemetry over every Multiply issued
	// with WithSchedStats; zero when the option is never used.
	Sched SchedSummary `json:"sched"`
	// Faults counts fault-containment events: canceled executions,
	// recovered kernel panics, and the executors poisoned by either.
	Faults FaultStats `json:"faults"`
}

// Stats returns a snapshot of the session's counters.
func (s *Session) Stats() SessionStats {
	s.schedMu.Lock()
	sched := s.sched
	s.schedMu.Unlock()
	pool := s.pool.Stats()
	return SessionStats{
		Cache:  s.cache.Stats(),
		Pool:   pool,
		Store:  s.operands.StatsSnapshot(),
		Budget: BudgetStats{UsedBytes: s.budget.Used(), MaxBytes: s.budget.Max()},
		Sched:  sched,
		Faults: FaultStats{
			ExecCanceled:       s.execCanceled.Load(),
			KernelPanics:       s.kernelPanics.Load(),
			ExecutorsDiscarded: pool.Poisoned,
		},
	}
}
