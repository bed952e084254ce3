package maskedspgemm

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync/atomic"

	"maskedspgemm/internal/core"
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
// A cached one-phase plan remembers the output pattern of its second
// execution, and later products of the same structure compute values
// only (DESIGN.md §5); a plan that computes one triangle of a symmetric
// self-product remembers the columns its half reaches and the full
// pattern instead, and later products write their values into it.
// Results from the Multiply methods therefore share their RowPtr and
// ColIdx with the cached plan and with each other: they must not be
// mutated. Clone a result to own every array.
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

// WithMemoryBudget bounds the one byte budget the plan cache and the
// operand store share (default core.DefaultMemoryBudgetBytes, 1 GiB):
// cached analyses and resident operands evict globally least recently
// used against it, so a burst of uploads squeezes cold plans out and
// vice versa. It is the one byte bound; WithPlanCacheEntries remains
// a local entry cap applied on top.
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
		cache:    core.NewPlanCache[float64](sr, cfg.cacheEntries),
		pool:     core.NewExecutorPool[float64](sr, cfg.maxIdle),
		operands: store.New(budget),
		budget:   budget,
		onMiss:   cfg.onMiss,
	}
	s.cache.AttachBudget(budget)
	return s
}

// observeMiss reports a plan-cache miss to the installed observers,
// with the operand fingerprints the cache lookup keyed on.
func (s *Session) observeMiss(fp core.Fingerprints, o core.Options, warm bool) {
	if len(s.onMiss) == 0 {
		return
	}
	ev := PlanMiss{
		MaskFingerprint: fp.Mask,
		AFingerprint:    fp.A,
		BFingerprint:    fp.B,
		Scheme:          o.SchemeName(),
		Complement:      o.Complement,
		Warm:            warm,
	}
	for _, f := range s.onMiss {
		f(ev)
	}
}

// Multiply computes C = M ⊙ (A·B) like the package-level Multiply, but
// through the session's plan cache and executor pool: a product whose
// operand structure (and plan-affecting options) recur pays only the
// numeric work. Execution-only options never fragment the cache:
// WithThreads is honored per execution against the shared plan, so a
// structure warmed at one width still hits when requested at another.
// Safe for concurrent use.
//
// WithReuseOutput is ignored here — the result must outlive the pooled
// executor that produced it, so outputs never alias executor buffers
// (their pattern may be the cached plan's, as the Session doc says).
// WithSchedStats is ignored too: the session keeps no scheduler
// telemetry; Plan.SchedStats reads it for a single-owner plan.
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
	plan, fp, hit, err := s.cache.GetOrPlanObserved(mask, a, b, o)
	if err != nil {
		return nil, err
	}
	if !hit {
		s.observeMiss(fp, o, false)
	}
	return s.execute(ctx, plan, a, b, o, false)
}

// execute runs a cached plan on a pooled executor. resident tells the
// execution that A is a resident operand, whose values the store's
// ownership contract keeps from changing, so that a one-triangle plan
// checks their symmetry once per value array.
func (s *Session) execute(ctx context.Context, plan *core.Plan[float64, arith], a, b *Matrix, o core.Options, resident bool) (*Matrix, error) {
	exec := s.pool.Get()
	// Retirement is outcome-dependent (Put clean executors, Discard
	// interrupted ones), so it runs explicitly after the execution
	// rather than as a blanket deferred Put; the defer only covers panics that
	// escape past ExecuteOnCtx's own containment (nothing engine-side
	// does, but semiring code could).
	retired := false
	defer func() {
		if !retired {
			s.pool.Discard(exec)
		}
	}()
	// The request's width rides in ExecOptions. ReuseOutput stays off:
	// the result must outlive the pooled executor.
	out, err := plan.ExecuteOnCtx(ctx, exec, a, b, core.ExecOptions{Threads: o.Threads, Resident: resident})
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
	_, fp, hit, err := s.cache.GetOrPlanObserved(mask, a, b, o)
	if err != nil {
		return err
	}
	if !hit {
		s.observeMiss(fp, o, true)
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
// with concurrent readers and executions). When every value is 1.0
// (a mask's upload form, a Matrix Market pattern file), m.Val is
// replaced by a prefix of a read-only slab of ones that other
// unit-valued operands share, so writing it would change theirs too. Re-putting identical
// content is idempotent — created reports false and the resident
// entry is refreshed, not duplicated. Resident operands are evicted
// least-recently-used under the session's shared memory budget.
func (s *Session) PutOperand(m *Matrix) (ref OperandRef, created bool) {
	return s.operands.Put(m)
}

// OperandDigest names the exact bytes an operand was decoded from
// (store.Digest): a 128-bit keyed hash computed by whoever read the
// bytes. The session treats it as opaque.
type OperandDigest = store.Digest

// PutOperandDigest is PutOperand for a matrix decoded from an encoded
// body whose digest is d: it also files d on the resident entry, so
// OperandByDigest answers a later copy of the same bytes without a
// decode. The caller vouches that m is exactly what those bytes
// decode to. The digest is dropped when the entry is evicted.
func (s *Session) PutOperandDigest(m *Matrix, d OperandDigest) (ref OperandRef, created bool) {
	return s.operands.PutBody(m, d)
}

// OperandByDigest resolves the digest of an encoded body to the
// resident operand filed from the same bytes, with its ref: no decode,
// no validation, no hashing of the matrix. A hit counts as the re-put
// of resident content it stands for (StoreStats.Reputs and BodyHits)
// and refreshes the operand's eviction recency. The matrix is shared
// and read-only.
func (s *Session) OperandByDigest(d OperandDigest) (m *Matrix, ref OperandRef, ok bool) {
	return s.operands.GetBody(d)
}

// PutOperandValues files a fresh value set under an already-resident
// structure — the values-only delta for iterative workloads whose
// pattern is fixed. Only vals is supplied (ownership transfers; unit
// values are filed as a shared ones slab, as PutOperand files them); the
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
// everything to re-upload. A resolved request proceeds as Multiply —
// same plan cache, same pooled executors — except that the cache keys
// on the refs' fingerprints instead of hashing the operands, so a
// product planned by value hits by reference and vice versa. Since
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
	// agree (the self-mask graph shape): the structure is the same
	// resident arrays either way, one store lookup cheaper.
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
	return s.MultiplyStoredCtx(ctx, maskFP, aRef, bRef, mask, a, b, opts...)
}

// MultiplyStoredCtx is MultiplyCtx for operands already filed in the
// session's store — by PutOperand, PutOperandDigest or a resolution —
// passed in hand together with the fingerprints they are stored under:
// maskFP is the mask's structure fingerprint, aRef and bRef are A's
// and B's refs. Nothing is resolved, so an operand evicted since it
// was filed still computes. The plan cache keys on the fingerprints
// instead of hashing the operands again, and a plan built on a miss
// aliases the mask instead of cloning it, so the operands must not be
// mutated (the store's ownership contract). The fingerprints are not
// checked against the operands.
func (s *Session) MultiplyStoredCtx(ctx context.Context, maskFP uint64, aRef, bRef OperandRef, mask *Pattern, a, b *Matrix, opts ...Option) (*Matrix, error) {
	o := buildOptions(opts)
	fp := core.Fingerprints{Mask: maskFP, A: aRef.Pattern, B: bRef.Pattern}
	plan, hit, err := s.cache.GetOrPlanStored(fp, mask, a, b, o)
	if err != nil {
		return nil, err
	}
	if !hit {
		s.observeMiss(fp, o, false)
	}
	return s.execute(ctx, plan, a, b, o, true)
}

// CacheStats re-exports the plan cache counters (see SessionStats).
type CacheStats = core.PlanCacheStats

// PoolStats re-exports the executor pool counters (see SessionStats).
type PoolStats = core.ExecutorPoolStats

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

// SessionStats is a point-in-time snapshot of a session's cache, store,
// budget, pool, and fault counters, for dashboards and capacity tuning.
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
	// Faults counts fault-containment events: canceled executions,
	// recovered kernel panics, and the executors poisoned by either.
	Faults FaultStats `json:"faults"`
}

// Stats returns a snapshot of the session's counters.
func (s *Session) Stats() SessionStats {
	pool := s.pool.Stats()
	return SessionStats{
		Cache:  s.cache.Stats(),
		Pool:   pool,
		Store:  s.operands.StatsSnapshot(),
		Budget: BudgetStats{UsedBytes: s.budget.Used(), MaxBytes: s.budget.Max()},
		Faults: FaultStats{
			ExecCanceled:       s.execCanceled.Load(),
			KernelPanics:       s.kernelPanics.Load(),
			ExecutorsDiscarded: pool.Poisoned,
		},
	}
}
