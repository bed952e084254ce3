package core

import (
	"sync"

	"maskedspgemm/internal/parallel"
	"maskedspgemm/internal/semiring"
)

// ExecutorPool lends Executors to concurrent requests. Executors are
// deliberately not concurrency-safe — all accumulator, slab, and CSC
// scratch lives in them — so a serving front-end needs an ownership
// story: Get checks an executor out, the caller owns it exclusively
// until Put checks it back in, and the pool retains at most maxIdle
// executors between requests. Because each idle executor's grow-only
// workspaces are sized by the largest structure it has executed, the
// maxIdle bound is the pool's cap on total retained accumulator
// memory; executors returned beyond it are discarded to the garbage
// collector.
//
// The checkout contract (violations are races or use-after-return
// bugs, not detected beyond the double-Put panic):
//
//   - Only the goroutine that Got an executor may use it, and only
//     until it Puts it back.
//   - Results produced under Options.ReuseOutput alias executor-owned
//     buffers and die at Put; Clone them first.
//   - Put at most once per Get; a detected double return panics.
//   - An executor must not be used after Put — plans bound to it hold
//     no lease.
type ExecutorPool[T any, S semiring.Semiring[T]] struct {
	sr      S
	maxIdle int

	mu        sync.Mutex
	idle      []*Executor[T, S]
	created   uint64
	reused    uint64
	discarded uint64
	poisoned  uint64
}

// NewExecutorPool returns an empty pool over the given semiring
// retaining at most maxIdle idle executors (<= 0 means GOMAXPROCS,
// matching one executor per concurrently-serving goroutine at default
// parallelism).
func NewExecutorPool[T any, S semiring.Semiring[T]](sr S, maxIdle int) *ExecutorPool[T, S] {
	if maxIdle <= 0 {
		maxIdle = parallel.Threads(0)
	}
	return &ExecutorPool[T, S]{sr: sr, maxIdle: maxIdle}
}

// Get checks an executor out of the pool, constructing a fresh one
// when no idle executor is available. Get never blocks: the pool
// bounds retained memory, not concurrency — limiting in-flight
// requests is the caller's admission control.
func (p *ExecutorPool[T, S]) Get() *Executor[T, S] {
	p.mu.Lock()
	if n := len(p.idle); n > 0 {
		e := p.idle[n-1]
		p.idle[n-1] = nil
		p.idle = p.idle[:n-1]
		p.reused++
		p.mu.Unlock()
		return e
	}
	p.created++
	p.mu.Unlock()
	return NewExecutor[T](p.sr)
}

// Put returns an executor to the pool, ending the caller's ownership.
// The executor's plan and operand references are dropped (so idle
// executors pin neither cache-evicted plans nor caller matrices) but
// its accumulators and buffers are kept — that reuse is the pool's
// point. Beyond maxIdle the executor is discarded. Putting the same
// executor twice panics. Put(nil) is a no-op.
func (p *ExecutorPool[T, S]) Put(e *Executor[T, S]) {
	if e == nil {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	// The duplicate check runs before any mutation of e: a detected
	// double Put must not first clobber state that the executor's
	// legitimate owner (still holding it idle in the pool) relies on.
	for _, x := range p.idle {
		if x == e {
			panic("core: executor returned to pool twice")
		}
	}
	e.releaseBindings()
	if len(p.idle) >= p.maxIdle {
		p.discarded++
		return
	}
	p.idle = append(p.idle, e)
}

// Discard drops a poisoned executor instead of returning it, ending
// the caller's ownership exactly like Put but without pooling: an
// execution interrupted mid-pass (kernel panic, cooperative
// cancellation) leaves accumulator scratch half-mutated, and the MSA
// family's correctness depends on scratch being clean between rows —
// a poisoned executor must never serve another request. The executor
// goes to the garbage collector; capacity refills lazily because Get
// constructs fresh executors on demand. Discard(nil) is a no-op.
func (p *ExecutorPool[T, S]) Discard(e *Executor[T, S]) {
	if e == nil {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	p.poisoned++
}

// ExecutorPoolStats is a point-in-time snapshot of pool behaviour.
type ExecutorPoolStats struct {
	// Created counts executors constructed because the pool was empty.
	Created uint64 `json:"created"`
	// Reused counts checkouts served by an idle executor.
	Reused uint64 `json:"reused"`
	// Discarded counts returns dropped because maxIdle was reached.
	Discarded uint64 `json:"discarded"`
	// Poisoned counts executors dropped via Discard after an
	// interrupted execution (kernel panic or cancellation) left their
	// scratch unsafe to reuse. Off the wire: the session's
	// faults.executors_discarded reports the same count.
	Poisoned uint64 `json:"-"`
	// Idle is the current number of retained executors.
	Idle int `json:"idle"`
}

// Stats returns a snapshot of the pool counters.
func (p *ExecutorPool[T, S]) Stats() ExecutorPoolStats {
	p.mu.Lock()
	defer p.mu.Unlock()
	return ExecutorPoolStats{
		Created:   p.created,
		Reused:    p.reused,
		Discarded: p.discarded,
		Poisoned:  p.poisoned,
		Idle:      len(p.idle),
	}
}
