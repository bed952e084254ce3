package core

import (
	"errors"
	"fmt"
	"runtime/debug"

	"maskedspgemm/internal/parallel"
)

// Fault containment at the engine layer (DESIGN.md §15): the typed
// errors an interrupted execution surfaces instead of a partial result
// or a dead process.

// ErrCanceled is the errors.Is target for cooperative cancellation:
// every *CanceledError matches it, so callers that do not care which
// pass was interrupted test errors.Is(err, ErrCanceled).
var ErrCanceled = errors.New("core: execution canceled")

// CanceledError reports an execution stopped by cooperative
// cancellation — a latched CancelToken observed at a block claim or a
// pass checkpoint. The interrupted output was discarded; nothing
// partial escapes.
type CanceledError struct {
	// Pass names the interrupted pass: "symbolic", "numeric", or
	// "compact".
	Pass string
}

// Error implements error.
func (e *CanceledError) Error() string {
	return fmt.Sprintf("core: execution canceled during %s pass", e.Pass)
}

// Is matches ErrCanceled.
func (e *CanceledError) Is(target error) bool { return target == ErrCanceled }

// KernelPanicError reports a panic recovered from inside an execution:
// a kernel worker (or the serial path) panicked, sibling workers were
// quiesced via the cancel latch, and the panic was converted to this
// error at the Plan.ExecuteOnOpts boundary. The executor that ran the
// multiply holds half-mutated accumulator scratch and must be
// discarded, not pooled (ExecutorPool.Discard).
type KernelPanicError struct {
	// Family is the plan's scheme name ("MSA", "Hash", "Hybrid", ...)
	// — which kernel family's code path panicked.
	Family string
	// Worker is the panicking worker's tid; 0 when the panic happened
	// on the calling goroutine (serial path or driver code).
	Worker int
	// Value is the recovered panic value.
	Value any
	// Stack is the panicking goroutine's stack at recovery.
	Stack []byte
}

// Error implements error. The stack is deliberately omitted — it is
// for the serving layer's rate-limited logger, not for every error
// string.
func (e *KernelPanicError) Error() string {
	return fmt.Sprintf("core: kernel panic in %s (worker %d): %v", e.Family, e.Worker, e.Value)
}

// Unwrap returns the panic value when it is an error.
func (e *KernelPanicError) Unwrap() error {
	err, _ := e.Value.(error)
	return err
}

// asKernelPanic normalizes a recovered panic value into a
// KernelPanicError: a *parallel.PanicError keeps the worker id and the
// worker's stack; anything else (serial path, driver code) is wrapped
// with the current stack.
func asKernelPanic(family string, r any) *KernelPanicError {
	if pe, ok := r.(*parallel.PanicError); ok {
		return &KernelPanicError{Family: family, Worker: pe.Worker, Value: pe.Value, Stack: pe.Stack}
	}
	return &KernelPanicError{Family: family, Value: r, Stack: debug.Stack()}
}
