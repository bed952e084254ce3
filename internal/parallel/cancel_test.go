package parallel

import (
	"errors"
	"sync/atomic"
	"testing"
)

// panicSchedulers enumerates both entry points behind one signature so
// the panic contract is pinned on each. ForEachBlock takes no token:
// its workers quiesce on an internal one the callback cannot read, so
// cancel reaches only the partition arm.
func panicSchedulers() map[string]func(n, threads, grain int, cancel *CancelToken, fn func(lo, hi, tid int)) {
	return map[string]func(n, threads, grain int, cancel *CancelToken, fn func(lo, hi, tid int)){
		"block": func(n, threads, grain int, _ *CancelToken, fn func(lo, hi, tid int)) {
			ForEachBlock(n, threads, grain, fn)
		},
		"partition": func(n, threads, grain int, cancel *CancelToken, fn func(lo, hi, tid int)) {
			ForEachPartition(grainBounds(n, grain), threads, nil, cancel, fn)
		},
	}
}

// TestCancelPreLatchedRunsNothing pins the fast path: a token latched
// before the call means no partition ever reaches fn, serial or
// parallel.
func TestCancelPreLatchedRunsNothing(t *testing.T) {
	for _, threads := range []int{1, 4} {
		tok := new(CancelToken)
		tok.Cancel()
		ran := atomic.Int32{}
		ForEachPartition(grainBounds(1024, 16), threads, nil, tok, func(lo, hi, tid int) { ran.Add(1) })
		if ran.Load() != 0 {
			t.Errorf("threads=%d: %d partitions ran after pre-latched cancel", threads, ran.Load())
		}
	}
}

// TestCancelMidRunStopsEarly latches the token from inside the first
// executed block and checks the pass stops long before covering the
// index space: each worker may finish its in-flight block, but no
// worker claims past the latch plus one racing claim.
func TestCancelMidRunStopsEarly(t *testing.T) {
	const n = 1 << 16
	for _, threads := range []int{1, 4} {
		tok := new(CancelToken)
		var covered atomic.Int64
		ForEachPartition(grainBounds(n, 8), threads, nil, tok, func(lo, hi, tid int) {
			covered.Add(int64(hi - lo))
			tok.Cancel()
		})
		// Worst case: every worker had one claim in flight when the
		// token latched, plus one racing claim each. That is far
		// below half the index space.
		if got := covered.Load(); got >= n/2 {
			t.Errorf("threads=%d: covered %d of %d indices after mid-run cancel", threads, got, n)
		}
	}
}

// TestNilTokenCanceled pins the nil-token convenience: callers without
// a cancellation source pass nil and never observe cancellation.
func TestNilTokenCanceled(t *testing.T) {
	var tok *CancelToken
	if tok.Canceled() {
		t.Error("nil token reads canceled")
	}
}

// TestWorkerPanicRethrownAsPanicError injects a panic into one block of
// a parallel pass and checks (a) the calling goroutine observes a
// *PanicError carrying the worker id, value, and stack, and (b) the
// latch quiesced siblings — the pass did not run to completion. The
// non-panicking blocks dwell until the caller's token latches (a
// bounded spin, the whole bound under ForEachBlock) so quiescence is
// observable regardless of scheduler interleaving.
func TestWorkerPanicRethrownAsPanicError(t *testing.T) {
	const n = 1 << 16
	for name, sched := range panicSchedulers() {
		var covered atomic.Int64
		var pe *PanicError
		tok := new(CancelToken)
		func() {
			defer func() {
				r := recover()
				if r == nil {
					t.Fatalf("%s: worker panic not re-raised", name)
				}
				var ok bool
				if pe, ok = r.(*PanicError); !ok {
					t.Fatalf("%s: re-raised %T, want *PanicError", name, r)
				}
			}()
			sched(n, 4, 8, tok, func(lo, hi, tid int) {
				if lo == 0 {
					panic("injected")
				}
				for i := 0; i < 1e7 && !tok.Canceled(); i++ {
				}
				covered.Add(int64(hi - lo))
			})
		}()
		if pe.Value != "injected" {
			t.Errorf("%s: panic value = %v", name, pe.Value)
		}
		if pe.Worker < 0 || pe.Worker >= 4 {
			t.Errorf("%s: worker id %d out of range", name, pe.Worker)
		}
		if len(pe.Stack) == 0 {
			t.Errorf("%s: no stack captured", name)
		}
		if !errors.As(error(pe), &pe) {
			t.Errorf("%s: PanicError does not satisfy error", name)
		}
		if got := covered.Load(); got >= n-8 {
			t.Errorf("%s: siblings ran the full pass (%d of %d) despite the panic latch", name, got, n)
		}
	}
}

// TestWorkerPanicLatchesCallerToken checks a caller-provided token is
// the one latched on panic, so layers above the scheduler can read the
// interruption without their own channel.
func TestWorkerPanicLatchesCallerToken(t *testing.T) {
	tok := new(CancelToken)
	func() {
		defer func() { _ = recover() }()
		ForEachPartition(grainBounds(4096, 8), 4, nil, tok, func(lo, hi, tid int) {
			panic("boom")
		})
	}()
	if !tok.Canceled() {
		t.Error("caller token not latched by worker panic")
	}
}

// TestSerialPanicPropagatesRaw pins the serial path: with one worker
// there is no goroutine hop, so the panic value arrives unchanged (the
// recover site upstream normalizes both shapes).
func TestSerialPanicPropagatesRaw(t *testing.T) {
	for name, sched := range panicSchedulers() {
		func() {
			defer func() {
				if r := recover(); r != "raw" {
					t.Errorf("%s: serial panic = %v, want raw string", name, r)
				}
			}()
			sched(10, 1, 4, nil, func(lo, hi, tid int) {
				panic("raw")
			})
		}()
	}
}
