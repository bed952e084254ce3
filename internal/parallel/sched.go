package parallel

import (
	"sync"
	"sync/atomic"
	"time"
)

// This file is the claim loop behind both entry points (DESIGN.md §9):
//
//   - ForEachBlock (parallel.go): fixed-grain blocks, blind to row
//     cost, for the plan-free passes (elementwise ops, flops counts,
//     plan-time scans).
//   - ForEachPartition: variable-width partitions precomputed by the
//     caller — the engine's equal-cost row partitions cut from a flops
//     profile — with opt-in per-worker telemetry reported into a
//     *SchedStats, so load imbalance is measurable instead of guessed,
//     and cooperative cancellation.

// WorkerStats is one worker's share of a scheduled parallel pass.
type WorkerStats struct {
	// Busy is the time the worker spent inside the caller's function
	// (claim overhead and idle spinning excluded).
	Busy time.Duration
	// Claimed counts the blocks the worker executed.
	Claimed int
}

// SchedStats is per-call scheduler telemetry, filled when a scheduling
// function is given a non-nil stats target. Workers accumulate across
// passes until Reset, so a multi-pass execution (symbolic + numeric +
// compaction) aggregates naturally. Not safe for concurrent use by
// multiple scheduled passes at once.
type SchedStats struct {
	// Workers holds one entry per worker id; index = tid.
	Workers []WorkerStats
}

// Reset clears the stats and sizes them for a worker count.
func (s *SchedStats) Reset(threads int) {
	s.Workers = s.Workers[:0]
	s.ensure(threads)
}

// ensure grows Workers to at least threads entries, preserving counts.
func (s *SchedStats) ensure(threads int) {
	for len(s.Workers) < threads {
		s.Workers = append(s.Workers, WorkerStats{})
	}
}

// record folds one worker's pass-local counters into its slot.
func (s *SchedStats) record(tid int, busy time.Duration, claimed int) {
	w := &s.Workers[tid]
	w.Busy += busy
	w.Claimed += claimed
}

// Busy returns the summed busy time across workers.
func (s SchedStats) Busy() time.Duration {
	var total time.Duration
	for _, w := range s.Workers {
		total += w.Busy
	}
	return total
}

// Stolen always returns 0: no scheduler steals work any more. It stays
// for readers of the parallel.stolen_per_op trajectory metric.
func (s SchedStats) Stolen() int { return 0 }

// Imbalance is the load-imbalance factor: the busiest worker's time
// divided by the mean busy time over the workers that executed at
// least one block. 1.0 is perfect balance; the participant count is
// the worst case (one participant did everything). Workers that never
// received a block do not count against balance — a pass the
// scheduler deliberately ran narrow (serial fallback, fewer blocks
// than workers) is not imbalance. Returns 0 when nothing was
// recorded.
func (s SchedStats) Imbalance() float64 {
	var max, total time.Duration
	participants := 0
	for _, w := range s.Workers {
		if w.Claimed == 0 {
			continue
		}
		participants++
		total += w.Busy
		if w.Busy > max {
			max = w.Busy
		}
	}
	if participants == 0 || total == 0 {
		return 0
	}
	mean := float64(total) / float64(participants)
	return float64(max) / mean
}

// Clone returns a deep copy safe to retain after the next Reset.
func (s SchedStats) Clone() SchedStats {
	return SchedStats{Workers: append([]WorkerStats(nil), s.Workers...)}
}

// ForEachPartition runs fn over the variable-width partitions described
// by bounds: partition j covers [bounds[j], bounds[j+1]), and bounds
// must be non-decreasing. Partitions are claimed dynamically from an
// atomic counter, so callers may provide more partitions than workers
// (scheduling slack) and empty partitions are skipped without a call.
// This is the executor for plan-time equal-cost partitions: the caller
// did the load balancing when it laid out bounds; the scheduler only
// hands partitions out.
//
// When stats is non-nil, each worker's busy time and claimed-partition
// count are recorded, costing two clock reads per partition. When
// cancel is non-nil and becomes latched, workers stop claiming new
// partitions — a canceled pass wastes at most one in-flight partition
// per worker. A worker panic is captured, latches the (possibly
// internal) cancel token so siblings quiesce, and is re-raised on the
// calling goroutine as a *PanicError after all workers park; on the
// serial path panics propagate unchanged.
func ForEachPartition(bounds []int, threads int, stats *SchedStats, cancel *CancelToken, fn func(lo, hi, tid int)) {
	if len(bounds) < 2 {
		return
	}
	claimBlocks(blocks{bounds: bounds}, Threads(threads), stats, cancel, fn)
}

// blocks describes the claims of one scheduled pass. With bounds nil,
// claim j is the fixed-grain block [j·grain, min((j+1)·grain, n));
// otherwise it is the partition [bounds[j], bounds[j+1]).
type blocks struct {
	n, grain int
	bounds   []int
}

// count returns the number of claims.
func (b blocks) count() int {
	if b.bounds != nil {
		return len(b.bounds) - 1
	}
	return (b.n + b.grain - 1) / b.grain
}

// at returns claim j's index range; it may be empty for a partition.
func (b blocks) at(j int) (lo, hi int) {
	if b.bounds != nil {
		return b.bounds[j], b.bounds[j+1]
	}
	lo = j * b.grain
	return lo, min(lo+b.grain, b.n)
}

// claimBlocks runs fn over every non-empty claim of b: on the calling
// goroutine when there is one worker or one claim, else over
// min(threads, claims) workers.
func claimBlocks(b blocks, threads int, stats *SchedStats, cancel *CancelToken, fn func(lo, hi, tid int)) {
	if stats != nil {
		stats.ensure(threads)
	}
	threads = min(threads, b.count())
	if threads <= 1 {
		claimSerial(b, stats, cancel, fn)
		return
	}
	// The parallel path lives in its own function so its escaping
	// coordination state (counter, trap, wait group) is never
	// heap-allocated on the serial fast path above.
	claimParallel(b, threads, stats, cancel, fn)
}

// claimSerial is the single-worker path: claims run inline on the
// calling goroutine as tid 0, in order. cancel is polled per claim;
// panics propagate to the caller unchanged (there is no sibling to
// quiesce).
//
//mspgemm:hotpath
func claimSerial(b blocks, stats *SchedStats, cancel *CancelToken, fn func(lo, hi, tid int)) {
	var busy time.Duration
	claimed := 0
	for j, nb := 0, b.count(); j < nb && !cancel.Canceled(); j++ {
		lo, hi := b.at(j)
		if lo >= hi {
			continue
		}
		claimed++
		if stats != nil {
			t0 := time.Now()
			fn(lo, hi, 0)
			busy += time.Since(t0)
		} else {
			fn(lo, hi, 0)
		}
	}
	if stats != nil {
		stats.record(0, busy, claimed)
	}
}

// claimParallel is the multi-worker path: threads goroutines claim
// blocks from a shared atomic counter until it runs past the last
// claim or the token latches.
func claimParallel(b blocks, threads int, stats *SchedStats, cancel *CancelToken, fn func(lo, hi, tid int)) {
	if cancel == nil {
		cancel = new(CancelToken)
	}
	nb := b.count()
	var trap panicTrap
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(threads)
	for t := 0; t < threads; t++ {
		go func(tid int) {
			defer func() {
				if r := recover(); r != nil {
					trap.capture(tid, cancel, r)
				}
				wg.Done()
			}()
			var busy time.Duration
			claimed := 0
			for !cancel.Canceled() {
				j := int(next.Add(1)) - 1
				if j >= nb {
					break
				}
				lo, hi := b.at(j)
				if lo >= hi {
					continue
				}
				claimed++
				if stats != nil {
					t0 := time.Now()
					fn(lo, hi, tid)
					busy += time.Since(t0)
				} else {
					fn(lo, hi, tid)
				}
			}
			if stats != nil {
				stats.record(tid, busy, claimed)
			}
		}(t)
	}
	wg.Wait()
	trap.rethrow()
}
