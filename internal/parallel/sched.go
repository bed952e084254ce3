package parallel

import (
	"sync"
	"sync/atomic"
	"time"
)

// This file grows the fixed-grain block scheduler of parallel.go into a
// small scheduling subsystem (DESIGN.md §9):
//
//   - ForEachBlockStats: the PR-1 fixed-grain scheduler, now with
//     opt-in per-worker telemetry.
//   - ForEachPartition: variable-width partitions precomputed by the
//     caller (typically equal-cost row partitions from a plan-time
//     flops profile), claimed dynamically.
//   - ForEachChunked: per-worker deques with back-half stealing — the
//     skew-absorbing fallback for callers without a cost profile.
//
// All three report into an optional *SchedStats so load imbalance is
// measurable instead of guessed.

// WorkerStats is one worker's share of a scheduled parallel pass.
type WorkerStats struct {
	// Busy is the time the worker spent inside the caller's function
	// (claim/steal overhead and idle spinning excluded).
	Busy time.Duration
	// Claimed counts the blocks the worker executed, regardless of how
	// it obtained them (shared counter, partition queue, own deque, or
	// a previously stolen range).
	Claimed int
	// Stolen counts successful steal events (ForEachChunked only): each
	// event transfers the back half of a victim's remaining range.
	Stolen int
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
func (s *SchedStats) record(tid int, busy time.Duration, claimed, stolen int) {
	w := &s.Workers[tid]
	w.Busy += busy
	w.Claimed += claimed
	w.Stolen += stolen
}

// Busy returns the summed busy time across workers.
func (s SchedStats) Busy() time.Duration {
	var total time.Duration
	for _, w := range s.Workers {
		total += w.Busy
	}
	return total
}

// Claimed returns the total number of executed blocks.
func (s SchedStats) Claimed() int {
	n := 0
	for _, w := range s.Workers {
		n += w.Claimed
	}
	return n
}

// Stolen returns the total number of steal events.
func (s SchedStats) Stolen() int {
	n := 0
	for _, w := range s.Workers {
		n += w.Stolen
	}
	return n
}

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

// SchedSummary accumulates SchedStats across many executions — the
// serving-layer view (Session.Stats) of scheduler health. Not
// concurrency-safe; callers aggregate under their own lock.
type SchedSummary struct {
	// Passes counts the recorded executions.
	Passes uint64 `json:"passes"`
	// Busy is the summed worker busy time over all recorded executions,
	// encoded as integer nanoseconds.
	Busy time.Duration `json:"busy_nanos"`
	// BlocksClaimed is the total number of executed blocks.
	BlocksClaimed uint64 `json:"blocks_claimed"`
	// BlocksStolen is the total number of steal events.
	BlocksStolen uint64 `json:"blocks_stolen"`
	// WorstImbalance is the highest per-execution Imbalance observed.
	WorstImbalance float64 `json:"worst_imbalance"`
}

// Record folds one execution's stats into the summary.
func (s *SchedSummary) Record(st SchedStats) {
	s.Passes++
	s.Busy += st.Busy()
	s.BlocksClaimed += uint64(st.Claimed())
	s.BlocksStolen += uint64(st.Stolen())
	if im := st.Imbalance(); im > s.WorstImbalance {
		s.WorstImbalance = im
	}
}

// ForEachBlockStats is ForEachBlock with optional telemetry (when stats
// is non-nil, each worker's busy time and claimed-block count are
// recorded, costing two clock reads per block) and optional cooperative
// cancellation: when cancel is non-nil and becomes latched, workers
// stop claiming new blocks — a canceled pass wastes at most one
// in-flight block per worker. A worker panic is captured, latches the
// (possibly internal) cancel token so siblings quiesce, and is
// re-raised on the calling goroutine as a *PanicError after all
// workers park; on the serial path panics propagate unchanged.
func ForEachBlockStats(n, threads, grain int, stats *SchedStats, cancel *CancelToken, fn func(lo, hi, tid int)) {
	threads = Threads(threads)
	if grain < 1 {
		grain = DefaultGrain
	}
	if n <= 0 {
		return
	}
	if stats != nil {
		stats.ensure(threads)
	}
	if threads == 1 || n <= grain {
		runSerialBlocks(n, grain, stats, cancel, fn)
		return
	}
	// The parallel path lives in its own function so its escaping
	// coordination state (counter, trap, wait group) is never
	// heap-allocated on the serial fast path above.
	forEachBlockParallel(n, threads, grain, stats, cancel, fn)
}

// forEachBlockParallel is ForEachBlockStats' multi-worker path.
func forEachBlockParallel(n, threads, grain int, stats *SchedStats, cancel *CancelToken, fn func(lo, hi, tid int)) {
	if cancel == nil {
		cancel = new(CancelToken)
	}
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
				lo := int(next.Add(int64(grain))) - grain
				if lo >= n {
					break
				}
				hi := lo + grain
				if hi > n {
					hi = n
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
				stats.record(tid, busy, claimed, 0)
			}
		}(t)
	}
	wg.Wait()
	trap.rethrow()
}

// runSerialBlocks is the shared single-worker path: blocks of grain
// items run inline on the calling goroutine as tid 0, in order. cancel
// is polled between blocks; panics propagate to the caller unchanged
// (there is no sibling to quiesce).
//
//mspgemm:hotpath
func runSerialBlocks(n, grain int, stats *SchedStats, cancel *CancelToken, fn func(lo, hi, tid int)) {
	var busy time.Duration
	claimed := 0
	for lo := 0; lo < n && !cancel.Canceled(); lo += grain {
		hi := lo + grain
		if hi > n {
			hi = n
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
		stats.record(0, busy, claimed, 0)
	}
}

// ForEachPartition runs fn over the variable-width partitions described
// by bounds: partition j covers [bounds[j], bounds[j+1]), and bounds
// must be non-decreasing. Partitions are claimed dynamically from an
// atomic counter, so callers may provide more partitions than workers
// (scheduling slack) and empty partitions are skipped without a call.
// This is the executor for plan-time equal-cost partitions: the caller
// did the load balancing when it laid out bounds; the scheduler only
// hands partitions out. cancel and panic containment follow the
// ForEachBlockStats contract (cancellation polled per partition claim).
func ForEachPartition(bounds []int, threads int, stats *SchedStats, cancel *CancelToken, fn func(lo, hi, tid int)) {
	nparts := len(bounds) - 1
	if nparts <= 0 {
		return
	}
	threads = Threads(threads)
	if stats != nil {
		stats.ensure(threads)
	}
	if threads == 1 || nparts == 1 {
		var busy time.Duration
		claimed := 0
		for j := 0; j < nparts && !cancel.Canceled(); j++ {
			lo, hi := bounds[j], bounds[j+1]
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
			stats.record(0, busy, claimed, 0)
		}
		return
	}
	forEachPartitionParallel(bounds, nparts, threads, stats, cancel, fn)
}

// forEachPartitionParallel is ForEachPartition's multi-worker path,
// split out so the serial path stays allocation-free.
func forEachPartitionParallel(bounds []int, nparts, threads int, stats *SchedStats, cancel *CancelToken, fn func(lo, hi, tid int)) {
	if cancel == nil {
		cancel = new(CancelToken)
	}
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
				if j >= nparts {
					break
				}
				lo, hi := bounds[j], bounds[j+1]
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
				stats.record(tid, busy, claimed, 0)
			}
		}(t)
	}
	wg.Wait()
	trap.rethrow()
}

// wsRange is one worker's remaining index range packed into a single
// atomic word (lo in the high 32 bits, hi in the low 32), padded to a
// cache line so owners popping and thieves stealing do not false-share.
type wsRange struct {
	r atomic.Uint64
	_ [56]byte
}

func packRange(lo, hi int) uint64 { return uint64(lo)<<32 | uint64(uint32(hi)) }

func unpackRange(v uint64) (lo, hi int) { return int(v >> 32), int(uint32(v)) }

// popFront claims up to grain items from the front of a range. The
// owner and thieves race through CAS, so the pop is safe from any
// goroutine.
//
//mspgemm:hotpath
func popFront(r *wsRange, grain int) (lo, hi int, ok bool) {
	for {
		v := r.r.Load()
		l, h := unpackRange(v)
		if l >= h {
			return 0, 0, false
		}
		nl := l + grain
		if nl > h {
			nl = h
		}
		if r.r.CompareAndSwap(v, packRange(nl, h)) {
			return l, nl, true
		}
	}
}

// stealInto moves the back half of the largest victim range into the
// caller's (empty) slot. Returns false only after a full scan of the
// other workers found every range empty — at that point all remaining
// work has been claimed by someone, so the caller can retire.
//
//mspgemm:hotpath
func stealInto(ranges []wsRange, tid int) bool {
	for {
		bestIdx, bestSize := -1, 0
		for v := range ranges {
			if v == tid {
				continue
			}
			lo, hi := unpackRange(ranges[v].r.Load())
			if hi-lo > bestSize {
				bestIdx, bestSize = v, hi-lo
			}
		}
		if bestIdx < 0 || bestSize == 0 {
			return false
		}
		victim := &ranges[bestIdx]
		v := victim.r.Load()
		lo, hi := unpackRange(v)
		if lo >= hi {
			continue // raced to empty; rescan
		}
		mid := lo + (hi-lo)/2 // victim keeps [lo, mid), thief takes [mid, hi)
		if victim.r.CompareAndSwap(v, packRange(lo, mid)) {
			ranges[tid].r.Store(packRange(mid, hi))
			return true
		}
		// CAS lost to the owner or another thief; rescan. Total
		// remaining work only shrinks, so this terminates.
	}
}

// ForEachChunked runs fn over [0, n) with work stealing: each worker
// starts with an equal contiguous range, pops grain-sized blocks from
// its front, and — when dry — steals the back half of the largest
// remaining victim range. Compared to ForEachBlockStats this keeps
// initial locality (each worker owns a contiguous span) while still
// absorbing cost skew no fixed grain can predict; compared to
// ForEachPartition it needs no cost profile. n must fit in 32 bits
// (larger n falls back to the fixed-grain scheduler). cancel and panic
// containment follow the ForEachBlockStats contract (cancellation
// polled per pop/steal).
func ForEachChunked(n, threads, grain int, stats *SchedStats, cancel *CancelToken, fn func(lo, hi, tid int)) {
	threads = Threads(threads)
	if grain < 1 {
		grain = DefaultGrain
	}
	if n <= 0 {
		return
	}
	if n >= 1<<31 {
		ForEachBlockStats(n, threads, grain, stats, cancel, fn)
		return
	}
	if stats != nil {
		stats.ensure(threads)
	}
	if threads == 1 || n <= grain {
		runSerialBlocks(n, grain, stats, cancel, fn)
		return
	}
	forEachChunkedParallel(n, threads, grain, stats, cancel, fn)
}

// forEachChunkedParallel is ForEachChunked's multi-worker path, split
// out so the serial path stays allocation-free.
func forEachChunkedParallel(n, threads, grain int, stats *SchedStats, cancel *CancelToken, fn func(lo, hi, tid int)) {
	if cancel == nil {
		cancel = new(CancelToken)
	}
	var trap panicTrap
	ranges := make([]wsRange, threads)
	for t := 0; t < threads; t++ {
		ranges[t].r.Store(packRange(n*t/threads, n*(t+1)/threads))
	}
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
			claimed, stolen := 0, 0
			self := &ranges[tid]
			for !cancel.Canceled() {
				lo, hi, ok := popFront(self, grain)
				if !ok {
					if !stealInto(ranges, tid) {
						break
					}
					stolen++
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
				stats.record(tid, busy, claimed, stolen)
			}
		}(t)
	}
	wg.Wait()
	trap.rethrow()
}
