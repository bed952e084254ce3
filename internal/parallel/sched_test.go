package parallel

import (
	"sync/atomic"
	"testing"
	"time"
)

// coverOnce drives a scheduling function over n indices and fails the
// test unless every index was visited exactly once and every reported
// tid was in range. Run under -race in CI, this is also the data-race
// check on the claim paths.
func coverOnce(t *testing.T, n, threads int, run func(fn func(lo, hi, tid int))) {
	t.Helper()
	hits := make([]int32, n)
	run(func(lo, hi, tid int) {
		if tid < 0 || tid >= Threads(threads) {
			t.Errorf("tid %d out of range [0,%d)", tid, Threads(threads))
		}
		if lo > hi || lo < 0 || hi > n {
			t.Errorf("bad block [%d,%d) for n=%d", lo, hi, n)
		}
		for i := lo; i < hi; i++ {
			atomic.AddInt32(&hits[i], 1)
		}
	})
	for i, h := range hits {
		if h != 1 {
			t.Fatalf("index %d visited %d times (n=%d threads=%d)", i, h, n, threads)
		}
	}
}

// grainBounds returns the partition bounds of ForEachBlock's
// fixed-grain blocks over n indices: [0, grain, 2·grain, …, n].
func grainBounds(n, grain int) []int {
	bounds := make([]int, 0, n/grain+2)
	for lo := 0; lo < n; lo += grain {
		bounds = append(bounds, lo)
	}
	return append(bounds, n)
}

func TestForEachPartitionCoversAll(t *testing.T) {
	for _, tc := range []struct {
		name    string
		bounds  []int
		threads int
	}{
		{"empty-bounds", []int{}, 4},
		{"single-empty", []int{0, 0}, 4},
		{"one-part", []int{0, 10}, 4},
		{"uniform", []int{0, 5, 10, 15, 20}, 3},
		{"skewed", []int{0, 1, 2, 50, 51, 100}, 4},
		{"with-empty-parts", []int{0, 0, 3, 3, 3, 9, 9}, 2},
		{"more-parts-than-threads", []int{0, 2, 4, 6, 8, 10, 12, 14, 16}, 2},
		{"fewer-items-than-threads", []int{0, 1, 2, 3}, 8},
	} {
		t.Run(tc.name, func(t *testing.T) {
			n := 0
			if len(tc.bounds) > 0 {
				n = tc.bounds[len(tc.bounds)-1]
			}
			coverOnce(t, n, tc.threads, func(fn func(lo, hi, tid int)) {
				ForEachPartition(tc.bounds, tc.threads, nil, nil, fn)
			})
		})
	}
}

// TestForEachPartitionSkipsEmpty pins that zero-width partitions never
// reach the callback (kernels index scratch by block and must not see
// lo == hi).
func TestForEachPartitionSkipsEmpty(t *testing.T) {
	for _, threads := range []int{1, 4} {
		ForEachPartition([]int{0, 0, 0, 5, 5}, threads, nil, nil, func(lo, hi, tid int) {
			if lo >= hi {
				t.Errorf("empty partition [%d,%d) reached fn", lo, hi)
			}
		})
	}
}

// TestForEachBlockGrainAligned pins how a fixed-grain claim maps to
// rows: every block starts at a multiple of grain and is grain wide,
// except the last, which ends at n. The shapes include fewer items
// than workers, one block, and a grain that does not divide n.
func TestForEachBlockGrainAligned(t *testing.T) {
	for _, tc := range []struct{ n, threads, grain int }{
		{1, 8, 64}, {3, 8, 1}, {7, 4, 2}, {100, 3, 7}, {65, 2, 64}, {128, 2, 64},
	} {
		coverOnce(t, tc.n, tc.threads, func(fn func(lo, hi, tid int)) {
			ForEachBlock(tc.n, tc.threads, tc.grain, func(lo, hi, tid int) {
				if lo%tc.grain != 0 || (hi != lo+tc.grain && hi != tc.n) {
					t.Errorf("%+v: block [%d,%d) is not a grain block", tc, lo, hi)
				}
				fn(lo, hi, tid)
			})
		})
	}
}

// allocSink keeps the callbacks from being optimised away
// without making it a capturing closure.
var allocSink int

// TestSerialClaimsAllocateNothing pins the serial path's promise: at
// one thread, with no stats and no cancel token, neither entry point
// allocates.
func TestSerialClaimsAllocateNothing(t *testing.T) {
	fn := func(lo, hi, tid int) { allocSink += hi - lo }
	bounds := []int{0, 3, 3, 40, 100}
	for name, run := range map[string]func(){
		"block":     func() { ForEachBlock(1000, 1, 16, fn) },
		"partition": func() { ForEachPartition(bounds, 1, nil, nil, fn) },
	} {
		if got := testing.AllocsPerRun(100, run); got != 0 {
			t.Errorf("%s: %v allocations per serial pass, want 0", name, got)
		}
	}
}

// TestSchedStatsAccounting checks the telemetry invariants: claimed
// partitions add up to the work handed out and busy time is recorded.
// claimed sums the blocks every worker executed.
func claimed(s SchedStats) int {
	n := 0
	for _, w := range s.Workers {
		n += w.Claimed
	}
	return n
}

func TestSchedStatsAccounting(t *testing.T) {
	work := func(lo, hi, tid int) {
		// Enough work for Busy to register on coarse clocks.
		s := 0
		for i := lo; i < hi; i++ {
			for k := 0; k < 2000; k++ {
				s += k ^ i
			}
		}
		_ = s
	}

	var st SchedStats
	st.Reset(4)
	ForEachPartition(grainBounds(256, 16), 4, &st, nil, work)
	if got, want := claimed(st), 16; got != want {
		t.Errorf("grain partitions: claimed = %d, want %d", got, want)
	}
	if st.Busy() <= 0 {
		t.Error("grain partitions: no busy time recorded")
	}

	st.Reset(4)
	ForEachPartition([]int{0, 64, 128, 192, 256}, 4, &st, nil, work)
	if got, want := claimed(st), 4; got != want {
		t.Errorf("wide partitions: claimed = %d, want %d", got, want)
	}

	// Accumulation across passes without Reset (a two-phase execution).
	before := claimed(st)
	ForEachPartition(grainBounds(256, 16), 4, &st, nil, work)
	if got, want := claimed(st), before+16; got != want {
		t.Errorf("stats did not accumulate: %d after second pass, want %d", got, want)
	}
}

func TestSchedStatsImbalance(t *testing.T) {
	var st SchedStats
	if st.Imbalance() != 0 {
		t.Error("empty stats should report 0 imbalance")
	}
	// All four workers participated; one did all the work.
	st.Workers = []WorkerStats{
		{Busy: 4 * time.Millisecond, Claimed: 4},
		{Busy: 0, Claimed: 1}, {Busy: 0, Claimed: 1}, {Busy: 0, Claimed: 1},
	}
	if got := st.Imbalance(); got != 4 {
		t.Errorf("one-of-four imbalance = %v, want 4", got)
	}
	st.Workers = []WorkerStats{{Busy: time.Millisecond, Claimed: 2}, {Busy: time.Millisecond, Claimed: 2}}
	if got := st.Imbalance(); got != 1 {
		t.Errorf("balanced imbalance = %v, want 1", got)
	}
	// Serial fallback: only tid 0 ever received blocks. That is a
	// deliberate narrow pass, not imbalance.
	st.Workers = []WorkerStats{{Busy: 4 * time.Millisecond, Claimed: 4}, {}, {}, {}}
	if got := st.Imbalance(); got != 1 {
		t.Errorf("serial-fallback imbalance = %v, want 1", got)
	}
}

// TestPrefixSumParallelBoundary exercises the serial/parallel cutoff at
// length cutoff−1, cutoff, and cutoff+1 — the sizes where the old block
// math produced blocks far smaller than a scheduling step is worth.
func TestPrefixSumParallelBoundary(t *testing.T) {
	for _, n := range []int{prefixCutoff - 1, prefixCutoff, prefixCutoff + 1} {
		a := make([]int64, n)
		b := make([]int64, n)
		for i := range a {
			v := int64((i*31 + 7) % 13)
			a[i], b[i] = v, v
		}
		t1 := PrefixSum(a)
		t2 := PrefixSumParallel(b, 8)
		if t1 != t2 {
			t.Fatalf("n=%d: total %d != %d", n, t2, t1)
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("n=%d: prefix differs at %d", n, i)
			}
		}
	}
}

// TestPrefixBlockMath pins the satellite fix: just above the cutoff the
// block count must come from n/blk (few, large blocks), not from
// threads*4 (many undersized blocks).
func TestPrefixBlockMath(t *testing.T) {
	n := prefixCutoff + 1
	threads := 8
	nblk := threads * 4
	blk := (n + nblk - 1) / nblk
	if blk < prefixMinBlock {
		blk = prefixMinBlock
	}
	nblk = (n + blk - 1) / blk
	if blk < prefixMinBlock {
		t.Fatalf("block size %d below floor %d", blk, prefixMinBlock)
	}
	if nblk > (n+prefixMinBlock-1)/prefixMinBlock {
		t.Fatalf("nblk %d exceeds what n=%d supports at floor %d", nblk, n, prefixMinBlock)
	}
}
