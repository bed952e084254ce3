package core

import (
	"fmt"
	"testing"

	"maskedspgemm/internal/gen"
	"maskedspgemm/internal/parallel"
	"maskedspgemm/internal/semiring"
	"maskedspgemm/internal/sparse"
)

// skewedCase builds a masked product with a planted hub cluster: the
// first hubRows rows of A are dense (cost ~cols each) while the rest
// carry a couple of entries — the adversarial shape for a fixed row
// grain, which lumps all the hubs into one block.
func skewedCase(rows, cols, hubRows int) (*sparse.Pattern, *sparse.CSR[float64], *sparse.CSR[float64]) {
	rowsSpec := map[int]map[int]float64{}
	for i := 0; i < rows; i++ {
		r := map[int]float64{}
		if i < hubRows {
			for j := 0; j < cols; j += 2 {
				r[j] = 1
			}
		} else {
			r[(i*7)%cols] = 1
			r[(i*13+5)%cols] = 1
		}
		rowsSpec[i] = r
	}
	a, err := sparse.FromRows(rows, cols, rowsSpec)
	if err != nil {
		panic(err)
	}
	return a.PatternView(), a, a
}

// TestScheduleAutoResolution pins the SchedAuto policy: a planted hub
// cluster resolves to cost partitions, a uniform product stays on
// fixed grain, and explicit choices are always honored.
func TestScheduleAutoResolution(t *testing.T) {
	sr := semiring.PlusTimes[float64]{}

	mask, a, b := skewedCase(512, 512, 4)
	p, err := NewPlan(sr, mask, a, b, Options{Algorithm: AlgoMSA, Threads: 4}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := p.ResolvedSchedule(); got != SchedCostPartition {
		t.Errorf("skewed auto: resolved %v (skew %.1f), want CostPartition", got, p.CostSkew())
	}
	if p.CostSkew() < autoSkewFactor {
		t.Errorf("skewed case measured skew %.2f, expected ≥ %d", p.CostSkew(), autoSkewFactor)
	}
	// Partition bounds must tile [0, rows] monotonically.
	bounds := p.partitions(4, nil)
	if len(bounds) < 2 || bounds[0] != 0 || bounds[len(bounds)-1] != mask.Rows {
		t.Fatalf("bounds do not tile rows: %v", bounds)
	}
	for i := 1; i < len(bounds); i++ {
		if bounds[i] < bounds[i-1] {
			t.Fatalf("bounds not monotone: %v", bounds)
		}
	}
	if len(bounds)-1 > 4*costPartsPerWorker {
		t.Errorf("%d partitions exceed threads×slack = %d", len(bounds)-1, 4*costPartsPerWorker)
	}

	um, ua, ub := buildCase(caseSpec{"", 512, 512, 512, 8, 8, 8, 5})
	p, err = NewPlan(sr, um, ua, ub, Options{Algorithm: AlgoMSA, Threads: 4}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := p.ResolvedSchedule(); got != SchedFixedGrain {
		t.Errorf("uniform auto: resolved %v (skew %.1f), want FixedGrain", got, p.CostSkew())
	}

	for _, mode := range []Schedule{SchedFixedGrain, SchedCostPartition} {
		p, err := NewPlan(sr, mask, a, b, Options{Algorithm: AlgoMSA, Threads: 4, Schedule: mode}, nil)
		if err != nil {
			t.Fatal(err)
		}
		if p.ResolvedSchedule() != mode {
			t.Errorf("explicit %v: resolved %v", mode, p.ResolvedSchedule())
		}
	}
}

// TestSchedulePartitionBalance checks the equal-cost property: under
// the planted hub cluster no partition holds more than a modest
// multiple of the ideal cost share (a fixed 64-row grain would put all
// four hubs — nearly all the flops — into one block).
func TestSchedulePartitionBalance(t *testing.T) {
	sr := semiring.PlusTimes[float64]{}
	mask, a, b := skewedCase(512, 512, 4)
	p, err := NewPlan(sr, mask, a, b, Options{Algorithm: AlgoMSA, Threads: 4, Schedule: SchedCostPartition}, nil)
	if err != nil {
		t.Fatal(err)
	}
	cost := p.rowCosts(a, b)[:mask.Rows]
	var total int64
	for _, c := range cost {
		total += c
	}
	bounds := p.partitions(4, nil)
	nparts := len(bounds) - 1
	ideal := float64(total) / float64(nparts)
	var maxRow int64
	for _, c := range cost {
		if c > maxRow {
			maxRow = c
		}
	}
	for j := 0; j < nparts; j++ {
		var part int64
		for i := bounds[j]; i < bounds[j+1]; i++ {
			part += cost[i]
		}
		// A partition may exceed the ideal share by at most one row
		// (rows are never split).
		if float64(part) > ideal+float64(maxRow) {
			t.Errorf("partition %d cost %d exceeds ideal %.0f + max row %d", j, part, ideal, maxRow)
		}
	}
}

// TestScheduleParity asserts every scheduling strategy computes the
// same product: the scheduler only changes who computes which row.
func TestScheduleParity(t *testing.T) {
	sr := semiring.PlusTimes[float64]{}
	mask, a, b := skewedCase(300, 300, 3)
	want := oracle(mask, a, b, false)
	for _, algo := range []Algorithm{AlgoMSA, AlgoHash, AlgoInner, AlgoHybrid} {
		for _, ph := range []Phases{OnePhase, TwoPhase} {
			for _, mode := range []Schedule{SchedAuto, SchedFixedGrain, SchedCostPartition} {
				for _, threads := range []int{1, 3} {
					opt := Options{Algorithm: algo, Phases: ph, Schedule: mode, Threads: threads}
					name := fmt.Sprintf("%s/%v/t%d", opt.SchemeName(), mode, threads)
					got, err := MaskedSpGEMM(sr, mask, a, b, opt)
					if err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					if d := sparse.Diff(want, got, sparse.FloatEq(1e-12)); d != "" {
						t.Fatalf("%s: %s", name, d)
					}
				}
			}
		}
	}
}

// TestScheduleParityComplement runs the complemented path through the
// cost-partitioned scheduler.
func TestScheduleParityComplement(t *testing.T) {
	sr := semiring.PlusTimes[float64]{}
	mask, a, b := buildCase(caseSpec{"", 120, 100, 110, 5, 5, 12, 17})
	want := oracle(mask, a, b, true)
	for _, mode := range []Schedule{SchedCostPartition} {
		got, err := MaskedSpGEMM(sr, mask, a, b, Options{Algorithm: AlgoMSA, Complement: true, Schedule: mode, Threads: 2})
		if err != nil {
			t.Fatalf("%v: %v", mode, err)
		}
		if d := sparse.Diff(want, got, sparse.FloatEq(1e-12)); d != "" {
			t.Fatalf("%v: %s", mode, d)
		}
	}
}

// TestSchedStatsCollected checks the telemetry path end to end:
// CollectSchedStats populates the executor's stats with the blocks the
// engine actually scheduled, and the option off leaves them untouched.
func TestSchedStatsCollected(t *testing.T) {
	sr := semiring.PlusTimes[float64]{}
	mask, a, b := skewedCase(256, 256, 2)
	p, err := NewPlan(sr, mask, a, b, Options{Algorithm: AlgoMSA, Threads: 2, CollectSchedStats: true}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Execute(a, b); err != nil {
		t.Fatal(err)
	}
	st := p.SchedStats()
	if st.Claimed() == 0 {
		t.Fatal("no blocks recorded with CollectSchedStats set")
	}
	if len(st.Workers) != 2 {
		t.Fatalf("stats sized for %d workers, want 2", len(st.Workers))
	}

	// Two-phase doubles the row passes; the count must accumulate
	// within one execution but reset across executions.
	first := st.Claimed()
	if _, err := p.Execute(a, b); err != nil {
		t.Fatal(err)
	}
	if got := p.SchedStats().Claimed(); got != first {
		t.Errorf("stats leaked across executions: %d then %d", first, got)
	}

	off, err := NewPlan(sr, mask, a, b, Options{Algorithm: AlgoMSA, Threads: 2}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := off.Execute(a, b); err != nil {
		t.Fatal(err)
	}
	if got := off.SchedStats().Claimed(); got != 0 {
		t.Errorf("stats recorded without the option: %d blocks", got)
	}
}

// TestScheduleString covers the Schedule names used in bench output.
func TestScheduleString(t *testing.T) {
	for want, s := range map[string]Schedule{
		"Auto": SchedAuto, "FixedGrain": SchedFixedGrain,
		"CostPartition": SchedCostPartition,
	} {
		if s.String() != want {
			t.Errorf("%v.String() = %q, want %q", uint8(s), s.String(), want)
		}
	}
}

// TestFlopsAllocFree pins the satellite rework: the flop counters no
// longer allocate a per-row slice. Below the serial cutoff they run a
// straight loop — zero allocations; above it the only allocations are
// the scheduler's per-call constants, independent of rows.
func TestFlopsAllocFree(t *testing.T) {
	a := gen.Random(256, 256, 4, 3)
	b := gen.Random(256, 256, 4, 4)
	mask := gen.Random(256, 256, 4, 5).PatternView()
	if got := testing.AllocsPerRun(20, func() { Flops(a, b) }); got != 0 {
		t.Errorf("Flops allocates %v objects per call, want 0", got)
	}
	if got := testing.AllocsPerRun(20, func() { MaskedFlops(mask, a, b, false) }); got != 0 {
		t.Errorf("MaskedFlops allocates %v objects per call, want 0", got)
	}

	// Parallel path: O(threads) bookkeeping, never O(rows).
	big := gen.Random(20000, 2000, 8, 6)
	bigB := gen.Random(2000, 2000, 8, 7)
	if got := testing.AllocsPerRun(5, func() { Flops(big, bigB) }); got > 64 {
		t.Errorf("parallel Flops allocates %v objects per call, want O(threads) (< 64)", got)
	}

	// Parity with the definition.
	var want int64
	for i := 0; i < big.Rows; i++ {
		for _, k := range big.Row(i) {
			want += bigB.RowPtr[k+1] - bigB.RowPtr[k]
		}
	}
	if got := Flops(big, bigB); got != want {
		t.Errorf("Flops = %d, want %d", got, want)
	}
}

// TestSchedStatsDirectSchemeResets pins the review fix: a direct
// scheme (no row passes) executed with CollectSchedStats must reset
// the executor's record, not replay the previous execution's numbers.
func TestSchedStatsDirectSchemeResets(t *testing.T) {
	sr := semiring.PlusTimes[float64]{}
	mask, a, b := skewedCase(128, 128, 2)
	exec := NewExecutor[float64](sr)
	msa, err := NewPlan(sr, mask, a, b, Options{Algorithm: AlgoMSA, Threads: 2, CollectSchedStats: true}, exec)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := msa.Execute(a, b); err != nil {
		t.Fatal(err)
	}
	if exec.SchedStats().Claimed() == 0 {
		t.Fatal("row-kernel execution recorded nothing")
	}
	direct, err := NewPlan(sr, mask, a, b, Options{Algorithm: AlgoSaxpyThenMask, Threads: 2, CollectSchedStats: true}, exec)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := direct.Execute(a, b); err != nil {
		t.Fatal(err)
	}
	if got := exec.SchedStats().Claimed(); got != 0 {
		t.Errorf("direct scheme replayed stale stats: %d blocks", got)
	}
}

// TestMaskedFlopsDenseBParity pins the cutoff fix: a small-nnz(A)
// product against dense B rows takes the parallel path, and both paths
// agree with the definition.
func TestMaskedFlopsDenseBParity(t *testing.T) {
	a := gen.Random(64, 64, 2, 41)      // tiny nnz(A)
	b := gen.Random(64, 2000, 1200, 42) // dense B rows
	mask := gen.Random(64, 2000, 600, 43).PatternView()
	if maskedFlopsSerialOK(mask, a, b) {
		t.Fatal("dense-B workload should not be classified serial")
	}
	got := MaskedFlops(mask, a, b, false)
	want := maskedFlopsRange(mask, a, b, false, 0, a.Rows)
	if got != want {
		t.Fatalf("MaskedFlops = %d, want %d", got, want)
	}
}

// TestExecuteErroredPassResetsSchedStats pins the telemetry contract
// behind Session's record-even-on-error behaviour: ExecuteOnOpts
// resets the executor's stats before anything can fail, so an errored
// execution issued with CollectSchedStats reads as an empty pass
// rather than replaying the previous execution's record.
func TestExecuteErroredPassResetsSchedStats(t *testing.T) {
	mask, a, b := buildCase(caseSpec{"", 128, 128, 128, 8, 8, 8, 31})
	exec := NewExecutor[float64](ptSR)
	p, err := NewPlan(ptSR, mask, a, b, Options{Algorithm: AlgoMSA, Threads: 2}, exec)
	if err != nil {
		t.Fatal(err)
	}
	eo := ExecOptions{CollectSchedStats: true}
	if _, err := p.ExecuteOnOpts(exec, a, b, eo); err != nil {
		t.Fatal(err)
	}
	if exec.SchedStats().Claimed() == 0 {
		t.Fatal("successful pass recorded no blocks")
	}
	// Mismatched operands: checkArgs fails after the stats reset.
	bad, _, _ := buildCase(caseSpec{"", 64, 64, 64, 4, 4, 4, 32})
	wrong := &sparse.CSR[float64]{Pattern: *bad, Val: make([]float64, int(bad.NNZ()))}
	if _, err := p.ExecuteOnOpts(exec, wrong, b, eo); err == nil {
		t.Fatal("mismatched operands must error")
	}
	if got := exec.SchedStats(); got.Claimed() != 0 {
		t.Fatalf("errored pass replayed stale telemetry: %d blocks claimed", got.Claimed())
	}
}

// costPartitions is the linear reference for Plan.partitions: walk the
// rows once, cutting partition j at the first row where the running
// cost reaches j/nparts of the total. The binary search over the
// plan's cost prefix must reproduce these bounds exactly.
func costPartitions(cost []int64, total int64, nparts int) []int {
	rows := len(cost)
	if nparts > rows {
		nparts = rows
	}
	if nparts < 1 {
		nparts = 1
	}
	bounds := make([]int, 1, nparts+1)
	var run int64
	j := 1
	for i := 0; i < rows && j < nparts; i++ {
		run += cost[i]
		if float64(run) >= float64(total)*float64(j)/float64(nparts) {
			bounds = append(bounds, i+1)
			j++
			for j < nparts && float64(run) >= float64(total)*float64(j)/float64(nparts) {
				j++
			}
		}
	}
	if bounds[len(bounds)-1] != rows {
		bounds = append(bounds, rows)
	}
	return bounds
}

// referenceBounds recovers the per-row costs from a plan's retained
// prefix and runs the linear reference at the given width.
func referenceBounds[T any, S semiring.Semiring[T]](p *Plan[T, S], threads int) []int {
	prefix := p.costPrefix
	rows := len(prefix) - 1
	cost := make([]int64, rows)
	for i := range cost {
		cost[i] = prefix[i+1] - prefix[i]
	}
	return costPartitions(cost, prefix[rows], threads*costPartsPerWorker)
}

// TestPartitionsMatchLinearReference drives the binary-search
// partitioner over adversarial cost shapes — hub rows costlier than a
// whole share, zero-cost stretches, fewer rows than partitions — and
// checks it against the linear reference at every width.
func TestPartitionsMatchLinearReference(t *testing.T) {
	shapes := map[string][]int64{
		"uniform":    {3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3},
		"front-hub":  {1000, 1, 1, 1, 1, 1, 1, 1, 1, 1},
		"tail-hub":   {1, 1, 1, 1, 1, 1, 1, 1, 1, 1000},
		"two-hubs":   {1, 500, 1, 1, 1, 1, 500, 1, 1, 1, 1, 1},
		"zero-runs":  {0, 0, 5, 0, 0, 0, 7, 0, 1, 0},
		"single-row": {42},
	}
	rng := gen.NewRNG(7)
	ramp := make([]int64, 1000)
	for i := range ramp {
		ramp[i] = int64(1 + rng.Intn(1+i))
	}
	shapes["random-ramp"] = ramp
	for name, cost := range shapes {
		prefix := make([]int64, len(cost)+1)
		copy(prefix, cost)
		total := parallel.PrefixSum(prefix)
		p := &Plan[float64, semiring.PlusTimes[float64]]{costPrefix: prefix}
		for _, threads := range []int{1, 2, 3, 4, 8, 64} {
			got := p.partitions(threads, nil)
			want := costPartitions(cost, total, threads*costPartsPerWorker)
			if fmt.Sprint(got) != fmt.Sprint(want) {
				t.Errorf("%s threads=%d: bounds %v, linear reference %v", name, threads, got, want)
			}
		}
	}
}

// TestWarmThenWide pins warm-at-one-width, serve-at-another: a plan
// built at Threads 1 resolves its schedule from the width-independent
// cost skew, and executing it at Threads 4 derives the CostPartition
// bounds for four workers from the retained prefix — exactly the
// linear reference's — and computes the same product. Through a cache
// the two widths share one entry.
func TestWarmThenWide(t *testing.T) {
	mask, a, b := skewedCase(512, 512, 4)
	serial, err := NewPlan(ptSR, mask, a, b, Options{Algorithm: AlgoMSA, Threads: 1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if serial.ResolvedSchedule() != SchedCostPartition || serial.costPrefix == nil {
		t.Fatalf("serial plan resolved %v (prefix retained: %v), want CostPartition with a prefix",
			serial.ResolvedSchedule(), serial.costPrefix != nil)
	}
	want, err := serial.Execute(a, b)
	if err != nil {
		t.Fatal(err)
	}

	exec := NewExecutor[float64](ptSR)
	got, err := serial.ExecuteOnOpts(exec, a, b, ExecOptions{Threads: 4, CollectSchedStats: true})
	if err != nil {
		t.Fatal(err)
	}
	if !sparse.Equal(want, got) {
		t.Error("wide execution computes a different product")
	}
	if ref := referenceBounds(serial, 4); fmt.Sprint(exec.partBounds) != fmt.Sprint(ref) {
		t.Errorf("wide execution cut bounds %v, linear reference %v", exec.partBounds, ref)
	}
	if n := len(exec.partBounds) - 1; n < 2 || n > 4*costPartsPerWorker {
		t.Errorf("wide execution cut %d partitions, want in (1, %d]", n, 4*costPartsPerWorker)
	}
	if w := len(exec.SchedStats().Workers); w != 4 {
		t.Errorf("wide execution ran %d workers, want 4", w)
	}

	cache := NewPlanCache(ptSR, 0, 0)
	warm, err := cache.GetOrPlan(mask, a, b, Options{Algorithm: AlgoMSA, Threads: 1})
	if err != nil {
		t.Fatal(err)
	}
	wide, _, hit, err := cache.GetOrPlanObserved(mask, a, b, Options{Algorithm: AlgoMSA, Threads: 4})
	if err != nil {
		t.Fatal(err)
	}
	if !hit || wide != warm || cache.Len() != 1 {
		t.Fatalf("Threads fragmented the cache: hit=%v same=%v entries=%d", hit, wide == warm, cache.Len())
	}
}

// TestPartitionsAllocFree pins the cost of per-execution bounds: once
// the executor's buffer has grown to a width, cutting bounds again —
// and executing a cost-partitioned plan — allocates no more than the
// fixed-grain path does.
func TestPartitionsAllocFree(t *testing.T) {
	mask, a, b := skewedCase(512, 512, 4)
	p, err := NewPlan(ptSR, mask, a, b, Options{Algorithm: AlgoMSA, Schedule: SchedCostPartition, Threads: 1, ReuseOutput: true}, nil)
	if err != nil {
		t.Fatal(err)
	}
	buf := p.partitions(8, nil)
	if got := testing.AllocsPerRun(20, func() { buf = p.partitions(8, buf) }); got != 0 {
		t.Errorf("partitions allocates %v objects per call on a grown buffer, want 0", got)
	}
	fixed, err := NewPlan(ptSR, mask, a, b, Options{Algorithm: AlgoMSA, Schedule: SchedFixedGrain, Threads: 1, ReuseOutput: true}, nil)
	if err != nil {
		t.Fatal(err)
	}
	allocs := func(q *Plan[float64, semiring.PlusTimes[float64]]) float64 {
		if _, err := q.Execute(a, b); err != nil { // warm-up
			t.Fatal(err)
		}
		return testing.AllocsPerRun(10, func() {
			if _, err := q.Execute(a, b); err != nil {
				t.Fatal(err)
			}
		})
	}
	if cp, fg := allocs(p), allocs(fixed); cp > fg {
		t.Errorf("cost-partitioned execution allocates %v objects, fixed grain %v", cp, fg)
	}
}

// TestPlanWidthInvariance is the width-invariance metamorphic test:
// work is split strictly by row and row formation is never split
// (§3), so one cached plan of any family must produce bit-identical
// output at every width, schedule, and grain — and widths never add
// cache entries. CostPartition executions additionally cut exactly
// the linear reference's bounds.
func TestPlanWidthInvariance(t *testing.T) {
	algos := []Algorithm{AlgoMSA, AlgoHash, AlgoMCA, AlgoHeap, AlgoInner, AlgoMaskedBit, AlgoHybrid}
	schedules := []Schedule{SchedAuto, SchedFixedGrain, SchedCostPartition}
	same := func(x, y float64) bool { return x == y }
	exec := NewExecutor[float64](ptSR)
	for _, inst := range gen.Suite(8) {
		g := inst.Build()
		if g.Rows > 1024 {
			continue // the fixed-size grids and BA graphs: too slow under -race
		}
		// The triangle-counting shape L ⊙ (L·L) keeps every family's
		// work small enough for the full width × schedule × grain grid.
		g = sparse.Tril(g)
		mask := g.PatternView()
		cache := NewPlanCache(ptSR, 1024, 0)
		keys := 0
		for _, algo := range algos {
			for _, mode := range schedules {
				for _, grain := range []int{1, 64} {
					keys++
					var base *sparse.CSR[float64]
					for _, threads := range []int{1, 2, 4, 8} {
						opt := Options{Algorithm: algo, Schedule: mode, Grain: grain, Threads: threads}
						name := fmt.Sprintf("%s/%s/%v/grain%d/t%d", inst.Name, algo, mode, grain, threads)
						p, err := cache.GetOrPlan(mask, g, g, opt)
						if err != nil {
							t.Fatalf("%s: %v", name, err)
						}
						got, err := p.ExecuteOnOpts(exec, g, g, opt.ExecOnly())
						if err != nil {
							t.Fatalf("%s: %v", name, err)
						}
						if p.ResolvedSchedule() == SchedCostPartition {
							if ref := referenceBounds(p, threads); fmt.Sprint(exec.partBounds) != fmt.Sprint(ref) {
								t.Fatalf("%s: bounds %v, linear reference %v", name, exec.partBounds, ref)
							}
						}
						if base == nil {
							base = got
						} else if !sparse.EqualFunc(base, got, same) {
							t.Fatalf("%s: output differs from the Threads=1 execution", name)
						}
					}
				}
			}
		}
		if n := cache.Len(); n != keys {
			t.Errorf("%s: cache holds %d entries for %d plan keys; widths must not add entries", inst.Name, n, keys)
		}
	}
}
