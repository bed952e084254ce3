package core

import (
	"fmt"
	"slices"
	"testing"

	"maskedspgemm/internal/gen"
	"maskedspgemm/internal/parallel"
	"maskedspgemm/internal/semiring"
	"maskedspgemm/internal/sparse"
)

// claimedBlocks sums the blocks every worker executed.
func claimedBlocks(s parallel.SchedStats) int {
	n := 0
	for _, w := range s.Workers {
		n += w.Claimed
	}
	return n
}

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

// TestSchedulePartitionBalance checks the equal-cost property: under
// the planted hub cluster no partition holds more than a modest
// multiple of the ideal cost share (a cost-blind 64-row block would
// put all four hubs — nearly all the flops — into one claim).
func TestSchedulePartitionBalance(t *testing.T) {
	sr := semiring.PlusTimes[float64]{}
	mask, a, b := skewedCase(512, 512, 4)
	p, err := NewPlan(sr, mask, a, b, Options{Algorithm: AlgoMSA, Threads: 4}, nil)
	if err != nil {
		t.Fatal(err)
	}
	cost := p.rowCosts(maskRows{p.mask, p.sym}, a, b)[:mask.Rows]
	var total int64
	for _, c := range cost {
		total += c
	}
	bounds := partitions(p.costPrefix, 4, nil)
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

// TestScheduleParity asserts every width — and so every partition
// layout, from one partition per hub to one per row — computes the
// same product: the scheduler only changes who computes which row.
func TestScheduleParity(t *testing.T) {
	sr := semiring.PlusTimes[float64]{}
	mask, a, b := skewedCase(300, 300, 3)
	want := oracle(mask, a, b, false)
	for _, algo := range []Algorithm{AlgoMSA, AlgoHash, AlgoInner, AlgoHybrid} {
		for _, ph := range schemePhases(algo) {
			for _, threads := range []int{1, 3, 16, 75} {
				opt := Options{Algorithm: algo, Phases: ph, Threads: threads}
				name := fmt.Sprintf("%s/t%d", opt.SchemeName(), threads)
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

// TestScheduleParityComplement runs the complemented path, whose cost
// profile is capped by the §5.2 bound, through the partitioned
// scheduler at several widths.
func TestScheduleParityComplement(t *testing.T) {
	sr := semiring.PlusTimes[float64]{}
	mask, a, b := buildCase(caseSpec{"", 120, 100, 110, 5, 5, 12, 17})
	want := oracle(mask, a, b, true)
	for _, threads := range []int{1, 2, 7} {
		got, err := MaskedSpGEMM(sr, mask, a, b, Options{Algorithm: AlgoMSA, Complement: true, Threads: threads})
		if err != nil {
			t.Fatalf("t%d: %v", threads, err)
		}
		if d := sparse.Diff(want, got, sparse.FloatEq(1e-12)); d != "" {
			t.Fatalf("t%d: %s", threads, d)
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
	if claimedBlocks(st) == 0 {
		t.Fatal("no blocks recorded with CollectSchedStats set")
	}
	if len(st.Workers) != 2 {
		t.Fatalf("stats sized for %d workers, want 2", len(st.Workers))
	}

	// Two-phase doubles the row passes; the count must accumulate
	// within one execution but reset across executions.
	first := claimedBlocks(st)
	if _, err := p.Execute(a, b); err != nil {
		t.Fatal(err)
	}
	if got := claimedBlocks(p.SchedStats()); got != first {
		t.Errorf("stats leaked across executions: %d then %d", first, got)
	}

	off, err := NewPlan(sr, mask, a, b, Options{Algorithm: AlgoMSA, Threads: 2}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := off.Execute(a, b); err != nil {
		t.Fatal(err)
	}
	if got := claimedBlocks(off.SchedStats()); got != 0 {
		t.Errorf("stats recorded without the option: %d blocks", got)
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
	if claimedBlocks(exec.SchedStats()) == 0 {
		t.Fatal("row-kernel execution recorded nothing")
	}
	direct, err := NewPlan(sr, mask, a, b, Options{Algorithm: AlgoSaxpyThenMask, Threads: 2, CollectSchedStats: true}, exec)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := direct.Execute(a, b); err != nil {
		t.Fatal(err)
	}
	if got := claimedBlocks(exec.SchedStats()); got != 0 {
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
	if claimedBlocks(exec.SchedStats()) == 0 {
		t.Fatal("successful pass recorded no blocks")
	}
	// Mismatched operands: checkArgs fails after the stats reset.
	bad, _, _ := buildCase(caseSpec{"", 64, 64, 64, 4, 4, 4, 32})
	wrong := &sparse.CSR[float64]{Pattern: *bad, Val: make([]float64, int(bad.NNZ()))}
	if _, err := p.ExecuteOnOpts(exec, wrong, b, eo); err == nil {
		t.Fatal("mismatched operands must error")
	}
	if got := exec.SchedStats(); claimedBlocks(got) != 0 {
		t.Fatalf("errored pass replayed stale telemetry: %d blocks claimed", claimedBlocks(got))
	}
}

// refPartCount is the partition-count rule, restated:
// max(threads×costPartsPerWorker, ⌈rows/DefaultGrain⌉) partitions,
// at most one per row and at least one.
func refPartCount(rows, threads int) int {
	n := threads * costPartsPerWorker
	if g := (rows + parallel.DefaultGrain - 1) / parallel.DefaultGrain; g > n {
		n = g
	}
	if n > rows {
		n = rows
	}
	if n < 1 {
		n = 1
	}
	return n
}

// costPartitions is the linear reference for partitions: walk the
// rows once, cutting partition j at the first row where the running
// cost reaches j/nparts of the total, with nparts from refPartCount,
// cutting a row costlier than one share off from the rows before it,
// and splitting a share wider than DefaultGrain rows into equal pieces.
// The binary search over the cost prefix must reproduce these bounds
// exactly.
func costPartitions(cost []int64, threads int) []int {
	rows := len(cost)
	nparts := refPartCount(rows, threads)
	var total int64
	for _, c := range cost {
		total += c
	}
	share := float64(total) / float64(nparts)
	var ends []int
	var run int64
	j := 1
	for i := 0; i < rows && j < nparts; i++ {
		run += cost[i]
		if float64(run) >= float64(total)*float64(j)/float64(nparts) {
			if float64(cost[i]) > share {
				ends = append(ends, i) // a hub: cut it off from the rows before it
			}
			ends = append(ends, i+1)
			j++
			for j < nparts && float64(run) >= float64(total)*float64(j)/float64(nparts) {
				j++
			}
		}
	}
	ends = append(ends, rows)
	// Split every share wider than DefaultGrain rows into equal pieces.
	bounds := []int{0}
	for _, end := range ends {
		start := bounds[len(bounds)-1]
		if end <= start {
			continue
		}
		pieces := (end - start + parallel.DefaultGrain - 1) / parallel.DefaultGrain
		for p := 1; p <= pieces; p++ {
			bounds = append(bounds, start+(end-start)*p/pieces)
		}
	}
	return bounds
}

// referenceBounds recovers the per-row costs from the prefix the plan's
// next full-product execution cuts — its own retained prefix, its
// product schedule's once its hits replay one, at width 1 when the
// schedule holds fewer than replaySerialProducts products, or its dot
// bitmap's once its hits walk one — and runs the linear reference at
// the given width.
func referenceBounds[T any, S semiring.Semiring[T]](p *Plan[T, S], threads int) []int {
	prefix := p.costPrefix
	switch rec := p.fullHit.rec.Load(); {
	case rec == nil:
	case rec.tier() == tierReplay:
		prefix = rec.sched.prefix
		if prefix[len(prefix)-1] < replaySerialProducts {
			threads = 1
		}
	case rec.tier() == tierBitmap:
		prefix = rec.dots.prefix
	}
	cost := make([]int64, len(prefix)-1)
	for i := range cost {
		cost[i] = prefix[i+1] - prefix[i]
	}
	return costPartitions(cost, threads)
}

// prefixOf returns cost's exclusive prefix, len(cost)+1 long.
func prefixOf(cost []int64) []int64 {
	prefix := make([]int64, len(cost)+1)
	copy(prefix, cost)
	parallel.PrefixSum(prefix)
	return prefix
}

// TestPartitionsMatchLinearReference drives the binary-search
// partitioner over adversarial cost shapes — hub rows costlier than a
// whole share, zero-cost stretches, fewer rows than partitions, more
// DefaultGrain blocks than threads×costPartsPerWorker — and checks it
// against the linear reference at every width.
func TestPartitionsMatchLinearReference(t *testing.T) {
	shapes := map[string][]int64{
		"uniform":    {3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3},
		"front-hub":  {1000, 1, 1, 1, 1, 1, 1, 1, 1, 1},
		"tail-hub":   {1, 1, 1, 1, 1, 1, 1, 1, 1, 1000},
		"two-hubs":   {1, 500, 1, 1, 1, 1, 500, 1, 1, 1, 1, 1},
		"zero-runs":  {0, 0, 5, 0, 0, 0, 7, 0, 1, 0},
		"single-row": {42},
		"no-rows":    {},
	}
	rng := gen.NewRNG(7)
	ramp := make([]int64, 1000)
	for i := range ramp {
		ramp[i] = int64(1 + rng.Intn(1+i))
	}
	shapes["random-ramp"] = ramp
	tall := make([]int64, 5000)
	for i := range tall {
		tall[i] = int64(1 + rng.Intn(8))
		if i%997 == 0 {
			tall[i] = 20000
		}
	}
	shapes["tall-with-hubs"] = tall
	for name, cost := range shapes {
		prefix := prefixOf(cost)
		for _, threads := range []int{1, 2, 3, 4, 8, 64} {
			got := partitions(prefix, threads, nil)
			want := costPartitions(cost, threads)
			if fmt.Sprint(got) != fmt.Sprint(want) {
				t.Errorf("%s threads=%d: bounds %v, linear reference %v", name, threads, got, want)
			}
		}
	}
}

// TestPartitionLayout pins what the partition rule promises: uniform
// costs cut exactly the DefaultGrain-row blocks a cost-blind scheduler
// claims, a hub row costlier than one share gets a partition to
// itself, a cheap stretch is never claimed more than DefaultGrain rows
// at a time, and a plan too short for ⌈rows/DefaultGrain⌉ to matter
// still gets threads×costPartsPerWorker partitions.
func TestPartitionLayout(t *testing.T) {
	const blocks = 40
	uniform := make([]int64, blocks*parallel.DefaultGrain)
	for i := range uniform {
		uniform[i] = 5
	}
	for _, threads := range []int{1, 2, 4, 8} {
		got := partitions(prefixOf(uniform), threads, nil)
		if len(got) != blocks+1 {
			t.Fatalf("uniform threads=%d: %d partitions, want %d", threads, len(got)-1, blocks)
		}
		for j, lo := range got {
			if lo != j*parallel.DefaultGrain {
				t.Fatalf("uniform threads=%d: bounds %v, want every %d rows", threads, got, parallel.DefaultGrain)
			}
		}
	}

	hub := make([]int64, 1000)
	for i := range hub {
		hub[i] = 1
	}
	hub[500] = 1e6
	for _, threads := range []int{1, 2, 4} {
		got := partitions(prefixOf(hub), threads, nil)
		if j, ok := slices.BinarySearch(got, 500); !ok || got[j+1] != 501 {
			t.Errorf("hub threads=%d: row 500 does not have a partition to itself: %v", threads, got)
		}
	}

	// Cheap rows between two hubs: every piece of the stretch is at
	// most DefaultGrain rows wide.
	stretch := make([]int64, 4096)
	for i := range stretch {
		stretch[i] = 1
	}
	stretch[0], stretch[4095] = 1e6, 1e6
	for _, threads := range []int{1, 2, 4} {
		got := partitions(prefixOf(stretch), threads, nil)
		for j := 1; j < len(got); j++ {
			if got[j]-got[j-1] > parallel.DefaultGrain {
				t.Fatalf("stretch threads=%d: partition [%d,%d) wider than %d rows", threads, got[j-1], got[j], parallel.DefaultGrain)
			}
		}
	}

	mask, a, b := buildCase(caseSpec{"", 100, 100, 100, 8, 8, 8, 9})
	p, err := NewPlan(ptSR, mask, a, b, Options{Algorithm: AlgoMSA}, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, threads := range []int{1, 2, 4} {
		if got := partitions(p.costPrefix, threads, nil); len(got)-1 != threads*costPartsPerWorker {
			t.Errorf("100-row plan at threads=%d: %d partitions %v, want %d", threads, len(got)-1, got, threads*costPartsPerWorker)
		}
	}
}

// TestMaskedSpVMInnerSkipsProfile pins that a one-row plan builds no
// cost profile: Inner's profile would count every column of B. The
// one row's prefix stays zero, and a masked SpVM under Inner allocates
// the same at nnz(B) 10³ and 10⁵ — B's row 0 holds every mask column
// and u is e₀, so the output is the same size at both.
func TestMaskedSpVMInnerSkipsProfile(t *testing.T) {
	const n = 1000
	mask := []int32{1, 7, 300, 999}
	u := &sparse.Vector[float64]{N: n, Idx: []int32{0}, Val: []float64{1}}
	opt := Options{Algorithm: AlgoInner}
	operand := func(nnzB int) *sparse.CSR[float64] {
		coo := sparse.NewCOO[float64](n, n, nnzB)
		for _, j := range mask {
			coo.Append(0, j, 1)
		}
		rng := gen.NewRNG(61)
		for e := len(mask); e < nnzB; e++ {
			coo.Append(int32(1+rng.Intn(n-1)), int32(rng.Intn(n)), 1)
		}
		b, err := coo.ToCSR(func(x, y float64) float64 { return x + y })
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	allocs := func(b *sparse.CSR[float64]) float64 {
		exec := NewExecutor[float64](ptSR)
		if _, err := MaskedSpVMWith(exec, mask, u, b, opt); err != nil {
			t.Fatal(err)
		}
		return testing.AllocsPerRun(10, func() {
			if _, err := MaskedSpVMWith(exec, mask, u, b, opt); err != nil {
				t.Fatal(err)
			}
		})
	}
	small, large := operand(1e3), operand(1e5)
	if s, l := allocs(small), allocs(large); s != l {
		t.Errorf("Inner SpVM allocates %v objects at nnz(B) 1e3 and %v at 1e5", s, l)
	}
	a := &sparse.CSR[float64]{Pattern: sparse.Pattern{Rows: 1, Cols: n, RowPtr: []int64{0, 1}, ColIdx: u.Idx}, Val: u.Val}
	m := &sparse.Pattern{Rows: 1, Cols: n, RowPtr: []int64{0, int64(len(mask))}, ColIdx: mask}
	p, err := NewPlan(ptSR, m, a, large, opt, nil)
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(p.costPrefix) != "[0 0]" {
		t.Errorf("one-row plan built a cost profile: prefix %v", p.costPrefix)
	}
}

// TestWarmThenWide pins warm-at-one-width, serve-at-another: a plan
// built at Threads 1 retains its width-independent cost prefix, and
// executing it at Threads 4 derives the bounds for four workers from
// that prefix — exactly the linear reference's — and computes the
// same product. Through a cache the two widths share one entry.
func TestWarmThenWide(t *testing.T) {
	mask, a, b := skewedCase(512, 512, 4)
	serial, err := NewPlan(ptSR, mask, a, b, Options{Algorithm: AlgoMSA, Threads: 1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(serial.costPrefix) != mask.Rows+1 {
		t.Fatalf("serial plan retained a cost prefix of %d entries, want %d", len(serial.costPrefix), mask.Rows+1)
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
	if n := len(exec.partBounds) - 1; n < 2 || n > refPartCount(mask.Rows, 4) {
		t.Errorf("wide execution cut %d partitions, want in (1, %d]", n, refPartCount(mask.Rows, 4))
	}
	if w := len(exec.SchedStats().Workers); w != 4 {
		t.Errorf("wide execution ran %d workers, want 4", w)
	}

	cache := NewPlanCache(ptSR, 0)
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
// a buffer has grown to a width, cutting bounds again allocates
// nothing, and a steady-state execution allocates as many objects at
// about 64 partitions as at 8 — the executor's bounds buffer is reused.
func TestPartitionsAllocFree(t *testing.T) {
	allocs := func(rows int) float64 {
		mask, a, b := skewedCase(rows, rows, 4)
		p, err := NewPlan(ptSR, mask, a, b, Options{Algorithm: AlgoMSA, Threads: 1, ReuseOutput: true}, nil)
		if err != nil {
			t.Fatal(err)
		}
		buf := partitions(p.costPrefix, 8, nil)
		if got := testing.AllocsPerRun(20, func() { buf = partitions(p.costPrefix, 8, buf) }); got != 0 {
			t.Errorf("%d rows: partitions allocates %v objects per call on a grown buffer, want 0", rows, got)
		}
		if _, err := p.Execute(a, b); err != nil { // warm-up
			t.Fatal(err)
		}
		return testing.AllocsPerRun(10, func() {
			if _, err := p.Execute(a, b); err != nil {
				t.Fatal(err)
			}
		})
	}
	if few, many := allocs(512), allocs(4096); many != few {
		t.Errorf("steady-state execution allocates %v objects at 4096 rows, %v at 512", many, few)
	}
}

// TestPlanWidthInvariance is the width-invariance metamorphic test:
// work is split strictly by row and row formation is never split
// (§3), so one cached plan of any family must produce bit-identical
// output at every width — and so every partition layout — and widths
// never add cache entries. Every execution additionally cuts exactly
// the linear reference's bounds over the prefix it cuts: the plan's, or
// from the third execution on, where the hits run by the record the
// second published, the product schedule's, cut at width 1 when it
// holds fewer than replaySerialProducts products, or the dot bitmap's
// (DESIGN.md §9). Some executions must cut the bitmap's.
func TestPlanWidthInvariance(t *testing.T) {
	algos := []Algorithm{AlgoMSA, AlgoHash, AlgoMCA, AlgoHeap, AlgoInner, AlgoMaskedBit, AlgoHybrid}
	same := func(x, y float64) bool { return x == y }
	exec := NewExecutor[float64](ptSR)
	bitmapCuts := 0
	for _, inst := range gen.Suite(8) {
		g := inst.Build()
		if g.Rows > 1024 {
			continue // the fixed-size grids and BA graphs: too slow under -race
		}
		// The triangle-counting shape L ⊙ (L·L) keeps every family's
		// work small enough for the full family × width grid.
		g = sparse.Tril(g)
		mask := g.PatternView()
		cache := NewPlanCache(ptSR, 1024)
		keys := 0
		for _, algo := range algos {
			keys++
			var base *sparse.CSR[float64]
			for _, threads := range []int{1, 2, 3, 4, 8, 64} {
				opt := Options{Algorithm: algo, Threads: threads}
				name := fmt.Sprintf("%s/%s/t%d", inst.Name, algo, threads)
				p, err := cache.GetOrPlan(mask, g, g, opt)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				ref := referenceBounds(p, threads)
				if rec := p.fullHit.rec.Load(); rec != nil && rec.tier() == tierBitmap {
					bitmapCuts++
				}
				got, err := p.ExecuteOnOpts(exec, g, g, opt.ExecOnly())
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				if fmt.Sprint(exec.partBounds) != fmt.Sprint(ref) {
					t.Fatalf("%s: bounds %v, linear reference %v", name, exec.partBounds, ref)
				}
				if base == nil {
					base = got
				} else if !sparse.EqualFunc(base, got, same) {
					t.Fatalf("%s: output differs from the Threads=1 execution", name)
				}
			}
		}
		if n := cache.Len(); n != keys {
			t.Errorf("%s: cache holds %d entries for %d plan keys; widths must not add entries", inst.Name, n, keys)
		}
	}
	if bitmapCuts == 0 {
		t.Error("no execution cut its partitions from a dot bitmap's prefix")
	}
}
