package core

import (
	"runtime"
	"sync"
	"testing"

	"maskedspgemm/internal/gen"
	"maskedspgemm/internal/semiring"
	"maskedspgemm/internal/sparse"
)

// cscIndexLen reads the size of the cache's shared CSC index.
func cscIndexLen(c *PlanCache[float64, ptSRType]) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.csc)
}

// ptSRType is ptSR's type.
type ptSRType = semiring.PlusTimes[float64]

// TestPlanCacheStoredMaskAliased pins the ownership split on a miss: a
// plan built from a stored mask shares its arrays (and allocates less
// than the mask's ColIdx would cost to copy), while a caller-owned
// mask is cloned.
func TestPlanCacheStoredMaskAliased(t *testing.T) {
	g := gen.ErdosRenyi(512, 32, 15)
	mask := g.PatternView()
	// The fingerprints an operand store would file mask = A = B under.
	gFP := mask.Fingerprint()
	fp := Fingerprints{Mask: gFP, A: gFP, B: gFP}
	colIdxBytes := uint64(len(mask.ColIdx)) * 4
	opt := Options{Algorithm: AlgoMSA}

	cache := NewPlanCache(ptSR, 0)
	p, _, err := cache.GetOrPlanStored(fp, mask, g, g, opt)
	if err != nil {
		t.Fatal(err)
	}
	if &p.mask.ColIdx[0] != &mask.ColIdx[0] || &p.mask.RowPtr[0] != &mask.RowPtr[0] {
		t.Fatal("a plan built from a stored mask copied its arrays")
	}
	if p.mask == mask {
		t.Fatal("the plan must hold its own mask header, not the matrix's embedded one")
	}
	owned, _, _, err := NewPlanCache(ptSR, 0).GetOrPlanObserved(mask, g, g, opt)
	if err != nil {
		t.Fatal(err)
	}
	if &owned.mask.ColIdx[0] == &mask.ColIdx[0] {
		t.Fatal("a plan built from a caller-owned mask aliases it")
	}

	// Bytes allocated per miss, averaged over a few misses.
	perMiss := func(miss func()) uint64 {
		const n = 8
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for range n {
			cache.Clear()
			miss()
		}
		runtime.ReadMemStats(&after)
		return (after.TotalAlloc - before.TotalAlloc) / n
	}
	stored := perMiss(func() { _, _, _ = cache.GetOrPlanStored(fp, mask, g, g, opt) })
	hashed := perMiss(func() { _, _, _, _ = cache.GetOrPlanObserved(mask, g, g, opt) })
	t.Logf("per miss: stored %d B, caller-owned %d B, mask ColIdx %d B", stored, hashed, colIdxBytes)
	if stored >= colIdxBytes {
		t.Errorf("a stored-operand miss allocates %d bytes, not under the mask's ColIdx (%d): the mask was copied", stored, colIdxBytes)
	}
	if hashed < colIdxBytes {
		t.Errorf("a caller-owned miss allocates %d bytes, under the mask's ColIdx (%d): the clone went missing", hashed, colIdxBytes)
	}
}

// TestPlanCacheSharedCSC pins the shared CSC index: plans over one B
// share a single transpose, concurrent executions through shared
// structure are bit-identical to unshared plans, a different B of the
// same shape never borrows it, and the index empties when its last
// user leaves. Run under -race.
func TestPlanCacheSharedCSC(t *testing.T) {
	const nMasks = 8
	b := gen.ErdosRenyi(256, 8, 16)
	masks := make([]*sparse.Pattern, nMasks)
	want := make([]*sparse.CSR[float64], nMasks)
	pull := Options{Algorithm: AlgoHybrid, HybridFamilies: Families(FamPull)}
	for k := range masks {
		masks[k] = gen.ErdosRenyi(256, 4+2*k, 100+uint64(k)).PatternView()
		p, err := NewPlan(ptSR, masks[k], b, b, pull, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !p.polyFams.Has(FamPull) {
			t.Fatalf("mask %d bound no Pull rows", k)
		}
		if want[k], err = p.Execute(b, b); err != nil {
			t.Fatal(err)
		}
	}
	bFP := b.Pattern.Fingerprint()

	cache := NewPlanCache(ptSR, 2)
	var wg sync.WaitGroup
	errs := make(chan string, 4*3*nMasks)
	for w := range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			exec := NewExecutor[float64](ptSR)
			for it := range 3 * nMasks {
				k := (w + it) % nMasks
				var p *Plan[float64, ptSRType]
				var err error
				if it%2 == 0 {
					p, _, err = cache.GetOrPlanStored(Fingerprints{Mask: masks[k].Fingerprint(), A: bFP, B: bFP}, masks[k], b, b, pull)
				} else {
					p, err = cache.GetOrPlan(masks[k], b, b, pull)
				}
				if err != nil {
					errs <- err.Error()
					return
				}
				got, err := p.ExecuteOn(exec, b, b)
				if err != nil {
					errs <- err.Error()
					return
				}
				if !sparse.Equal(want[k], got) {
					errs <- "a plan sharing B's CSC structure differs from an unshared plan"
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}
	if n := cscIndexLen(cache); n != 1 {
		t.Fatalf("index holds %d structures after traffic over one B, want 1", n)
	}

	// Sequentially, two resident plans over B share one transpose.
	cache.Clear()
	if n := cscIndexLen(cache); n != 0 {
		t.Fatalf("index holds %d structures after Clear", n)
	}
	p0, err := cache.GetOrPlan(masks[0], b, b, pull)
	if err != nil {
		t.Fatal(err)
	}
	p1, err := cache.GetOrPlan(masks[1], b, b, pull)
	if err != nil {
		t.Fatal(err)
	}
	if &p0.btIdx[0] != &p1.btIdx[0] || &p0.btPerm[0] != &p1.btPerm[0] || &p0.btPtr[0] != &p1.btPtr[0] {
		t.Fatal("two resident plans over one B transposed it twice")
	}

	// A different B of the same shape plans its own transpose and
	// computes its own product.
	b2 := gen.ErdosRenyi(256, 8, 17)
	if b2.Rows != b.Rows || b2.Cols != b.Cols {
		t.Fatal("b2 must have b's shape")
	}
	q, err := cache.GetOrPlan(masks[0], b2, b2, pull)
	if err != nil {
		t.Fatal(err)
	}
	if &q.btIdx[0] == &p1.btIdx[0] || &q.btPtr[0] == &p1.btPtr[0] {
		t.Fatal("a different B reused another B's CSC structure")
	}
	got, err := q.ExecuteOn(NewExecutor[float64](ptSR), b2, b2)
	if err != nil {
		t.Fatal(err)
	}
	unshared, err := MaskedSpGEMM(ptSR, masks[0], b2, b2, pull)
	if err != nil {
		t.Fatal(err)
	}
	if !sparse.Equal(unshared, got) {
		t.Fatal("plan over a different B differs from its unshared product")
	}
	if n := cscIndexLen(cache); n != 2 {
		t.Fatalf("index holds %d structures with plans over two Bs resident, want 2", n)
	}

	// The index is keyed by B alone: a product whose A is b2 and whose B
	// is b borrows b's transpose, never b2's.
	r, err := cache.GetOrPlan(masks[2], b2, b, pull)
	if err != nil {
		t.Fatal(err)
	}
	if &r.btIdx[0] != &p1.btIdx[0] {
		t.Fatal("a plan over B = b did not borrow b's resident transpose")
	}
	got, err = r.ExecuteOn(NewExecutor[float64](ptSR), b2, b)
	if err != nil {
		t.Fatal(err)
	}
	if unshared, err = MaskedSpGEMM(ptSR, masks[2], b2, b, pull); err != nil {
		t.Fatal(err)
	}
	if !sparse.Equal(unshared, got) {
		t.Fatal("plan with A ≠ B differs from its unshared product")
	}

	// Plans that need no CSC push the Pull plans out of the 2-entry
	// cache; the index empties with its last user.
	for k := range 2 {
		if _, err := cache.GetOrPlan(masks[k], b, b, Options{Algorithm: AlgoMSA}); err != nil {
			t.Fatal(err)
		}
	}
	if n := cscIndexLen(cache); n != 0 {
		t.Fatalf("index holds %d structures after every user was evicted", n)
	}
}
