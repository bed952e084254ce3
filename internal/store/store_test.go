package store

import (
	"errors"
	"testing"

	"maskedspgemm/internal/core"
	"maskedspgemm/internal/gen"
	"maskedspgemm/internal/sparse"
)

// TestRefWireRoundTrip pins the reference wire form: String and
// ParseRef are inverses, and malformed refs are rejected.
func TestRefWireRoundTrip(t *testing.T) {
	m := gen.ErdosRenyi(32, 4, 1)
	ref := RefOf(m)
	if ref.Pattern != m.Pattern.Fingerprint() || ref.Values != sparse.ValuesFingerprint(m.Val) {
		t.Fatal("RefOf does not pair the two fingerprints")
	}
	s := ref.String()
	if len(s) != 33 {
		t.Fatalf("wire form %q, want 16+1+16 chars", s)
	}
	back, err := ParseRef(s)
	if err != nil || back != ref {
		t.Fatalf("round trip %q → %v, %v", s, back, err)
	}
	for _, bad := range []string{"", "0123", "xyz:0123", "0123:xyz", ":", "fffffffffffffffff:0"} {
		if _, err := ParseRef(bad); err == nil {
			t.Fatalf("ParseRef(%q) accepted", bad)
		}
	}
}

// TestStorePutIdempotent pins the content-address contract: identical
// bytes land on the resident entry, distinct content gets its own.
func TestStorePutIdempotent(t *testing.T) {
	s := New(nil)
	g := gen.ErdosRenyi(48, 4, 2)
	ref, created := s.Put(g)
	if !created {
		t.Fatal("first put must create")
	}
	// Same content, separately generated: same address, no new entry.
	ref2, created := s.Put(gen.ErdosRenyi(48, 4, 2))
	if created || ref2 != ref {
		t.Fatalf("re-put: created=%v ref=%v, want resident %v", created, ref2, ref)
	}
	// Distinct content: new entry.
	if _, created := s.Put(gen.ErdosRenyi(48, 4, 3)); !created {
		t.Fatal("distinct content must create")
	}
	st := s.StatsSnapshot()
	if st.Puts != 2 || st.Reputs != 1 || st.Operands != 2 {
		t.Fatalf("stats = %+v", st)
	}
	if m, ok := s.Get(ref); !ok || m.NNZ() != g.NNZ() {
		t.Fatal("resident operand did not resolve")
	}
	if _, ok := s.Get(Ref{Pattern: 1, Values: 2}); ok {
		t.Fatal("absent ref resolved")
	}
	st = s.StatsSnapshot()
	if st.Hits != 1 || st.Misses != 1 {
		t.Fatalf("resolution counters = %+v", st)
	}
}

// TestStorePatternSharing pins the structure-dedup contract: value
// sets with the same pattern share one resident structure, its bytes
// are charged once, and it stays resident until the last sharer goes.
func TestStorePatternSharing(t *testing.T) {
	budget := core.NewMemBudget(1 << 30)
	s := New(budget)
	g := gen.ErdosRenyi(48, 4, 4)
	patBytes := int64(len(g.RowPtr))*8 + int64(len(g.ColIdx))*4 + entryOverhead
	valBytes := int64(len(g.Val))*8 + entryOverhead

	ref1, _ := s.Put(g)
	after1 := s.StatsSnapshot().Bytes
	if after1 != patBytes+valBytes {
		t.Fatalf("first put charged %d, want %d", after1, patBytes+valBytes)
	}

	// Second value set under the same structure via the delta path.
	scaled := make([]float64, len(g.Val))
	for i, v := range g.Val {
		scaled[i] = 2 * v
	}
	ref2, created, err := s.PutValues(ref1.Pattern, scaled)
	if err != nil || !created {
		t.Fatalf("values put: %v created=%v", err, created)
	}
	if ref2.Pattern != ref1.Pattern || ref2.Values == ref1.Values {
		t.Fatalf("delta ref %v vs original %v", ref2, ref1)
	}
	st := s.StatsSnapshot()
	if st.Patterns != 1 || st.Operands != 2 {
		t.Fatalf("after delta: %+v", st)
	}
	if st.Bytes != after1+valBytes {
		t.Fatalf("delta charged %d, want values-only %d (structure must not double-charge)", st.Bytes-after1, valBytes)
	}
	// The stored delta matrix aliases the shared structure arrays.
	m2, ok := s.Get(ref2)
	if !ok {
		t.Fatal("delta operand did not resolve")
	}
	pat, ok := s.GetPattern(ref1.Pattern)
	if !ok || &m2.RowPtr[0] != &pat.RowPtr[0] {
		t.Fatal("delta operand does not alias the shared structure")
	}

	// Evicting one sharer keeps the structure; evicting the last frees
	// it. BudgetEvict drops the LRU entry (ref1 — ref2 is newer).
	if s.BudgetEvict() == 0 {
		t.Fatal("evict refused with two entries resident")
	}
	st = s.StatsSnapshot()
	if st.Operands != 1 || st.Patterns != 1 {
		t.Fatalf("after first evict: %+v", st)
	}
	if _, ok := s.Get(ref1); ok {
		t.Fatal("evicted LRU operand still resolves")
	}
	if _, ok := s.GetPattern(ref1.Pattern); !ok {
		t.Fatal("shared structure freed while a sharer remains")
	}
	// The last entry is never yielded to the budget.
	if s.BudgetEvict() != 0 {
		t.Fatal("evict must refuse the last resident entry")
	}
	if _, ok := s.BudgetTail(); ok {
		t.Fatal("tail must refuse with one entry")
	}
}

// TestStorePutValuesErrors pins the delta failure modes: unknown
// structure is a typed error naming the fingerprint; a wrong-length
// value slice is rejected.
func TestStorePutValuesErrors(t *testing.T) {
	s := New(nil)
	_, _, err := s.PutValues(0xdead, []float64{1, 2})
	var unknown *ErrUnknownPattern
	if !errors.As(err, &unknown) || unknown.Fingerprint != 0xdead {
		t.Fatalf("unknown pattern: %v", err)
	}
	g := gen.ErdosRenyi(32, 4, 5)
	ref, _ := s.Put(g)
	if _, _, err := s.PutValues(ref.Pattern, make([]float64, g.NNZ()+1)); err == nil {
		t.Fatal("wrong-length values accepted")
	}
	// Re-putting identical values is idempotent, like Put.
	vals := append([]float64(nil), g.Val...)
	ref2, created, err := s.PutValues(ref.Pattern, vals)
	if err != nil || created || ref2 != ref {
		t.Fatalf("identical values delta: ref=%v created=%v err=%v", ref2, created, err)
	}
}

// TestStoreBudgetEviction pins LRU under pressure: with a budget too
// small for the working set, inserts evict the least recently used
// operands, accounting stays exact, and the budget ends at or under
// its ceiling.
func TestStoreBudgetEviction(t *testing.T) {
	g0 := gen.ErdosRenyi(48, 4, 10)
	perOperand := int64(len(g0.RowPtr))*8 + int64(len(g0.ColIdx))*4 + int64(len(g0.Val))*8 + 2*entryOverhead
	budget := core.NewMemBudget(3 * perOperand)
	s := New(budget)

	var refs []Ref
	for seed := uint64(10); seed < 16; seed++ {
		ref, created := s.Put(gen.ErdosRenyi(48, 4, seed))
		if !created {
			t.Fatalf("seed %d content collided", seed)
		}
		refs = append(refs, ref)
	}
	st := s.StatsSnapshot()
	if st.Evictions == 0 {
		t.Fatalf("six operands under a three-operand budget evicted nothing: %+v", st)
	}
	if budget.Used() > budget.Max() {
		t.Fatalf("budget over ceiling after rebalance: %d > %d", budget.Used(), budget.Max())
	}
	if budget.Used() != st.Bytes {
		t.Fatalf("budget charge %d != store bytes %d", budget.Used(), st.Bytes)
	}
	// Oldest gone, newest resident.
	if _, ok := s.Get(refs[0]); ok {
		t.Fatal("oldest operand survived pressure that forced evictions")
	}
	if _, ok := s.Get(refs[len(refs)-1]); !ok {
		t.Fatal("newest operand was evicted")
	}
}

// TestStoreGetTouchesLRU pins recency: resolving an operand protects
// it from the next eviction.
func TestStoreGetTouchesLRU(t *testing.T) {
	s := New(core.NewMemBudget(1 << 30))
	ref1, _ := s.Put(gen.ErdosRenyi(32, 4, 20))
	ref2, _ := s.Put(gen.ErdosRenyi(32, 4, 21))
	// ref1 is older; touching it makes ref2 the LRU victim.
	if _, ok := s.Get(ref1); !ok {
		t.Fatal("ref1 not resident")
	}
	if s.BudgetEvict() == 0 {
		t.Fatal("evict refused")
	}
	if _, ok := s.Get(ref2); ok {
		t.Fatal("touched operand evicted instead of the stale one")
	}
	if _, ok := s.Get(ref1); !ok {
		t.Fatal("recently touched operand gone")
	}
}

// TestStoreGetPatternTouchesLRU pins recency for masks: resolving a
// structure by fingerprint protects a value set of it from the next
// eviction, as Get does for a full ref.
func TestStoreGetPatternTouchesLRU(t *testing.T) {
	s := New(core.NewMemBudget(1 << 30))
	maskRef, _ := s.Put(gen.ErdosRenyi(32, 4, 40))
	ref1, _ := s.Put(gen.ErdosRenyi(32, 4, 41))
	s.Put(gen.ErdosRenyi(32, 4, 42))
	if _, ok := s.GetPattern(maskRef.Pattern); !ok {
		t.Fatal("mask not resident")
	}
	if s.BudgetEvict() == 0 {
		t.Fatal("evict refused")
	}
	if _, ok := s.GetPattern(maskRef.Pattern); !ok {
		t.Fatal("the mask just resolved was evicted")
	}
	if _, ok := s.Get(ref1); ok {
		t.Fatal("the stale operand survived instead of the resolved mask")
	}
}

// TestStoreBodyDigests pins the body-digest table: a digest filed by
// PutBody resolves to its entry, counts as a reput and a body hit, and
// refreshes recency like a put; an entry keeps at most maxBodyDigests,
// dropping its oldest; and eviction drops every digest with the entry.
func TestStoreBodyDigests(t *testing.T) {
	s := New(core.NewMemBudget(1 << 30))
	g := gen.ErdosRenyi(32, 4, 30)
	ref, created := s.PutBody(g, Digest{1, 1})
	if !created {
		t.Fatal("first body put must create")
	}
	if _, _, ok := s.GetBody(Digest{1, 2}); ok {
		t.Fatal("an unfiled digest resolved")
	}
	m, got, ok := s.GetBody(Digest{1, 1})
	if !ok || got != ref || m != g {
		t.Fatalf("filed digest: ok=%v ref=%v, want the resident entry %v", ok, got, ref)
	}
	if st := s.StatsSnapshot(); st.BodyHits != 1 || st.Reputs != 1 || st.Puts != 1 || st.Misses != 0 {
		t.Fatalf("stats after one body hit = %+v", st)
	}

	// Re-putting the same content under more digests files them all on
	// the one entry, up to the cap.
	for k := uint64(2); k <= maxBodyDigests+1; k++ {
		if _, created := s.PutBody(gen.ErdosRenyi(32, 4, 30), Digest{k, k}); created {
			t.Fatalf("digest %d: re-put created a second entry", k)
		}
	}
	if _, _, ok := s.GetBody(Digest{1, 1}); ok {
		t.Fatal("the oldest digest outlived the per-entry cap")
	}
	for k := uint64(2); k <= maxBodyDigests+1; k++ {
		if _, _, ok := s.GetBody(Digest{k, k}); !ok {
			t.Fatalf("digest %d lost within the cap", k)
		}
	}

	// A body hit refreshes recency: g survives the next eviction.
	other, _ := s.Put(gen.ErdosRenyi(32, 4, 31))
	newest, _ := s.Put(gen.ErdosRenyi(32, 4, 32))
	if _, _, ok := s.GetBody(Digest{2, 2}); !ok {
		t.Fatal("digest lost")
	}
	s.BudgetEvict()
	if _, ok := s.Get(other); ok {
		t.Fatal("the untouched operand survived instead of the body-hit one")
	}

	// Evicting the entry drops its digests.
	if _, ok := s.Get(newest); !ok {
		t.Fatal("newest operand gone")
	}
	s.BudgetEvict()
	if _, ok := s.Get(ref); ok {
		t.Fatal("the least recently used operand survived")
	}
	for k := uint64(2); k <= maxBodyDigests+1; k++ {
		if _, _, ok := s.GetBody(Digest{k, k}); ok {
			t.Fatalf("digest %d outlived its evicted entry", k)
		}
	}
	if len(s.bodies) != 0 {
		t.Fatalf("%d digests left after their entry was evicted", len(s.bodies))
	}
}
