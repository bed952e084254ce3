package store

import (
	"math"
	"testing"

	"maskedspgemm/internal/core"
	"maskedspgemm/internal/gen"
	"maskedspgemm/internal/sparse"
)

// unitOf is p with unit values in a fresh array: a mask's upload form.
func unitOf(p *sparse.Pattern) *sparse.CSR[float64] {
	m := &sparse.CSR[float64]{Pattern: *p, Val: make([]float64, p.NNZ())}
	for j := range m.Val {
		m.Val[j] = 1
	}
	return m
}

// patternBytes is the charge of a resident structure.
func patternBytes(p *sparse.Pattern) int64 {
	return int64(len(p.RowPtr))*8 + int64(len(p.ColIdx))*4 + entryOverhead
}

// slabOf is the ones slab a stored unit Val aliases: its first word.
func slabOf(t *testing.T, s *Store, ref Ref) *float64 {
	t.Helper()
	m, ok := s.Get(ref)
	if !ok {
		t.Fatalf("%v not resident", ref)
	}
	if len(m.Val) == 0 {
		t.Fatalf("%v has no values", ref)
	}
	return &m.Val[0]
}

// TestStoreUnitValuesShareSlab pins the ones slab: Put, PutBody and
// PutValues of unit values all alias one store-owned slab, clipped to
// their length, charged once; each entry pays only its overhead; and
// the fingerprints are those of the uploaded words.
func TestStoreUnitValuesShareSlab(t *testing.T) {
	budget := core.NewMemBudget(1 << 30)
	s := New(budget)
	big := gen.ErdosRenyiPattern(64, 8, 1)
	mid := gen.ErdosRenyiPattern(64, 4, 2)
	g := gen.ErdosRenyi(48, 4, 3) // non-unit values; its structure takes a unit delta below

	m1 := unitOf(big)
	want1 := RefOf(unitOf(big))
	ref1, _ := s.Put(m1)
	if ref1 != want1 {
		t.Fatalf("unit put ref %v, want the uploaded words' %v", ref1, want1)
	}
	ref2, _ := s.PutBody(unitOf(mid), Digest{7, 7})
	gRef, _ := s.Put(g)
	ones := make([]float64, g.NNZ())
	for j := range ones {
		ones[j] = 1
	}
	ref3, created, err := s.PutValues(gRef.Pattern, ones)
	if err != nil || !created {
		t.Fatalf("unit values delta: created %v, err %v", created, err)
	}
	if ref3.Values != sparse.ValuesFingerprint(unitOf(g.PatternView()).Val) {
		t.Fatal("unit delta is not keyed by its words")
	}

	slab := slabOf(t, s, ref1)
	if &m1.Val[0] != slab {
		t.Fatal("Put left the caller's matrix on its own array")
	}
	for _, ref := range []Ref{ref2, ref3} {
		if slabOf(t, s, ref) != slab {
			t.Fatalf("%v does not alias the first unit operand's slab", ref)
		}
	}
	if m, _, ok := s.GetBody(Digest{7, 7}); !ok || &m.Val[0] != slab {
		t.Fatal("a body hit does not answer the slab-backed entry")
	}
	for _, ref := range []Ref{ref1, ref2, ref3} {
		m, _ := s.Get(ref)
		if cap(m.Val) != len(m.Val) {
			t.Fatalf("%v: cap %d > len %d, so an append would write into the slab", ref, cap(m.Val), len(m.Val))
		}
		if sparse.ValuesFingerprint(m.Val) != ref.Values {
			t.Fatalf("%v: the stored words no longer match the ref", ref)
		}
		grown := append(m.Val, 2)
		grown[0] = 3
	}
	if slabOf(t, s, ref1) != slab || *slab != 1 {
		t.Fatal("appending to a stored unit Val reached the slab")
	}

	// One slab of exactly the first unit operand's length, charged once;
	// unit entries pay their overhead only, g its values too.
	st := s.StatsSnapshot()
	if len(s.slabs) != 1 || int64(len(s.slabs[0].vals)) != big.NNZ() || s.slabs[0].refs != 3 {
		t.Fatalf("slabs = %d, want one of %d words with 3 users", len(s.slabs), big.NNZ())
	}
	unit := int64(big.NNZ()) * 8
	want := patternBytes(big) + patternBytes(mid) + patternBytes(g.PatternView()) +
		unit + 3*entryOverhead + int64(g.NNZ())*8 + entryOverhead
	if st.UnitBytes != unit || st.Bytes != want || budget.Used() != want {
		t.Fatalf("unit bytes %d, bytes %d, budget %d; want %d, %d, %d", st.UnitBytes, st.Bytes, budget.Used(), unit, want, want)
	}
}

// TestStoreUnitSlabSizing pins the sizing rule: the first slab is
// exactly its operand's length, a longer operand gets a new slab of at
// least twice the last, shorter ones alias the largest live slab, and
// an older slab lives while its entries do.
func TestStoreUnitSlabSizing(t *testing.T) {
	s := New(core.NewMemBudget(1 << 30))
	p1 := gen.ErdosRenyiPattern(64, 4, 1)
	p2 := gen.ErdosRenyiPattern(64, 5, 2) // longer than p1, shorter than 2·p1
	p3 := gen.ErdosRenyiPattern(64, 2, 3)
	n1 := p1.NNZ()
	if n2 := p2.NNZ(); n2 <= n1 || n2 >= 2*n1 {
		t.Fatalf("fixture: nnz %d and %d", n1, n2)
	}
	ref1, _ := s.Put(unitOf(p1))
	ref2, _ := s.Put(unitOf(p2))
	ref3, _ := s.Put(unitOf(p3))
	if got := slabLens(s); len(got) != 2 || got[0] != n1 || got[1] != 2*n1 {
		t.Fatalf("slab lengths %v, want [%d %d]", slabLens(s), n1, 2*n1)
	}
	if slabOf(t, s, ref1) == slabOf(t, s, ref2) || slabOf(t, s, ref3) != slabOf(t, s, ref2) {
		t.Fatal("a longer operand shares the first slab, or a shorter one skips the largest")
	}
	if st := s.StatsSnapshot(); st.UnitBytes != int64(3*n1)*8 {
		t.Fatalf("unit bytes %d, want both slabs' %d", st.UnitBytes, 3*n1*8)
	}
	// A longer operand than twice the last slab gets a slab of its own
	// length.
	p4 := gen.ErdosRenyiPattern(64, 20, 4)
	s.Put(unitOf(p4))
	if got := slabLens(s); len(got) != 3 || got[2] != p4.NNZ() {
		t.Fatalf("slab lengths %v, want a third of %d", got, p4.NNZ())
	}
}

// slabLens lists the live slabs' lengths, smallest first.
func slabLens(s *Store) []int64 {
	var lens []int64
	for _, sl := range s.slabs {
		lens = append(lens, int64(len(sl.vals)))
	}
	return lens
}

// TestStoreNonUnitKeepsOwnArrays pins the unit check's exactness: a
// value one ulp off 1, a -1, a NaN, or no values at all keeps the
// operand's own array, charged per word, and makes no slab.
func TestStoreNonUnitKeepsOwnArrays(t *testing.T) {
	cases := map[string]func([]float64){
		"last 1+ulp": func(v []float64) { v[len(v)-1] = math.Nextafter(1, 2) },
		"minus one":  func(v []float64) { v[len(v)/2] = -1 },
		"nan":        func(v []float64) { v[0] = math.NaN() },
	}
	p := gen.ErdosRenyiPattern(48, 4, 5)
	for name, spoil := range cases {
		s := New(core.NewMemBudget(1 << 30))
		m := unitOf(p)
		spoil(m.Val)
		own := &m.Val[0]
		ref, _ := s.Put(m)
		if slabOf(t, s, ref) != own {
			t.Errorf("%s: the operand lost its own array", name)
		}
		// The same words as a values delta under the resident structure
		// of a plain operand.
		g := gen.ErdosRenyi(40, 4, 6)
		gRef, _ := s.Put(g)
		vals := unitOf(g.PatternView()).Val
		spoil(vals)
		dRef, _, err := s.PutValues(gRef.Pattern, vals)
		if err != nil || slabOf(t, s, dRef) != &vals[0] {
			t.Errorf("%s: the values delta lost its own array (err %v)", name, err)
		}
		want := patternBytes(p) + int64(p.NNZ())*8 + entryOverhead +
			patternBytes(g.PatternView()) + 2*(int64(g.NNZ())*8+entryOverhead)
		if st := s.StatsSnapshot(); st.UnitBytes != 0 || len(s.slabs) != 0 || st.Bytes != want {
			t.Errorf("%s: unit bytes %d, %d slabs, bytes %d; want 0, 0, %d", name, st.UnitBytes, len(s.slabs), st.Bytes, want)
		}
	}

	s := New(core.NewMemBudget(1 << 30))
	empty := &sparse.CSR[float64]{Pattern: sparse.Pattern{Rows: 3, Cols: 3, RowPtr: make([]int64, 4)}}
	if _, created := s.Put(empty); !created || empty.Val != nil {
		t.Fatalf("empty operand: created %v, values %v", created, empty.Val)
	}
	if st := s.StatsSnapshot(); st.UnitBytes != 0 || len(s.slabs) != 0 {
		t.Fatalf("an empty operand made a slab: %+v", st)
	}
}

// TestStoreUnitEvictionReleasesSlab pins the slab's release: a slab
// leaves with the last entry aliasing it, while a larger one stays for
// its own; evicting every unit entry returns Bytes and the budget to
// what the rest holds and drops every slab.
func TestStoreUnitEvictionReleasesSlab(t *testing.T) {
	budget := core.NewMemBudget(1 << 30)
	s := New(budget)
	p1 := gen.ErdosRenyiPattern(64, 4, 1)
	p2 := gen.ErdosRenyiPattern(64, 5, 2)
	s.Put(unitOf(p1)) // slab of nnz(p1)
	s.Put(unitOf(p2)) // a second slab, twice the first
	g := gen.ErdosRenyi(48, 4, 3)
	gRef, _ := s.Put(g) // the newest entry, never yielded
	rest := patternBytes(g.PatternView()) + int64(g.NNZ())*8 + entryOverhead
	if st := s.StatsSnapshot(); st.UnitBytes != int64(3*p1.NNZ())*8 {
		t.Fatalf("two slabs charge %d, want %d", st.UnitBytes, 3*p1.NNZ()*8)
	}
	// Evict the older unit entry: its slab goes with it, the larger one
	// stays for the other.
	s.BudgetEvict()
	if got := slabLens(s); len(got) != 1 || got[0] != 2*p1.NNZ() {
		t.Fatalf("after the first eviction slabs are %v", got)
	}
	s.BudgetEvict()
	st := s.StatsSnapshot()
	if st.Operands != 1 || len(s.slabs) != 0 || st.UnitBytes != 0 {
		t.Fatalf("after evicting every unit entry: %+v, %d slabs", st, len(s.slabs))
	}
	if st.Bytes != rest || budget.Used() != rest {
		t.Fatalf("bytes %d, budget %d; want the remaining operand's %d", st.Bytes, budget.Used(), rest)
	}
	if _, ok := s.Get(gRef); !ok {
		t.Fatal("the non-unit operand was evicted")
	}
	// With no slab live, the next unit operand's slab is exact again.
	s.Put(unitOf(p2))
	if got := slabLens(s); len(got) != 1 || got[0] != p2.NNZ() {
		t.Fatalf("slab after a full release: %v, want [%d]", got, p2.NNZ())
	}
}
