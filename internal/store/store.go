// Package store is the content-addressed operand store behind
// reference-based serving (DESIGN.md §13): CSR matrices keyed by
// (pattern fingerprint, values fingerprint), so a client uploads an
// operand once and later requests name it by fingerprint instead of
// re-shipping its bytes. The key reuses the plan cache's identity
// scheme — sparse.Pattern.Fingerprint for structure — extended with
// sparse.ValuesFingerprint for the numbers, making the pair a full
// content address: re-uploading identical bytes lands on the resident
// entry (idempotent), and a values-only delta re-keys fresh numbers
// under a resident structure without re-sending it.
//
// Patterns are shared across value sets: the k-truss/BC serving shape
// is one recurring graph structure multiplied under many value
// refreshes, so the store keeps one copy of each distinct structure
// (refcounted) and per-value-set entries that alias it.
//
// Eviction is LRU under a core.MemBudget shared with the plan cache:
// resident operands and cached plans draw from one byte budget, and
// whichever is globally least recently used yields first. Evicting an
// operand never invalidates plans cached for its structure (a plan
// built from a stored mask holds its own reference to the mask's
// arrays, and is charged for them), and evicting a plan never drops an
// operand — the two caches only compete for bytes.
//
// Unit-valued operands — masks uploaded as their pattern with unit
// values, Matrix Market pattern files — share one read-only slab of
// 1.0: such an entry's values alias a prefix of a refcounted,
// store-owned ones slab charged once, so a stored mask costs its
// structure, not 8 bytes of 1.0 per entry (DESIGN.md §13, "Unit
// values").
//
// An entry may also carry the digests of the encoded bodies it was
// decoded from (GetBody, PutBody): a serving layer that sees the same
// bytes again takes the resident operand instead of decoding them.
package store

import (
	"container/list"
	"fmt"
	"slices"
	"strconv"
	"strings"
	"sync"

	"maskedspgemm/internal/core"
	"maskedspgemm/internal/sparse"
)

// Ref content-addresses one stored operand: the structural fingerprint
// of its pattern and the fingerprint of its value words. The zero
// Values with a nonzero Pattern never occurs for stored matrices in
// practice, but no semantics hang on it — a Ref is just the pair.
type Ref struct {
	// Pattern is sparse.Pattern.Fingerprint of the operand's structure.
	Pattern uint64
	// Values is sparse.ValuesFingerprint of the operand's value slice.
	Values uint64
}

// RefOf computes the content address of a matrix.
func RefOf(m *sparse.CSR[float64]) Ref {
	return Ref{Pattern: m.Pattern.Fingerprint(), Values: sparse.ValuesFingerprint(m.Val)}
}

// String renders the ref in the wire form "ppppppppp:vvvvvvvvv" (two
// 16-digit hex fingerprints) that ParseRef reads back.
func (r Ref) String() string {
	return fmt.Sprintf("%016x:%016x", r.Pattern, r.Values)
}

// ParseRef parses the wire form written by Ref.String. Both halves are
// required; use ParseFingerprint for pattern-only references (masks).
func ParseRef(s string) (Ref, error) {
	p, v, ok := strings.Cut(s, ":")
	if !ok {
		return Ref{}, fmt.Errorf("store: operand ref %q is not pattern:values", s)
	}
	pf, err := ParseFingerprint(p)
	if err != nil {
		return Ref{}, err
	}
	vf, err := ParseFingerprint(v)
	if err != nil {
		return Ref{}, err
	}
	return Ref{Pattern: pf, Values: vf}, nil
}

// ParseFingerprint parses one hex fingerprint half.
func ParseFingerprint(s string) (uint64, error) {
	f, err := strconv.ParseUint(s, 16, 64)
	if err != nil {
		return 0, fmt.Errorf("store: fingerprint %q is not 64-bit hex", s)
	}
	return f, nil
}

// Digest names the exact bytes an operand was decoded from: a 128-bit
// keyed hash the serving layer computes. The store treats it as
// opaque; equal digests mean byte-identical bodies, and bytes decode
// to one matrix, so a digest filed on an entry names that entry's
// content.
type Digest [2]uint64

// maxBodyDigests bounds the digests one entry carries. One matrix has
// many encodings (MSPG, Matrix Market with any spacing or comments),
// so a client re-encoding it could otherwise grow an entry without
// bound; past the cap the oldest digest is dropped, which costs a
// later body of that encoding one decode, nothing else.
const maxBodyDigests = 4

// Store is the fingerprint-keyed operand store. All methods are safe
// for concurrent use.
//
// Ownership contract (the §8 rules extended to resident operands):
// Put transfers ownership of the matrix to the store — the caller must
// not mutate it afterwards, and matrices returned by Get are shared
// with every other reader and with in-flight executions, so they are
// read-only. A unit-valued operand's Val aliases a ones slab that other
// operands share, so writing it would change theirs too. Mutating a
// resident operand would silently falsify its content address; nothing
// defends against it beyond this contract.
type Store struct {
	budget *core.MemBudget

	mu       sync.Mutex
	lru      *list.List // front = most recently used; values are *entry
	table    map[Ref]*list.Element
	patterns map[uint64]*patternEntry
	// bodies files entries by the digests of the bodies they were
	// decoded from; each digest is also listed on its entry, and leaves
	// the map when the entry is evicted.
	bodies map[Digest]*list.Element
	// slabs are the live ones slabs, smallest first; a new unit-valued
	// entry aliases the last, and each lives while any entry aliases it.
	slabs []*onesSlab
	bytes int64

	hits, misses, evictions uint64
	puts, reputs, bodyHits  uint64
}

// entry is one resident value set; its matrix aliases the refcounted
// shared pattern, and a unit-valued one's values alias a ones slab.
// bytes covers the values slice (none when they alias a slab) and
// fixed overhead; the pattern's and the slab's bytes are accounted
// once on their own records.
type entry struct {
	ref   Ref
	m     *sparse.CSR[float64]
	pat   *patternEntry
	slab  *onesSlab // nil unless the values are unit
	bytes int64
	stamp uint64
	// digests are the body digests filed on the entry, oldest first, at
	// most maxBodyDigests.
	digests []Digest
}

// patternEntry is one resident structure, shared by every value set
// whose pattern fingerprints to it.
type patternEntry struct {
	pat   *sparse.Pattern
	refs  int
	bytes int64
	// newest is the most recently used value set of this structure,
	// which GetPattern touches. The LRU entry is its structure's newest
	// only when it is the last, so eviction never leaves it stale.
	newest *list.Element
}

// onesSlab is a store-owned array of 1.0, never written after it is
// filled. Every resident unit-valued entry's values alias a prefix of
// one, clipped to its length; the slab's bytes are charged once while
// any entry aliases it.
type onesSlab struct {
	vals []float64
	refs int
}

// bytes is the slab's charge: its words.
func (sl *onesSlab) bytes() int64 { return int64(len(sl.vals)) * 8 }

// unitValues reports whether vals is nonempty and every word is
// exactly 1.0, stopping at the first that is not. Only the one bit
// pattern of 1.0 compares equal to it, so a unit array and a slab
// prefix of its length hold the same words and the same fingerprint.
func unitValues(vals []float64) bool {
	for _, v := range vals {
		if v != 1 {
			return false
		}
	}
	return len(vals) > 0
}

// entryOverhead is the fixed per-entry accounting charge (structs,
// map slot, list element).
const entryOverhead = 192

// New returns an empty store accounting against budget (nil means a
// private budget of core.DefaultMemoryBudgetBytes). The store
// registers itself as a budget member, so shared-budget pressure can
// evict operands and, symmetrically, operand inserts can evict
// whatever else the budget's members hold.
func New(budget *core.MemBudget) *Store {
	if budget == nil {
		budget = core.NewMemBudget(0)
	}
	s := &Store{
		budget:   budget,
		lru:      list.New(),
		table:    make(map[Ref]*list.Element),
		patterns: make(map[uint64]*patternEntry),
		bodies:   make(map[Digest]*list.Element),
	}
	budget.Register(s)
	return s
}

// Put inserts a matrix under its content address, taking ownership of
// it. Re-putting resident content is idempotent and cheap: the ref is
// recomputed (two linear hashes), the resident entry is touched, and
// created reports false. When the pattern is already resident under
// another value set, the stored matrix aliases the shared structure
// instead of retaining a second copy; when every value is 1.0, its Val
// is replaced by a prefix of a ones slab that other unit-valued
// operands share, with its capacity clipped to its length.
func (s *Store) Put(m *sparse.CSR[float64]) (Ref, bool) {
	return s.put(m, nil)
}

// PutBody is Put for a matrix decoded from an encoded body whose
// digest is d: it also files d on the resident entry (new or
// re-put), so GetBody answers the same bytes without a decode. The
// caller vouches that m is what those bytes decode to.
func (s *Store) PutBody(m *sparse.CSR[float64], d Digest) (Ref, bool) {
	return s.put(m, &d)
}

// put is Put and PutBody: insert or touch, then file the digest.
func (s *Store) put(m *sparse.CSR[float64], d *Digest) (Ref, bool) {
	ref, unit := RefOf(m), unitValues(m.Val)
	s.mu.Lock()
	el, resident := s.table[ref]
	if resident {
		s.touchLocked(el)
		s.reputs++
	} else {
		el = s.insertLocked(ref, m, unit)
	}
	if d != nil {
		s.fileBodyLocked(el, *d)
	}
	s.mu.Unlock()
	if !resident {
		s.budget.Rebalance()
	}
	return ref, !resident
}

// GetBody returns the resident matrix filed under body digest d and
// its ref, with no decode and no hashing of the matrix. A hit is the
// re-put of resident content it stands for: it refreshes the entry's
// recency and counts as a reput and a body hit. A miss counts nothing
// (the body is then decoded and put). The matrix is shared and
// read-only.
func (s *Store) GetBody(d Digest) (*sparse.CSR[float64], Ref, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	el, ok := s.bodies[d]
	if !ok {
		return nil, Ref{}, false
	}
	s.touchLocked(el)
	s.reputs++
	s.bodyHits++
	e := el.Value.(*entry)
	return e.m, e.ref, true
}

// fileBodyLocked lists digest d on the entry at el, dropping the
// entry's oldest digest when it already carries maxBodyDigests.
func (s *Store) fileBodyLocked(el *list.Element, d Digest) {
	if _, ok := s.bodies[d]; ok {
		return
	}
	e := el.Value.(*entry)
	if len(e.digests) == maxBodyDigests {
		delete(s.bodies, e.digests[0])
		e.digests = append(e.digests[:0], e.digests[1:]...)
	}
	e.digests = append(e.digests, d)
	s.bodies[d] = el
}

// ErrUnknownPattern reports a values-only put against a structure the
// store does not hold.
type ErrUnknownPattern struct {
	// Fingerprint is the pattern fingerprint the caller named.
	Fingerprint uint64
}

// Error implements error.
func (e *ErrUnknownPattern) Error() string {
	return fmt.Sprintf("store: no resident pattern %016x (upload the full operand first)", e.Fingerprint)
}

// PutValues inserts a new value set under an already-resident pattern
// — the values-only delta for iterative workloads whose structure is
// fixed. Only the values travel; the returned ref pairs the resident
// pattern fingerprint with the fresh values fingerprint, and because
// the structure is byte-identical to the resident one, a multiply
// through the new ref is a guaranteed plan-cache hit. Returns
// *ErrUnknownPattern when the structure is not resident, or a length
// error when vals does not match its nnz. vals ownership transfers to
// the store; unit values are filed as a ones slab prefix instead, as
// Put files them.
func (s *Store) PutValues(patternFP uint64, vals []float64) (Ref, bool, error) {
	ref, unit := Ref{Pattern: patternFP, Values: sparse.ValuesFingerprint(vals)}, unitValues(vals)
	s.mu.Lock()
	pe, ok := s.patterns[patternFP]
	if !ok {
		s.mu.Unlock()
		return Ref{}, false, &ErrUnknownPattern{Fingerprint: patternFP}
	}
	if nnz := pe.pat.NNZ(); int64(len(vals)) != nnz {
		s.mu.Unlock()
		return Ref{}, false, fmt.Errorf("store: %d values for pattern %016x, want its nnz %d", len(vals), patternFP, nnz)
	}
	if el, ok := s.table[ref]; ok {
		s.touchLocked(el)
		s.reputs++
		s.mu.Unlock()
		return ref, false, nil
	}
	m := &sparse.CSR[float64]{Pattern: *pe.pat, Val: vals}
	s.insertLocked(ref, m, unit)
	s.mu.Unlock()
	s.budget.Rebalance()
	return ref, true, nil
}

// Get returns the resident matrix for ref, touching its LRU position.
// The result is shared and read-only.
func (s *Store) Get(ref Ref) (*sparse.CSR[float64], bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	el, ok := s.table[ref]
	if !ok {
		s.misses++
		return nil, false
	}
	s.touchLocked(el)
	s.hits++
	return el.Value.(*entry).m, true
}

// GetPattern returns the resident structure with the given
// fingerprint — the mask form of a reference: masks are patterns, so
// they resolve by structure alone and stay resident as long as any
// value set shares them. Like Get, a hit touches the LRU position of
// a value set of that structure (its most recently used), so a mask in
// use is not the next eviction. The result is shared and read-only.
func (s *Store) GetPattern(fp uint64) (*sparse.Pattern, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	pe, ok := s.patterns[fp]
	if !ok {
		s.misses++
		return nil, false
	}
	s.touchLocked(pe.newest)
	s.hits++
	return pe.pat, true
}

// insertLocked files a new entry, sharing or creating its pattern (and,
// for unit values, a ones slab) and reserving its bytes from the
// budget, and returns its list element.
func (s *Store) insertLocked(ref Ref, m *sparse.CSR[float64], unit bool) *list.Element {
	pe, ok := s.patterns[ref.Pattern]
	if ok {
		// Share the resident structure: the stored matrix's embedded
		// pattern copies the shared slice headers, so the second copy's
		// index arrays become garbage.
		m.Pattern = *pe.pat
	} else {
		// The shared pattern is a standalone copy of the struct header
		// (slices shared): pointing at the founding matrix's embedded
		// Pattern would keep that matrix — values included — reachable
		// after its entry is evicted.
		pat := m.Pattern
		pe = &patternEntry{
			pat:   &pat,
			bytes: int64(len(m.RowPtr))*8 + int64(len(m.ColIdx))*4 + entryOverhead,
		}
		s.patterns[ref.Pattern] = pe
		s.bytes += pe.bytes
		s.budget.Reserve(pe.bytes)
	}
	pe.refs++
	e := &entry{
		ref:   ref,
		m:     m,
		pat:   pe,
		bytes: entryOverhead,
		stamp: s.budget.Stamp(),
	}
	n := len(m.Val)
	if unit {
		e.slab = s.slabLocked(n)
		e.slab.refs++
		m.Val = e.slab.vals[:n:n]
	} else {
		e.bytes += int64(n) * 8
	}
	el := s.lru.PushFront(e)
	pe.newest = el
	s.table[ref] = el
	s.bytes += e.bytes
	s.budget.Reserve(e.bytes)
	s.puts++
	return el
}

// slabLocked returns a live ones slab of at least n words: the largest
// live one if it is long enough, or else a new one, charged here. With
// none live the new slab is exactly n words; past a live one it at
// least doubles, so a run of slightly larger operands allocates
// O(log) slabs, not one each.
func (s *Store) slabLocked(n int) *onesSlab {
	size := n
	if k := len(s.slabs); k > 0 {
		last := s.slabs[k-1]
		if len(last.vals) >= n {
			return last
		}
		size = max(n, 2*len(last.vals))
	}
	sl := &onesSlab{vals: make([]float64, size)}
	for i := range sl.vals {
		sl.vals[i] = 1
	}
	s.slabs = append(s.slabs, sl)
	s.bytes += sl.bytes()
	s.budget.Reserve(sl.bytes())
	return sl
}

// touchLocked refreshes an entry's LRU position and global stamp, and
// makes it its structure's newest value set.
func (s *Store) touchLocked(el *list.Element) {
	s.lru.MoveToFront(el)
	e := el.Value.(*entry)
	e.stamp = s.budget.Stamp()
	e.pat.newest = el
}

// removeLocked evicts one entry, the LRU one, dropping its pattern and
// its ones slab when it was the last to share them.
func (s *Store) removeLocked(el *list.Element) int64 {
	e := el.Value.(*entry)
	s.lru.Remove(el)
	delete(s.table, e.ref)
	for _, d := range e.digests {
		delete(s.bodies, d)
	}
	freed := e.bytes
	s.evictions++
	if e.pat.refs--; e.pat.refs == 0 {
		delete(s.patterns, e.ref.Pattern)
		freed += e.pat.bytes
	}
	if sl := e.slab; sl != nil {
		if sl.refs--; sl.refs == 0 {
			s.slabs = slices.DeleteFunc(s.slabs, func(x *onesSlab) bool { return x == sl })
			freed += sl.bytes()
		}
	}
	s.bytes -= freed
	s.budget.Release(freed)
	return freed
}

// BudgetTail implements core.BudgetMember: the stamp of the LRU
// operand, if more than one is resident (the newest entry is never
// yielded — an operand put a moment ago is about to be used).
func (s *Store) BudgetTail() (uint64, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.lru.Len() <= 1 {
		return 0, false
	}
	return s.lru.Back().Value.(*entry).stamp, true
}

// BudgetEvict implements core.BudgetMember: drops the LRU operand and
// reports the bytes freed (values plus any last-reference pattern).
func (s *Store) BudgetEvict() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.lru.Len() <= 1 {
		return 0
	}
	return s.removeLocked(s.lru.Back())
}

// Stats is a point-in-time snapshot of store effectiveness.
type Stats struct {
	// Hits counts reference resolutions answered by a resident entry.
	Hits uint64 `json:"hits"`
	// Misses counts resolutions of refs (or pattern fingerprints) not
	// resident — the 404s of the reference form.
	Misses uint64 `json:"misses"`
	// Puts counts entries inserted (full uploads and values deltas).
	Puts uint64 `json:"puts"`
	// Reputs counts idempotent re-uploads of already-resident content,
	// body hits included.
	Reputs uint64 `json:"reputs"`
	// BodyHits counts inline bodies matched to a resident operand by
	// digest, not decoded (uploaded bodies included).
	BodyHits uint64 `json:"body_hits"`
	// Evictions counts entries dropped by budget pressure.
	Evictions uint64 `json:"evictions"`
	// Operands is the current number of resident value sets.
	Operands int `json:"operands"`
	// Patterns is the current number of distinct resident structures.
	Patterns int `json:"patterns"`
	// Bytes is the accounted resident memory (values, shared patterns,
	// ones slabs, fixed overheads).
	Bytes int64 `json:"bytes"`
	// UnitBytes is the part of Bytes held by live ones slabs, which the
	// values of every resident unit-valued operand alias.
	UnitBytes int64 `json:"unit_bytes"`
}

// StatsSnapshot returns the current counters.
func (s *Store) StatsSnapshot() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	var unit int64
	for _, sl := range s.slabs {
		unit += sl.bytes()
	}
	return Stats{
		Hits:      s.hits,
		Misses:    s.misses,
		Puts:      s.puts,
		Reputs:    s.reputs,
		BodyHits:  s.bodyHits,
		Evictions: s.evictions,
		Operands:  s.lru.Len(),
		Patterns:  len(s.patterns),
		Bytes:     s.bytes,
		UnitBytes: unit,
	}
}

// Len returns the number of resident value sets.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.lru.Len()
}
