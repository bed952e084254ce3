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
// operand never invalidates plans cached for its structure (plans own
// a private mask clone), and evicting a plan never drops an operand —
// the two caches only compete for bytes.
package store

import (
	"container/list"
	"fmt"
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

// Store is the fingerprint-keyed operand store. All methods are safe
// for concurrent use.
//
// Ownership contract (the §8 rules extended to resident operands):
// Put transfers ownership of the matrix to the store — the caller must
// not mutate it afterwards, and matrices returned by Get are shared
// with every other reader and with in-flight executions, so they are
// read-only. Mutating a resident operand would silently falsify its
// content address; nothing defends against it beyond this contract.
type Store struct {
	budget *core.MemBudget

	mu       sync.Mutex
	lru      *list.List // front = most recently used; values are *entry
	table    map[Ref]*list.Element
	patterns map[uint64]*patternEntry
	bytes    int64

	hits, misses, evictions uint64
	puts, reputs            uint64
}

// entry is one resident value set; its matrix aliases the refcounted
// shared pattern. bytes covers the values slice and fixed overhead;
// the pattern's bytes are accounted once on its patternEntry.
type entry struct {
	ref   Ref
	m     *sparse.CSR[float64]
	bytes int64
	stamp uint64
}

// patternEntry is one resident structure, shared by every value set
// whose pattern fingerprints to it.
type patternEntry struct {
	pat   *sparse.Pattern
	refs  int
	bytes int64
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
	}
	budget.Register(s)
	return s
}

// Put inserts a matrix under its content address, taking ownership of
// it. Re-putting resident content is idempotent and cheap: the ref is
// recomputed (two linear hashes), the resident entry is touched, and
// created reports false. When the pattern is already resident under
// another value set, the stored matrix aliases the shared structure
// instead of retaining a second copy.
func (s *Store) Put(m *sparse.CSR[float64]) (Ref, bool) {
	ref := RefOf(m)
	s.mu.Lock()
	if el, ok := s.table[ref]; ok {
		s.touchLocked(el)
		s.reputs++
		s.mu.Unlock()
		return ref, false
	}
	s.insertLocked(ref, m)
	s.mu.Unlock()
	s.budget.Rebalance()
	return ref, true
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
// the store.
func (s *Store) PutValues(patternFP uint64, vals []float64) (Ref, bool, error) {
	ref := Ref{Pattern: patternFP, Values: sparse.ValuesFingerprint(vals)}
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
	s.insertLocked(ref, m)
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
// value set shares them. The result is shared and read-only.
func (s *Store) GetPattern(fp uint64) (*sparse.Pattern, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	pe, ok := s.patterns[fp]
	if !ok {
		s.misses++
		return nil, false
	}
	s.hits++
	return pe.pat, true
}

// insertLocked files a new entry, sharing or creating its pattern and
// reserving its bytes from the budget.
func (s *Store) insertLocked(ref Ref, m *sparse.CSR[float64]) {
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
		bytes: int64(len(m.Val))*8 + entryOverhead,
		stamp: s.budget.Stamp(),
	}
	s.table[ref] = s.lru.PushFront(e)
	s.bytes += e.bytes
	s.budget.Reserve(e.bytes)
	s.puts++
}

// touchLocked refreshes an entry's LRU position and global stamp.
func (s *Store) touchLocked(el *list.Element) {
	s.lru.MoveToFront(el)
	el.Value.(*entry).stamp = s.budget.Stamp()
}

// removeLocked evicts one entry, dropping its pattern when it was the
// last value set sharing it.
func (s *Store) removeLocked(el *list.Element) int64 {
	e := el.Value.(*entry)
	s.lru.Remove(el)
	delete(s.table, e.ref)
	freed := e.bytes
	s.bytes -= e.bytes
	s.evictions++
	if pe := s.patterns[e.ref.Pattern]; pe != nil {
		pe.refs--
		if pe.refs == 0 {
			delete(s.patterns, e.ref.Pattern)
			s.bytes -= pe.bytes
			freed += pe.bytes
		}
	}
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
	// Reputs counts idempotent re-uploads of already-resident content.
	Reputs uint64 `json:"reputs"`
	// Evictions counts entries dropped by budget pressure.
	Evictions uint64 `json:"evictions"`
	// Operands is the current number of resident value sets.
	Operands int `json:"operands"`
	// Patterns is the current number of distinct resident structures.
	Patterns int `json:"patterns"`
	// Bytes is the accounted resident memory (values, shared patterns,
	// fixed overheads).
	Bytes int64 `json:"bytes"`
}

// StatsSnapshot returns the current counters.
func (s *Store) StatsSnapshot() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return Stats{
		Hits:      s.hits,
		Misses:    s.misses,
		Puts:      s.puts,
		Reputs:    s.reputs,
		Evictions: s.evictions,
		Operands:  s.lru.Len(),
		Patterns:  len(s.patterns),
		Bytes:     s.bytes,
	}
}

// Len returns the number of resident value sets.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.lru.Len()
}
