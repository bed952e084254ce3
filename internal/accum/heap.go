package accum

// RowIter is a cursor over one sorted row B_k* used by the heap
// algorithm (§5.5). Pos/End index into the shared ColIdx/Val arrays of
// B, AIdx remembers which entry of the current A row produced this
// iterator (so the kernel can recover u_k).
type RowIter struct {
	Col  int32 // current column id, cached from ColIdx[Pos]
	AIdx int32 // index into the A row's nonzeros (identifies u_k)
	Pos  int64 // current position in B.ColIdx
	End  int64 // one past the row's last position
}

// IterHeap is a binary min-heap of row iterators ordered by current
// column id, and on equal columns by A entry (RowIter.less), the
// multi-way-merge structure of the masked heap SpGEVM algorithm (§5.5,
// after Buluç & Gilbert's column-column heap algorithm). Capacity never
// exceeds nnz(A row); the backing slice is reused across rows.
type IterHeap struct {
	items []RowIter
}

// less orders iterators by current column, then by A entry. A row's
// iterators hold distinct A entries, so the order is total and the
// heap pops each column's products in ascending k — the order every
// other family sums them in — whatever the order of the pushes, which
// the mask steers (DESIGN.md §5, "Known pattern").
func (x RowIter) less(y RowIter) bool {
	return x.Col < y.Col || x.Col == y.Col && x.AIdx < y.AIdx
}

// NewIterHeap returns an empty heap, which grows by append.
func NewIterHeap() *IterHeap {
	return &IterHeap{}
}

// Len returns the number of iterators in the heap.
func (h *IterHeap) Len() int { return len(h.items) }

// Reset empties the heap.
func (h *IterHeap) Reset() { h.items = h.items[:0] }

// Push inserts an iterator.
//
//mspgemm:hotpath
func (h *IterHeap) Push(it RowIter) {
	h.items = append(h.items, it)
	i := len(h.items) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !h.items[i].less(h.items[parent]) {
			break
		}
		h.items[parent], h.items[i] = h.items[i], h.items[parent]
		i = parent
	}
}

// PopMin removes and returns the iterator with the smallest current
// column. Panics when empty (caller checks Len).
//
//mspgemm:hotpath
func (h *IterHeap) PopMin() RowIter {
	top := h.items[0]
	last := len(h.items) - 1
	h.items[0] = h.items[last]
	h.items = h.items[:last]
	h.siftDown(0)
	return top
}

// Min returns the smallest iterator without removing it.
func (h *IterHeap) Min() RowIter { return h.items[0] }

//mspgemm:hotpath
func (h *IterHeap) siftDown(i int) {
	n := len(h.items)
	for {
		l, r := 2*i+1, 2*i+2
		small := i
		if l < n && h.items[l].less(h.items[small]) {
			small = l
		}
		if r < n && h.items[r].less(h.items[small]) {
			small = r
		}
		if small == i {
			return
		}
		h.items[i], h.items[small] = h.items[small], h.items[i]
		i = small
	}
}
