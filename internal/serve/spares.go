package serve

import (
	"sync"
	"weak"
)

// spare is one reusable byte buffer: the capacity of buf is the
// buffer. A request holds its spare strongly while it reads a body
// into it or encodes a reply through it, and hands it back when done.
type spare struct{ buf []byte }

// spares is a Server's list of idle byte buffers, held only through
// weak pointers (DESIGN.md §11, "Spare buffers"). An idle spare lasts
// until the next collection: the collector never marks it, so it adds
// nothing to the live heap, needs no MemBudget charge and no cap, and
// the next request that fits it skips allocating and zeroing a buffer.
// The list holds at most as many live spares as requests ever held
// buffers at once.
type spares struct {
	mu   sync.Mutex
	list []weak.Pointer[spare]
}

// get returns an idle spare whose capacity is at least n, taking it off
// the list, or a new empty spare when none fits. Collected entries are
// dropped as they are passed. When none fits, one live spare too small
// for n is dropped as well, since the caller's fresh buffer takes its
// place on put: a get and its put so never lengthen a list that held a
// live spare.
func (l *spares) get(n int) *spare {
	l.mu.Lock()
	defer l.mu.Unlock()
	var got *spare
	live := l.list[:0]
	for _, wp := range l.list {
		switch sp := wp.Value(); {
		case sp == nil:
		case got == nil && cap(sp.buf) >= n:
			got = sp
		default:
			live = append(live, wp)
		}
	}
	if got == nil {
		got = &spare{}
		if len(live) > 0 {
			live = live[:len(live)-1]
		}
	}
	clear(l.list[len(live):])
	l.list = live
	return got
}

// put hands sp back to the list. The caller must not use sp or its
// buffer afterwards.
func (l *spares) put(sp *spare) {
	if cap(sp.buf) == 0 {
		return
	}
	wp := weak.Make(sp)
	l.mu.Lock()
	l.list = append(l.list, wp)
	l.mu.Unlock()
}
