package serve

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync"
	"testing"

	maskedspgemm "maskedspgemm"
	"maskedspgemm/internal/gen"
	"maskedspgemm/internal/serial"
	"maskedspgemm/internal/serve/servetest"
)

// idle returns the spares l holds that are still alive, strongly: the
// caller's references keep them from being collected.
func idle(l *spares) []*spare {
	l.mu.Lock()
	defer l.mu.Unlock()
	var out []*spare
	for _, wp := range l.list {
		if sp := wp.Value(); sp != nil {
			out = append(out, sp)
		}
	}
	return out
}

// onlySpare returns l's one idle spare, failing unless there is
// exactly one.
func onlySpare(t *testing.T, l *spares) *spare {
	t.Helper()
	sps := idle(l)
	if len(sps) != 1 {
		t.Fatalf("%d idle spares, want 1", len(sps))
	}
	return sps[0]
}

// TestSparesReuse pins the list's rules while its spares are alive: a
// get takes back a spare that fits, a spare too small is skipped, and
// a get that finds none fitting drops one too small, so that its put
// does not lengthen the list.
func TestSparesReuse(t *testing.T) {
	var l spares
	small, large := &spare{buf: make([]byte, 10)}, &spare{buf: make([]byte, 100)}
	l.put(small)
	l.put(large)
	l.put(&spare{}) // nothing to keep
	if got := l.get(50); got != large {
		t.Fatalf("get(50) = %p, want the 100-byte spare %p", got, large)
	}
	if got := idle(&l); len(got) != 1 || got[0] != small {
		t.Fatalf("after get(50) the list holds %v, want the 10-byte spare", got)
	}
	fresh := l.get(50)
	if fresh == small || cap(fresh.buf) != 0 {
		t.Fatalf("get(50) with only a 10-byte spare idle = %p (capacity %d), want a new empty spare", fresh, cap(fresh.buf))
	}
	if got := idle(&l); len(got) != 0 {
		t.Fatalf("a get that found no fit left %d spares, want the too-small one dropped", len(got))
	}
	runtime.KeepAlive(small)
}

// TestSparesCollected pins the weak hold: a spare put back and then
// collected is gone on the next get, which hands out a new one.
func TestSparesCollected(t *testing.T) {
	var l spares
	l.put(&spare{buf: make([]byte, 1<<16)})
	runtime.GC()
	if got := l.get(1); cap(got.buf) != 0 {
		t.Fatalf("get after a collection returned a %d-byte spare, want a new empty one", cap(got.buf))
	}
	if n := len(l.list); n != 0 {
		t.Fatalf("the list keeps %d entries after a collection and a get, want 0", n)
	}
}

// TestSparesConcurrent gets and puts from 16 goroutines (run under
// -race). A spare is never handed to two holders at once: each holder
// stamps its buffer and finds its stamp intact before the put.
func TestSparesConcurrent(t *testing.T) {
	var l spares
	var wg sync.WaitGroup
	for g := range 16 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range 500 {
				n := 64 << (i % 4)
				sp := l.get(n)
				if cap(sp.buf) < n {
					sp.buf = make([]byte, n)
				}
				b := sp.buf[:n]
				for j := range b {
					b[j] = byte(g)
				}
				runtime.Gosched()
				if i%97 == 0 {
					runtime.GC()
				}
				for j := range b {
					if b[j] != byte(g) {
						t.Errorf("goroutine %d: its spare was written by goroutine %d while it held it", g, b[j])
						return
					}
				}
				l.put(sp)
			}
		}()
	}
	wg.Wait()
	if n := len(idle(&l)); n > 16 {
		t.Errorf("%d idle spares after 16 goroutines, want at most 16", n)
	}
}

// TestSpareBodyNoAlias reads a body into a spare, decodes the miss and
// stores it through, then reads a different body of the same size into
// the same spare. The stored operand's arrays and ref do not change,
// and the first body still hits it by digest. The test holds the spare
// itself, so no collection can take it in between.
func TestSpareBodyNoAlias(t *testing.T) {
	srv := New(Config{})
	g := maskedspgemm.ErdosRenyi(96, 6, 81)
	h := g.Clone()
	for i := range h.Val {
		h.Val[i] += 1
	}
	first, second := servetest.EncodeSerial(t, g), servetest.EncodeSerial(t, h)
	held := &spare{buf: make([]byte, len(first))}
	srv.spares.put(held)

	op, err := readBytes(srv, first)
	if err != nil {
		t.Fatal(err)
	}
	if op.stored {
		t.Fatal("the first body hit an empty store")
	}
	ref, _ := srv.fileOperand(op)
	kept := op.m.Clone()
	sp := onlySpare(t, &srv.spares)
	if sp != held || !bytes.Equal(sp.buf[:len(first)], first) {
		t.Fatal("the first body was not read into the spare")
	}

	other, err := readBytes(srv, second)
	if err != nil {
		t.Fatal(err)
	}
	if other.stored || !sameBits(other.m, h) {
		t.Fatal("the second body did not decode to its own matrix")
	}
	if onlySpare(t, &srv.spares) != sp || !bytes.Equal(sp.buf[:len(second)], second) {
		t.Fatal("the second body was not read into the first body's spare")
	}
	if !sameBits(op.m, kept) || op.ref != ref {
		t.Fatal("reading into the spare again changed the stored operand")
	}
	again, err := readBytes(srv, first)
	if err != nil {
		t.Fatal(err)
	}
	if !again.stored || again.ref != ref || again.m != op.m {
		t.Fatalf("the first body re-sent: stored %v, ref %v, want a digest hit on %v", again.stored, again.ref, ref)
	}
}

// TestSpareReplyNoAlias writes two replies through the same spare
// chunk, which the test holds: the bytes of the first, already handed
// to its writer, do not change when the second reuses the chunk.
func TestSpareReplyNoAlias(t *testing.T) {
	srv := New(Config{})
	held := &spare{buf: make([]byte, serial.ChunkBytes)}
	srv.spares.put(held)
	c1 := gen.ErdosRenyi(1<<11, 8, 1)
	c2 := gen.ErdosRenyi(1<<11, 8, 2)
	var want1, want2 bytes.Buffer
	if err := serial.Write(&want1, c1); err != nil {
		t.Fatal(err)
	}
	if err := serial.Write(&want2, c2); err != nil {
		t.Fatal(err)
	}
	if want1.Len() <= serial.ChunkBytes {
		t.Fatalf("the reply is %d bytes, want more than one chunk", want1.Len())
	}

	rec1 := httptest.NewRecorder()
	srv.writeResult(rec1, "", c1)
	if onlySpare(t, &srv.spares) != held || bytes.Count(held.buf, []byte{0}) == len(held.buf) {
		t.Fatal("the first reply was not encoded through the spare chunk")
	}
	rec2 := httptest.NewRecorder()
	srv.writeResult(rec2, "serial", c2)
	if onlySpare(t, &srv.spares) != held {
		t.Fatal("the second reply did not reuse the first reply's chunk")
	}
	if !bytes.Equal(rec1.Body.Bytes(), want1.Bytes()) {
		t.Fatal("the first reply changed when the second reused its chunk")
	}
	if !bytes.Equal(rec2.Body.Bytes(), want2.Bytes()) {
		t.Fatal("the second reply differs from serial.Write's bytes")
	}
}

// discardWriter is an http.ResponseWriter that keeps nothing.
type discardWriter struct{ h http.Header }

func (d *discardWriter) Header() http.Header         { return d.h }
func (d *discardWriter) Write(p []byte) (int, error) { return len(p), nil }
func (d *discardWriter) WriteHeader(int)             {}

// BenchmarkWriteResult encodes er-warm-inline's reply (the self-masked
// product of a symmetrised ER 2¹¹ graph of degree 8: 58,472 bytes) as
// the multiply handler does, into a ResponseWriter that discards it.
// B/op is what one reply allocates beside its bytes.
func BenchmarkWriteResult(b *testing.B) {
	g := gen.Symmetrize(gen.ErdosRenyi(1<<11, 8, 1))
	c, err := maskedspgemm.Multiply(g.PatternView(), g, g)
	if err != nil {
		b.Fatal(err)
	}
	if n := serial.Size(c); n != 58472 {
		b.Fatalf("the reply is %d bytes, want er-warm-inline's 58,472", n)
	}
	srv := New(Config{})
	w := &discardWriter{h: http.Header{}}
	b.SetBytes(serial.Size(c))
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		srv.writeResult(w, "", c)
	}
}
