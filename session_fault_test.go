package maskedspgemm

import (
	"context"
	"errors"
	"testing"

	"maskedspgemm/internal/faultinject"
	"maskedspgemm/internal/sparse"
)

// TestSessionMultiplyCtxCancel checks the session's cancellation
// containment: a canceled context stops the execution with ErrCanceled,
// the poisoned executor is discarded (never pooled), the fault counters
// record it, and the very next request on the same session succeeds.
func TestSessionMultiplyCtxCancel(t *testing.T) {
	s := NewSession()
	g := ErdosRenyi(128, 8, 11)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	out, err := s.MultiplyCtx(ctx, g.PatternView(), g, g)
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("err = %v, want ErrCanceled", err)
	}
	var ce *CanceledError
	if !errors.As(err, &ce) || ce.Pass == "" {
		t.Fatalf("err = %#v, want *CanceledError naming a pass", err)
	}
	if out != nil {
		t.Error("partial result escaped a canceled execution")
	}
	st := s.Stats()
	if st.Faults.ExecCanceled != 1 || st.Faults.ExecutorsDiscarded != 1 {
		t.Errorf("Faults = %+v, want ExecCanceled=1 ExecutorsDiscarded=1", st.Faults)
	}
	if st.Pool.Idle != 0 {
		t.Errorf("poisoned executor was pooled (idle=%d)", st.Pool.Idle)
	}
	if _, err := s.MultiplyCtx(context.Background(), g.PatternView(), g, g); err != nil {
		t.Fatalf("session unserviceable after cancellation: %v", err)
	}
}

// TestSessionKernelPanicContained injects a kernel panic through the
// session path and checks containment end to end: typed error out, the
// panicking executor discarded, counters bumped, and clean service once
// the fault is disarmed.
func TestSessionKernelPanicContained(t *testing.T) {
	t.Cleanup(faultinject.Disarm)
	s := NewSession()
	g := ErdosRenyi(128, 8, 12)
	faultinject.Arm(faultinject.Hooks{PanicArmed: true, PanicRow: 3, PanicPass: faultinject.PassNumeric})
	out, err := s.Multiply(g.PatternView(), g, g, WithThreads(4))
	var kp *KernelPanicError
	if !errors.As(err, &kp) {
		t.Fatalf("err = %v, want KernelPanicError", err)
	}
	if out != nil {
		t.Error("partial result escaped a kernel panic")
	}
	if len(kp.Stack) == 0 {
		t.Error("no stack captured")
	}
	st := s.Stats()
	if st.Faults.KernelPanics != 1 || st.Faults.ExecutorsDiscarded != 1 {
		t.Errorf("Faults = %+v, want KernelPanics=1 ExecutorsDiscarded=1", st.Faults)
	}
	faultinject.Disarm()
	if _, err := s.Multiply(g.PatternView(), g, g, WithThreads(4)); err != nil {
		t.Fatalf("session unserviceable after contained panic: %v", err)
	}
	if got := s.Stats().Pool.Created; got < 2 {
		t.Errorf("Created = %d, want >= 2 (pool refilled with a fresh executor)", got)
	}
}

// TestSessionSymmetricFaultsContained runs the session's containment
// checks on a symmetric self-product, whose execution computes one
// triangle and mirrors it: a cancellation at the mirror pass and a
// kernel panic each return their typed error, discard the executor,
// and leave the session serviceable.
func TestSessionSymmetricFaultsContained(t *testing.T) {
	t.Cleanup(faultinject.Disarm)
	s := NewSession()
	g := RMAT(8, 8, 13)
	want, err := Multiply(g.PatternView(), g, g)
	if err != nil {
		t.Fatal(err)
	}
	faultinject.Arm(faultinject.Hooks{CancelPass: faultinject.PassCompact})
	var ce *CanceledError
	if _, err := s.Multiply(g.PatternView(), g, g, WithThreads(4)); !errors.As(err, &ce) || ce.Pass != string(faultinject.PassCompact) {
		t.Fatalf("err = %v, want CanceledError in the compact pass", err)
	}
	faultinject.Arm(faultinject.Hooks{PanicArmed: true, PanicRow: 3, PanicPass: faultinject.PassNumeric})
	var kp *KernelPanicError
	if _, err := s.Multiply(g.PatternView(), g, g, WithThreads(4)); !errors.As(err, &kp) {
		t.Fatalf("err = %v, want KernelPanicError", err)
	}
	st := s.Stats()
	if st.Faults.ExecCanceled != 1 || st.Faults.KernelPanics != 1 || st.Faults.ExecutorsDiscarded != 2 {
		t.Errorf("Faults = %+v, want ExecCanceled=1 KernelPanics=1 ExecutorsDiscarded=2", st.Faults)
	}
	faultinject.Disarm()
	got, err := s.Multiply(g.PatternView(), g, g, WithThreads(4))
	if err != nil {
		t.Fatalf("session unserviceable after contained faults: %v", err)
	}
	if !sparse.Equal(got, want) {
		t.Error("the recovered session's product differs from the one-shot product")
	}
}
