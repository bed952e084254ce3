package core

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"strings"
	"testing"

	"maskedspgemm/internal/faultinject"
	"maskedspgemm/internal/parallel"
	"maskedspgemm/internal/semiring"
	"maskedspgemm/internal/sparse"
)

// The core half of the chaos suite (DESIGN.md §15): fault injection
// drives panics and cancellations through the engine's public surface
// and the tests assert the typed-error contract — no partial results,
// no dead process, correct pass attribution. Tests arm the process-
// wide faultinject seam, so none of them run in parallel.

// chaosFamilies are the six accumulator families the tentpole requires
// panic containment for.
var chaosFamilies = []Algorithm{AlgoMSA, AlgoHash, AlgoMCA, AlgoHeap, AlgoInner, AlgoMaskedBit}

// TestChaosPanicEachFamily injects a row panic into every accumulator
// family's numeric pass, serial and parallel, and checks the panic
// surfaces as *KernelPanicError naming the family — and that a fresh
// executor runs the same plan cleanly once disarmed.
func TestChaosPanicEachFamily(t *testing.T) {
	t.Cleanup(faultinject.Disarm)
	sr := semiring.PlusTimes[float64]{}
	mask, a, b := buildCase(caseSpec{"", 256, 256, 256, 8, 8, 8, 96})
	for _, algo := range chaosFamilies {
		for _, threads := range []int{1, 4} {
			faultinject.Disarm()
			plan, err := NewPlan(sr, mask, a, b, Options{Algorithm: algo, Threads: threads}, nil)
			if err != nil {
				t.Fatalf("%v: %v", algo, err)
			}
			if _, err := plan.Execute(a, b); err != nil {
				t.Fatalf("%v disarmed: %v", algo, err)
			}
			faultinject.Arm(faultinject.Hooks{PanicArmed: true, PanicRow: 3, PanicPass: faultinject.PassNumeric})
			out, err := plan.Execute(a, b)
			var kp *KernelPanicError
			if !errors.As(err, &kp) {
				t.Fatalf("%v/threads=%d: err = %v, want KernelPanicError", algo, threads, err)
			}
			if out != nil {
				t.Errorf("%v/threads=%d: partial result escaped alongside the panic", algo, threads)
			}
			if !strings.HasPrefix(kp.Family, algo.String()) {
				t.Errorf("%v: Family = %q", algo, kp.Family)
			}
			if len(kp.Stack) == 0 {
				t.Errorf("%v: no stack captured", algo)
			}
			// The panicking executor is poisoned; a fresh one must run
			// the same shared plan cleanly once the fault is disarmed.
			faultinject.Disarm()
			exec := NewExecutor[float64](sr)
			if _, err := plan.ExecuteOn(exec, a, b); err != nil {
				t.Fatalf("%v recovery run: %v", algo, err)
			}
		}
	}
}

// TestChaosPanicSymbolicPass injects a row panic into the symbolic
// pass of every scheme that runs it — the paper's schemes at TwoPhase —
// serial and parallel, and checks the panic surfaces as
// *KernelPanicError naming the two-phase scheme, with no partial
// result, and that a fresh executor runs the plan cleanly once
// disarmed.
func TestChaosPanicSymbolicPass(t *testing.T) {
	t.Cleanup(faultinject.Disarm)
	sr := semiring.PlusTimes[float64]{}
	mask, a, b := buildCase(caseSpec{"", 256, 256, 256, 8, 8, 8, 98})
	for _, algo := range PaperAlgorithms() {
		for _, threads := range []int{1, 4} {
			faultinject.Disarm()
			opt := Options{Algorithm: algo, Phases: TwoPhase, Threads: threads}
			plan, err := NewPlan(sr, mask, a, b, opt, nil)
			if err != nil {
				t.Fatalf("%s: %v", opt.SchemeName(), err)
			}
			faultinject.Arm(faultinject.Hooks{PanicArmed: true, PanicRow: 5, PanicPass: faultinject.PassSymbolic})
			out, err := plan.Execute(a, b)
			var kp *KernelPanicError
			if !errors.As(err, &kp) {
				t.Fatalf("%s/threads=%d: err = %v, want KernelPanicError", opt.SchemeName(), threads, err)
			}
			if out != nil {
				t.Errorf("%s/threads=%d: partial result escaped alongside the panic", opt.SchemeName(), threads)
			}
			if kp.Family != opt.SchemeName() {
				t.Errorf("%s: Family = %q", opt.SchemeName(), kp.Family)
			}
			faultinject.Disarm()
			if _, err := plan.ExecuteOn(NewExecutor[float64](sr), a, b); err != nil {
				t.Fatalf("%s recovery run: %v", opt.SchemeName(), err)
			}
		}
	}
}

// TestChaosCancelAtEveryPass arms the cancel-at-checkpoint fault at
// each of the engine's pass boundaries and checks the returned
// *CanceledError names exactly the interrupted pass, matches
// ErrCanceled, and lets no partial result escape.
func TestChaosCancelAtEveryPass(t *testing.T) {
	t.Cleanup(faultinject.Disarm)
	sr := semiring.PlusTimes[float64]{}
	mask, a, b := buildCase(caseSpec{"", 256, 256, 256, 8, 8, 8, 97})
	for _, tc := range []struct {
		phases Phases
		pass   faultinject.Pass
	}{
		{OnePhase, faultinject.PassNumeric},
		{OnePhase, faultinject.PassCompact},
		{TwoPhase, faultinject.PassSymbolic},
		{TwoPhase, faultinject.PassNumeric},
	} {
		for _, threads := range []int{1, 4} {
			faultinject.Disarm()
			plan, err := NewPlan(sr, mask, a, b, Options{Phases: tc.phases, Threads: threads}, nil)
			if err != nil {
				t.Fatal(err)
			}
			faultinject.Arm(faultinject.Hooks{CancelPass: tc.pass})
			out, err := plan.Execute(a, b)
			var ce *CanceledError
			if !errors.As(err, &ce) {
				t.Fatalf("%v@%s/threads=%d: err = %v, want CanceledError", tc.phases, tc.pass, threads, err)
			}
			if ce.Pass != string(tc.pass) {
				t.Errorf("%v@%s: interrupted pass reported as %q", tc.phases, tc.pass, ce.Pass)
			}
			if !errors.Is(err, ErrCanceled) {
				t.Errorf("%v@%s: CanceledError does not match ErrCanceled", tc.phases, tc.pass)
			}
			if out != nil {
				t.Errorf("%v@%s: partial result escaped alongside cancellation", tc.phases, tc.pass)
			}
		}
	}
}

// TestCancelPreLatchedToken checks the ExecOptions.Cancel plumbing
// without fault injection: a pre-latched token stops the execution at
// its first checkpoint.
func TestCancelPreLatchedToken(t *testing.T) {
	sr := semiring.PlusTimes[float64]{}
	mask, a, b := buildCase(caseSpec{"", 128, 128, 128, 8, 8, 8, 98})
	plan, err := NewPlan(sr, mask, a, b, Options{Threads: 4}, nil)
	if err != nil {
		t.Fatal(err)
	}
	exec := NewExecutor[float64](sr)
	tok := new(parallel.CancelToken)
	tok.Cancel()
	out, err := plan.ExecuteOnOpts(exec, a, b, ExecOptions{Cancel: tok})
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("err = %v, want ErrCanceled", err)
	}
	if out != nil {
		t.Error("result escaped a canceled execution")
	}
}

// TestCancelEveryScheme runs every registered scheme, plain and (where
// it has a complement form) complemented, serial and parallel, under a
// pre-latched token: each must stop with ErrCanceled and no result —
// SS:SAXPY*'s inner SpGEMM included.
func TestCancelEveryScheme(t *testing.T) {
	sr := semiring.PlusTimes[float64]{}
	mask, a, b := buildCase(caseSpec{"", 128, 128, 128, 8, 8, 8, 96})
	tok := new(parallel.CancelToken)
	tok.Cancel()
	for _, algo := range Algorithms() {
		for _, complement := range []bool{false, true} {
			if complement && !SupportsComplement(algo) {
				continue
			}
			for _, threads := range []int{1, 4} {
				opt := Options{Algorithm: algo, Complement: complement}
				plan, err := NewPlan(sr, mask, a, b, opt, nil)
				if err != nil {
					t.Fatalf("%v complement=%v: %v", algo, complement, err)
				}
				out, err := plan.ExecuteOnOpts(NewExecutor[float64](sr), a, b, ExecOptions{Threads: threads, Cancel: tok})
				if !errors.Is(err, ErrCanceled) {
					t.Errorf("%v complement=%v threads=%d: err = %v, want ErrCanceled", algo, complement, threads, err)
				}
				if out != nil {
					t.Errorf("%v complement=%v threads=%d: result escaped a canceled execution", algo, complement, threads)
				}
			}
		}
	}
}

// TestChaosPanicSaxpyThenMask injects a numeric row panic under
// SS:SAXPY*, whose rows run in its inner SpGEMM plan, and checks the
// panic surfaces as *KernelPanicError naming SS:SAXPY*, not the inner
// plan's Hash, with no result.
func TestChaosPanicSaxpyThenMask(t *testing.T) {
	t.Cleanup(faultinject.Disarm)
	sr := semiring.PlusTimes[float64]{}
	mask, a, b := buildCase(caseSpec{"", 256, 256, 256, 8, 8, 8, 96})
	for _, threads := range []int{1, 4} {
		opt := Options{Algorithm: AlgoSaxpyThenMask, Threads: threads}
		plan, err := NewPlan(sr, mask, a, b, opt, nil)
		if err != nil {
			t.Fatal(err)
		}
		faultinject.Arm(faultinject.Hooks{PanicArmed: true, PanicRow: 3, PanicPass: faultinject.PassNumeric})
		out, err := plan.Execute(a, b)
		faultinject.Disarm()
		var kp *KernelPanicError
		if !errors.As(err, &kp) {
			t.Fatalf("threads=%d: err = %v, want KernelPanicError", threads, err)
		}
		if kp.Family != opt.SchemeName() {
			t.Errorf("threads=%d: Family = %q, want %q", threads, kp.Family, opt.SchemeName())
		}
		if out != nil {
			t.Errorf("threads=%d: partial result escaped alongside the panic", threads)
		}
	}
}

// TestCancelExecuteOnCtx checks the context wiring: a canceled context
// maps to ErrCanceled, an unobstructed context executes normally, and
// the watcher goroutine is torn down either way (asserted by the
// suite-wide goroutine checks under -race).
func TestCancelExecuteOnCtx(t *testing.T) {
	sr := semiring.PlusTimes[float64]{}
	mask, a, b := buildCase(caseSpec{"", 128, 128, 128, 8, 8, 8, 99})
	plan, err := NewPlan(sr, mask, a, b, Options{Threads: 4}, nil)
	if err != nil {
		t.Fatal(err)
	}
	exec := NewExecutor[float64](sr)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := plan.ExecuteOnCtx(ctx, exec, a, b, ExecOptions{}); !errors.Is(err, ErrCanceled) {
		t.Fatalf("pre-canceled ctx: err = %v, want ErrCanceled", err)
	}
	exec2 := NewExecutor[float64](sr)
	out, err := plan.ExecuteOnCtx(context.Background(), exec2, a, b, ExecOptions{})
	if err != nil || out == nil {
		t.Fatalf("live ctx: out=%v err=%v", out, err)
	}
}

// TestExecutorPoolDiscard pins the poisoning rules: Discard ends
// ownership without pooling the executor, counts into Poisoned, and
// Get afterwards still serves (fresh construction — capacity refills
// lazily).
func TestExecutorPoolDiscard(t *testing.T) {
	sr := semiring.PlusTimes[float64]{}
	pool := NewExecutorPool[float64](sr, 2)
	e := pool.Get()
	pool.Discard(e)
	st := pool.Stats()
	if st.Poisoned != 1 {
		t.Errorf("Poisoned = %d, want 1", st.Poisoned)
	}
	if st.Idle != 0 {
		t.Errorf("discarded executor was pooled (idle=%d)", st.Idle)
	}
	pool.Discard(nil) // no-op
	if pool.Stats().Poisoned != 1 {
		t.Error("Discard(nil) counted")
	}
	if e2 := pool.Get(); e2 == e {
		t.Error("Get returned a discarded executor")
	}
}

// TestChaosSymmetricProduct drives the chaos contract through the
// one-triangle path of a symmetric self-product: cancellation at the
// numeric pass and at the mirror pass — which keeps compact's
// checkpoint — returns *CanceledError naming the pass, and a row panic
// in any family returns *KernelPanicError, after which the pooled
// executor is discarded and a fresh one runs the plan cleanly.
func TestChaosSymmetricProduct(t *testing.T) {
	t.Cleanup(faultinject.Disarm)
	sr := semiring.PlusTimes[float64]{}
	a := symGraph(8, true, true)
	for _, pass := range []faultinject.Pass{faultinject.PassNumeric, faultinject.PassCompact} {
		for _, threads := range []int{1, 4} {
			faultinject.Disarm()
			plan, err := NewPlan(sr, a.PatternView(), a, a, Options{Algorithm: AlgoHybrid, Threads: threads}, nil)
			if err != nil {
				t.Fatal(err)
			}
			faultinject.Arm(faultinject.Hooks{CancelPass: pass})
			out, err := plan.Execute(a, a)
			var ce *CanceledError
			if !errors.As(err, &ce) || ce.Pass != string(pass) {
				t.Fatalf("cancel@%s/threads=%d: err = %v, want CanceledError in pass %s", pass, threads, err, pass)
			}
			if out != nil {
				t.Errorf("cancel@%s: partial result escaped", pass)
			}
			if !ranHalf(plan.exec) {
				t.Errorf("cancel@%s: the canceled execution was not the one-triangle path", pass)
			}
		}
	}
	for _, algo := range append(chaosFamilies, AlgoHybrid) {
		faultinject.Disarm()
		pool := NewExecutorPool[float64](sr, 2)
		cache := NewPlanCache(sr, 0)
		plan, err := cache.GetOrPlan(a.PatternView(), a, a, Options{Algorithm: algo})
		if err != nil {
			t.Fatal(err)
		}
		faultinject.Arm(faultinject.Hooks{PanicArmed: true, PanicRow: 3, PanicPass: faultinject.PassNumeric})
		exec := pool.Get()
		out, err := plan.ExecuteOnOpts(exec, a, a, ExecOptions{Threads: 4})
		var kp *KernelPanicError
		if !errors.As(err, &kp) || out != nil {
			t.Fatalf("%v: out=%v err=%v, want KernelPanicError and no result", algo, out != nil, err)
		}
		if !ranHalf(exec) {
			t.Errorf("%v: the panicking execution was not the one-triangle path", algo)
		}
		pool.Discard(exec)
		if st := pool.Stats(); st.Poisoned != 1 || st.Idle != 0 {
			t.Errorf("%v: pool %+v, want the executor discarded", algo, st)
		}
		faultinject.Disarm()
		fresh := pool.Get()
		if _, err := plan.ExecuteOnOpts(fresh, a, a, ExecOptions{Threads: 4}); err != nil {
			t.Fatalf("%v recovery run: %v", algo, err)
		}
		pool.Put(fresh)
	}
}

// TestChaosSymmetricInPlaceHit is TestChaosSymmetricProduct's
// PlanCache arm. A cached one-triangle plan runs twice, publishing its
// known half, and then an in-place hit (knownPhase) is canceled at
// the numeric pass or at the transpose copy, which keeps compact's
// checkpoint, or a row panics, in every family and Hybrid, at one and
// four threads. Each interrupted hit returns its typed error and no
// result, and its executor is discarded; the plan keeps the same known
// half with the same pattern, transpose map and offsets, and a clean
// hit on a fresh executor then equals the publishing result bit for
// bit. The R-MAT graph's hits walk a dot bitmap, and the dense graph's
// break its memory rule and run push and Pull (DESIGN.md §5, "Bitmap
// hits"), so both tiers' kernels are interrupted.
func TestChaosSymmetricInPlaceHit(t *testing.T) {
	t.Cleanup(faultinject.Disarm)
	graphs := []struct {
		name string
		a    *sparse.CSR[float64]
		tier hitTier
	}{
		{"rmat", symGraph(8, true, true), tierBitmap},
		{"dense", denseSymGraph(1), tierPushPull},
	}
	for _, algo := range append(chaosFamilies, AlgoHybrid) {
		for _, g := range graphs {
			for _, fault := range []faultinject.Hooks{
				{CancelPass: faultinject.PassNumeric},
				{CancelPass: faultinject.PassCompact},
				{PanicArmed: true, PanicRow: 3, PanicPass: faultinject.PassNumeric},
			} {
				for _, threads := range []int{1, 4} {
					chaosInPlaceHit(t, fmt.Sprintf("%v/%s/%+v/threads=%d", algo, g.name, fault, threads), g.a, algo, g.tier, fault, threads)
				}
			}
		}
	}
}

// chaosInPlaceHit is one case of TestChaosSymmetricInPlaceHit: the
// self-product of a under algo, whose known half's hits must run in
// tier, interrupted by fault at width threads.
func chaosInPlaceHit(t *testing.T, name string, a *sparse.CSR[float64], algo Algorithm, tier hitTier, fault faultinject.Hooks, threads int) {
	t.Helper()
	faultinject.Disarm()
	pool := NewExecutorPool[float64](ptSR, 2)
	plan, err := NewPlanCache(ptSR, 0).GetOrPlan(a.PatternView(), a, a, Options{Algorithm: algo})
	if err != nil {
		t.Fatal(err)
	}
	eo := ExecOptions{Threads: threads}
	var published *sparse.CSR[float64]
	for range 2 {
		exec := pool.Get()
		if published, err = plan.ExecuteOnOpts(exec, a, a, eo); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		pool.Put(exec)
	}
	kh := plan.halfHit.rec.Load()
	if kh == nil {
		t.Fatalf("%s: no known half published", name)
	}
	outPtr, cols, tpos, off := slices.Clone(kh.pat.rowPtr), slices.Clone(kh.pat.colIdx), slices.Clone(kh.tpos), slices.Clone(kh.half.off)
	want := published.Clone()

	faultinject.Arm(fault)
	exec := pool.Get()
	out, err := plan.ExecuteOnOpts(exec, a, a, eo)
	faultinject.Disarm()
	var ce *CanceledError
	var kp *KernelPanicError
	switch {
	case out != nil:
		t.Fatalf("%s: a partial result escaped", name)
	case fault.PanicArmed && !errors.As(err, &kp):
		t.Fatalf("%s: err = %v, want KernelPanicError", name, err)
	case !fault.PanicArmed && (!errors.As(err, &ce) || ce.Pass != string(fault.CancelPass)):
		t.Fatalf("%s: err = %v, want CanceledError in pass %s", name, err, fault.CancelPass)
	case exec.hitRec != kh:
		t.Fatalf("%s: the interrupted execution was not an in-place hit", name)
	case kh.tier() != tier:
		t.Fatalf("%s: the hits run in tier %v, want %v", name, kh.tier(), tier)
	}
	pool.Discard(exec)
	if st := pool.Stats(); st.Poisoned != 1 || st.Idle != 0 {
		t.Fatalf("%s: pool %+v, want the executor discarded", name, st)
	}
	if plan.halfHit.rec.Load() != kh || !slices.Equal(kh.pat.rowPtr, outPtr) || !slices.Equal(kh.pat.colIdx, cols) ||
		!slices.Equal(kh.tpos, tpos) || !slices.Equal(kh.half.off, off) {
		t.Fatalf("%s: the interrupted hit changed the plan's known half", name)
	}
	got, err := plan.ExecuteOnOpts(NewExecutor[float64](ptSR), a, a, eo)
	if err != nil {
		t.Fatalf("%s recovery run: %v", name, err)
	}
	checkIdentical(t, name+" recovery run", got, want)
}

// TestChaosFullProductHit is TestChaosSymmetricInPlaceHit for hits of a
// remembered full-product pattern, plain and complemented: a cached
// plan runs twice, publishing its pattern, and then a hit is canceled
// at the numeric pass, or a row panics, in every family and Hybrid, at
// one and four threads. Each interrupted hit returns its typed error
// and no result, and its executor is discarded; the plan keeps the
// same pattern, and a clean hit on a fresh executor then equals the
// publishing result bit for bit. The sparse products' hits replay
// their product schedule (DESIGN.md §5, "Replayed hits"); the dense
// ones break the replay rule, so their hits walk a dot bitmap where the
// plan holds B's CSC structure and run push and Pull elsewhere
// ("Bitmap hits"); and M ⊙ X², M full and X offDiagonal(80), breaks
// the bitmap's memory rule too, so its hits run push and Pull in every
// scheme.
func TestChaosFullProductHit(t *testing.T) {
	t.Cleanup(faultinject.Disarm)
	rect, ra, rb := buildCase(caseSpec{"", 96, 80, 300, 6, 8, 12, 7})
	cmask, ca, cb, _ := complDenseRowsProduct(256)
	dmask, da, db := buildCase(caseSpec{"", 96, 96, 96, 24, 24, 24, 7})
	x := offDiagonal(80)
	for _, algo := range append(chaosFamilies, AlgoHybrid) {
		// tier is the tier the product's hits run in; tierBitmap stands
		// for push and Pull where the plan holds no CSC structure of B.
		for _, c := range []struct {
			name       string
			mask       *sparse.Pattern
			a, b       *sparse.CSR[float64]
			complement bool
			tier       hitTier
		}{
			{"plain", rect, ra, rb, false, tierReplay},
			{"plain-dense", dmask, da, db, false, tierBitmap},
			{"plain-over-rules", fullMask(80), x, x, false, tierPushPull},
			{"complement", cmask, ca, cb, true, tierReplay},
			{"complement-dense", dmask, da, db, true, tierBitmap},
		} {
			complement, mask, a, b := c.complement, c.mask, c.a, c.b
			if complement && !SupportsComplement(algo) {
				continue
			}
			for _, fault := range []faultinject.Hooks{
				{CancelPass: faultinject.PassNumeric},
				{PanicArmed: true, PanicRow: 3, PanicPass: faultinject.PassNumeric},
			} {
				for _, threads := range []int{1, 4} {
					name := fmt.Sprintf("%v/%s/%+v/threads=%d", algo, c.name, fault, threads)
					faultinject.Disarm()
					pool := NewExecutorPool[float64](ptSR, 2)
					plan, err := NewPlanCache(ptSR, 0).GetOrPlan(mask, a, b, Options{Algorithm: algo, Complement: complement})
					if err != nil {
						t.Fatal(err)
					}
					eo := ExecOptions{Threads: threads}
					var published *sparse.CSR[float64]
					for range 2 {
						exec := pool.Get()
						if published, err = plan.ExecuteOnOpts(exec, a, b, eo); err != nil {
							t.Fatalf("%s: %v", name, err)
						}
						pool.Put(exec)
					}
					rec := plan.fullHit.rec.Load()
					if rec == nil {
						t.Fatalf("%s: no pattern published", name)
					}
					wantTier := c.tier
					if wantTier == tierBitmap && !holdsCSC(plan) {
						wantTier = tierPushPull
					}
					pat := rec.pat
					rowPtr, colIdx := slices.Clone(pat.rowPtr), slices.Clone(pat.colIdx)
					want := published.Clone()

					faultinject.Arm(fault)
					exec := pool.Get()
					out, err := plan.ExecuteOnOpts(exec, a, b, eo)
					faultinject.Disarm()
					var ce *CanceledError
					var kp *KernelPanicError
					switch {
					case out != nil:
						t.Fatalf("%s: a partial result escaped", name)
					case fault.PanicArmed && !errors.As(err, &kp):
						t.Fatalf("%s: err = %v, want KernelPanicError", name, err)
					case !fault.PanicArmed && (!errors.As(err, &ce) || ce.Pass != string(fault.CancelPass)):
						t.Fatalf("%s: err = %v, want CanceledError in pass %s", name, err, fault.CancelPass)
					case exec.lastPlan != plan || exec.hitRec != rec:
						t.Fatalf("%s: the interrupted execution was not a hit by the plan's record", name)
					case rec.tier() != wantTier:
						t.Fatalf("%s: the hits run in tier %v, want %v", name, rec.tier(), wantTier)
					}
					pool.Discard(exec)
					if st := pool.Stats(); st.Poisoned != 1 || st.Idle != 0 {
						t.Fatalf("%s: pool %+v, want the executor discarded", name, st)
					}
					if plan.fullHit.rec.Load() != rec || !slices.Equal(pat.rowPtr, rowPtr) || !slices.Equal(pat.colIdx, colIdx) {
						t.Fatalf("%s: the interrupted hit changed the plan's pattern", name)
					}
					got, err := plan.ExecuteOnOpts(NewExecutor[float64](ptSR), a, b, eo)
					if err != nil {
						t.Fatalf("%s recovery run: %v", name, err)
					}
					checkIdentical(t, name+" recovery run", got, want)
				}
			}
		}
	}
}
