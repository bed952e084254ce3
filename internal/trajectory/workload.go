// Package trajectory is the request-level benchmark of the serving
// path. It runs serve.New in-process behind a loopback listener, drives
// it with closed-loop clients from the same process, checks every
// response against an oracle, and reports end-to-end metrics for four
// traffic mixes. A separate traced run replays each request's layers on
// a twin session and reports per-layer numbers.
//
// A closed loop fits this server: its callers are graph-analytics
// drivers and iterative applications, and each waits for its reply.
// cmd/mspgemm-trajectory is the command; BENCHMARK.json at the
// repository root declares the workloads, metrics, units and bounds.
package trajectory

import (
	"bytes"
	"fmt"

	maskedspgemm "maskedspgemm"
	"maskedspgemm/internal/bench"
	"maskedspgemm/internal/core"
	"maskedspgemm/internal/gen"
	"maskedspgemm/internal/semiring"
	"maskedspgemm/internal/serial"
	"maskedspgemm/internal/sparse"
)

// The four traffic mixes. Why each one exists is recorded in
// BENCHMARK.json and in the command's README.
const (
	// TCSkewRef is one client multiplying C = A ⊙ (A·A) by reference on
	// a tail-hub R-MAT graph: a warm plan with skewed row costs.
	TCSkewRef = "tc-skew-ref"
	// ERWarmInline is two clients shipping a uniform ER graph inline on
	// every request: short requests whose plan always hits.
	ERWarmInline = "er-warm-inline"
	// SweepColdRef is two clients cycling 24 banded density-sweep masks
	// by reference through a 16-entry plan cache: every request plans.
	SweepColdRef = "sweep-cold-ref"
	// DeltaComplRef is two clients each uploading a values-only delta
	// and then multiplying C = ¬A ⊙ (A·A) by reference, behind one
	// execution slot and a 64 MiB memory budget.
	DeltaComplRef = "delta-compl-ref"
)

// Names lists the workloads in the order a run interleaves their
// rounds.
var Names = []string{TCSkewRef, ERWarmInline, SweepColdRef, DeltaComplRef}

// spec is one traffic mix: how many clients drive it, the server
// settings it runs against, and its generator.
type spec struct {
	clients int
	// warmOps is the op count of the warm-up that ends set-up: enough to
	// plan every distinct product and grow the executor pool.
	warmOps int64
	// maxInFlight, cacheEntries and memBudget are mspgemm-serve's
	// -max-inflight, -cache-entries and -memory-budget settings; 0 keeps
	// the server default.
	maxInFlight  int
	cacheEntries int
	memBudget    int64
	build        func(seed uint64, small bool) (*inputs, error)
}

var specs = map[string]spec{
	TCSkewRef:     {clients: 1, warmOps: 10, build: buildTCSkew},
	ERWarmInline:  {clients: 2, warmOps: 40, build: buildERInline},
	SweepColdRef:  {clients: 2, warmOps: 48, cacheEntries: 16, build: buildSweep},
	DeltaComplRef: {clients: 2, warmOps: 20, maxInFlight: 1, memBudget: 64 << 20, build: buildDelta},
}

// budget is the workload's memory budget at the chosen input size: the
// small inputs of tests shrink it in proportion, so budget eviction
// still reaches steady state within a few dozen uploads.
func (s spec) budget(small bool) int64 {
	if small {
		return s.memBudget >> 8
	}
	return s.memBudget
}

// sessionOptions are the session settings of a workload's server; the
// traced run builds its twin session from the same list.
func (s spec) sessionOptions(small bool) []maskedspgemm.SessionOption {
	var opts []maskedspgemm.SessionOption
	if s.cacheEntries > 0 {
		opts = append(opts, maskedspgemm.WithPlanCacheEntries(s.cacheEntries))
	}
	if b := s.budget(small); b > 0 {
		opts = append(opts, maskedspgemm.WithMemoryBudget(b))
	}
	return opts
}

// inputs are one workload's generated operands and the oracle product
// for every distinct request.
type inputs struct {
	a *maskedspgemm.Matrix
	// masks are uploaded at set-up and cycled round-robin by ?mask=;
	// empty means every request uses A's own pattern as the mask.
	masks []*sparse.Pattern
	// inline ships A as the raw request body (body) on every request
	// instead of naming it by reference.
	inline bool
	body   []byte
	// delta uploads fresh values for A before each multiply and
	// complements the mask.
	delta bool
	// want[k] is the oracle product of request k mod len(want).
	want []*maskedspgemm.Matrix
}

// order is log2 of the ER dimension; the small inputs serve tests.
func order(small bool) int {
	if small {
		return 7
	}
	return 11
}

func erGraph(seed uint64, small bool) *maskedspgemm.Matrix {
	return gen.Symmetrize(gen.ErdosRenyi(1<<order(small), 8, seed))
}

func buildTCSkew(seed uint64, small bool) (*inputs, error) {
	return newInputs(&inputs{a: bench.SkewedGraph(order(small)+1, 8, seed)})
}

func buildERInline(seed uint64, small bool) (*inputs, error) {
	in := &inputs{a: erGraph(seed, small), inline: true}
	var buf bytes.Buffer
	if err := serial.Write(&buf, in.a); err != nil {
		return nil, err
	}
	in.body = buf.Bytes()
	return newInputs(in)
}

// sweepMasks is the mask count of sweep-cold-ref: more than its
// 16-entry plan cache holds, so round-robin requests always miss.
const sweepMasks = 24

func buildSweep(seed uint64, small bool) (*inputs, error) {
	in := &inputs{a: erGraph(seed, small), masks: make([]*sparse.Pattern, sweepMasks)}
	for k := range in.masks {
		in.masks[k] = bench.BandedMask(1<<order(small), bench.SweepDensities, seed+1+uint64(k))
	}
	return newInputs(in)
}

func buildDelta(seed uint64, small bool) (*inputs, error) {
	return newInputs(&inputs{a: erGraph(seed, small), delta: true})
}

// newInputs computes the oracle for every distinct product with the
// unmasked-multiply-then-filter baseline.
func newInputs(in *inputs) (*inputs, error) {
	in.want = make([]*maskedspgemm.Matrix, max(1, len(in.masks)))
	for k := range in.want {
		w, err := core.MaskedSpGEMM(semiring.PlusTimes[float64]{}, in.mask(k), in.a, in.a,
			core.Options{Algorithm: core.AlgoSaxpyThenMask, Complement: in.delta})
		if err != nil {
			return nil, fmt.Errorf("trajectory: oracle for product %d: %w", k, err)
		}
		in.want[k] = w
	}
	return in, nil
}

// mask returns the mask of product k.
func (in *inputs) mask(k int) *sparse.Pattern {
	if len(in.masks) == 0 {
		return in.a.PatternView()
	}
	return in.masks[k]
}

// options are the facade options every request of the workload carries
// (the query parameters of query, as the server parses them).
func (in *inputs) options() []maskedspgemm.Option {
	opts := []maskedspgemm.Option{maskedspgemm.WithAlgorithm(maskedspgemm.Hybrid)}
	if in.delta {
		opts = append(opts, maskedspgemm.WithComplement())
	}
	return opts
}

// request is op i of a workload.
type request struct {
	// k indexes the product (and mask) the op multiplies.
	k int
	// values, for deltas, are A's values scaled by s = 1 + i·2⁻²⁰; the
	// oracle's values then scale by s².
	values []float64
	scale  float64
}

func (in *inputs) request(i int64) request {
	r := request{k: int(i % int64(len(in.want))), scale: 1}
	if in.delta {
		s := 1 + float64(i)*0x1p-20
		r.values = make([]float64, len(in.a.Val))
		for j, v := range in.a.Val {
			r.values[j] = v * s
		}
		r.scale = s * s
	}
	return r
}

// resultEq is the oracle check's value comparison: 1e-9 relative.
var resultEq = sparse.FloatEq(1e-9)

// check compares a decoded result with the oracle: the pattern must
// match exactly and every value within resultEq.
func (in *inputs) check(got *maskedspgemm.Matrix, r request) error {
	eq := func(x, y float64) bool { return resultEq(x, y*r.scale) }
	if want := in.want[r.k]; !sparse.EqualFunc(got, want, eq) {
		return fmt.Errorf("result of product %d differs from the oracle: %s", r.k, sparse.Diff(got, want, eq))
	}
	return nil
}

// maskMatrix is a mask's upload form: the pattern with unit values.
func maskMatrix(p *sparse.Pattern) *maskedspgemm.Matrix {
	m := &maskedspgemm.Matrix{Pattern: *p, Val: make([]float64, p.NNZ())}
	for j := range m.Val {
		m.Val[j] = 1
	}
	return m
}
