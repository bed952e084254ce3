package trajectory

import (
	"bytes"
	"context"
	"fmt"
	"runtime"
	"time"

	maskedspgemm "maskedspgemm"
	"maskedspgemm/internal/core"
	"maskedspgemm/internal/semiring"
	"maskedspgemm/internal/serial"
	"maskedspgemm/internal/sparse"
	"maskedspgemm/internal/store"
)

// The traced run: after set-up, an untraced phase at the workload's own
// concurrency reads the server's counters, then one client runs traced
// ops. Each traced op is timed over HTTP and then replayed on a twin
// session built with the same options, one span around each layer
// call, in the order handleMultiply makes them. The spans stay in
// memory until the run ends.
const (
	// untracedShare is the part of the run's seconds spent untraced.
	untracedShare = 0.4
	// maxTracedOps caps the traced phase.
	maxTracedOps = 100
	// accumReps is the repetition count of the per-family timing.
	accumReps = 5
)

// Span is one timed call of the traced run.
type Span struct {
	// Op numbers the traced op the span belongs to.
	Op int `json:"op"`
	// Name is "http" for the op over HTTP, "replay" for its replay, and
	// the layer call's name (layerSpans) for a replay's children.
	Name string `json:"name"`
	// Start is when the call began, in nanoseconds since the traced
	// phase began.
	Start int64 `json:"start_ns"`
	// End is when the call returned, on the same clock.
	End int64 `json:"end_ns"`
	// Parent indexes the enclosing span in the workload's spans; -1 for
	// a root.
	Parent int `json:"parent"`
}

type tracer struct {
	epoch time.Time
	spans []Span
}

func (t *tracer) begin(op int, name string, parent int) int {
	t.spans = append(t.spans, Span{Op: op, Name: name, Start: int64(time.Since(t.epoch)), Parent: parent})
	return len(t.spans) - 1
}

func (t *tracer) end(id int) { t.spans[id].End = int64(time.Since(t.epoch)) }

// time records f as one span.
func (t *tracer) time(op int, name string, parent int, f func()) {
	id := t.begin(op, name, parent)
	f()
	t.end(id)
}

// traceWorkload runs one workload's traced run and fills wr with the
// PerLayer metrics and the spans.
func traceWorkload(cfg Config, wr *WorkloadReport) error {
	sp := specs[wr.Name]
	t0 := time.Now()
	in, err := sp.build(cfg.Seed, cfg.Small)
	if err != nil {
		return err
	}
	wr.GenS = time.Since(t0).Seconds()
	r, err := startRig(sp, in, wr.Clients, cfg.Small)
	if err != nil {
		return fmt.Errorf("trajectory: %s set-up: %w", wr.Name, err)
	}
	defer r.close()

	s0, err := r.stats()
	if err != nil {
		return err
	}
	t := r.drive(wr.Clients, time.Now().Add(seconds(untracedShare*cfg.Seconds)), 0)
	s1, err := r.stats()
	if err != nil {
		return err
	}
	wr.account(t)
	ops := float64(max(t.attempted, 1))
	hits := float64(s1.Session.Cache.Hits - s0.Session.Cache.Hits)
	vals := map[string]float64{
		"serve.queued_share":     ratio(float64(s1.Admission.Queued-s0.Admission.Queued), float64(s1.Admission.Admitted-s0.Admission.Admitted)),
		"serve.bytes_in_per_op":  float64(t.bytesIn) / ops,
		"serve.bytes_out_per_op": float64(t.bytesOut) / ops,
		"store.evictions_per_op": float64(s1.Session.Store.Evictions-s0.Session.Store.Evictions) / ops,
		"plan.hit_ratio":         ratio(hits, hits+float64(s1.Session.Cache.Misses-s0.Session.Cache.Misses)),
		"plan.evictions_per_op":  float64(s1.Session.Cache.Evictions-s0.Session.Cache.Evictions) / ops,
	}
	untracedP50 := percentile(t.lat, 0.5)

	tw, err := newTwin(sp, r, cfg.Small)
	if err != nil {
		return err
	}
	flops := make([]int64, len(in.want))
	for k := range flops {
		flops[k] = core.MaskedFlops(in.mask(k), in.a, in.a, in.delta)
	}
	tr := &tracer{epoch: time.Now()}
	var rate, imbalance, busy, stolen []float64
	stopAt := time.Now().Add(seconds((1 - untracedShare) * cfg.Seconds))
	for op := 0; op < maxTracedOps && time.Now().Before(stopAt); op++ {
		i := r.next.Add(1) - 1
		q := in.request(i)
		h := tr.begin(op, "http", -1)
		_, _, err := r.do(q)
		tr.end(h)
		wr.Attempted++
		if err != nil {
			wr.account(tally{failed: 1, errs: []string{fmt.Sprintf("traced op %d: %v", i, err)}})
			continue
		}
		exec, err := tw.replay(tr, op, q)
		if err != nil {
			return fmt.Errorf("trajectory: %s replay of op %d: %w", wr.Name, i, err)
		}
		rate = append(rate, float64(flops[q.k])/exec.Seconds()/1e6)
		st, wall, err := tw.schedStats(q.k)
		if err != nil {
			return err
		}
		imbalance = append(imbalance, st.Imbalance())
		busy = append(busy, st.Busy().Seconds()/(float64(len(st.Workers))*wall.Seconds()))
		stolen = append(stolen, float64(st.Stolen()))
	}
	wr.Spans = tr.spans

	self, perOp := spanTimes(tr.spans)
	for _, name := range layerSpans {
		vals[name+"_ms"] = median(self[name])
	}
	var http, replay, overhead []float64
	for _, o := range perOp {
		if o.replayed {
			http = append(http, o.http)
			replay = append(replay, o.layers)
			overhead = append(overhead, o.http-o.layers)
		}
	}
	vals["trace.http_ms"] = median(http)
	vals["trace.replay_ms"] = median(replay)
	vals["trace.overhead_ratio"] = ratio(median(http), untracedP50)
	vals["serve.overhead_ms"] = median(overhead)
	vals["engine.mflops_per_s"] = median(rate)
	vals["parallel.imbalance"] = median(imbalance)
	vals["parallel.busy_share"] = median(busy)
	vals["parallel.stolen_per_op"] = mean(stolen)
	exactCounts(in, flops, vals)
	if err := accumNsPerFlop(in, flops, vals); err != nil {
		return err
	}
	wr.Metrics, err = metricsOf(PerLayer, vals)
	return err
}

// opTimes are one traced op's durations in ms: over HTTP, and the sum
// of its replay's layer spans.
type opTimes struct {
	http, layers float64
	replayed     bool
}

// spanTimes returns each span name's self times in ms — a span's
// duration minus the part its children cover — and the per-op totals.
func spanTimes(spans []Span) (map[string][]float64, []opTimes) {
	ms := func(ns int64) float64 { return float64(ns) / 1e6 }
	self := make([]int64, len(spans))
	for i, s := range spans {
		self[i] += s.End - s.Start
		if s.Parent >= 0 {
			self[s.Parent] -= s.End - s.Start
		}
	}
	byName := make(map[string][]float64)
	var ops []opTimes
	for i, s := range spans {
		byName[s.Name] = append(byName[s.Name], ms(self[i]))
		for len(ops) <= s.Op {
			ops = append(ops, opTimes{})
		}
		switch {
		case s.Name == "http":
			ops[s.Op].http = ms(s.End - s.Start)
		case s.Name == "replay":
			ops[s.Op].replayed = true
		case s.Parent >= 0:
			ops[s.Op].layers += ms(s.End - s.Start)
		}
	}
	return byName, ops
}

// twin is the session the traced run replays ops on: built with the
// server's options and fed the same uploads, so its store, budget and
// plan cache track the server's.
type twin struct {
	s       *maskedspgemm.Session
	in      *inputs
	opts    []maskedspgemm.Option
	aRef    store.Ref
	maskFPs []uint64
	buf     bytes.Buffer
	// sched holds, per product, a single-owner plan that executes with
	// scheduler telemetry.
	sched []*maskedspgemm.Plan
}

func newTwin(sp spec, r *rig, small bool) (*twin, error) {
	in := r.in
	maxIdle := sp.maxInFlight
	if maxIdle <= 0 {
		maxIdle = runtime.GOMAXPROCS(0)
	}
	tw := &twin{
		s:     maskedspgemm.NewSession(append([]maskedspgemm.SessionOption{maskedspgemm.WithMaxIdleExecutors(maxIdle)}, sp.sessionOptions(small)...)...),
		in:    in,
		opts:  in.options(),
		sched: make([]*maskedspgemm.Plan, len(in.want)),
	}
	if !in.inline {
		tw.aRef, _ = tw.s.PutOperand(in.a)
		for _, m := range in.masks {
			ref, _ := tw.s.PutOperand(maskMatrix(m))
			tw.maskFPs = append(tw.maskFPs, ref.Pattern)
		}
		for n := prefillCount(sp, in, small); n > 0; n-- {
			if _, _, err := tw.s.PutOperandValues(tw.aRef.Pattern, in.request(int64(n)).values); err != nil {
				return nil, err
			}
		}
	}
	// Plan the products of the server's most recent ops in their order,
	// so the twin's plan-cache LRU holds what the server's does.
	next := r.next.Load()
	for i := max(next-int64(len(in.want)), 0); i < next; i++ {
		k := int(i % int64(len(in.want)))
		if err := tw.s.Warm(in.mask(k), in.a, in.a, tw.opts...); err != nil {
			return nil, err
		}
	}
	return tw, nil
}

// replay makes op q's layer calls on the twin, each inside a span, and
// returns the engine span's duration.
func (tw *twin) replay(tr *tracer, op int, q request) (time.Duration, error) {
	root := tr.begin(op, "replay", -1)
	defer tr.end(root)
	var (
		a    *maskedspgemm.Matrix
		mask *sparse.Pattern
		err  error
	)
	if tw.in.inline {
		tr.time(op, "codec.decode", root, func() { a, err = serial.Read(bytes.NewReader(tw.in.body)) })
		if err != nil {
			return 0, err
		}
		mask = a.PatternView()
		tr.time(op, "sparse.fingerprint", root, func() { mask.Fingerprint() })
		tr.time(op, "sparse.values_fingerprint", root, func() { sparse.ValuesFingerprint(a.Val) })
		tr.time(op, "store.put", root, func() { tw.s.PutOperand(a) })
	} else {
		ref := tw.aRef
		if q.values != nil {
			tr.time(op, "sparse.values_fingerprint", root, func() { sparse.ValuesFingerprint(q.values) })
			tr.time(op, "store.put", root, func() { ref, _, err = tw.s.PutOperandValues(tw.aRef.Pattern, q.values) })
			if err != nil {
				return 0, err
			}
		}
		ok := false
		tr.time(op, "store.resolve", root, func() {
			if a, ok = tw.s.Operand(ref); !ok {
				return
			}
			if len(tw.maskFPs) == 0 {
				mask = a.PatternView()
			} else {
				mask, ok = tw.s.OperandPattern(tw.maskFPs[q.k])
			}
		})
		if !ok {
			return 0, fmt.Errorf("twin session lost an operand of product %d", q.k)
		}
		tr.time(op, "sparse.fingerprint", root, func() {
			mask.Fingerprint()
			if mask != a.PatternView() {
				a.Fingerprint()
			}
		})
	}
	hits := tw.s.Stats().Cache.Hits
	plan := tr.begin(op, "plan.build", root)
	err = tw.s.Warm(mask, a, a, tw.opts...)
	tr.end(plan)
	if err != nil {
		return 0, err
	}
	if tw.s.Stats().Cache.Hits > hits {
		tr.spans[plan].Name = "plan.lookup"
	}
	var out *maskedspgemm.Matrix
	exec := tr.begin(op, "engine.exec", root)
	out, err = tw.s.MultiplyCtx(context.Background(), mask, a, a, tw.opts...)
	tr.end(exec)
	if err != nil {
		return 0, err
	}
	tw.buf.Reset()
	tr.time(op, "codec.encode", root, func() { err = serial.Write(&tw.buf, out) })
	if err != nil {
		return 0, err
	}
	return time.Duration(tr.spans[exec].End - tr.spans[exec].Start), tw.in.check(out, q)
}

// schedStats executes product k once with scheduler telemetry, outside
// any span, and returns the telemetry and the execution's wall time.
func (tw *twin) schedStats(k int) (maskedspgemm.SchedStats, time.Duration, error) {
	p := tw.sched[k]
	if p == nil {
		opts := append([]maskedspgemm.Option{maskedspgemm.WithSchedStats()}, tw.opts...)
		var err error
		if p, err = maskedspgemm.NewPlan(tw.in.mask(k), tw.in.a, tw.in.a, opts...); err != nil {
			return maskedspgemm.SchedStats{}, 0, err
		}
		tw.sched[k] = p
	}
	t0 := time.Now()
	_, err := p.Execute(tw.in.a, tw.in.a)
	return p.SchedStats(), time.Since(t0), err
}

// exactCounts adds the counts that depend only on the inputs, each the
// mean over the workload's distinct products (which its requests cycle
// through evenly): masked flops, result nnz, and the Hybrid selector's
// rows per family.
func exactCounts(in *inputs, flops []int64, vals map[string]float64) {
	n := float64(len(in.want))
	var f, nnz float64
	var rows [core.NumFamilies]float64
	for k, w := range in.want {
		f += float64(flops[k])
		nnz += float64(w.NNZ())
		for fam, c := range core.HybridFamilyRows(in.mask(k), in.a, in.a, core.Options{Complement: in.delta}) {
			rows[fam] += float64(c)
		}
	}
	vals["engine.masked_flops_per_op"] = f / n
	vals["engine.out_nnz_per_op"] = nnz / n
	for fam, c := range rows {
		vals["hybrid.rows."+core.Family(fam).String()] = c / n
	}
}

// accumNsPerFlop times each accumulator family alone — a single-family
// plan per product, executions interleaved round-robin across families
// accumReps times — and adds the median execution time per masked flop.
// MCA has no complemented form; it reports 0 on complemented workloads.
func accumNsPerFlop(in *inputs, flops []int64, vals map[string]float64) error {
	sr := semiring.PlusTimes[float64]{}
	var sums [accumReps][core.NumFamilies]time.Duration
	var total int64
	for k := range in.want {
		total += flops[k]
		var plans [core.NumFamilies]*core.Plan[float64, semiring.PlusTimes[float64]]
		for f := range plans {
			if in.delta && core.Family(f) == core.FamMCA {
				continue
			}
			algo, _ := core.FamilyAlgorithm(core.Family(f))
			p, err := core.NewPlan(sr, in.mask(k), in.a, in.a, core.Options{Algorithm: algo, Complement: in.delta, ReuseOutput: true}, nil)
			if err != nil {
				return fmt.Errorf("trajectory: %v plan: %w", core.Family(f), err)
			}
			plans[f] = p
		}
		for rep := range sums {
			for f, p := range plans {
				if p == nil {
					continue
				}
				t0 := time.Now()
				if _, err := p.Execute(in.a, in.a); err != nil {
					return err
				}
				sums[rep][f] += time.Since(t0)
			}
		}
	}
	for f := core.Family(0); f < core.NumFamilies; f++ {
		ns := make([]float64, accumReps)
		for rep := range sums {
			ns[rep] = float64(sums[rep][f].Nanoseconds())
		}
		vals["accum."+f.String()+".ns_per_flop"] = median(ns) / float64(max(total, 1))
	}
	return nil
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}
