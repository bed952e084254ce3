package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"maps"
	"math"
	"math/rand/v2"
	"os"
	"runtime"
	"runtime/debug"
	"slices"
	"strings"
	"time"

	"maskedspgemm/internal/core"
	"maskedspgemm/internal/gen"
	"maskedspgemm/internal/graph"
	"maskedspgemm/internal/parallel"
	"maskedspgemm/internal/semiring"
	"maskedspgemm/internal/sparse"
)

// The kernel bench (DESIGN.md §9, §10, §12, §15): one table of cases,
// each a (workload, arm) pair, timed in interleaved rounds, and ratio
// rows read from the per-round timings. A round executes every arm of
// a workload once, in an order shuffled round by round, so each ratio
// is taken between executions milliseconds apart and ambient load
// drift cancels out of it. A row's statistic is the median of its
// per-round paired ratios with a distribution-free interval; a gate
// row is one with a bound, and it is judged at fixed looks until the
// interval clears the bound (pass), lies wholly past it (fail), or the
// row reaches its cap (unresolved, never a pass). cmd/mspgemm-bench's
// "kernels" subcommand writes the report as BENCH_kernels.json, and CI
// requires every gate to pass.

const (
	// kernelConfidence is the coverage of each look's interval.
	kernelConfidence = 0.99
	// firstLook is the number of rounds every arm of a workload runs,
	// and the round count of every row's first look. Later looks come
	// at 1.5× the previous one (15, 22, 33, 49, …).
	firstLook = 15
	// maxRounds and rowBudget cap a gate row: it is unresolved at the
	// first look where the next would pass maxRounds, or where the
	// row's arms have spent rowBudget seconds executing. The time cap
	// gives a row of cheap executions more rounds than one of
	// expensive ones; the round cap bounds rows of tiny ones.
	maxRounds = 2000
	rowBudget = 8.0
)

// Verdicts of a gate row.
const (
	verdictPass       = "pass"
	verdictFail       = "fail"
	verdictUnresolved = "unresolved"
)

// Comparisons of a gate row's ratio with its bound.
const (
	atLeast = ">="
	atMost  = "<="
)

const (
	// hybridNoMaskedBit names the ablation arm: the Hybrid selector
	// restricted to its menu without MaskedBit.
	hybridNoMaskedBit = "Hybrid-noMaskedBit"
	// bestSingle stands, in a row, for the single-family arm with the
	// lowest median time at the first look.
	bestSingle = "best-single"
	// hybridFull names the arm that runs a self-mask workload's full
	// product: B is passed as a clone of A, so the plan cannot compute
	// one triangle and mirror it (DESIGN.md §5).
	hybridFull = "Hybrid-full"
)

// kernelGates are the rows CI gates on, in case-table order. The
// bounds are the ones the best-of-reps gates held; only the statistic
// changed.
var kernelGates = []KernelRow{
	// MaskedBit must hold the dense-mask class it was built for (the
	// regression it pins, a three-pass Gather, measured 0.5×).
	{Workload: "er-dense", Num: "MSA", Den: "MaskedBit", Op: atLeast, Bound: 0.95},
	// The per-row selector must not lose to the fastest single family
	// on any of the bitmap workloads: a mispriced family constant shows
	// here first.
	{Workload: "er-dense", Num: bestSingle, Den: "Hybrid", Op: atLeast, Bound: 1 / 1.05},
	// Adding MaskedBit to the Hybrid menu must not cost the banded
	// density sweep anything.
	{Workload: "er-sweep", Num: "Hybrid", Den: hybridNoMaskedBit, Op: atMost, Bound: 1.05},
	{Workload: "er-sweep", Num: bestSingle, Den: "Hybrid", Op: atLeast, Bound: 1 / 1.05},
	{Workload: "rmat-sweep", Num: bestSingle, Den: "Hybrid", Op: atLeast, Bound: 1 / 1.05},
	{Workload: "er-uniform-sparse", Num: bestSingle, Den: "Hybrid", Op: atLeast, Bound: 1 / 1.05},
	// A never-latched cancel token (one atomic load per block claim)
	// must stay within 2% plus a 5% noise band.
	{Workload: "er-self", Num: "token", Den: "no-token", Op: atMost, Bound: 1.07},
}

// KernelArm is one way of executing a workload's product.
type KernelArm struct {
	// Name identifies the arm within its workload.
	Name string
	// Opt configures the arm's plan.
	Opt core.Options
	// Token runs each execution with a live, never-latched cancel
	// token, so every block claim pays the real atomic load.
	Token bool
	// CloneB plans and executes the arm with B a clone of the
	// workload's B: the same matrix, not the same arrays.
	CloneB bool
}

// KernelWorkload is one product of the case table and the arms timed
// on it.
type KernelWorkload struct {
	// Name identifies the workload.
	Name string
	// Arms are the workload's cases.
	Arms []KernelArm
	// rows are the ungated ratios reported on the workload.
	rows [][2]string
	// inputs builds the product's operands.
	inputs func() kernelInputs
}

// kernelInputs is one masked product's operands.
type kernelInputs struct {
	mask *sparse.Pattern
	a, b *sparse.CSR[float64]
}

// KernelWorkloads returns the case table at 2^scale rows; threads is
// the worker count of every arm that does not sweep widths
// (0 = GOMAXPROCS). Inputs are built only by Setup.
//
// The workloads are the union of four earlier experiments, each with
// its own generator seeds and edge factor:
//   - edge factor 8, seed 11: er-dense (mask degree n/4 over sparse
//     inputs, so the accumulator's per-row walks dominate: the
//     MaskedBit class), the banded density sweeps over ER and R-MAT
//     inputs (no single family wins every band), and a uniform-sparse
//     control;
//   - edge factor 32, seed 7: the same sweeps and controls over denser
//     inputs, plus wide-sparse, an output of 256n columns where the
//     width-n accumulators leave cache and Heap wins;
//   - edge factor 16, seed 42: rmat-hubs, an R-MAT graph relabeled so
//     its hub rows sit at the tail (the case cost-blind claiming
//     balances worst), and a uniform ER control, each under MSA at
//     every width;
//   - edge factor 8, seed 17: er-self, a uniform ER self-mask, where a
//     per-block polling cost has no row skew to hide behind.
//
// The three self-mask workloads (rmat-hubs, er-uniform, er-self) are
// symmetric self-products, which every arm computes as one triangle
// and a mirror; their Hybrid-full arm reports the full product.
func KernelWorkloads(scale, threads int) []KernelWorkload {
	n := 1 << scale
	er := func(ef int, seed uint64) func() *sparse.CSR[float64] {
		return func() *sparse.CSR[float64] { return gen.Symmetrize(gen.ErdosRenyi(n, ef, seed)) }
	}
	rmat := func(ef int, seed uint64) func() *sparse.CSR[float64] {
		return func() *sparse.CSR[float64] {
			return gen.RMATSymmetric(gen.RMATConfig{Scale: scale, EdgeFactor: ef, Seed: seed})
		}
	}
	uniform := func(degree int, seed uint64) func() *sparse.Pattern {
		return func() *sparse.Pattern { return gen.ErdosRenyiPattern(n, degree, seed) }
	}
	banded := func(seed uint64) func() *sparse.Pattern {
		return func() *sparse.Pattern { return BandedMask(n, SweepDensities, seed) }
	}
	square := func(mask func() *sparse.Pattern, g func() *sparse.CSR[float64]) func() kernelInputs {
		return func() kernelInputs {
			a := g()
			return kernelInputs{mask(), a, a}
		}
	}
	self := func(g func() *sparse.CSR[float64]) func() kernelInputs {
		return func() kernelInputs {
			a := g()
			return kernelInputs{a.PatternView(), a, a}
		}
	}
	wide := func() kernelInputs {
		cols := n << 8
		return kernelInputs{gen.Random(n, cols, 256, 15).PatternView(), gen.Random(n, n, 2, 13), gen.Random(n, cols, 2, 14)}
	}
	er8, rmat8, er32, rmat32 := er(8, 11), rmat(8, 12), er(32, 7), rmat(32, 8)

	fams := familyArms(threads)
	famRows := [][2]string{{bestSingle, "Hybrid"}, {"Hybrid", hybridNoMaskedBit}}
	// One MSA arm per width; each wider arm is reported against the
	// serial one, so a scheduling regression shows as lost scaling.
	var sched []KernelArm
	var schedRows [][2]string
	for _, w := range Widths() {
		name := fmt.Sprintf("MSA-t%d", w)
		sched = append(sched, KernelArm{Name: name, Opt: core.Options{Algorithm: core.AlgoMSA, Threads: w, ReuseOutput: true}})
		if w > 1 {
			schedRows = append(schedRows, [2]string{name, "MSA-t1"})
		}
	}
	msa := core.Options{Algorithm: core.AlgoMSA, Threads: threads, ReuseOutput: true}
	cancel := []KernelArm{{Name: "no-token", Opt: msa}, {Name: "token", Opt: msa, Token: true}}
	hybrid := core.Options{Algorithm: core.AlgoHybrid, Threads: threads, ReuseOutput: true}
	halves := []KernelArm{{Name: "Hybrid", Opt: hybrid}, {Name: hybridFull, Opt: hybrid, CloneB: true}}
	sched, cancel = append(sched, halves...), append(cancel, halves...)
	schedRows = append(schedRows, [2]string{hybridFull, "Hybrid"})

	return []KernelWorkload{
		{"er-dense", fams, famRows, square(uniform(n/4, 13), er8)},
		{"er-sweep", fams, famRows, square(banded(14), er8)},
		{"rmat-sweep", fams, famRows, square(banded(15), rmat8)},
		{"er-uniform-sparse", fams, famRows, square(uniform(2, 16), er8)},
		{"er-sweep-ef32", fams, famRows, square(banded(9), er32)},
		{"rmat-sweep-ef32", fams, famRows, square(banded(10), rmat32)},
		{"er-uniform-dense-ef32", fams, famRows, square(uniform(n/16, 11), er32)},
		{"er-uniform-sparse-ef32", fams, famRows, square(uniform(2, 12), er32)},
		{"wide-sparse", fams, famRows, wide},
		{"rmat-hubs", sched, schedRows, self(func() *sparse.CSR[float64] { return SkewedGraph(scale, 16, 42) })},
		{"er-uniform", sched, schedRows, self(er(16, 43))},
		{"er-self", cancel, [][2]string{{hybridFull, "Hybrid"}}, self(er(8, 17))},
	}
}

// familyArms are every single accumulator family, the default Hybrid
// and the Hybrid ablated to its menu without MaskedBit.
func familyArms(threads int) []KernelArm {
	var arms []KernelArm
	for _, algo := range []core.Algorithm{
		core.AlgoMSA, core.AlgoHash, core.AlgoMCA, core.AlgoHeap, core.AlgoInner, core.AlgoMaskedBit, core.AlgoHybrid,
	} {
		arms = append(arms, KernelArm{Name: algo.String(), Opt: core.Options{Algorithm: algo, Threads: threads, ReuseOutput: true}})
	}
	return append(arms, KernelArm{Name: hybridNoMaskedBit, Opt: core.Options{
		Algorithm:      core.AlgoHybrid,
		HybridFamilies: core.Families(core.FamMSA, core.FamHash, core.FamHeap, core.FamPull),
		Threads:        threads,
		ReuseOutput:    true,
	}})
}

// Widths returns the worker counts 1, 2, 4, … up to GOMAXPROCS, and
// GOMAXPROCS itself.
func Widths() []int {
	maxT := runtime.GOMAXPROCS(0)
	var out []int
	for t := 1; t < maxT; t *= 2 {
		out = append(out, t)
	}
	return append(out, maxT)
}

// SkewedGraph builds the adversarial scheduling input: a symmetric
// R-MAT graph relabeled by non-decreasing degree, so the hub rows an
// R-MAT degree distribution concentrates the flops in sit adjacent at
// the tail. That is the worst case for cost-blind dynamic claiming:
// the heavy blocks are discovered last, when no other work remains to
// balance them against (the classic LPT argument — discovered first,
// they would be scheduled near-optimally by accident). The engine's
// equal-cost partitions split the hub cluster across workers
// regardless of where the labeling puts it.
func SkewedGraph(scale, edgeFactor int, seed uint64) *sparse.CSR[float64] {
	g := gen.RMATSymmetric(gen.RMATConfig{Scale: scale, EdgeFactor: edgeFactor, Seed: seed})
	perm := graph.DegreeSortPerm(g) // perm[v] = new id, hubs first
	n := int32(g.Rows)
	for v := range perm {
		perm[v] = n - 1 - perm[v] // reverse: hubs last
	}
	return sparse.PermuteSym(g, perm)
}

// SweepDensities is the mask-density ladder of the banded sweep
// workloads, spanning the §7 evaluation range.
var SweepDensities = []float64{1e-4, 3e-4, 1e-3, 3e-3, 1e-2, 3e-2, 0.1, 0.5}

// BandedMask builds an n×n mask whose consecutive row bands sweep the
// given densities: rows of band j carry ~densities[j]·n random
// columns. This is the workload shape no single accumulator family
// wins end to end.
func BandedMask(n int, densities []float64, seed uint64) *sparse.Pattern {
	rng := gen.NewRNG(seed)
	coo := sparse.NewCOO[float64](n, n, 0)
	bands := len(densities)
	for i := 0; i < n; i++ {
		band := i * bands / n
		deg := int(densities[band] * float64(n))
		if deg < 1 {
			deg = 1
		}
		for d := 0; d < deg; d++ {
			coo.Append(int32(i), int32(rng.Intn(n)), 1)
		}
	}
	m, err := coo.ToCSR(func(a, b float64) float64 { return a })
	if err != nil {
		panic(err) // generator bug: indices are in range by construction
	}
	return m.PatternView()
}

// KernelSetup is a workload's inputs with one plan per arm.
type KernelSetup struct {
	w  KernelWorkload
	in kernelInputs
	// bClone is the clone of B that CloneB arms use.
	bClone *sparse.CSR[float64]
	plans  []*core.Plan[float64, semiring.PlusTimes[float64]]
	execs  []*core.Executor[float64, semiring.PlusTimes[float64]]
	eos    []core.ExecOptions
}

// Setup builds the workload's inputs and one plan and executor per
// arm, then executes every arm once untimed. Adjacent arms with equal
// Options and the same B (the cancel-token pair) share one plan and
// one executor, so their ratio compares the same execution with and
// without the token.
func (w KernelWorkload) Setup() (*KernelSetup, error) {
	sr := semiring.PlusTimes[float64]{}
	s := &KernelSetup{
		w:     w,
		in:    w.inputs(),
		plans: make([]*core.Plan[float64, semiring.PlusTimes[float64]], len(w.Arms)),
		execs: make([]*core.Executor[float64, semiring.PlusTimes[float64]], len(w.Arms)),
		eos:   make([]core.ExecOptions, len(w.Arms)),
	}
	if slices.ContainsFunc(w.Arms, func(arm KernelArm) bool { return arm.CloneB }) {
		s.bClone = s.in.b.Clone()
	}
	for i, arm := range w.Arms {
		s.eos[i] = arm.Opt.ExecOnly()
		if arm.Token {
			s.eos[i].Cancel = &parallel.CancelToken{}
		}
		if i > 0 && arm.Opt == w.Arms[i-1].Opt && arm.CloneB == w.Arms[i-1].CloneB {
			s.plans[i], s.execs[i] = s.plans[i-1], s.execs[i-1]
		} else {
			s.execs[i] = core.NewExecutor[float64](sr)
			plan, err := core.NewPlan(sr, s.in.mask, s.in.a, s.b(i), arm.Opt, s.execs[i])
			if err != nil {
				return nil, fmt.Errorf("%s/%s: %w", w.Name, arm.Name, err)
			}
			s.plans[i] = plan
		}
		if _, err := s.time(i); err != nil {
			return nil, fmt.Errorf("%s/%s: %w", w.Name, arm.Name, err)
		}
	}
	return s, nil
}

// b returns arm i's B.
func (s *KernelSetup) b(i int) *sparse.CSR[float64] {
	if s.w.Arms[i].CloneB {
		return s.bClone
	}
	return s.in.b
}

// time executes arm i once and returns its seconds.
func (s *KernelSetup) time(i int) (float64, error) {
	start := time.Now()
	_, err := s.plans[i].ExecuteOnOpts(s.execs[i], s.in.a, s.b(i), s.eos[i])
	return time.Since(start).Seconds(), err
}

// Arms returns one timed arm per workload arm, in case-table order.
func (s *KernelSetup) Arms() []TimedArm {
	arms := make([]TimedArm, len(s.w.Arms))
	for i, arm := range s.w.Arms {
		arms[i] = TimedArm{Name: arm.Name, Time: func() (float64, error) { return s.time(i) }}
	}
	return arms
}

// TimedArm is one arm of a cell group, as the round runner times it: a
// kernel bench case, a paper figure's scheme on one graph, or a Fig. 7
// family on one cell.
type TimedArm struct {
	// Name identifies the arm within its group.
	Name string
	// Time runs the arm once and returns the seconds its figure reads.
	Time func() (float64, error)
	// Rate converts a time to the figure's rate (GFLOPS or MTEPS); nil
	// where the figure has none.
	Rate func(seconds float64) float64
}

// timed runs the arm once, naming it in its error.
func (a TimedArm) timed() (float64, error) {
	sec, err := a.Time()
	if err != nil {
		return 0, fmt.Errorf("%s: %w", a.Name, err)
	}
	return sec, nil
}

// timeRounds times a cell group's arms in firstLook rounds and returns
// times[arm][round]. Each round runs every arm once, in a fresh seeded
// order: a rotation would keep every arm behind the same predecessor,
// and whatever that predecessor leaves in cache and memory would bias
// the arm alike in every round. An arm's error stops the run.
func timeRounds(arms []TimedArm) ([][]float64, error) {
	runtime.GC() // the set-up's garbage, not the timing's
	times := make([][]float64, len(arms))
	order := make([]int, len(arms))
	for i := range order {
		order[i] = i
	}
	rng := rand.New(rand.NewPCG(1, 1))
	for range firstLook {
		rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		for _, i := range order {
			sec, err := arms[i].timed()
			if err != nil {
				return nil, err
			}
			times[i] = append(times[i], sec)
		}
	}
	return times, nil
}

// KernelPoint is one case's timing at the first look.
type KernelPoint struct {
	// Workload names the case's workload.
	Workload string `json:"workload"`
	// Arm names the case's arm.
	Arm string `json:"arm"`
	// Rounds is the number of timed executions.
	Rounds int `json:"rounds"`
	// Seconds is their median.
	Seconds float64 `json:"seconds"`
	// FamilyRows is a Hybrid arm's per-family row count (empty for
	// other arms).
	FamilyRows map[string]int `json:"family_rows,omitempty"`
}

// KernelRow is one ratio of two arms' per-round times on a workload.
// A row with a Bound is a gate.
type KernelRow struct {
	// Workload names the workload.
	Workload string `json:"workload"`
	// Num names the arm whose time is the ratio's numerator. In the
	// report a "best single family" numerator is replaced by the family
	// it resolved to.
	Num string `json:"num"`
	// Den names the arm whose time is the ratio's denominator.
	Den string `json:"den"`
	// Op is a gate's comparison of the ratio with Bound, ">=" or "<=";
	// empty on a reported row.
	Op string `json:"op,omitempty"`
	// Bound is a gate's bound on the ratio; zero on a reported row.
	Bound float64 `json:"bound,omitempty"`
	// Rounds is the number of paired ratios read.
	Rounds int `json:"rounds"`
	// Median is their median.
	Median float64 `json:"median"`
	// Lo is the lower end of the median's interval at kernelConfidence.
	Lo float64 `json:"lo"`
	// Hi is the upper end of that interval.
	Hi float64 `json:"hi"`
	// Verdict is a gate's outcome: "pass", "fail" or "unresolved".
	Verdict string `json:"verdict,omitempty"`
}

// RunInfo identifies a bench run: the host, its width and the build.
type RunInfo struct {
	// Host names the machine: hostname, CPUs, platform, toolchain and,
	// where the OS reports it, the CPU model.
	Host string `json:"host"`
	// GOMAXPROCS is the Go scheduler's parallelism during the run.
	GOMAXPROCS int `json:"gomaxprocs"`
	// Threads is the worker count of the arms that do not sweep widths
	// (0 = GOMAXPROCS).
	Threads int `json:"threads"`
	// Commit is the build's VCS revision, "+modified" when the tree had
	// uncommitted changes, "unknown" outside a repository.
	Commit string `json:"commit"`
}

// runInfo describes this run at threads workers.
func runInfo(threads int) RunInfo {
	return RunInfo{Host: kernelHost(), GOMAXPROCS: runtime.GOMAXPROCS(0), Threads: threads, Commit: kernelCommit()}
}

// KernelsReport is the BENCH_kernels.json document.
type KernelsReport struct {
	RunInfo
	// Scale is log2 of the workloads' row count.
	Scale int `json:"scale"`
	// Confidence is each look's interval coverage.
	Confidence float64 `json:"confidence"`
	// Points holds every case.
	Points []KernelPoint `json:"points"`
	// Gates holds the judged rows.
	Gates []KernelRow `json:"gates"`
	// Ratios holds the reported, ungated rows.
	Ratios []KernelRow `json:"ratios"`
}

// RunKernels times every case of the table at 2^scale rows and reads
// every row: each reported row at the first look, each gate until it
// resolves or reaches its cap.
func RunKernels(scale, threads int) (*KernelsReport, error) {
	rep := &KernelsReport{RunInfo: runInfo(threads), Scale: scale, Confidence: kernelConfidence}
	for _, w := range KernelWorkloads(scale, threads) {
		if err := rep.run(w); err != nil {
			return nil, err
		}
	}
	return rep, nil
}

func (rep *KernelsReport) run(w KernelWorkload) error {
	s, err := w.Setup()
	if err != nil {
		return err
	}
	arms := s.Arms()
	times, err := timeRounds(arms)
	if err != nil {
		return fmt.Errorf("%s: %w", w.Name, err)
	}
	medians := make([]float64, len(w.Arms))
	for i, arm := range w.Arms {
		medians[i], _, _ = medianInterval(times[i])
		pt := KernelPoint{Workload: w.Name, Arm: arm.Name, Rounds: firstLook, Seconds: medians[i]}
		if arm.Opt.Algorithm == core.AlgoHybrid {
			pt.FamilyRows = map[string]int{}
			for f, c := range s.plans[i].FamilyRows() {
				if c > 0 {
					pt.FamilyRows[core.Family(f).String()] = c
				}
			}
		}
		rep.Points = append(rep.Points, pt)
	}
	for _, row := range w.kernelRows() {
		num, den := w.arm(row.Num, medians), w.arm(row.Den, medians)
		row.Num = w.Arms[num].Name
		ratios := make([]float64, firstLook)
		spent := 0.0
		for r := range ratios {
			ratios[r] = times[num][r] / times[den][r]
			spent += times[num][r] + times[den][r]
		}
		if row.Op == "" {
			row.summarize(ratios)
			rep.Ratios = append(rep.Ratios, row)
			continue
		}
		// Past the first look the row times only its own two arms,
		// alternating which runs first.
		err := row.resolve(ratios, spent, func(round int) (float64, float64, error) {
			first, second := num, den
			if round%2 == 1 {
				first, second = den, num
			}
			t1, err := arms[first].timed()
			if err != nil {
				return 0, 0, err
			}
			t2, err := arms[second].timed()
			if err != nil {
				return 0, 0, err
			}
			if round%2 == 1 {
				return t2 / t1, t1 + t2, nil
			}
			return t1 / t2, t1 + t2, nil
		})
		if err != nil {
			return fmt.Errorf("%s: %w", w.Name, err)
		}
		rep.Gates = append(rep.Gates, row)
	}
	return nil
}

// kernelRows returns the rows read on w: its gates, then its reported
// ratios not already gated.
func (w KernelWorkload) kernelRows() []KernelRow {
	var rows []KernelRow
	for _, g := range kernelGates {
		if g.Workload == w.Name {
			rows = append(rows, g)
		}
	}
	gates := len(rows)
	for _, nd := range w.rows {
		if !slices.ContainsFunc(rows[:gates], func(g KernelRow) bool { return g.Num == nd[0] && g.Den == nd[1] }) {
			rows = append(rows, KernelRow{Workload: w.Name, Num: nd[0], Den: nd[1]})
		}
	}
	return rows
}

// arm returns the index of the arm called name, resolving bestSingle
// to the non-Hybrid arm with the lowest median.
func (w KernelWorkload) arm(name string, medians []float64) int {
	best := -1
	for i, arm := range w.Arms {
		if arm.Name == name {
			return i
		}
		if name == bestSingle && arm.Opt.Algorithm != core.AlgoHybrid && (best < 0 || medians[i] < medians[best]) {
			best = i
		}
	}
	if best < 0 {
		panic(fmt.Sprintf("bench: workload %s has no arm %q", w.Name, name)) // a case-table bug
	}
	return best
}

// resolve judges a gate row at each look, drawing rounds from next
// (which times round number round and returns its ratio and the
// seconds its executions took) until a look decides the row or the row
// reaches its cap. ratios holds the first look's rounds and spent
// their execution seconds.
func (r *KernelRow) resolve(ratios []float64, spent float64, next func(round int) (ratio, seconds float64, err error)) error {
	for look := firstLook; ; look += look / 2 {
		for len(ratios) < look {
			ratio, sec, err := next(len(ratios))
			if err != nil {
				return err
			}
			ratios = append(ratios, ratio)
			spent += sec
		}
		r.summarize(ratios)
		if r.Verdict = r.judge(); r.Verdict != "" {
			return nil
		}
		if spent >= rowBudget || look+look/2 > maxRounds {
			r.Verdict = verdictUnresolved
			return nil
		}
	}
}

// summarize records the median and interval of ratios.
func (r *KernelRow) summarize(ratios []float64) {
	r.Rounds = len(ratios)
	r.Median, r.Lo, r.Hi = medianInterval(ratios)
}

// judge reads a gate's verdict from its interval: pass when the
// interval clears the bound, fail when it lies wholly past it, and ""
// while it straddles the bound.
func (r *KernelRow) judge() string {
	switch {
	case r.Op == atLeast && r.Lo >= r.Bound, r.Op == atMost && r.Hi <= r.Bound:
		return verdictPass
	case r.Op == atLeast && r.Hi < r.Bound, r.Op == atMost && r.Lo > r.Bound:
		return verdictFail
	}
	return ""
}

// medianInterval returns the median of xs and a distribution-free
// interval for it: the k-th smallest and k-th largest of xs, for the
// largest k with P(Binomial(n, ½) < k) ≤ (1 − kernelConfidence)/2, so
// the interval covers the population median with probability at least
// kernelConfidence whatever the distribution. Below 8 values no k
// qualifies at 99%, and the interval is the whole range. xs must be
// non-empty; it is not modified.
func medianInterval(xs []float64) (med, lo, hi float64) {
	s := slices.Sorted(slices.Values(xs))
	n := len(s)
	med = s[n/2]
	if n%2 == 0 {
		med = (s[n/2-1] + s[n/2]) / 2
	}
	tail := (1 - kernelConfidence) / 2
	lgN, _ := math.Lgamma(float64(n + 1))
	cdf, j := 0.0, 0
	for ; ; j++ {
		lgJ, _ := math.Lgamma(float64(j + 1))
		lgRest, _ := math.Lgamma(float64(n - j + 1))
		if cdf += math.Exp(lgN - lgJ - lgRest - float64(n)*math.Ln2); cdf > tail {
			break // P(B ≤ j) > tail, so k = j
		}
	}
	k := max(j, 1)
	return med, s[k-1], s[n-k]
}

// WriteKernels renders the report as aligned tables.
func WriteKernels(w io.Writer, rep *KernelsReport) {
	fmt.Fprintf(w, "Kernel bench — scale %d, threads %d, GOMAXPROCS %d, %s, commit %s\n",
		rep.Scale, rep.Threads, rep.GOMAXPROCS, rep.Host, rep.Commit)
	fmt.Fprintf(w, "%-22s %-22s %12s %7s  %s\n", "workload", "arm", "median-ms", "rounds", "family mix")
	for _, p := range rep.Points {
		var mix []string
		for _, k := range slices.Sorted(maps.Keys(p.FamilyRows)) {
			mix = append(mix, fmt.Sprintf("%s:%d", k, p.FamilyRows[k]))
		}
		fmt.Fprintf(w, "%-22s %-22s %12.4f %7d  %s\n", p.Workload, p.Arm, 1e3*p.Seconds, p.Rounds, strings.Join(mix, " "))
	}
	rows := func(title string, rs []KernelRow) {
		fmt.Fprintf(w, "\n%s (time ratio num/den: median of per-round ratios, %.0f%% interval)\n", title, 100*rep.Confidence)
		fmt.Fprintf(w, "%-22s %-40s %7s %8s %19s  %s\n", "workload", "num/den", "rounds", "median", "interval", "gate")
		for _, r := range rs {
			gate := ""
			if r.Op != "" {
				gate = fmt.Sprintf("%s %.4f %s", r.Op, r.Bound, r.Verdict)
			}
			fmt.Fprintf(w, "%-22s %-40s %7d %8.4f   [%.4f, %.4f]  %s\n",
				r.Workload, r.Num+"/"+r.Den, r.Rounds, r.Median, r.Lo, r.Hi, gate)
		}
	}
	rows("Gates", rep.Gates)
	rows("Reported ratios", rep.Ratios)
}

// WriteJSON emits a report (KernelsReport, PaperReport) as an indented
// JSON document.
func WriteJSON(w io.Writer, rep any) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(rep)
}

// kernelHost names the machine a report was taken on, with its CPU
// model on Linux: gate verdicts can differ between CPU models.
func kernelHost() string {
	name, _ := os.Hostname() // an unnamed host is recorded as ""
	host := fmt.Sprintf("%s, %d CPUs, %s/%s, %s", name, runtime.NumCPU(), runtime.GOOS, runtime.GOARCH, runtime.Version())
	if runtime.GOOS != "linux" {
		return host
	}
	cpuinfo, _ := os.ReadFile("/proc/cpuinfo") // unreadable: no model
	if model := cpuModel(string(cpuinfo)); model != "" {
		host += ", " + model
	}
	return host
}

// cpuModel returns the first "model name" field of a /proc/cpuinfo
// text, or "" when it has none (as on some non-x86 kernels).
func cpuModel(cpuinfo string) string {
	for line := range strings.Lines(cpuinfo) {
		key, val, ok := strings.Cut(line, ":")
		if ok && strings.TrimSpace(key) == "model name" {
			return strings.TrimSpace(val)
		}
	}
	return ""
}

// kernelCommit returns the build's VCS revision.
func kernelCommit() string {
	rev, modified := "unknown", ""
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch {
			case s.Key == "vcs.revision":
				rev = s.Value
			case s.Key == "vcs.modified" && s.Value == "true":
				modified = "+modified"
			}
		}
	}
	return rev + modified
}
