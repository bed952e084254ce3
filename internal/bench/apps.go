package bench

import (
	"fmt"
	"io"
	"strconv"
	"time"

	"maskedspgemm/internal/core"
	"maskedspgemm/internal/gen"
	"maskedspgemm/internal/graph"
	"maskedspgemm/internal/perfprof"
	"maskedspgemm/internal/sparse"
)

// AppKind selects which benchmark application a profile run measures.
type AppKind int

const (
	// AppTriangleCount measures the masked product of §8.2.
	AppTriangleCount AppKind = iota
	// AppKTruss measures the iterative pruning of §8.3 (k = 5).
	AppKTruss
	// AppBetweenness measures the batched BC of §8.4.
	AppBetweenness
)

// String names the application.
func (a AppKind) String() string {
	switch a {
	case AppTriangleCount:
		return "triangle-count"
	case AppKTruss:
		return "k-truss"
	default:
		return "betweenness"
	}
}

// RateUnit names the application's rate: GFLOPS for TC and k-truss,
// MTEPS for BC.
func (a AppKind) RateUnit() string {
	if a == AppBetweenness {
		return "MTEPS"
	}
	return "GFLOPS"
}

// AppArms returns one timed arm per (width, scheme) pair, width-major,
// each running app on g at that many workers (0 = GOMAXPROCS) the way
// the paper's figures time it:
//   - triangle counting times CountWith on a plan built here, once, with
//     pooled output (§8.2: "we only report the Masked SpGEMM execution
//     time"); CountWith consumes each product before it returns, so no
//     result escapes an execution;
//   - k-truss (order k, paper 5; 0 = 5) times the whole pruning loop;
//   - betweenness (a batch of that many sources, paper 512; 0 = 64)
//     reads its masked-SpGEMM time (§8.4).
//
// Each arm's Rate is the figure's y value at a time: 2 flops per
// multiply-add, and TEPS = batch × edges / time (§8.4, HPCS SSCA#2).
func AppArms(app AppKind, g *sparse.CSR[float64], schemes []Scheme, widths []int, k, batch int) ([]TimedArm, error) {
	if k == 0 {
		k = 5
	}
	if batch == 0 {
		batch = 64
	}
	var tc *graph.TCWorkload
	var tcGflop float64
	if app == AppTriangleCount {
		tc = graph.PrepareTriangleCount(g)
		tcGflop = 2 * float64(tc.Flops()) / 1e9
	}
	var arms []TimedArm
	for _, threads := range widths {
		for _, s := range schemes {
			opt := s.WithThreads(threads).Opt
			arm := TimedArm{Name: s.Name}
			switch app {
			case AppTriangleCount:
				opt.ReuseOutput = true
				plan, err := tc.NewPlan(opt, nil)
				if err != nil {
					return nil, fmt.Errorf("%s: %w", s.Name, err)
				}
				arm.Time = func() (float64, error) {
					start := time.Now()
					_, err := tc.CountWith(plan)
					return time.Since(start).Seconds(), err
				}
				arm.Rate = func(sec float64) float64 { return tcGflop / sec }
			case AppKTruss:
				var flops int64
				arm.Time = func() (float64, error) {
					start := time.Now()
					res, err := graph.KTruss(g, k, opt)
					if err != nil {
						return 0, err
					}
					flops = res.Flops
					return time.Since(start).Seconds(), nil
				}
				arm.Rate = func(sec float64) float64 { return 2 * float64(flops) / 1e9 / sec }
			default:
				sources := graph.BatchSources(g.Rows, batch)
				mte := float64(len(sources)) * float64(g.NNZ()) / 2 / 1e6
				arm.Time = func() (float64, error) {
					res, err := graph.Betweenness(g, sources, opt)
					if err != nil {
						return 0, err
					}
					return res.MaskedTime.Seconds(), nil
				}
				arm.Rate = func(sec float64) float64 { return mte / sec }
			}
			arms = append(arms, arm)
		}
	}
	return arms, nil
}

// Point is one arm's timing in a paper figure: the median of its
// rounds' seconds with the median's interval, and the figure's rate at
// the median.
type Point struct {
	// Group names the arm's cell group: a suite instance, an R-MAT
	// scale, a thread count or a Fig. 7 cell.
	Group string `json:"group"`
	// Scheme is the arm's scheme.
	Scheme string `json:"scheme"`
	// Rounds is the number of timed executions.
	Rounds int `json:"rounds"`
	// Seconds is their median.
	Seconds float64 `json:"seconds"`
	// Lo is the lower end of the median's interval at kernelConfidence.
	Lo float64 `json:"lo"`
	// Hi is the upper end of that interval.
	Hi float64 `json:"hi"`
	// Rate is the figure's rate at the median (GFLOPS or MTEPS); zero in
	// figures without one.
	Rate float64 `json:"rate,omitempty"`
}

// PaperReport is the BENCH_paper.json document: every figure's points
// from one "mspgemm-bench all" run.
type PaperReport struct {
	RunInfo
	// ScaleMax caps the figures' R-MAT and suite scales.
	ScaleMax int `json:"scale_max"`
	// Confidence is each point's interval coverage.
	Confidence float64 `json:"confidence"`
	// Figures holds the figures in the order they ran.
	Figures []PaperFigure `json:"figures"`
}

// PaperFigure is one figure's points, in the order they were timed.
type PaperFigure struct {
	// Figure names the figure's subcommand ("fig7" … "fig16").
	Figure string `json:"figure"`
	// Points holds one point per (group, scheme).
	Points []Point `json:"points"`
}

// NewPaperReport starts the document of a run at threads workers and
// the scale cap scaleMax.
func NewPaperReport(threads, scaleMax int) *PaperReport {
	return &PaperReport{RunInfo: runInfo(threads), ScaleMax: scaleMax, Confidence: kernelConfidence}
}

// timeGroups times each group's arms with the round runner, in turn,
// and returns one point per arm. arms builds group i's arms, and so its
// inputs, only when the group's turn comes.
func timeGroups(groups []string, arms func(i int) ([]TimedArm, error)) ([]Point, error) {
	var pts []Point
	for i, group := range groups {
		as, err := arms(i)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", group, err)
		}
		times, err := timeRounds(as)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", group, err)
		}
		for j, a := range as {
			p := Point{Group: group, Scheme: a.Name, Rounds: len(times[j])}
			p.Seconds, p.Lo, p.Hi = medianInterval(times[j])
			if a.Rate != nil {
				p.Rate = a.Rate(p.Seconds)
			}
			pts = append(pts, p)
		}
	}
	return pts, nil
}

// groupsOf splits pts into runs of one group each, in order.
func groupsOf(pts []Point) [][]Point {
	var out [][]Point
	for i := 0; i < len(pts); {
		j := i + 1
		for j < len(pts) && pts[j].Group == pts[i].Group {
			j++
		}
		out = append(out, pts[i:j])
		i = j
	}
	return out
}

// ProfileConfig parameterizes a performance-profile experiment (Figs 8,
// 9, 12, 13, 16).
type ProfileConfig struct {
	// App selects the measured application.
	App AppKind
	// Instances is the graph suite to sweep.
	Instances []gen.Instance
	// Schemes lists the schemes compared.
	Schemes []Scheme
	// Threads is the worker count (0 = GOMAXPROCS).
	Threads int
	// KTrussK is the truss order (paper: 5).
	KTrussK int
	// BCBatch is the betweenness source-batch size (paper: 512).
	BCBatch int
}

// RunProfile times every scheme on every instance, one cell group per
// instance.
func RunProfile(cfg ProfileConfig) ([]Point, error) {
	groups := make([]string, len(cfg.Instances))
	for i, inst := range cfg.Instances {
		groups[i] = inst.Name
	}
	return timeGroups(groups, func(i int) ([]TimedArm, error) {
		return AppArms(cfg.App, cfg.Instances[i].Build(), cfg.Schemes, []int{cfg.Threads}, cfg.KTrussK, cfg.BCBatch)
	})
}

// profile computes the Dolan–Moré profile of a profile run's medians.
func profile(pts []Point) *perfprof.Profile {
	results := make([]perfprof.Result, len(pts))
	for i, p := range pts {
		results[i] = perfprof.Result{Instance: p.Group, Scheme: p.Scheme, Seconds: p.Seconds}
	}
	return perfprof.Compute(results)
}

// WriteProfile renders the profile table of a profile run's points with
// a figure caption.
func WriteProfile(w io.Writer, caption string, pts []Point) {
	p := profile(pts)
	fmt.Fprintf(w, "%s\n", caption)
	fmt.Fprintf(w, "(fraction of test cases within factor x of the best; %d instances)\n", len(p.Instances))
	io.WriteString(w, p.Render(perfprof.DefaultXs()))
	fmt.Fprintf(w, "winner: %s (best on %.0f%% of cases)\n", p.Best(2.4), 100*p.WinFraction(p.Best(2.4)))
}

// ScaleSweepConfig parameterizes Figures 10/14/15.
type ScaleSweepConfig struct {
	// App selects the measured application.
	App AppKind
	// Scales lists the R-MAT scales swept.
	Scales []int
	// EdgeFactor is the R-MAT edge factor.
	EdgeFactor int
	// Schemes lists the schemes compared.
	Schemes []Scheme
	// Threads is the worker count (0 = GOMAXPROCS).
	Threads int
	// KTrussK is the truss order (paper: 5).
	KTrussK int
	// BCBatch is the betweenness source-batch size.
	BCBatch int
	// Seed feeds the graph generator.
	Seed uint64
}

// RunScaleSweep measures rate-vs-scale series on R-MAT graphs, one cell
// group per scale.
func RunScaleSweep(cfg ScaleSweepConfig) ([]Point, error) {
	if cfg.EdgeFactor == 0 {
		cfg.EdgeFactor = gen.DefaultEdgeFactor
	}
	groups := make([]string, len(cfg.Scales))
	for i, scale := range cfg.Scales {
		groups[i] = strconv.Itoa(scale)
	}
	return timeGroups(groups, func(i int) ([]TimedArm, error) {
		scale := cfg.Scales[i]
		g := gen.RMATSymmetric(gen.RMATConfig{Scale: scale, EdgeFactor: cfg.EdgeFactor, Seed: cfg.Seed + uint64(scale)})
		return AppArms(cfg.App, g, cfg.Schemes, []int{cfg.Threads}, cfg.KTrussK, cfg.BCBatch)
	})
}

// ThreadSweepConfig parameterizes Figure 11.
type ThreadSweepConfig struct {
	// Scale is the R-MAT scale of the fixed graph.
	Scale int
	// EdgeFactor is the R-MAT edge factor.
	EdgeFactor int
	// Threads lists the worker counts swept.
	Threads []int
	// Schemes lists the schemes compared.
	Schemes []Scheme
	// Seed feeds the graph generator.
	Seed uint64
}

// RunThreadSweep measures TC GFLOPS across thread counts on one R-MAT
// graph, as one cell group: every (threads, scheme) arm runs in every
// round, and a point's group is its thread count.
func RunThreadSweep(cfg ThreadSweepConfig) ([]Point, error) {
	if cfg.EdgeFactor == 0 {
		cfg.EdgeFactor = gen.DefaultEdgeFactor
	}
	g := gen.RMATSymmetric(gen.RMATConfig{Scale: cfg.Scale, EdgeFactor: cfg.EdgeFactor, Seed: cfg.Seed + 1})
	pts, err := timeGroups([]string{"threads"}, func(int) ([]TimedArm, error) {
		return AppArms(AppTriangleCount, g, cfg.Schemes, cfg.Threads, 0, 0)
	})
	for i := range pts {
		pts[i].Group = strconv.Itoa(cfg.Threads[i/len(cfg.Schemes)])
	}
	return pts, err
}

// WriteSeries renders a rate figure: one row per scheme, one column per
// group (corner labels both), the figure's rate at each median.
func WriteSeries(w io.Writer, caption, corner, unit string, pts []Point) {
	fmt.Fprintf(w, "%s\n", caption)
	fmt.Fprintf(w, "%-12s", corner)
	groups := groupsOf(pts)
	for _, g := range groups {
		fmt.Fprintf(w, " %9s", g[0].Group)
	}
	fmt.Fprintf(w, "   (%s)\n", unit)
	if len(groups) == 0 {
		return
	}
	for j, p := range groups[0] {
		fmt.Fprintf(w, "%-12s", p.Scheme)
		for _, g := range groups {
			fmt.Fprintf(w, " %9.3f", g[j].Rate)
		}
		fmt.Fprintln(w)
	}
}

// CheckCorrectness cross-checks that every scheme in schemes produces
// the same triangle count on a small graph; harness self-test used by
// the CLI before long runs.
func CheckCorrectness(threads int) error {
	g := gen.RMATSymmetric(gen.RMATConfig{Scale: 8, EdgeFactor: 8, Seed: 5})
	tc := graph.PrepareTriangleCount(g)
	want, err := tc.Count(core.Options{Algorithm: core.AlgoMSA, Threads: threads})
	if err != nil {
		return err
	}
	for _, s := range append(OurSchemes(), BaselineSchemes()...) {
		s = s.WithThreads(threads)
		got, err := tc.Count(s.Opt)
		if err != nil {
			return fmt.Errorf("self-test %s: %w", s.Name, err)
		}
		if got != want {
			return fmt.Errorf("self-test %s: triangle count %d != %d", s.Name, got, want)
		}
	}
	return nil
}
