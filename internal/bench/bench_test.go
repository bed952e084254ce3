package bench

import (
	"bytes"
	"cmp"
	"encoding/json"
	"errors"
	"fmt"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"testing"

	"maskedspgemm/internal/gen"
	"maskedspgemm/internal/sparse"
)

func TestSchemeEnumerations(t *testing.T) {
	ours := OurSchemes()
	if len(ours) != 12 {
		t.Fatalf("OurSchemes = %d, want 12 (6 algorithms × 2 phases)", len(ours))
	}
	seen := map[string]bool{}
	for _, s := range ours {
		if seen[s.Name] {
			t.Fatalf("duplicate scheme %q", s.Name)
		}
		seen[s.Name] = true
		if !strings.HasSuffix(s.Name, "-1P") && !strings.HasSuffix(s.Name, "-2P") {
			t.Errorf("scheme name %q missing phase suffix", s.Name)
		}
	}
	if len(BestThreeSchemes()) != 3 {
		t.Error("BestThreeSchemes should have 3 entries")
	}
	if len(BaselineSchemes()) != 2 {
		t.Error("BaselineSchemes should have 2 entries")
	}
	if len(Fig7Schemes()) != 6 {
		t.Error("Fig7Schemes should have 6 entries")
	}
	for _, s := range ComplementSchemes() {
		if strings.Contains(s.Name, "MCA") {
			t.Error("MCA cannot appear in complement schemes")
		}
	}
	s := OurSchemes()[0].WithThreads(3)
	if s.Opt.Threads != 3 {
		t.Error("WithThreads did not pin thread count")
	}
}

// TestTimeRounds drives the round runner with fake arms: every arm runs
// once per round and firstLook times in all, the order changes between
// rounds and repeats between runs, and an arm's error stops the run
// and names that arm.
func TestTimeRounds(t *testing.T) {
	const n = 4
	run := func() [][]int {
		var orders [][]int
		var round []int
		arms := make([]TimedArm, n)
		for i := range arms {
			arms[i] = TimedArm{Name: fmt.Sprintf("arm%d", i), Time: func() (float64, error) {
				if round = append(round, i); len(round) == n {
					orders, round = append(orders, round), nil
				}
				return float64(i + 1), nil
			}}
		}
		times, err := timeRounds(arms)
		if err != nil {
			t.Fatal(err)
		}
		for i, ts := range times {
			if len(ts) != firstLook || slices.ContainsFunc(ts, func(x float64) bool { return x != float64(i+1) }) {
				t.Errorf("arm %d times %v, want %d of its own", i, ts, firstLook)
			}
		}
		if len(orders) != firstLook || len(round) != 0 {
			t.Fatalf("%d whole rounds and %d calls over, want %d and 0", len(orders), len(round), firstLook)
		}
		for r, order := range orders {
			if !slices.Equal(slices.Sorted(slices.Values(order)), []int{0, 1, 2, 3}) {
				t.Errorf("round %d ran %v, want every arm once", r, order)
			}
		}
		return orders
	}
	first := run()
	if !slices.ContainsFunc(first[1:], func(o []int) bool { return !slices.Equal(o, first[0]) }) {
		t.Error("every round ran the arms in one order")
	}
	if again := run(); !reflect.DeepEqual(again, first) {
		t.Errorf("a second run's orders %v differ from the first's %v", again, first)
	}

	boom := errors.New("boom")
	calls, failed := 0, false
	arms := make([]TimedArm, n)
	for i := range arms {
		arms[i] = TimedArm{Name: fmt.Sprintf("arm%d", i), Time: func() (float64, error) {
			if failed {
				t.Errorf("arm %d ran after an arm failed", i)
			}
			if calls++; i == 2 && calls > n {
				failed = true
				return 0, boom
			}
			return 1, nil
		}}
	}
	if _, err := timeRounds(arms); !errors.Is(err, boom) || !strings.Contains(err.Error(), "arm2") {
		t.Errorf("err = %v, want boom naming arm2", err)
	}
}

// checkPoints asserts that pts holds want points, each the median of
// firstLook rounds inside its interval.
func checkPoints(t *testing.T, what string, pts []Point, want int) {
	t.Helper()
	if len(pts) != want {
		t.Fatalf("%s: %d points, want %d", what, len(pts), want)
	}
	for _, p := range pts {
		if p.Rounds != firstLook || p.Seconds <= 0 || !(p.Lo <= p.Seconds && p.Seconds <= p.Hi) {
			t.Errorf("%s: point %+v", what, p)
		}
	}
}

func TestRunFig7Tiny(t *testing.T) {
	cfg := Fig7Config{
		Dim:          256,
		MaskDegrees:  []int{2, 16},
		InputDegrees: []int{2, 16},
		Seed:         1,
	}
	pts, err := RunFig7(cfg)
	if err != nil {
		t.Fatal(err)
	}
	checkPoints(t, "fig7", pts, 4*len(Fig7Schemes()))
	cells := groupsOf(pts)
	if len(cells) != 4 || cells[1][0].Group != "d_in=2/d_m=16" {
		t.Fatalf("cells %v, want 4 row-major", cells)
	}
	// Each name the grid prints is its cell's lowest-median family.
	var buf bytes.Buffer
	WriteFig7(&buf, cfg, pts)
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2+len(cfg.InputDegrees) || !strings.HasPrefix(lines[0], "Figure 7") {
		t.Fatalf("WriteFig7 layout:\n%s", buf.String())
	}
	for i, line := range lines[2:] {
		row := strings.Fields(line)
		if len(row) != 1+len(cfg.MaskDegrees) || row[0] != strconv.Itoa(cfg.InputDegrees[i]) {
			t.Fatalf("WriteFig7 row %q", line)
		}
		for j, name := range row[1:] {
			cell := cells[i*len(cfg.MaskDegrees)+j]
			best := slices.MinFunc(cell, func(a, b Point) int { return cmp.Compare(a.Seconds, b.Seconds) })
			if name != best.Scheme {
				t.Errorf("cell %s: grid names %s, lowest median is %s", cell[0].Group, name, best.Scheme)
			}
		}
	}
}

func tinySuite() []gen.Instance {
	return []gen.Instance{
		{Name: "rmat-tiny", Build: func() *sparse.CSR[float64] {
			return gen.RMATSymmetric(gen.RMATConfig{Scale: 7, EdgeFactor: 8, Seed: 1})
		}},
		{Name: "er-tiny", Build: func() *sparse.CSR[float64] {
			return gen.Symmetrize(gen.ErdosRenyi(256, 8, 2))
		}},
	}
}

// TestRunProfileAllApps runs every application's profile, and the
// scheme lists of Figs 9 and 16, so the SS:GB-style baselines run on
// every test step.
func TestRunProfileAllApps(t *testing.T) {
	two := []Scheme{OurSchemes()[0], OurSchemes()[2]} // MSA-1P, Hash-1P
	for _, c := range []struct {
		app     AppKind
		schemes []Scheme
	}{
		{AppTriangleCount, two},
		{AppKTruss, two},
		{AppBetweenness, two},
		{AppTriangleCount, VsBaselineSchemes()},
		{AppBetweenness, Fig16Schemes()},
	} {
		pts, err := RunProfile(ProfileConfig{
			App: c.app, Instances: tinySuite(), Schemes: c.schemes, BCBatch: 8,
		})
		if err != nil {
			t.Fatalf("%v: %v", c.app, err)
		}
		checkPoints(t, c.app.String(), pts, 2*len(c.schemes))
		p := profile(pts)
		if len(p.Instances) != 2 || len(p.Schemes) != len(c.schemes) {
			t.Fatalf("%v: profile shape %d×%d", c.app, len(p.Instances), len(p.Schemes))
		}
		// Someone must be best on each instance.
		winners := 0.0
		for _, s := range p.Schemes {
			winners += p.WinFraction(s)
		}
		if winners < 1 {
			t.Errorf("%v: no winners recorded", c.app)
		}
		var buf bytes.Buffer
		WriteProfile(&buf, c.app.String(), pts)
		if !strings.Contains(buf.String(), "winner:") {
			t.Error("WriteProfile missing winner line")
		}
	}
}

func TestRunScaleSweep(t *testing.T) {
	for _, app := range []AppKind{AppTriangleCount, AppKTruss, AppBetweenness} {
		cfg := ScaleSweepConfig{
			App: app, Scales: []int{7, 8}, EdgeFactor: 8,
			Schemes: []Scheme{OurSchemes()[0]}, BCBatch: 8, Seed: 3,
		}
		pts, err := RunScaleSweep(cfg)
		if err != nil {
			t.Fatalf("%v: %v", app, err)
		}
		checkPoints(t, app.String(), pts, 2)
		for _, pt := range pts {
			if pt.Rate <= 0 {
				t.Errorf("%v: non-positive rate %+v", app, pt)
			}
		}
		var buf bytes.Buffer
		WriteSeries(&buf, "test", "scheme\\scale", app.RateUnit(), pts)
		if !strings.Contains(buf.String(), "MSA-1P") || !strings.Contains(buf.String(), app.RateUnit()) {
			t.Error("WriteSeries missing series or unit")
		}
	}
}

// TestWriteSeriesEmpty renders a sweep with no points (a scale cap below
// the sweep's first scale) as its caption and header only.
func TestWriteSeriesEmpty(t *testing.T) {
	var buf bytes.Buffer
	WriteSeries(&buf, "test", "scheme\\scale", "GFLOPS", nil)
	if got, want := buf.String(), fmt.Sprintf("test\n%-12s   (GFLOPS)\n", "scheme\\scale"); got != want {
		t.Errorf("WriteSeries(nil) = %q, want %q", got, want)
	}
}

func TestRunThreadSweep(t *testing.T) {
	cfg := ThreadSweepConfig{
		Scale: 7, EdgeFactor: 8, Threads: []int{1, 2},
		Schemes: []Scheme{OurSchemes()[0], OurSchemes()[2]}, Seed: 4,
	}
	pts, err := RunThreadSweep(cfg)
	if err != nil {
		t.Fatal(err)
	}
	checkPoints(t, "threads", pts, 4)
	for i, p := range pts {
		if want := strconv.Itoa(cfg.Threads[i/2]); p.Group != want || p.Scheme != cfg.Schemes[i%2].Name {
			t.Errorf("point %d = %s/%s, want %s/%s", i, p.Group, p.Scheme, want, cfg.Schemes[i%2].Name)
		}
	}
	var buf bytes.Buffer
	WriteSeries(&buf, "test", "scheme\\thr", "GFLOPS", pts)
	if !strings.Contains(buf.String(), "GFLOPS") {
		t.Error("WriteSeries missing rate name")
	}
}

func TestCheckCorrectness(t *testing.T) {
	if err := CheckCorrectness(2); err != nil {
		t.Fatal(err)
	}
}

// TestKernelsTiny runs the kernel bench end to end at scale 8: every
// case times positively, Hybrid points carry their family mix, the
// ablation binds no MaskedBit row, every gate is read on its workload,
// and the JSON document round-trips.
func TestKernelsTiny(t *testing.T) {
	rep, err := RunKernels(8, 2)
	if err != nil {
		t.Fatal(err)
	}
	cases := 0
	for _, w := range KernelWorkloads(8, 2) {
		cases += len(w.Arms)
	}
	if len(rep.Points) != cases {
		t.Fatalf("points = %d, want one per case (%d)", len(rep.Points), cases)
	}
	for _, p := range rep.Points {
		if p.Seconds <= 0 || p.Rounds != firstLook {
			t.Errorf("%s/%s: seconds %v over %d rounds", p.Workload, p.Arm, p.Seconds, p.Rounds)
		}
		switch p.Arm {
		case "Hybrid", hybridNoMaskedBit:
			if len(p.FamilyRows) == 0 {
				t.Errorf("%s/%s: missing family mix", p.Workload, p.Arm)
			}
			if _, ok := p.FamilyRows["MaskedBit"]; ok && p.Arm == hybridNoMaskedBit {
				t.Errorf("%s: ablated Hybrid bound MaskedBit rows", p.Workload)
			}
		}
	}
	if len(rep.Gates) != len(kernelGates) {
		t.Fatalf("gates = %d, want %d", len(rep.Gates), len(kernelGates))
	}
	for i, g := range rep.Gates {
		if g.Workload != kernelGates[i].Workload || g.Op != kernelGates[i].Op || g.Bound != kernelGates[i].Bound {
			t.Errorf("gate %d = %+v, want the row of %+v", i, g, kernelGates[i])
		}
		if g.Num == bestSingle || g.Rounds < firstLook || !(g.Lo <= g.Median && g.Median <= g.Hi) {
			t.Errorf("gate %d not read: %+v", i, g)
		}
		switch g.Verdict {
		case verdictPass, verdictFail, verdictUnresolved:
		default:
			t.Errorf("gate %d verdict %q", i, g.Verdict)
		}
	}
	for _, r := range rep.Ratios {
		if r.Rounds != firstLook || r.Verdict != "" || r.Median <= 0 {
			t.Errorf("reported ratio %+v", r)
		}
	}
	var buf bytes.Buffer
	WriteKernels(&buf, rep)
	for _, want := range []string{"er-dense", "MSA/MaskedBit", "MSA-t1", "token/no-token"} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("table missing %q", want)
		}
	}
	buf.Reset()
	if err := WriteJSON(&buf, rep); err != nil {
		t.Fatal(err)
	}
	var back KernelsReport
	if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
		t.Fatalf("BENCH_kernels.json round-trip: %v", err)
	}
	if !reflect.DeepEqual(&back, rep) {
		t.Errorf("JSON round-trip changed the report")
	}
}

// TestKernelJudge drives the gate judge with synthetic ratio series:
// a row passes only when its interval clears the bound, fails only
// when the interval lies wholly past it, and a row whose interval
// straddles the bound is unresolved at its cap, by rounds or by time.
func TestKernelJudge(t *testing.T) {
	// noisy returns the ratio series c·(1 + u), u uniform in ±spread.
	noisy := func(c, spread float64) func(int) float64 {
		rng := gen.NewRNG(9)
		return func(int) float64 { return c * (1 + spread*(2*rng.Float64()-1)) }
	}
	alternate := func(lo, hi float64) func(int) float64 {
		return func(round int) float64 { return []float64{lo, hi}[round%2] }
	}
	cases := []struct {
		name    string
		op      string
		bound   float64
		ratio   func(int) float64
		seconds float64 // per round
		verdict string
		rounds  int
	}{
		{"clear pass at most", atMost, 1.05, noisy(0.9, 0.02), 0, verdictPass, firstLook},
		{"clear pass at least", atLeast, 0.95, noisy(1.1, 0.02), 0, verdictPass, firstLook},
		{"clear fail at most", atMost, 1.07, noisy(1.3, 0.02), 0, verdictFail, firstLook},
		{"clear fail at least", atLeast, 1 / 1.05, noisy(0.8, 0.02), 0, verdictFail, firstLook},
		{"pass after more looks", atMost, 1.05, noisy(1.0, 0.2), 0, verdictPass, 0},
		{"straddles to the round cap", atMost, 1.05, alternate(0.9, 1.2), 0, verdictUnresolved, 1851},
		{"straddles to the time cap", atLeast, 0.95, alternate(0.9, 1.2), 0.5, verdictUnresolved, 22},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			row := KernelRow{Op: c.op, Bound: c.bound}
			ratios := make([]float64, firstLook)
			for r := range ratios {
				ratios[r] = c.ratio(r)
			}
			err := row.resolve(ratios, c.seconds*firstLook, func(round int) (float64, float64, error) {
				return c.ratio(round), c.seconds, nil
			})
			if err != nil {
				t.Fatal(err)
			}
			if row.Verdict != c.verdict {
				t.Fatalf("verdict %q after %d rounds (median %.3f in [%.3f, %.3f]), want %q",
					row.Verdict, row.Rounds, row.Median, row.Lo, row.Hi, c.verdict)
			}
			if c.rounds > 0 && row.Rounds != c.rounds {
				t.Errorf("resolved after %d rounds, want %d", row.Rounds, c.rounds)
			}
			if c.rounds == 0 && row.Rounds <= firstLook {
				t.Errorf("resolved at the first look; the case needs more rounds")
			}
			if row.Rounds > maxRounds {
				t.Errorf("%d rounds past the cap %d", row.Rounds, maxRounds)
			}
		})
	}
	t.Run("error stops the row", func(t *testing.T) {
		row := KernelRow{Op: atMost, Bound: 1.05}
		want := errors.New("boom")
		err := row.resolve(make([]float64, 1), 0, func(int) (float64, float64, error) { return 0, 0, want })
		if !errors.Is(err, want) {
			t.Fatalf("err = %v, want %v", err, want)
		}
	})
}

// TestCPUModel reads the CPU model from fixed /proc/cpuinfo texts: the
// first processor's "model name", trimmed, and "" from a text with
// none, as an arm64 kernel writes it.
func TestCPUModel(t *testing.T) {
	for _, c := range []struct{ name, cpuinfo, want string }{
		{"x86", "processor\t: 0\nvendor_id\t: GenuineIntel\nmodel\t\t: 85\nmodel name\t: Intel(R) Xeon(R) Platinum 8259CL CPU @ 2.50GHz\nflags\t\t: fpu\n\nprocessor\t: 1\nmodel name\t: another\n", "Intel(R) Xeon(R) Platinum 8259CL CPU @ 2.50GHz"},
		{"no-final-newline", "model name\t: AMD EPYC 7763 64-Core Processor", "AMD EPYC 7763 64-Core Processor"},
		{"arm64", "processor\t: 0\nBogoMIPS\t: 243.75\nCPU implementer\t: 0x41\n", ""},
		{"empty", "", ""},
	} {
		if got := cpuModel(c.cpuinfo); got != c.want {
			t.Errorf("%s: cpuModel = %q, want %q", c.name, got, c.want)
		}
	}
}

// TestMedianInterval pins the median (the mean of the middle two at
// even length) and the order statistics of the 99% interval.
func TestMedianInterval(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i) // descending: the function must sort
		}
		return xs
	}
	cases := []struct {
		xs          []float64
		med, lo, hi float64
	}{
		{[]float64{4, 1, 3, 2}, 2.5, 1, 4}, // below 8 values: the whole range
		{seq(7), 4, 1, 7},                  // P(B(7,½) = 0) = 1/128 > 0.005
		{seq(8), 4.5, 1, 8},                // 1/256 ≤ 0.005 < 9/256
		{seq(15), 8, 3, 13},                // P(B ≤ 2) = 121/32768 ≤ 0.005 < P(B ≤ 3)
		{seq(16), 8.5, 3, 14},              // P(B ≤ 2) = 137/65536, P(B ≤ 3) = 697/65536
		{[]float64{2, 2, 2, 2, 2, 2, 2, 2, 2}, 2, 2, 2},
	}
	for _, c := range cases {
		in := slices.Clone(c.xs)
		med, lo, hi := medianInterval(c.xs)
		if med != c.med || lo != c.lo || hi != c.hi {
			t.Errorf("medianInterval(%v) = %v [%v, %v], want %v [%v, %v]", in, med, lo, hi, c.med, c.lo, c.hi)
		}
		if !slices.Equal(in, c.xs) {
			t.Errorf("medianInterval modified its input")
		}
	}
}

// TestGeneratorPins pins the generators the request-level trajectory
// builds tc-skew-ref and sweep-cold-ref from: their outputs must not
// change while the trajectory's committed baselines stand.
func TestGeneratorPins(t *testing.T) {
	g := SkewedGraph(12, 8, 1)
	if got := g.PatternView().Fingerprint(); got != 0xe054e2aacc8c458b {
		t.Errorf("SkewedGraph(12, 8, 1) pattern fingerprint = %#016x", got)
	}
	if got := sparse.ValuesFingerprint(g.Val); got != 0x6f77c82fb414792a {
		t.Errorf("SkewedGraph(12, 8, 1) values fingerprint = %#016x", got)
	}
	if got := BandedMask(1<<12, SweepDensities, 3).Fingerprint(); got != 0xb3aa68a6063f8591 {
		t.Errorf("BandedMask(1<<12, SweepDensities, 3) fingerprint = %#016x", got)
	}
}

// TestSkewedGraphIsSkewed pins the adversarial construction: after the
// degree-ascending relabel the heaviest rows are adjacent at the tail,
// so the last DefaultGrain-row blocks hold a disproportionate share of
// the flops and are discovered last by fixed-grain claiming.
func TestSkewedGraphIsSkewed(t *testing.T) {
	g := SkewedGraph(10, 16, 3)
	for i := 1; i < g.Rows; i++ {
		if g.RowNNZ(i) < g.RowNNZ(i-1) {
			t.Fatalf("degrees not non-decreasing at row %d", i)
		}
	}
	if g.RowNNZ(g.Rows-1) < 8*int(g.NNZ())/g.Rows {
		t.Fatalf("tail row degree %d is not a hub (mean %d)", g.RowNNZ(g.Rows-1), int(g.NNZ())/g.Rows)
	}
}
