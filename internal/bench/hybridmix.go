package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"sort"

	"maskedspgemm/internal/core"
	"maskedspgemm/internal/gen"
	"maskedspgemm/internal/semiring"
	"maskedspgemm/internal/sparse"
)

// The per-row poly-algorithm experiment (DESIGN.md §10): the same
// masked product timed under every single accumulator family and
// under AlgoHybrid's mixed per-row bindings. The headline workloads
// sweep the mask density across row bands (1e-4 … 0.5) over the
// suite's input shapes (uniform ER, skewed R-MAT), where no single
// family wins every band and the mixed binding should beat the best
// single one; the uniform-density controls check the selector does
// not regress when one family is globally optimal.
// cmd/mspgemm-bench's "hybridmix" subcommand emits the results as
// BENCH_hybridmix.json.

// HybridMixConfig configures RunHybridMix.
type HybridMixConfig struct {
	// Scale sets the workload dimension (2^Scale rows).
	Scale int
	// EdgeFactor is edges per vertex for the generated inputs.
	EdgeFactor int
	// Threads is the worker count (0 = GOMAXPROCS).
	Threads int
	// Reps is timing repetitions per point (best-of, see TimeBest).
	Reps int
	// Seed drives the generators.
	Seed uint64
}

// DefaultHybridMixConfig returns the CI-scale configuration.
func DefaultHybridMixConfig() HybridMixConfig {
	return HybridMixConfig{Scale: 12, EdgeFactor: 32, Reps: 3, Seed: 7}
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

// HybridMixPoint is one (workload, scheme) measurement.
type HybridMixPoint struct {
	// Workload names the input class ("er-sweep", "rmat-sweep",
	// "er-uniform-dense", "er-uniform-sparse", "wide-sparse").
	Workload string `json:"workload"`
	// Scheme is the algorithm ("MSA", ..., "Hybrid").
	Scheme string `json:"scheme"`
	// Seconds is the best-of-reps execution time.
	Seconds float64 `json:"seconds"`
	// VsBestSingle is the best single-family time on the same workload
	// divided by this point's time (> 1 on a Hybrid row means the
	// mixed binding beat every single family).
	VsBestSingle float64 `json:"vs_best_single"`
	// FamilyRows is the per-family row mix of the Hybrid plan (empty
	// for single-family rows).
	FamilyRows map[string]int `json:"family_rows,omitempty"`
}

// mixFamilies are the single-family schemes the mixed binding is
// compared against, in Family order.
var mixFamilies = []core.Algorithm{
	core.AlgoMSA, core.AlgoHash, core.AlgoMCA, core.AlgoHeap, core.AlgoInner,
	core.AlgoMaskedBit,
}

// mixWorkload is one named (mask, A, B) product.
type mixWorkload struct {
	name string
	mask *sparse.Pattern
	a, b *sparse.CSR[float64]
}

// hybridMixWorkloads builds the experiment inputs: two banded
// density sweeps over the suite's input shapes, two uniform controls
// bracketing the density range, and a wide product whose output has
// 256× more columns than rows (2²⁰ at the default scale) at input
// degree 2 and mask degree 256. There the width-n arrays of MSA and
// MaskedBit leave cache, which is the regime Heap, touching no
// accumulator, wins; it is why Heap stays on the Hybrid menu
// (DESIGN.md §10).
func hybridMixWorkloads(cfg HybridMixConfig) []mixWorkload {
	n := 1 << cfg.Scale
	er := gen.Symmetrize(gen.ErdosRenyi(n, cfg.EdgeFactor, cfg.Seed))
	rmat := gen.RMATSymmetric(gen.RMATConfig{Scale: cfg.Scale, EdgeFactor: cfg.EdgeFactor, Seed: cfg.Seed + 1})
	uniformDense := gen.ErdosRenyiPattern(n, n/16, cfg.Seed+4)
	uniformSparse := gen.ErdosRenyiPattern(n, 2, cfg.Seed+5)
	wideCols := n << 8
	return []mixWorkload{
		{"er-sweep", BandedMask(n, SweepDensities, cfg.Seed+2), er, er},
		{"rmat-sweep", BandedMask(n, SweepDensities, cfg.Seed+3), rmat, rmat},
		{"er-uniform-dense", uniformDense, er, er},
		{"er-uniform-sparse", uniformSparse, er, er},
		{"wide-sparse", gen.Random(n, wideCols, 256, cfg.Seed+8).PatternView(),
			gen.Random(n, n, 2, cfg.Seed+6), gen.Random(n, wideCols, 2, cfg.Seed+7)},
	}
}

// RunHybridMix times every single accumulator family and the mixed
// per-row binding on each workload.
func RunHybridMix(cfg HybridMixConfig) ([]HybridMixPoint, error) {
	sr := semiring.PlusTimes[float64]{}
	var pts []HybridMixPoint
	for _, wl := range hybridMixWorkloads(cfg) {
		bestSingle := 0.0
		var wlPts []HybridMixPoint
		for _, algo := range append(append([]core.Algorithm{}, mixFamilies...), core.AlgoHybrid) {
			opt := core.Options{Algorithm: algo, Threads: cfg.Threads, ReuseOutput: true}
			plan, err := core.NewPlan(sr, wl.mask, wl.a, wl.b, opt, nil)
			if err != nil {
				return nil, err
			}
			d, err := TimeBest(cfg.Reps, func() error {
				_, err := plan.Execute(wl.a, wl.b)
				return err
			})
			if err != nil {
				return nil, err
			}
			pt := HybridMixPoint{Workload: wl.name, Scheme: algo.String(), Seconds: d.Seconds()}
			if algo == core.AlgoHybrid {
				// Straight from the plan's run encoding — exactly what
				// the timed executions dispatched.
				counts := plan.FamilyRows()
				pt.FamilyRows = make(map[string]int, len(counts))
				for f, c := range counts {
					if c > 0 {
						pt.FamilyRows[core.Family(f).String()] = c
					}
				}
			} else if bestSingle == 0 || d.Seconds() < bestSingle {
				bestSingle = d.Seconds()
			}
			wlPts = append(wlPts, pt)
		}
		for i := range wlPts {
			if wlPts[i].Seconds > 0 {
				wlPts[i].VsBestSingle = bestSingle / wlPts[i].Seconds
			}
		}
		pts = append(pts, wlPts...)
	}
	return pts, nil
}

// WriteHybridMix renders the experiment as an aligned table.
func WriteHybridMix(w io.Writer, cfg HybridMixConfig, pts []HybridMixPoint) {
	fmt.Fprintf(w, "Per-row poly-algorithm experiment — mask-density sweep, scale %d, ef %d\n", cfg.Scale, cfg.EdgeFactor)
	fmt.Fprintf(w, "%-18s %-8s %12s %14s  %s\n", "workload", "scheme", "seconds", "vs-best-single", "family mix")
	for _, p := range pts {
		mix := ""
		if len(p.FamilyRows) > 0 {
			keys := make([]string, 0, len(p.FamilyRows))
			for k := range p.FamilyRows {
				keys = append(keys, k)
			}
			sort.Strings(keys)
			for _, k := range keys {
				mix += fmt.Sprintf("%s:%d ", k, p.FamilyRows[k])
			}
		}
		fmt.Fprintf(w, "%-18s %-8s %12.6f %13.2fx  %s\n", p.Workload, p.Scheme, p.Seconds, p.VsBestSingle, mix)
	}
}

// hybridMixJSONDoc is the BENCH_hybridmix.json envelope.
type hybridMixJSONDoc struct {
	// Config echoes the experiment configuration.
	Config HybridMixConfig `json:"config"`
	// GOMAXPROCS records the host parallelism the numbers were taken
	// at.
	GOMAXPROCS int `json:"gomaxprocs"`
	// Points holds the measurements.
	Points []HybridMixPoint `json:"points"`
}

// WriteHybridMixJSON emits the experiment as the BENCH_hybridmix.json
// document consumed by the perf trajectory.
func WriteHybridMixJSON(w io.Writer, cfg HybridMixConfig, pts []HybridMixPoint) error {
	doc := hybridMixJSONDoc{Config: cfg, GOMAXPROCS: runtime.GOMAXPROCS(0), Points: pts}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(doc)
}
