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
)

// The MaskedBit accumulator experiment (DESIGN.md §12): the bitmap-state
// accumulator against the byte-state MSA on the workload class it was
// built for — dense-mask rows whose cost is dominated by the Begin/Gather
// walks rather than by products — plus the banded density sweeps and a
// skewed R-MAT input, where the interesting question is whether adding
// MaskedBit to the Hybrid selector's menu helps or hurts the mixed
// binding. Every workload therefore times each single family, the
// default Hybrid (menu includes MaskedBit), and a Hybrid restricted to
// the pre-MaskedBit menu. cmd/mspgemm-bench's "bitmap" subcommand emits
// the results as BENCH_bitmap.json; CI gates on the er-dense MaskedBit
// point staying at least at MSA parity.

// HybridNoMaskedBitScheme names the ablation scheme: the Hybrid
// selector restricted to its menu without MaskedBit.
const HybridNoMaskedBitScheme = "Hybrid-noMaskedBit"

// BitmapMixConfig configures RunBitmapMix.
type BitmapMixConfig struct {
	// Scale sets the workload dimension (2^Scale rows).
	Scale int
	// EdgeFactor is edges per vertex for the generated inputs. The
	// dense-mask workload keeps inputs at this sparsity while the mask
	// carries n/4 entries per row, which is what makes its rows
	// walk-dominated.
	EdgeFactor int
	// Threads is the worker count (0 = GOMAXPROCS).
	Threads int
	// Reps is timing repetitions per point (best-of, see TimeBest).
	Reps int
	// Seed drives the generators.
	Seed uint64
}

// DefaultBitmapMixConfig returns the CI-scale configuration.
func DefaultBitmapMixConfig() BitmapMixConfig {
	return BitmapMixConfig{Scale: 12, EdgeFactor: 8, Reps: 3, Seed: 11}
}

// BitmapMixPoint is one (workload, scheme) measurement.
type BitmapMixPoint struct {
	// Workload names the input class ("er-dense", "er-sweep",
	// "rmat-sweep", "er-uniform-sparse").
	Workload string `json:"workload"`
	// Scheme is the algorithm ("MSA", ..., "MaskedBit", "Hybrid",
	// "Hybrid-noMaskedBit").
	Scheme string `json:"scheme"`
	// Seconds is the best-of-reps execution time.
	Seconds float64 `json:"seconds"`
	// VsMSA is the MSA time on the same workload divided by this
	// point's time (> 1 means faster than MSA). This is the ratio the
	// CI gate asserts for MaskedBit on the dense-mask workload.
	VsMSA float64 `json:"vs_msa"`
	// VsBestSingle is the best single-family time on the same workload
	// divided by this point's time.
	VsBestSingle float64 `json:"vs_best_single"`
	// FamilyRows is the per-family row mix of a Hybrid plan (empty for
	// single-family rows).
	FamilyRows map[string]int `json:"family_rows,omitempty"`
}

// bitmapWorkloads builds the experiment inputs. er-dense is the
// headline: a mask with n/4 entries per row over inputs with only
// EdgeFactor entries per row, so nnz(mask row) dwarfs the row's flops
// and the accumulator's per-row walks dominate. The sweeps and the
// uniform-sparse control reuse the hybridmix shapes so the two
// experiments stay comparable.
func bitmapWorkloads(cfg BitmapMixConfig) []mixWorkload {
	n := 1 << cfg.Scale
	er := gen.Symmetrize(gen.ErdosRenyi(n, cfg.EdgeFactor, cfg.Seed))
	rmat := gen.RMATSymmetric(gen.RMATConfig{Scale: cfg.Scale, EdgeFactor: cfg.EdgeFactor, Seed: cfg.Seed + 1})
	dense := gen.ErdosRenyiPattern(n, n/4, cfg.Seed+2)
	uniformSparse := gen.ErdosRenyiPattern(n, 2, cfg.Seed+5)
	return []mixWorkload{
		{"er-dense", dense, er, er},
		{"er-sweep", BandedMask(n, SweepDensities, cfg.Seed+3), er, er},
		{"rmat-sweep", BandedMask(n, SweepDensities, cfg.Seed+4), rmat, rmat},
		{"er-uniform-sparse", uniformSparse, er, er},
	}
}

// bitmapSchemes enumerates the timed schemes: every single family, the
// default Hybrid, and the Hybrid ablated back to the pre-MaskedBit
// menu.
type bitmapScheme struct {
	name string
	opt  core.Options
}

func bitmapSchemes(threads int) []bitmapScheme {
	var schemes []bitmapScheme
	for _, algo := range mixFamilies {
		schemes = append(schemes, bitmapScheme{algo.String(), core.Options{Algorithm: algo, Threads: threads, ReuseOutput: true}})
	}
	schemes = append(schemes,
		bitmapScheme{core.AlgoHybrid.String(), core.Options{Algorithm: core.AlgoHybrid, Threads: threads, ReuseOutput: true}},
		bitmapScheme{HybridNoMaskedBitScheme, core.Options{
			Algorithm:      core.AlgoHybrid,
			HybridFamilies: core.Families(core.FamMSA, core.FamHash, core.FamHeap, core.FamPull),
			Threads:        threads,
			ReuseOutput:    true,
		}},
	)
	return schemes
}

// RunBitmapMix times every scheme on each workload. Unlike the other
// experiments, the reps are interleaved round-robin across schemes
// rather than taken back to back per scheme: the vs_msa ratio is what
// the CI gate asserts, and taking each scheme's reps minutes apart
// would let ambient machine-load drift land entirely on whichever
// scheme runs during a spike. Round-robin puts every scheme's k-th
// rep within milliseconds of its rivals', so the best-of minimum
// compares like with like.
func RunBitmapMix(cfg BitmapMixConfig) ([]BitmapMixPoint, error) {
	sr := semiring.PlusTimes[float64]{}
	var pts []BitmapMixPoint
	reps := cfg.Reps
	if reps < 1 {
		reps = 1
	}
	for _, wl := range bitmapWorkloads(cfg) {
		schemes := bitmapSchemes(cfg.Threads)
		plans := make([]*core.Plan[float64, semiring.PlusTimes[float64]], len(schemes))
		best := make([]float64, len(schemes))
		for i, sc := range schemes {
			plan, err := core.NewPlan(sr, wl.mask, wl.a, wl.b, sc.opt, nil)
			if err != nil {
				return nil, err
			}
			plans[i] = plan
		}
		for rep := 0; rep < reps; rep++ {
			for i := range schemes {
				plan := plans[i]
				d, err := TimeBest(1, func() error {
					_, err := plan.Execute(wl.a, wl.b)
					return err
				})
				if err != nil {
					return nil, err
				}
				if rep == 0 || d.Seconds() < best[i] {
					best[i] = d.Seconds()
				}
			}
		}
		msaTime, bestSingle := 0.0, 0.0
		for i, sc := range schemes {
			if sc.opt.Algorithm == core.AlgoHybrid {
				continue
			}
			if sc.opt.Algorithm == core.AlgoMSA {
				msaTime = best[i]
			}
			if bestSingle == 0 || best[i] < bestSingle {
				bestSingle = best[i]
			}
		}
		for i, sc := range schemes {
			pt := BitmapMixPoint{Workload: wl.name, Scheme: sc.name, Seconds: best[i]}
			if sc.opt.Algorithm == core.AlgoHybrid {
				counts := plans[i].FamilyRows()
				pt.FamilyRows = make(map[string]int, len(counts))
				for f, c := range counts {
					if c > 0 {
						pt.FamilyRows[core.Family(f).String()] = c
					}
				}
			}
			if pt.Seconds > 0 {
				pt.VsMSA = msaTime / pt.Seconds
				pt.VsBestSingle = bestSingle / pt.Seconds
			}
			pts = append(pts, pt)
		}
	}
	return pts, nil
}

// WriteBitmapMix renders the experiment as an aligned table.
func WriteBitmapMix(w io.Writer, cfg BitmapMixConfig, pts []BitmapMixPoint) {
	fmt.Fprintf(w, "MaskedBit accumulator experiment — scale %d, ef %d\n", cfg.Scale, cfg.EdgeFactor)
	fmt.Fprintf(w, "%-18s %-18s %12s %8s %14s  %s\n", "workload", "scheme", "seconds", "vs-msa", "vs-best-single", "family mix")
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
		fmt.Fprintf(w, "%-18s %-18s %12.6f %7.2fx %13.2fx  %s\n", p.Workload, p.Scheme, p.Seconds, p.VsMSA, p.VsBestSingle, mix)
	}
}

// bitmapJSONDoc is the BENCH_bitmap.json envelope.
type bitmapJSONDoc struct {
	// Config echoes the experiment configuration.
	Config BitmapMixConfig `json:"config"`
	// GOMAXPROCS records the host parallelism the numbers were taken
	// at.
	GOMAXPROCS int `json:"gomaxprocs"`
	// Points holds the measurements.
	Points []BitmapMixPoint `json:"points"`
}

// WriteBitmapMixJSON emits the experiment as the BENCH_bitmap.json
// document consumed by the perf trajectory and the CI gate.
func WriteBitmapMixJSON(w io.Writer, cfg BitmapMixConfig, pts []BitmapMixPoint) error {
	doc := bitmapJSONDoc{Config: cfg, GOMAXPROCS: runtime.GOMAXPROCS(0), Points: pts}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(doc)
}
