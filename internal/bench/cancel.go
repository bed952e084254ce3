package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"runtime"

	"maskedspgemm/internal/core"
	"maskedspgemm/internal/gen"
	"maskedspgemm/internal/parallel"
	"maskedspgemm/internal/semiring"
)

// The cancellation-overhead experiment (DESIGN.md §15): the cooperative
// CancelToken is polled once per block claim plus at pass checkpoints,
// and the containment design is only free if that polling is invisible
// on the hot path. This experiment times the same plan on the same
// executor with and without a never-latched token and reports the
// ratio; cmd/mspgemm-bench's "cancel" subcommand emits it as
// BENCH_cancel.json, and CI gates the ratio (target ≤2% overhead plus a
// shared-runner noise band). The workload is the uniform ER self-mask
// control — flat row costs, so a fixed per-block cost has nowhere to
// hide behind skew.

// CancelOverheadConfig configures RunCancelOverhead.
type CancelOverheadConfig struct {
	// Scale sets the workload dimension (2^Scale rows).
	Scale int
	// EdgeFactor is edges per vertex for the generated input.
	EdgeFactor int
	// Threads is the worker count (0 = GOMAXPROCS).
	Threads int
	// Reps is timing repetitions per arm (best-of, see TimeBest).
	Reps int
	// Seed drives the generator.
	Seed uint64
}

// DefaultCancelOverheadConfig returns the CI-scale configuration.
func DefaultCancelOverheadConfig() CancelOverheadConfig {
	return CancelOverheadConfig{Scale: 12, EdgeFactor: 8, Reps: 5, Seed: 17}
}

// CancelOverheadResult holds the two timed arms and their ratio.
type CancelOverheadResult struct {
	// BaselineSeconds is the best-of-reps time with no cancel token
	// (ExecOptions.Cancel nil — the polling loads short-circuit on the
	// nil check).
	BaselineSeconds float64 `json:"baseline_seconds"`
	// TokenSeconds is the best-of-reps time with a live, never-latched
	// token — every block claim pays the real atomic load.
	TokenSeconds float64 `json:"token_seconds"`
	// Ratio is TokenSeconds / BaselineSeconds; the CI gate asserts it
	// stays within the checkpoint-overhead budget.
	Ratio float64 `json:"ratio"`
}

// RunCancelOverhead times one MSA one-phase execution of the uniform ER
// self-mask workload with and without a cancel token. Both arms share
// one plan and one executor, and the reps are interleaved round-robin
// (the same noise discipline as RunBitmapMix): the ratio is what the CI
// gate asserts, so each arm's k-th rep runs within milliseconds of the
// other's and ambient machine-load drift cancels out of the quotient.
func RunCancelOverhead(cfg CancelOverheadConfig) (CancelOverheadResult, error) {
	var res CancelOverheadResult
	sr := semiring.PlusTimes[float64]{}
	g := gen.Symmetrize(gen.ErdosRenyi(1<<cfg.Scale, cfg.EdgeFactor, cfg.Seed))
	opt := core.Options{Algorithm: core.AlgoMSA, Threads: cfg.Threads, ReuseOutput: true}
	plan, err := core.NewPlan(sr, g.PatternView(), g, g, opt, nil)
	if err != nil {
		return res, err
	}
	exec := core.NewExecutor[float64](sr)
	withToken := opt.ExecOnly()
	withToken.Cancel = &parallel.CancelToken{}
	arms := []struct {
		eo   core.ExecOptions
		best *float64
	}{
		{opt.ExecOnly(), &res.BaselineSeconds},
		{withToken, &res.TokenSeconds},
	}
	reps := cfg.Reps
	if reps < 1 {
		reps = 1
	}
	for rep := 0; rep < reps; rep++ {
		for _, arm := range arms {
			eo := arm.eo
			d, err := TimeBest(1, func() error {
				_, err := plan.ExecuteOnOpts(exec, g, g, eo)
				return err
			})
			if err != nil {
				return res, err
			}
			if rep == 0 || d.Seconds() < *arm.best {
				*arm.best = d.Seconds()
			}
		}
	}
	if res.BaselineSeconds > 0 {
		res.Ratio = res.TokenSeconds / res.BaselineSeconds
	}
	return res, nil
}

// WriteCancelOverhead renders the experiment as an aligned table.
func WriteCancelOverhead(w io.Writer, cfg CancelOverheadConfig, res CancelOverheadResult) {
	fmt.Fprintf(w, "cancel-token polling overhead — scale %d, ef %d, MSA-1P uniform ER self-mask\n", cfg.Scale, cfg.EdgeFactor)
	fmt.Fprintf(w, "%-22s %12s\n", "arm", "seconds")
	fmt.Fprintf(w, "%-22s %12.6f\n", "no-token", res.BaselineSeconds)
	fmt.Fprintf(w, "%-22s %12.6f\n", "token-never-latched", res.TokenSeconds)
	fmt.Fprintf(w, "ratio %.4f (token / no-token; 1.00 = free polling)\n", res.Ratio)
}

// cancelJSONDoc is the BENCH_cancel.json envelope.
type cancelJSONDoc struct {
	// Config echoes the experiment configuration.
	Config CancelOverheadConfig `json:"config"`
	// GOMAXPROCS records the host parallelism the numbers were taken
	// at.
	GOMAXPROCS int `json:"gomaxprocs"`
	// Result holds the measurement.
	Result CancelOverheadResult `json:"result"`
}

// WriteCancelOverheadJSON emits the experiment as the BENCH_cancel.json
// document consumed by the CI overhead gate.
func WriteCancelOverheadJSON(w io.Writer, cfg CancelOverheadConfig, res CancelOverheadResult) error {
	doc := cancelJSONDoc{Config: cfg, GOMAXPROCS: runtime.GOMAXPROCS(0), Result: res}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(doc)
}
