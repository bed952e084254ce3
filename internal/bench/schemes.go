// Package bench is the experiment harness: it enumerates the paper's
// algorithm variants, times them on generated workloads, and emits the
// rows/series behind every evaluation figure (Figs 7–16). The
// cmd/mspgemm-bench binary and the repository-root testing.B benchmarks
// are thin wrappers over this package.
package bench

import "maskedspgemm/internal/core"

// Scheme is one named algorithm variant as plotted in the paper.
type Scheme struct {
	// Name as it appears in the figures ("MSA-1P", "SS:DOT*", ...).
	Name string
	// Opt configures core.MaskedSpGEMM.
	Opt core.Options
}

// scheme builds a Scheme from algorithm and phases.
func scheme(a core.Algorithm, p core.Phases) Scheme {
	opt := core.Options{Algorithm: a, Phases: p}
	return Scheme{Name: opt.SchemeName(), Opt: opt}
}

// OurSchemes returns the paper's 12 proposed variants (6 algorithms ×
// 1P/2P) in Figure 8's legend order.
func OurSchemes() []Scheme {
	var out []Scheme
	for _, a := range []core.Algorithm{core.AlgoMSA, core.AlgoHash, core.AlgoMCA, core.AlgoHeap, core.AlgoHeapDot, core.AlgoInner} {
		for _, p := range []core.Phases{core.OnePhase, core.TwoPhase} {
			out = append(out, scheme(a, p))
		}
	}
	return out
}

// BestThreeSchemes returns the top performers the paper carries into
// the baseline comparisons (Fig 9: MSA-1P, Hash-1P, MCA-1P).
func BestThreeSchemes() []Scheme {
	return []Scheme{
		scheme(core.AlgoMSA, core.OnePhase),
		scheme(core.AlgoHash, core.OnePhase),
		scheme(core.AlgoMCA, core.OnePhase),
	}
}

// BaselineSchemes returns the SS:GB stand-ins (§3; DESIGN.md §3).
func BaselineSchemes() []Scheme {
	return []Scheme{
		{Name: "SS:SAXPY*", Opt: core.Options{Algorithm: core.AlgoSaxpyThenMask}},
		{Name: "SS:DOT*", Opt: core.Options{Algorithm: core.AlgoDotTranspose}},
	}
}

// VsBaselineSchemes returns the best three and the SS:GB-style
// baselines: the comparison of Figs 9–11, 13 and 14.
func VsBaselineSchemes() []Scheme {
	return append(BestThreeSchemes(), BaselineSchemes()...)
}

// ComplementSchemes returns the variants evaluated on betweenness
// centrality (Fig 16: MSA/Hash in 1P/2P; MCA unsupported, Heap/Inner/
// SS:DOT prohibitively slow per §8.4).
func ComplementSchemes() []Scheme {
	return []Scheme{
		scheme(core.AlgoMSA, core.OnePhase),
		scheme(core.AlgoHash, core.OnePhase),
		scheme(core.AlgoMSA, core.TwoPhase),
		scheme(core.AlgoHash, core.TwoPhase),
	}
}

// Fig16Schemes returns the complement-capable variants and SS:SAXPY*,
// the comparison of Fig 16.
func Fig16Schemes() []Scheme {
	return append(ComplementSchemes(), BaselineSchemes()[0])
}

// Fig7Schemes returns the six algorithm families compared in the
// density sweep (one-phase forms).
func Fig7Schemes() []Scheme {
	return []Scheme{
		scheme(core.AlgoInner, core.OnePhase),
		scheme(core.AlgoHash, core.OnePhase),
		scheme(core.AlgoMSA, core.OnePhase),
		scheme(core.AlgoMCA, core.OnePhase),
		scheme(core.AlgoHeap, core.OnePhase),
		scheme(core.AlgoHeapDot, core.OnePhase),
	}
}

// WithThreads returns a copy of the scheme pinned to a thread count.
func (s Scheme) WithThreads(threads int) Scheme {
	s.Opt.Threads = threads
	return s
}
