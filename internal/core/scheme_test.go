package core

import (
	"strings"
	"testing"

	"maskedspgemm/internal/gen"
	"maskedspgemm/internal/semiring"
	"maskedspgemm/internal/sparse"
)

// TestCapabilityMatrix asserts that every Algorithm × {plain,
// complement} × {1P, 2P} combination either succeeds (and matches the
// dense oracle) or fails with the registry's documented error: the
// ComplementNote of a scheme without complement support, and, for
// TwoPhase on a scheme that is not the paper's, an error naming the
// scheme. Because both the expectation and the dispatch derive from
// the same scheme table, the capability set can no longer drift from
// dispatch.
func TestCapabilityMatrix(t *testing.T) {
	sr := semiring.PlusTimes[float64]{}
	mask, a, b := buildCase(caseSpec{"", 48, 48, 48, 6, 6, 6, 90})
	for _, info := range Schemes() {
		for _, complement := range []bool{false, true} {
			want := oracle(mask, a, b, complement)
			for _, ph := range []Phases{OnePhase, TwoPhase} {
				opt := Options{Algorithm: info.Algo, Phases: ph, Complement: complement}
				got, err := MaskedSpGEMM(sr, mask, a, b, opt)
				name := opt.SchemeName()
				if complement && !info.Complement {
					if err == nil {
						t.Errorf("%s complement: want documented error, got success", name)
					} else if err.Error() != info.ComplementNote {
						t.Errorf("%s complement: error %q, want documented %q", name, err, info.ComplementNote)
					}
					continue
				}
				if ph == TwoPhase && !info.Paper {
					if err == nil {
						t.Errorf("%s complement=%v: want the one-phase-only error, got success", name, complement)
					} else if !strings.Contains(err.Error(), info.Name+" runs one-phase only") {
						t.Errorf("%s complement=%v: error %q does not name the scheme as one-phase only", name, complement, err)
					}
					continue
				}
				if err != nil {
					t.Errorf("%s complement=%v: %v", name, complement, err)
					continue
				}
				if err := got.Validate(); err != nil {
					t.Errorf("%s complement=%v: invalid output: %v", name, complement, err)
					continue
				}
				if d := sparse.Diff(want, got, floatEq); d != "" {
					t.Errorf("%s complement=%v: %s", name, complement, d)
				}
			}
		}
	}
}

// kernelRegistry materializes the full Algorithm → kernels table for
// one (T, S) instantiation, one entry per schemeTable row, so the
// consistency test can sweep it. Execution paths use kernelsForAlgo
// directly.
func kernelRegistry[T any, S semiring.Semiring[T]]() map[Algorithm]schemeKernels[T, S] {
	m := make(map[Algorithm]schemeKernels[T, S], len(schemeTable))
	for _, s := range schemeTable {
		m[s.Algo] = kernelsForAlgo[T, S](s.Algo)
	}
	return m
}

// TestSchemeRegistryConsistency pins the registry's internal
// invariants: the generic kernel table covers exactly the scheme
// table, complement kernels exist iff the capability is declared, and
// unsupported capabilities carry a documented reason.
func TestSchemeRegistryConsistency(t *testing.T) {
	reg := kernelRegistry[float64, semiring.PlusTimes[float64]]()
	if len(reg) != len(schemeTable) {
		t.Errorf("kernel registry has %d entries, scheme table %d", len(reg), len(schemeTable))
	}
	seenNames := map[string]bool{}
	for _, info := range Schemes() {
		k, ok := reg[info.Algo]
		if !ok {
			t.Errorf("%s: no kernel registry entry", info.Name)
			continue
		}
		if info.Name == "" || seenNames[info.Name] {
			t.Errorf("%v: empty or duplicate name %q", info.Algo, info.Name)
		}
		seenNames[info.Name] = true
		if info.Algo.String() != info.Name {
			t.Errorf("%v.String() = %q, want registry name %q", info.Algo, info.Algo.String(), info.Name)
		}
		if k.direct != nil {
			if k.plain != nil || k.complement != nil {
				t.Errorf("%s: direct schemes must not also register row kernels", info.Name)
			}
			continue
		}
		if k.plain == nil {
			t.Errorf("%s: missing plain kernels", info.Name)
		}
		if info.Complement != (k.complement != nil) {
			t.Errorf("%s: Complement=%v but complement kernels present=%v",
				info.Name, info.Complement, k.complement != nil)
		}
		if !info.Complement && info.ComplementNote == "" {
			t.Errorf("%s: unsupported complement must document a reason", info.Name)
		}
		if SupportsComplement(info.Algo) != info.Complement {
			t.Errorf("%s: SupportsComplement disagrees with registry", info.Name)
		}
	}
	if _, err := MaskedSpGEMM(semiring.PlusTimes[float64]{},
		gen.Random(4, 4, 2, 1).PatternView(), gen.Random(4, 4, 2, 2), gen.Random(4, 4, 2, 3),
		Options{Algorithm: Algorithm(200)}); err == nil {
		t.Error("unregistered algorithm must fail")
	}
}
