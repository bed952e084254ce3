// Package perfprof implements Dolan–Moré performance profiles, the
// presentation the paper uses for its relative-performance figures
// (§8.1, citing Dolan & Moré 2002): for each scheme s, the curve point
// (x, y) says that on a fraction y of the test cases, s was within a
// factor x of the best scheme on that case.
package perfprof

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// Result is one (instance, scheme) timing.
type Result struct {
	// Instance names the test case (graph).
	Instance string
	// Scheme names the algorithm variant ("MSA-1P", ...).
	Scheme string
	// Seconds is the measured runtime; must be positive to count.
	Seconds float64
}

// Profile is a computed performance profile.
type Profile struct {
	// Schemes in first-seen order.
	Schemes []string
	// Ratios[s][i] is scheme s's runtime divided by the best runtime on
	// instance i (math.Inf(1) when the scheme failed/was not run).
	Ratios map[string][]float64
	// Instances in first-seen order.
	Instances []string
}

// Compute builds a profile from raw results. Schemes missing a result
// on some instance are treated as failed there (ratio = +inf), per
// Dolan–Moré.
func Compute(results []Result) *Profile {
	p := &Profile{Ratios: map[string][]float64{}}
	instIdx := map[string]int{}
	for _, r := range results {
		if _, ok := instIdx[r.Instance]; !ok {
			instIdx[r.Instance] = len(p.Instances)
			p.Instances = append(p.Instances, r.Instance)
		}
		if _, ok := p.Ratios[r.Scheme]; !ok {
			p.Schemes = append(p.Schemes, r.Scheme)
		}
		p.Ratios[r.Scheme] = nil // placeholder; filled below
	}
	n := len(p.Instances)
	times := map[string][]float64{}
	for _, s := range p.Schemes {
		t := make([]float64, n)
		for i := range t {
			t[i] = math.Inf(1)
		}
		times[s] = t
	}
	for _, r := range results {
		if r.Seconds > 0 {
			times[r.Scheme][instIdx[r.Instance]] = r.Seconds
		}
	}
	best := make([]float64, n)
	for i := range best {
		best[i] = math.Inf(1)
		for _, s := range p.Schemes {
			if times[s][i] < best[i] {
				best[i] = times[s][i]
			}
		}
	}
	for _, s := range p.Schemes {
		ratios := make([]float64, n)
		for i := range ratios {
			if math.IsInf(best[i], 1) {
				ratios[i] = math.Inf(1)
			} else {
				ratios[i] = times[s][i] / best[i]
			}
		}
		p.Ratios[s] = ratios
	}
	return p
}

// Fraction returns the fraction of instances on which scheme is within
// factor x of the best.
func (p *Profile) Fraction(scheme string, x float64) float64 {
	ratios, ok := p.Ratios[scheme]
	if !ok || len(ratios) == 0 {
		return 0
	}
	count := 0
	for _, r := range ratios {
		if r <= x {
			count++
		}
	}
	return float64(count) / float64(len(ratios))
}

// WinFraction returns Fraction(scheme, 1): how often the scheme is the
// (tied-)best. The paper reads its profiles this way ("MSA-1P ...
// outperforming all other algorithms for 65% of the test cases").
func (p *Profile) WinFraction(scheme string) float64 {
	return p.Fraction(scheme, 1.0000001) // tolerate float jitter on ties
}

// Best returns the scheme with the highest win fraction, ties broken by
// area under the curve up to xMax.
func (p *Profile) Best(xMax float64) string {
	best, bestWin, bestArea := "", -1.0, -1.0
	for _, s := range p.Schemes {
		win := p.WinFraction(s)
		area := 0.0
		for x := 1.0; x <= xMax; x += 0.05 {
			area += p.Fraction(s, x)
		}
		if win > bestWin || (win == bestWin && area > bestArea) {
			best, bestWin, bestArea = s, win, area
		}
	}
	return best
}

// Series samples the profile curve of a scheme at the given x values.
func (p *Profile) Series(scheme string, xs []float64) []float64 {
	ys := make([]float64, len(xs))
	for i, x := range xs {
		ys[i] = p.Fraction(scheme, x)
	}
	return ys
}

// DefaultXs returns the sampling grid the paper's plots use
// (1.0 … 2.4).
func DefaultXs() []float64 {
	var xs []float64
	for x := 1.0; x <= 2.4001; x += 0.1 {
		xs = append(xs, math.Round(x*10)/10)
	}
	return xs
}

// Render formats the profile as an aligned text table: one row per
// scheme, one column per x sample — the textual analogue of Figures 8,
// 9, 12, 13, 16.
func (p *Profile) Render(xs []float64) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-14s", "scheme")
	for _, x := range xs {
		fmt.Fprintf(&b, " %6.2f", x)
	}
	b.WriteByte('\n')
	schemes := append([]string(nil), p.Schemes...)
	sort.SliceStable(schemes, func(i, j int) bool {
		return p.WinFraction(schemes[i]) > p.WinFraction(schemes[j])
	})
	for _, s := range schemes {
		fmt.Fprintf(&b, "%-14s", s)
		for _, y := range p.Series(s, xs) {
			fmt.Fprintf(&b, " %6.3f", y)
		}
		b.WriteByte('\n')
	}
	return b.String()
}
