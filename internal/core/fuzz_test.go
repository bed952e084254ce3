package core

import (
	"fmt"
	"strings"
	"testing"

	"maskedspgemm/internal/semiring"
	"maskedspgemm/internal/sparse"
)

// FuzzMaskedSpGEMM feeds byte-derived sparse operands through every
// algorithm and cross-checks against the dense oracle. Besides the
// operands, the input draws the execution configuration: cfg picks the
// thread count (1..64, bits 0-5), which sets the partition layout — at
// ≤24 rows, from a few equal-cost partitions up to one per row, so
// partition edges land at every row offset and cross Hybrid run
// ends — and fams restricts the Hybrid
// selector's families (bits 0-5, 0 meaning all) and picks the semiring
// (bit 7): semiring.PlusTimes[float64], which MSA, MaskedBit and
// MaskedBitC bind float64 kernels for, or plusTimesTwin, the same
// algebra under another type, which takes the generic kernels. Bit 6
// draws a symmetric self-product instead, C = S ⊙ (S·S) for S = X + Xᵀ
// with X m×m, which plain one-phase plans execute as one triangle and
// a mirror. Output widths reach 1024 columns,
// so complemented rows span many bitset words. Every scheme also runs
// as a cached plan executed three times: a one-phase plan over
// semiring.PlusTimes[float64] remembers the output pattern of the
// second run, on rescaled values, and computes the third by the
// known-pattern driver — or, on a symmetric self-product, remembers the
// known half and computes the third over it, then runs values that
// break the symmetry and values that restore it (fuzzAllSchemes). A
// plan over plusTimesTwin remembers nothing, so its runs are first
// executions. The
// seed corpus runs as a normal test; `go test -fuzz=FuzzMaskedSpGEMM
// ./internal/core` explores further.
func FuzzMaskedSpGEMM(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8}, uint8(8), uint8(8), uint16(8), uint8(1), uint8(0))
	f.Add([]byte{0}, uint8(1), uint8(1), uint16(1), uint8(1), uint8(0))
	f.Add([]byte{255, 0, 255, 0, 13, 77, 200, 31, 8, 9}, uint8(12), uint8(5), uint16(9), uint8(1), uint8(0))
	f.Add([]byte{9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9}, uint8(16), uint8(3), uint16(16), uint8(1), uint8(0))
	// Wider than one bitset word, across widths and menus.
	f.Add([]byte{3, 141, 59, 26, 53, 58, 97, 93, 23, 84, 62, 64, 33, 83, 27, 95}, uint8(6), uint8(4), uint16(100), uint8(0x1e), uint8(0))
	f.Add([]byte{17, 34, 51, 68, 85, 102, 119, 136, 153, 170, 187, 204, 221, 238}, uint8(3), uint8(2), uint16(700), uint8(0x0b), uint8(1<<FamMaskedBit))
	f.Add([]byte{250, 1, 249, 2, 248, 4, 247, 8, 246, 16, 245, 32, 244, 64}, uint8(9), uint8(7), uint16(300), uint8(0x36), uint8(1<<FamMaskedBit|1<<FamHash))
	// One output row with keys at columns 1 and 990, fifteen bitset words
	// apart: MaskedBitC sorts instead of walking.
	f.Add([]byte{96, 69, 69, 69, 69, 69, 69, 40}, uint8(0), uint8(0), uint16(999), uint8(0x07), uint8(1<<FamMaskedBit))
	// Rows on each side of both terms of msaDenseRow: dense rows,
	// rows whose mask holds too few entries, and rows whose mask is
	// dense enough but which scan too few B entries. 256 columns
	// (masks of 5, 3, 8, 3 and 7 entries, each row scanning 28) with
	// Hybrid binding MSA on every row, and 384 columns (masks of 6, 6,
	// 11 and 4 entries, scanning 32) under the default menu.
	f.Add([]byte{203, 153, 100, 222, 30, 255, 26, 110, 200, 34, 173, 186, 244, 128, 131, 208, 80, 12, 69, 166, 11, 140, 175, 253, 167, 85, 253, 249, 148, 215, 74, 50, 24, 235, 236, 225, 11, 148, 180, 221, 26, 38, 4, 153}, uint8(4), uint8(1), uint16(255), uint8(0x01), uint8(1<<FamMSA))
	f.Add([]byte{208, 68, 108, 243, 51, 81, 214, 209, 241, 140, 26, 109, 249, 206, 96, 253, 248, 154, 98, 81, 41, 21, 173, 141, 8, 193, 232, 11, 46, 70, 22, 118, 183, 94, 227, 35, 128, 174, 178, 228, 47, 53, 172, 155, 3, 0, 173, 184, 62, 49, 69, 19, 125, 193, 96, 210}, uint8(3), uint8(2), uint16(383), uint8(0), uint8(0))
	// The generic kernels, through plusTimesTwin.
	f.Add([]byte{3, 141, 59, 26, 53, 58, 97, 93, 23, 84, 62, 64, 33, 83, 27, 95}, uint8(6), uint8(4), uint16(100), uint8(0x1e), uint8(twinBit))
	f.Add([]byte{96, 69, 69, 69, 69, 69, 69, 40}, uint8(0), uint8(0), uint16(999), uint8(0x07), uint8(twinBit|1<<FamMaskedBit))
	// Symmetric self-products, through both kernel paths.
	f.Add([]byte{3, 141, 59, 26, 53, 58, 97, 93, 23, 84, 62, 64, 33, 83, 27, 95, 2, 88, 41, 19}, uint8(12), uint8(0), uint16(0), uint8(0x1e), uint8(symBit))
	f.Add([]byte{17, 34, 51, 68, 85, 102, 119, 136, 153, 170, 187, 204, 221, 238, 9, 1}, uint8(9), uint8(0), uint16(0), uint8(0x05), uint8(symBit|twinBit))
	f.Add([]byte{250, 1, 249, 2, 248, 4, 247, 8, 246, 16, 245, 32, 244, 64, 7, 7, 7}, uint8(23), uint8(0), uint16(0), uint8(0x3b), uint8(symBit|1<<FamPull|1<<FamHeap))
	f.Fuzz(func(t *testing.T, data []byte, mRaw, kRaw uint8, nRaw uint16, cfg, fams uint8) {
		m := int(mRaw%24) + 1
		k := int(kRaw%24) + 1
		n := int(nRaw%1024) + 1
		a := matrixFromBytes(m, k, data, 0)
		b := matrixFromBytes(k, n, data, 1)
		mask := matrixFromBytes(m, n, data, 2).PatternView()
		if fams&symBit != 0 {
			x := matrixFromBytes(m, m, data, 3)
			s, err := sparse.EWiseAdd(x, sparse.Transpose(x), func(p, q float64) float64 { return p + q })
			if err != nil {
				t.Fatal(err)
			}
			a, b, mask = s, s, s.PatternView()
		}
		base := Options{
			Threads:        int(cfg&63) + 1,
			HybridFamilies: FamilySet(fams) & (1<<NumFamilies - 1),
		}
		if fams&twinBit != 0 {
			fuzzAllSchemes(t, plusTimesTwin{}, mask, a, b, base)
		} else {
			fuzzAllSchemes(t, semiring.PlusTimes[float64]{}, mask, a, b, base)
		}
	})
}

// twinBit is the bit of FuzzMaskedSpGEMM's fams input that selects
// plusTimesTwin, and symBit the one that draws a symmetric
// self-product.
const (
	twinBit = 0x80
	symBit  = 0x40
)

// fuzzAllSchemes checks every algorithm, plain and complemented,
// one-phase and two-phase, under base's execution configuration against
// the dense oracle over sr; TwoPhase on a scheme that is not the
// paper's must fail, before any plan, with an error naming it. Its
// cache-plan arm then executes a plan a PlanCache built three times,
// the second time on rescaled values: a one-phase plan over the served
// semiring remembers its second result's pattern and computes the third, on the planned values
// again, by the known-pattern driver. On a symmetric self-product (b is
// a) those three runs compute one triangle, so the second remembers the
// known half and the third computes it; the arm then runs values that
// are not symmetric, which take the full product, and the planned
// values again, which take the known half.
func fuzzAllSchemes[S semiring.Semiring[float64]](t *testing.T, sr S, mask *sparse.Pattern, a, b *sparse.CSR[float64], base Options) {
	a2 := withValues(a, func(_ int, v float64) float64 { return -1.5 * v })
	b2 := a2
	if b != a {
		b2 = withValues(b, func(_ int, v float64) float64 { return 0.5 * v })
	}
	a3 := withValues(a, func(j int, v float64) float64 { return v * float64(1+j%3) })
	for _, complement := range []bool{false, true} {
		want := sparse.DenseMaskedMultiply(mask, a, b, complement, sr.Add, sr.Mul, sr.Zero())
		want2 := sparse.DenseMaskedMultiply(mask, a2, b2, complement, sr.Add, sr.Mul, sr.Zero())
		type run struct{ a, b, want *sparse.CSR[float64] }
		runs := []run{{a, b, want}, {a2, b2, want2}, {a, b, want}}
		if b == a {
			runs = append(runs, run{a3, a3, sparse.DenseMaskedMultiply(mask, a3, a3, complement, sr.Add, sr.Mul, sr.Zero())}, run{a, b, want})
		}
		for _, algo := range Algorithms() {
			if complement && !SupportsComplement(algo) {
				continue
			}
			for _, ph := range []Phases{OnePhase, TwoPhase} {
				opt := base
				opt.Algorithm, opt.Phases, opt.Complement = algo, ph, complement
				name := fmt.Sprintf("%T %v-%v complement=%v threads=%d families=%#x",
					sr, algo, ph, complement, opt.Threads, opt.HybridFamilies)
				got, err := MaskedSpGEMM(sr, mask, a, b, opt)
				if info, _ := LookupScheme(algo); ph == TwoPhase && !info.Paper {
					if err == nil || !strings.Contains(err.Error(), info.Name) {
						t.Fatalf("%s: want the one-phase-only error naming %s, got %v", name, info.Name, err)
					}
					continue
				}
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				if err := got.Validate(); err != nil {
					t.Fatalf("%s: invalid output: %v", name, err)
				}
				if d := sparse.Diff(want, got, sparse.FloatEq(1e-9)); d != "" {
					t.Fatalf("%s: %s", name, d)
				}
				plan, err := NewPlanCache(sr, 0).GetOrPlan(mask, a, b, opt)
				if err != nil {
					t.Fatalf("%s cached: %v", name, err)
				}
				exec := NewExecutor[float64](sr)
				for run, c := range runs {
					got, err := plan.ExecuteOnOpts(exec, c.a, c.b, opt.ExecOnly())
					if err != nil {
						t.Fatalf("%s cached run %d: %v", name, run, err)
					}
					if err := got.Validate(); err != nil {
						t.Fatalf("%s cached run %d: invalid output: %v", name, run, err)
					}
					if d := sparse.Diff(c.want, got, sparse.FloatEq(1e-9)); d != "" {
						t.Fatalf("%s cached run %d: %s", name, run, d)
					}
				}
			}
		}
	}
}

// matrixFromBytes deterministically derives an m×n sparse matrix from
// fuzz bytes: byte i decides presence and value of entry i (mod the
// matrix size), with a salt separating the three operands.
func matrixFromBytes(m, n int, data []byte, salt byte) *sparse.CSR[float64] {
	coo := sparse.NewCOO[float64](m, n, len(data))
	for i, raw := range data {
		x := raw ^ (salt * 97)
		if x%3 == 0 {
			continue // leave a hole
		}
		pos := (i*131 + int(x)) % (m * n)
		coo.Append(int32(pos/n), int32(pos%n), float64(x%16)-7)
	}
	out, err := coo.ToCSR(func(a, b float64) float64 { return a + b })
	if err != nil {
		panic(err)
	}
	return out
}
