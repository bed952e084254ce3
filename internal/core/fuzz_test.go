package core

import (
	"fmt"
	"testing"

	"maskedspgemm/internal/semiring"
	"maskedspgemm/internal/sparse"
)

// FuzzMaskedSpGEMM feeds byte-derived sparse operands through every
// algorithm and cross-checks against the dense oracle. Besides the
// operands, the input draws the execution configuration: cfg picks the
// thread count (1..4, bits 0-1), the schedule (bits 2-3) and the grain
// (bits 4-7, 0 meaning the default), and fams restricts the Hybrid
// selector's families (0 meaning all). Output widths reach 1024 columns,
// so complemented rows span many bitset words. The seed corpus runs as a
// normal test; `go test -fuzz=FuzzMaskedSpGEMM ./internal/core` explores
// further.
func FuzzMaskedSpGEMM(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8}, uint8(8), uint8(8), uint16(8), uint8(1), uint8(0))
	f.Add([]byte{0}, uint8(1), uint8(1), uint16(1), uint8(1), uint8(0))
	f.Add([]byte{255, 0, 255, 0, 13, 77, 200, 31, 8, 9}, uint8(12), uint8(5), uint16(9), uint8(1), uint8(0))
	f.Add([]byte{9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9}, uint8(16), uint8(3), uint16(16), uint8(1), uint8(0))
	// Wider than one bitset word, across schedules, widths and menus.
	f.Add([]byte{3, 141, 59, 26, 53, 58, 97, 93, 23, 84, 62, 64, 33, 83, 27, 95}, uint8(6), uint8(4), uint16(100), uint8(0x1e), uint8(0))
	f.Add([]byte{17, 34, 51, 68, 85, 102, 119, 136, 153, 170, 187, 204, 221, 238}, uint8(3), uint8(2), uint16(700), uint8(0x0b), uint8(1<<FamMaskedBit))
	f.Add([]byte{250, 1, 249, 2, 248, 4, 247, 8, 246, 16, 245, 32, 244, 64}, uint8(9), uint8(7), uint16(300), uint8(0x36), uint8(1<<FamMaskedBit|1<<FamHash))
	// One output row with keys at columns 1 and 990, fifteen bitset words
	// apart: MaskedBitC sorts instead of walking.
	f.Add([]byte{96, 69, 69, 69, 69, 69, 69, 40}, uint8(0), uint8(0), uint16(999), uint8(0x07), uint8(1<<FamMaskedBit))
	f.Fuzz(func(t *testing.T, data []byte, mRaw, kRaw uint8, nRaw uint16, cfg, fams uint8) {
		m := int(mRaw%24) + 1
		k := int(kRaw%24) + 1
		n := int(nRaw%1024) + 1
		a := matrixFromBytes(m, k, data, 0)
		b := matrixFromBytes(k, n, data, 1)
		mask := matrixFromBytes(m, n, data, 2).PatternView()
		sr := semiring.PlusTimes[float64]{}
		base := Options{
			Threads:        int(cfg&3) + 1,
			Schedule:       Schedule(cfg >> 2 & 3),
			Grain:          int(cfg >> 4),
			HybridFamilies: FamilySet(fams) & (1<<NumFamilies - 1),
		}
		for _, complement := range []bool{false, true} {
			want := sparse.DenseMaskedMultiply(mask, a, b, complement, sr.Add, sr.Mul, sr.Zero())
			for _, algo := range Algorithms() {
				if complement && !SupportsComplement(algo) {
					continue
				}
				for _, ph := range []Phases{OnePhase, TwoPhase} {
					opt := base
					opt.Algorithm, opt.Phases, opt.Complement = algo, ph, complement
					name := fmt.Sprintf("%v-%v complement=%v threads=%d %v grain=%d families=%#x",
						algo, ph, complement, opt.Threads, opt.Schedule, opt.Grain, opt.HybridFamilies)
					got, err := MaskedSpGEMM(sr, mask, a, b, opt)
					if err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					if err := got.Validate(); err != nil {
						t.Fatalf("%s: invalid output: %v", name, err)
					}
					if d := sparse.Diff(want, got, sparse.FloatEq(1e-9)); d != "" {
						t.Fatalf("%s: %s", name, d)
					}
				}
			}
		}
	})
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
