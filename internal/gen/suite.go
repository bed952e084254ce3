package gen

import "maskedspgemm/internal/sparse"

// Instance is one graph of the evaluation suite: a named, seeded,
// lazily generated undirected graph.
type Instance struct {
	// Name identifies the instance in performance profiles.
	Name string
	// Build generates the adjacency matrix (symmetric, zero diagonal,
	// unit values).
	Build func() *sparse.CSR[float64]
}

// Suite returns the synthetic stand-in for the paper's 26 SuiteSparse
// real-world graphs (§7; list from Nagasaka et al. Table 2). The
// substitution is documented in DESIGN.md §3: the suite spans skewed
// (R-MAT, Barabási–Albert) and uniform (Erdős-Rényi, grid) degree
// distributions across two decades of size, which is the structure the
// performance-profile experiments are sensitive to. scaleCap (≤ 0 means
// no cap) bounds the largest R-MAT/ER scale so the suite can shrink to
// CI hardware.
func Suite(scaleCap int) []Instance {
	cap := func(s int) int {
		if scaleCap > 0 && s > scaleCap {
			return scaleCap
		}
		return s
	}
	mk := func(name string, build func() *sparse.CSR[float64]) Instance {
		return Instance{Name: name, Build: build}
	}
	return []Instance{
		mk("rmat-s10-ef16", func() *sparse.CSR[float64] {
			return RMATSymmetric(RMATConfig{Scale: cap(10), EdgeFactor: 16, Seed: 101})
		}),
		mk("rmat-s11-ef8", func() *sparse.CSR[float64] {
			return RMATSymmetric(RMATConfig{Scale: cap(11), EdgeFactor: 8, Seed: 102})
		}),
		mk("rmat-s12-ef16", func() *sparse.CSR[float64] {
			return RMATSymmetric(RMATConfig{Scale: cap(12), EdgeFactor: 16, Seed: 103})
		}),
		mk("rmat-s13-ef8", func() *sparse.CSR[float64] {
			return RMATSymmetric(RMATConfig{Scale: cap(13), EdgeFactor: 8, Seed: 104})
		}),
		mk("rmat-s13-ef16", func() *sparse.CSR[float64] {
			return RMATSymmetric(RMATConfig{Scale: cap(13), EdgeFactor: 16, Seed: 105})
		}),
		mk("rmat-s14-ef8", func() *sparse.CSR[float64] {
			return RMATSymmetric(RMATConfig{Scale: cap(14), EdgeFactor: 8, Seed: 106})
		}),
		mk("er-s12-d4", func() *sparse.CSR[float64] {
			return Symmetrize(ErdosRenyi(1<<cap(12), 4, 201))
		}),
		mk("er-s12-d16", func() *sparse.CSR[float64] {
			return Symmetrize(ErdosRenyi(1<<cap(12), 16, 202))
		}),
		mk("er-s13-d8", func() *sparse.CSR[float64] {
			return Symmetrize(ErdosRenyi(1<<cap(13), 8, 203))
		}),
		mk("er-s14-d16", func() *sparse.CSR[float64] {
			return Symmetrize(ErdosRenyi(1<<cap(14), 16, 204))
		}),
		mk("er-s14-d32", func() *sparse.CSR[float64] {
			return Symmetrize(ErdosRenyi(1<<cap(14), 32, 205))
		}),
		mk("grid-64", func() *sparse.CSR[float64] { return Grid2D(64, 64) }),
		mk("grid-128", func() *sparse.CSR[float64] { return Grid2D(128, 128) }),
		mk("ba-4k-m8", func() *sparse.CSR[float64] { return BarabasiAlbert(4096, 8, 301) }),
		mk("ba-8k-m16", func() *sparse.CSR[float64] { return BarabasiAlbert(8192, 16, 302) }),
		mk("ba-16k-m8", func() *sparse.CSR[float64] { return BarabasiAlbert(16384, 8, 303) }),
	}
}

// SmallSuite returns a reduced suite for quick runs and CI: six
// instances of Suite, at scales capped at 11 or, when it is smaller and
// positive, at scaleCap.
func SmallSuite(scaleCap int) []Instance {
	if scaleCap <= 0 || scaleCap > 11 {
		scaleCap = 11
	}
	full := Suite(scaleCap)
	return []Instance{full[0], full[1], full[6], full[7], full[11], full[13]}
}
