package bench

import (
	"fmt"
	"io"

	"maskedspgemm/internal/gen"
)

// Fig7Config parameterizes the density sweep of Figure 7: Erdős-Rényi
// inputs with the mask degree on one axis and the input degree on the
// other; each cell reports the fastest algorithm family.
type Fig7Config struct {
	// Dim is the square dimension (the paper sweeps 2^12…2^22; the
	// driver runs one panel per call).
	Dim int
	// MaskDegrees is the x axis (paper: 1…1024 in powers of two).
	MaskDegrees []int
	// InputDegrees is the y axis (paper: 1…128 in powers of two).
	InputDegrees []int
	// Threads pins the worker count (0 = GOMAXPROCS).
	Threads int
	// Seed drives the generators.
	Seed uint64
}

// DefaultFig7Config returns a laptop-scale panel (dim 2^12, full degree
// axes).
func DefaultFig7Config() Fig7Config {
	return Fig7Config{
		Dim:          1 << 12,
		MaskDegrees:  []int{1, 4, 16, 64, 256, 1024},
		InputDegrees: []int{1, 4, 16, 64, 128},
		Seed:         7,
	}
}

// Cell returns the sweep's cell at input degree dIn and mask degree dM
// as a kernel workload: ER inputs A and B of degree dIn under an ER
// mask of degree dM, with one arm per Fig7Schemes family, each planned
// once with pooled output, so the cell times executions only (§8
// reports execution time).
func (cfg Fig7Config) Cell(dIn, dM int) KernelWorkload {
	var arms []KernelArm
	for _, s := range Fig7Schemes() {
		opt := s.WithThreads(cfg.Threads).Opt
		opt.ReuseOutput = true
		arms = append(arms, KernelArm{Name: s.Name, Opt: opt})
	}
	seed := cfg.Seed + uint64(dIn)*13
	return KernelWorkload{
		Name: fmt.Sprintf("d_in=%d/d_m=%d", dIn, dM),
		Arms: arms,
		inputs: func() kernelInputs {
			return kernelInputs{
				mask: gen.ErdosRenyiPattern(cfg.Dim, dM, seed+uint64(dM)*31+3),
				a:    gen.ErdosRenyi(cfg.Dim, dIn, seed+1),
				b:    gen.ErdosRenyi(cfg.Dim, dIn, seed+2),
			}
		},
	}
}

// RunFig7 times the sweep, one cell group per cell, row-major: one row
// per input degree, one column per mask degree.
func RunFig7(cfg Fig7Config) ([]Point, error) {
	var cells []KernelWorkload
	var groups []string
	for _, dIn := range cfg.InputDegrees {
		for _, dM := range cfg.MaskDegrees {
			cells = append(cells, cfg.Cell(dIn, dM))
			groups = append(groups, cells[len(cells)-1].Name)
		}
	}
	return timeGroups(groups, func(i int) ([]TimedArm, error) {
		s, err := cells[i].Setup()
		if err != nil {
			return nil, err
		}
		return s.Arms(), nil
	})
}

// fastest returns the scheme of the point with the lowest median.
func fastest(pts []Point) string {
	best := pts[0]
	for _, p := range pts[1:] {
		if p.Seconds < best.Seconds {
			best = p
		}
	}
	return best.Scheme
}

// WriteFig7 renders the winner grid the way the paper's heat map reads:
// rows are input degrees (ascending), columns mask degrees.
func WriteFig7(w io.Writer, cfg Fig7Config, pts []Point) {
	fmt.Fprintf(w, "Figure 7: best scheme per (mask degree, input degree), ER dim=%d\n", cfg.Dim)
	fmt.Fprintf(w, "%-12s", "deg(A,B) \\ deg(M)")
	for _, dM := range cfg.MaskDegrees {
		fmt.Fprintf(w, " %10d", dM)
	}
	fmt.Fprintln(w)
	cells := groupsOf(pts)
	for i, dIn := range cfg.InputDegrees {
		fmt.Fprintf(w, "%-12d", dIn)
		for _, cell := range cells[i*len(cfg.MaskDegrees) : (i+1)*len(cfg.MaskDegrees)] {
			fmt.Fprintf(w, " %10s", fastest(cell))
		}
		fmt.Fprintln(w)
	}
}
