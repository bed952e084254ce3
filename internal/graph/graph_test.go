package graph

import (
	"fmt"
	"math"
	"testing"

	"maskedspgemm/internal/core"
	"maskedspgemm/internal/gen"
	"maskedspgemm/internal/sparse"
)

// appAlgorithms are the schemes exercised through the applications
// (every paper scheme plus baselines; MCA is skipped where complement
// is required), one-phase, and the paper's schemes two-phase too.
func appAlgorithms(needComplement bool) []core.Options {
	var opts []core.Options
	for _, info := range core.Schemes() {
		if needComplement && !info.Complement {
			continue
		}
		opts = append(opts, core.Options{Algorithm: info.Algo})
		if info.Paper {
			opts = append(opts, core.Options{Algorithm: info.Algo, Phases: core.TwoPhase})
		}
	}
	return opts
}

func TestTriangleCountKnownGraphs(t *testing.T) {
	cases := []struct {
		name string
		g    *sparse.CSR[float64]
		want int64
	}{
		{"K4", gen.Complete(4), 4},
		{"K5", gen.Complete(5), 10},
		{"K10", gen.Complete(10), 120},
		{"C5-ring", gen.Ring(5), 0},
		{"C3-ring", gen.Ring(3), 1},
		{"grid-8x8", gen.Grid2D(8, 8), 0},
	}
	for _, c := range cases {
		w := PrepareTriangleCount(c.g)
		for _, opt := range appAlgorithms(false) {
			got, err := w.Count(opt)
			if err != nil {
				t.Fatalf("%s/%s: %v", c.name, opt.SchemeName(), err)
			}
			if got != c.want {
				t.Errorf("%s/%s: triangles = %d, want %d", c.name, opt.SchemeName(), got, c.want)
			}
		}
	}
}

func TestTriangleCountMatchesReference(t *testing.T) {
	graphs := []struct {
		name string
		g    *sparse.CSR[float64]
	}{
		{"rmat-s8", gen.RMATSymmetric(gen.RMATConfig{Scale: 8, EdgeFactor: 8, Seed: 9})},
		{"er-1k-d12", gen.Symmetrize(gen.ErdosRenyi(1024, 12, 10))},
		{"ba-1k-m6", gen.BarabasiAlbert(1024, 6, 11)},
	}
	for _, g := range graphs {
		want := RefTriangleCount(g.g)
		w := PrepareTriangleCount(g.g)
		for _, opt := range appAlgorithms(false) {
			got, err := w.Count(opt)
			if err != nil {
				t.Fatalf("%s/%s: %v", g.name, opt.SchemeName(), err)
			}
			if got != want {
				t.Errorf("%s/%s: triangles = %d, want %d", g.name, opt.SchemeName(), got, want)
			}
		}
	}
}

func TestDegreeSortPerm(t *testing.T) {
	g := gen.BarabasiAlbert(256, 4, 5)
	perm := DegreeSortPerm(g)
	seen := make([]bool, len(perm))
	for _, p := range perm {
		if seen[p] {
			t.Fatalf("perm not a bijection: %d repeated", p)
		}
		seen[p] = true
	}
	// Degrees must be non-increasing in the new ordering.
	inv := make([]int32, len(perm))
	for old, p := range perm {
		inv[p] = int32(old)
	}
	for newID := 1; newID < len(inv); newID++ {
		if g.RowNNZ(int(inv[newID-1])) < g.RowNNZ(int(inv[newID])) {
			t.Fatalf("degree order violated at position %d", newID)
		}
	}
}

func TestKTrussKnownGraphs(t *testing.T) {
	// K5: every edge supported by 3 triangles → 5-truss is all of K5;
	// 6-truss (needs support ≥ 4) is empty.
	k5 := gen.Complete(5)
	res, err := KTruss(k5, 5, core.Options{Algorithm: core.AlgoMSA})
	if err != nil {
		t.Fatal(err)
	}
	if res.Truss.NNZ() != k5.NNZ() {
		t.Errorf("K5 5-truss: nnz = %d, want %d", res.Truss.NNZ(), k5.NNZ())
	}
	res, err = KTruss(k5, 6, core.Options{Algorithm: core.AlgoMSA})
	if err != nil {
		t.Fatal(err)
	}
	if res.Truss.NNZ() != 0 {
		t.Errorf("K5 6-truss: nnz = %d, want 0", res.Truss.NNZ())
	}
	// A ring has no triangles: 3-truss is empty.
	res, err = KTruss(gen.Ring(10), 3, core.Options{Algorithm: core.AlgoHash})
	if err != nil {
		t.Fatal(err)
	}
	if res.Truss.NNZ() != 0 {
		t.Errorf("ring 3-truss: nnz = %d, want 0", res.Truss.NNZ())
	}
	if _, err := KTruss(k5, 2, core.Options{}); err == nil {
		t.Error("want error for k < 3")
	}
	if _, err := KTruss(gen.Random(3, 4, 2, 1), 3, core.Options{}); err == nil {
		t.Error("want error for rectangular adjacency")
	}
}

// TestKTrussWorkloadPlanReuse pins the serving fix: a persistent
// workload reuses cached plans whenever a mask structure recurs.
// Re-running the same k must replay every iteration's plan from
// cache; running a different k must at least reuse the full-graph
// first-iteration plan. Results must be identical to one-shot runs.
// The workload's int64 plans never remember a hit record (only the
// served semiring's do), so repeated runs keep no schedule or bitmap
// and charge the cache nothing beyond their plans.
func TestKTrussWorkloadPlanReuse(t *testing.T) {
	g := gen.RMATSymmetric(gen.RMATConfig{Scale: 8, EdgeFactor: 8, Seed: 31})
	opt := core.Options{Algorithm: core.AlgoMSA}
	w, err := PrepareKTruss(g)
	if err != nil {
		t.Fatal(err)
	}
	first, err := w.Run(5, opt)
	if err != nil {
		t.Fatal(err)
	}
	if first.PlansReused != 0 {
		t.Fatalf("cold run reused %d plans, want 0", first.PlansReused)
	}
	cold := w.CacheStats()
	again, err := w.Run(5, opt)
	if err != nil {
		t.Fatal(err)
	}
	if again.PlansReused != again.Iterations {
		t.Fatalf("repeat run reused %d/%d plans, want all", again.PlansReused, again.Iterations)
	}
	if _, err := w.Run(5, opt); err != nil {
		t.Fatal(err)
	}
	if st := w.CacheStats(); st.ReplayedPlans != 0 || st.BitmapPlans != 0 || st.ScheduleBytes != 0 || st.Bytes != cold.Bytes {
		t.Fatalf("repeat runs remembered: %d replayed and %d bitmap plans, %d schedule bytes, %d bytes after the cold run's %d",
			st.ReplayedPlans, st.BitmapPlans, st.ScheduleBytes, st.Bytes, cold.Bytes)
	}
	if !sparse.PatternEqual(&first.Truss.Pattern, &again.Truss.Pattern) {
		t.Fatal("repeat run changed the truss")
	}
	other, err := w.Run(4, opt)
	if err != nil {
		t.Fatal(err)
	}
	if other.PlansReused < 1 {
		t.Fatal("different k should reuse at least the full-graph plan")
	}
	oneShot, err := KTruss(g, 4, opt)
	if err != nil {
		t.Fatal(err)
	}
	if !sparse.PatternEqual(&oneShot.Truss.Pattern, &other.Truss.Pattern) {
		t.Fatal("workload run differs from one-shot run")
	}
	if st := w.CacheStats(); st.Hits == 0 || st.Entries == 0 {
		t.Fatalf("implausible cache stats %+v", st)
	}
}

func TestPrepareTriangleCountRejectsRectangular(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("want panic for rectangular adjacency")
		}
	}()
	PrepareTriangleCount(gen.Random(3, 4, 2, 1))
}

func TestKTrussMatchesReference(t *testing.T) {
	graphs := []struct {
		name string
		g    *sparse.CSR[float64]
	}{
		{"rmat-s7", gen.RMATSymmetric(gen.RMATConfig{Scale: 7, EdgeFactor: 8, Seed: 21})},
		{"ba-512-m8", gen.BarabasiAlbert(512, 8, 22)},
		{"er-512-d16", gen.Symmetrize(gen.ErdosRenyi(512, 16, 23))},
	}
	for _, g := range graphs {
		for _, k := range []int{3, 4, 5} {
			want := RefKTruss(g.g, k)
			for _, opt := range appAlgorithms(false) {
				res, err := KTruss(g.g, k, opt)
				if err != nil {
					t.Fatalf("%s k=%d %s: %v", g.name, k, opt.SchemeName(), err)
				}
				if !sparse.PatternEqual(&want.Pattern, &res.Truss.Pattern) {
					t.Errorf("%s k=%d %s: truss pattern differs (nnz %d vs %d)",
						g.name, k, opt.SchemeName(), res.Truss.NNZ(), want.NNZ())
				}
				if res.Iterations < 1 || res.Flops < 0 {
					t.Errorf("%s k=%d: implausible stats %+v", g.name, k, res)
				}
			}
		}
	}
}

func bcClose(a, b []float64) string {
	if len(a) != len(b) {
		return fmt.Sprintf("length %d vs %d", len(a), len(b))
	}
	for i := range a {
		d := math.Abs(a[i] - b[i])
		if d > 1e-6*math.Max(1, math.Max(math.Abs(a[i]), math.Abs(b[i]))) {
			return fmt.Sprintf("vertex %d: %g vs %g", i, a[i], b[i])
		}
	}
	return ""
}

func TestBetweennessMatchesBrandes(t *testing.T) {
	graphs := []struct {
		name string
		g    *sparse.CSR[float64]
	}{
		{"path-5", pathGraph(5)},
		{"ring-12", gen.Ring(12)},
		{"k6", gen.Complete(6)},
		{"grid-6x6", gen.Grid2D(6, 6)},
		{"rmat-s7", gen.RMATSymmetric(gen.RMATConfig{Scale: 7, EdgeFactor: 4, Seed: 31})},
		{"ba-200-m4", gen.BarabasiAlbert(200, 4, 32)},
	}
	for _, g := range graphs {
		n := g.g.Rows
		batch := n
		if batch > 64 {
			batch = 64
		}
		sources := BatchSources(n, batch)
		want := RefBrandesBC(g.g, sources)
		for _, opt := range appAlgorithms(true) {
			if opt.Algorithm == core.AlgoInner || opt.Algorithm == core.AlgoDotTranspose {
				// Complemented Inner is Θ(n) dots per row; keep only the
				// smallest graphs to hold test time down.
				if n > 64 {
					continue
				}
			}
			res, err := Betweenness(g.g, sources, opt)
			if err != nil {
				t.Fatalf("%s/%s: %v", g.name, opt.SchemeName(), err)
			}
			if d := bcClose(want, res.Centrality); d != "" {
				t.Errorf("%s/%s: centrality mismatch: %s", g.name, opt.SchemeName(), d)
			}
			if res.Depth < 1 {
				t.Errorf("%s/%s: depth = %d", g.name, opt.SchemeName(), res.Depth)
			}
		}
	}
}

// TestBetweennessCallerReuseOutput pins that a caller opting into
// pooled output buffers cannot corrupt the forward sweep, whose level
// outputs persist across executions: Betweenness must force the flag
// off there.
func TestBetweennessCallerReuseOutput(t *testing.T) {
	g := gen.RMATSymmetric(gen.RMATConfig{Scale: 7, EdgeFactor: 4, Seed: 31})
	sources := BatchSources(g.Rows, 64)
	want := RefBrandesBC(g, sources)
	res, err := Betweenness(g, sources, core.Options{ReuseOutput: true})
	if err != nil {
		t.Fatal(err)
	}
	if d := bcClose(want, res.Centrality); d != "" {
		t.Errorf("ReuseOutput caller: centrality mismatch: %s", d)
	}
}

func TestBetweennessEdgeCases(t *testing.T) {
	g := gen.Ring(8)
	res, err := Betweenness(g, nil, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range res.Centrality {
		if v != 0 {
			t.Fatal("empty batch must give zero centrality")
		}
	}
	if _, err := Betweenness(g, []int32{99}, core.Options{}); err == nil {
		t.Error("want error for out-of-range source")
	}
	rect := gen.Random(4, 5, 2, 1)
	if _, err := Betweenness(rect, []int32{0}, core.Options{}); err == nil {
		t.Error("want error for non-square adjacency")
	}
	// Disconnected graph: two rings; sources only in the first.
	two := disjointUnion(gen.Ring(5), gen.Ring(5))
	res, err = Betweenness(two, BatchSources(5, 5), core.Options{Algorithm: core.AlgoMSA})
	if err != nil {
		t.Fatal(err)
	}
	want := RefBrandesBC(two, BatchSources(5, 5))
	if d := bcClose(want, res.Centrality); d != "" {
		t.Errorf("disconnected: %s", d)
	}
}

// pathGraph returns the path 0-1-2-…-(n-1); interior vertices have
// easily computed centrality.
func pathGraph(n int) *sparse.CSR[float64] {
	coo := sparse.NewCOO[float64](n, n, 2*(n-1))
	for i := 0; i < n-1; i++ {
		coo.Append(int32(i), int32(i+1), 1)
		coo.Append(int32(i+1), int32(i), 1)
	}
	g, err := coo.ToCSR(nil)
	if err != nil {
		panic(err)
	}
	return g
}

// disjointUnion places two graphs on disjoint vertex sets.
func disjointUnion(a, b *sparse.CSR[float64]) *sparse.CSR[float64] {
	n := a.Rows + b.Rows
	coo := sparse.NewCOO[float64](n, n, int(a.NNZ()+b.NNZ()))
	for i := 0; i < a.Rows; i++ {
		for _, j := range a.Row(i) {
			coo.Append(int32(i), j, 1)
		}
	}
	off := int32(a.Rows)
	for i := 0; i < b.Rows; i++ {
		for _, j := range b.Row(i) {
			coo.Append(int32(i)+off, j+off, 1)
		}
	}
	g, err := coo.ToCSR(nil)
	if err != nil {
		panic(err)
	}
	return g
}

func TestBetweennessPathCentrality(t *testing.T) {
	// On path 0-1-2-3-4 with all 5 sources, directed-accumulation BC of
	// vertex v is 2·(#s<v)·(#t>v) summed over orientations: interior
	// vertex 2 lies on s-t paths for (s,t) ∈ {0,1}×{3,4} both ways → 8;
	// but Brandes per-source dependency sums pair contributions once per
	// source: δ over all sources = Σ_s |{t : v on s→t path}| = for v=2:
	// s∈{0,1}: 2 each; s∈{3,4}: 2 each → 8.
	g := pathGraph(5)
	res, err := Betweenness(g, BatchSources(5, 5), core.Options{Algorithm: core.AlgoMSA})
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{0, 6, 8, 6, 0}
	if d := bcClose(want, res.Centrality); d != "" {
		t.Fatalf("path centrality: %s (got %v)", d, res.Centrality)
	}
}

// TestKTrussSymmetricOrderings checks k-truss, whose support product
// C ⊙ (C·C) computes one triangle and mirrors it, against the serial
// reference for k = 3…5 on hubs-first and hubs-last relabelings.
func TestKTrussSymmetricOrderings(t *testing.T) {
	g := gen.RMATSymmetric(gen.RMATConfig{Scale: 9, EdgeFactor: 8, Seed: 41})
	first := sparse.PermuteSym(g, DegreeSortPerm(g))
	last := DegreeSortPerm(g)
	for v := range last {
		last[v] = int32(g.Rows) - 1 - last[v]
	}
	for name, a := range map[string]*sparse.CSR[float64]{"hubs-first": first, "hubs-last": sparse.PermuteSym(g, last)} {
		for k := 3; k <= 5; k++ {
			for _, algo := range []core.Algorithm{core.AlgoMSA, core.AlgoHybrid} {
				res, err := KTruss(a, k, core.Options{Algorithm: algo})
				if err != nil {
					t.Fatal(err)
				}
				if want := RefKTruss(a, k); !sparse.PatternEqual(&res.Truss.Pattern, &want.Pattern) {
					t.Errorf("%s k=%d %v: truss has %d edges, reference %d", name, k, algo, res.Truss.NNZ(), want.NNZ())
				}
			}
		}
	}
}
