package core

import (
	"fmt"
	"math"
	"slices"

	"maskedspgemm/internal/parallel"
	"maskedspgemm/internal/semiring"
	"maskedspgemm/internal/sparse"
)

// Per-row poly-algorithm execution — the hybrid §9 sketches ("hybrid
// algorithms that can use different accumulators in the same Masked
// SpGEMM depending on the density of the mask and parts of matrices
// being processed"), generalized from the original pull-vs-push
// choice to a menu of accumulator families. During plan analysis every
// output row is scored under the registry's per-family cost models
// (SchemeInfo.RowCost) on the same structural inputs the scheduler's
// masked-flops profile uses, and bound to the cheapest family on the
// menu. The decisions are stored in the immutable plan as *runs* —
// maximal stretches of consecutive rows sharing one binding — so the
// engine drivers dispatch once per run, not once per row, and cached
// plans replay their mixed bindings for free (DESIGN.md §10).

// Family identifies one accumulator family (DESIGN.md §10). FamPull is
// the pull-based inner-product algorithm; the others are the push
// families of §5. The per-row selector binds the families on the Hybrid
// menu (hybridMenu); the others run only as standalone schemes.
type Family uint8

const (
	// FamMSA is the masked sparse accumulator family (§5.2) — the
	// fallback when a restricted menu leaves no candidate.
	FamMSA Family = iota
	// FamHash is the open-addressing hash family (§5.3).
	FamHash
	// FamMCA is the mask-compressed accumulator family (§5.4). It is
	// off the Hybrid menu: it won no measured workload (DESIGN.md §10).
	// Its value stays pinned with the others.
	FamMCA
	// FamHeap is the multi-way merge family (§5.5), NInspect resolved
	// exactly as for AlgoHeap.
	FamHeap
	// FamPull is the pull-based inner-product algorithm (§4.1); rows
	// bound to it read B through the plan's CSC structure.
	FamPull
	// FamMaskedBit is the bitmap-state masked accumulator family
	// (DESIGN.md §12): MSA's state bytes collapsed into allowed/set
	// bitsets over a zero-kept values array. Appended after FamPull so
	// the bit positions of the preexisting families — serialized by
	// clients through WithHybridFamilies — never renumber
	// (TestFamilyBitPositionsPinned).
	FamMaskedBit
	// NumFamilies is the number of bindable families — the length of
	// per-family tables such as HybridFamilyRows' result.
	NumFamilies
)

// String names the family as in DESIGN.md §10.
func (f Family) String() string {
	switch f {
	case FamMSA:
		return "MSA"
	case FamHash:
		return "Hash"
	case FamMCA:
		return "MCA"
	case FamHeap:
		return "Heap"
	case FamPull:
		return "Pull"
	case FamMaskedBit:
		return "MaskedBit"
	}
	// Out-of-range values (a decoded run from newer code, a corrupted
	// plan) render as a distinct diagnostic name rather than colliding
	// or panicking — stats renderers aggregate by this string.
	return fmt.Sprintf("Family(%d)", uint8(f))
}

// FamilySet is a bitmask of accumulator families, used by
// Options.HybridFamilies to restrict the per-row selector.
type FamilySet uint8

// Families builds a FamilySet from individual families. Out-of-range
// values panic: a typo'd family silently vanishing from the set would
// otherwise degrade to the MSA-only fallback with no signal.
func Families(fams ...Family) FamilySet {
	var s FamilySet
	for _, f := range fams {
		if f >= NumFamilies {
			panic(fmt.Sprintf("core: Families: invalid family %d", f))
		}
		s = s.with(f)
	}
	return s
}

// Has reports whether f is in the set.
func (s FamilySet) Has(f Family) bool { return s&(1<<f) != 0 }

// with returns s with f added.
func (s FamilySet) with(f Family) FamilySet { return s | 1<<f }

// famAlgo maps each family to the registry scheme that carries its
// cost model and display name.
var famAlgo = [NumFamilies]Algorithm{AlgoMSA, AlgoHash, AlgoMCA, AlgoHeap, AlgoInner, AlgoMaskedBit}

// FamilyAlgorithm maps an accumulator family to the registry scheme
// that carries its cost model and standalone kernels (AlgoInner for
// FamPull). ok is false for out-of-range values.
func FamilyAlgorithm(f Family) (Algorithm, bool) {
	if f >= NumFamilies {
		return 0, false
	}
	return famAlgo[f], true
}

// famAny marks a row with no work under any family (empty mask row,
// empty A row, or no admitted positions): the run encoder folds such
// rows into the surrounding run instead of fragmenting dispatch.
const famAny = uint8(255)

// RowCostContext carries the per-row structural quantities every
// family cost model reads. Flops is the row's Gustavson term of the
// masked-flops vector (DESIGN.md §9) — the shared input of selection
// and scheduling. Absolute cost scale cancels in selection; only the
// crossovers between families matter.
type RowCostContext struct {
	// MaskNNZ is nnz(m_i).
	MaskNNZ int
	// ARowNNZ is nnz(A_i*).
	ARowNNZ int
	// Flops is Σ_{k∈A_i*} nnz(B_k*), the row's push-generation work.
	Flops int64
	// BColSum is Σ nnz(B_*j) over the row's admitted columns j: the
	// total length of the B columns a pull row merges A_i* against.
	// It is summed exactly rather than estimated from B's mean column
	// population: on skewed inputs the mask entries land on hub columns,
	// and the mean underprices those dots by orders of magnitude.
	BColSum int64
	// Cols is the output width n.
	Cols int
	// Complement marks a complemented mask, which flips the admitted
	// set to the mask row's complement.
	Complement bool
	// HeapNInspect is the resolved mask-inspection depth the heap
	// kernels would run with (resolveHeapNInspect) — the heap model
	// must price what would actually execute, including the
	// Options.HeapNInspect override.
	HeapNInspect int
}

// admitted returns the number of admitted mask positions.
func (c RowCostContext) admitted() float64 {
	if c.Complement {
		return float64(c.Cols - c.MaskNNZ)
	}
	return float64(c.MaskNNZ)
}

// outBound returns the §5.2-style bound on the output row population:
// min(admitted, flops).
func (c RowCostContext) outBound() float64 {
	if f := float64(c.Flops); f < c.admitted() {
		return f
	}
	return c.admitted()
}

// touchSpacing returns the mean column spacing of the keys a dense-array
// accumulator touches in this row. On a plain mask those are the mask
// row's entries; under a complement they are the row's outputs, bounded
// by outBound, so a sparse mask row with a dense output stays hot.
func (c RowCostContext) touchSpacing() float64 {
	touched := float64(c.MaskNNZ)
	if c.Complement {
		touched = c.outBound()
	}
	return float64(c.Cols) / (touched + 1)
}

// Cost-model constants (DESIGN.md §10). The unit is one step of an MSA
// Scatter: a state test on cache-resident data, plus the multiply-add
// when the column is admitted. The families whose kernels do not run
// through Scatter (Heap, Pull) carry per-step constants measured
// against it by hand.
const (
	// hashOpFactor prices a hash-table probe against an MSA
	// direct-address insert.
	hashOpFactor = 2.0
	// msaCacheCols is the output width beyond which MSA's dense
	// width-n arrays outgrow cache, so sparse rows pay a cold line per
	// scattered touch.
	msaCacheCols = 1 << 16
	// msaColdMax caps the cold-line factor.
	msaColdMax = 3.0
	// heapPushCost prices one heap push/pop round trip against a
	// Scatter step.
	heapPushCost = 7.5
	// heapWalk prices the inspect-skip walk per streamed B candidate —
	// a pointer bump, a compare and a heap-top reload per candidate.
	heapWalk = 1.8
	// pullMergeStep prices one step of a pull dot's merge of A_i*
	// against B_*j, with the per-dot set-up spread over its steps.
	pullMergeStep = 3.5
	// heapMaskNear scales the probability that a streamed candidate
	// finds a mask element at or past its column during the NInspect=1
	// inspection and therefore takes a full heap round trip instead of
	// a cheap skip: ≈ min(1, heapMaskNear·m/n). Fitted by hand on the
	// hybridmix sweep — at 8·m/n the model reproduces the measured
	// order-of-magnitude gap between Heap on dense masks (every
	// candidate round-trips) and tiny masks (iterators die at insert).
	heapMaskNear = 8.0
	// maskedBitWalkFactor prices MaskedBit's Begin mask walk against
	// MSA's: the bitset fill reads every mask entry but flushes one
	// word store per 64-column word instead of one byte store per
	// entry.
	maskedBitWalkFactor = 0.5
	// maskedBitGatherWord prices one word of the Gather/EndSymbolic
	// word walk, which spans the row's column range at 64 columns per
	// word: the per-row cleanup term is (Cols/64)·maskedBitGatherWord
	// rather than a second O(nnz(mask row)) walk. It is what makes
	// MaskedBit cheap on dense rows (range/64 ≪ nnz) and dear on very
	// sparse ones (range/64 ≫ nnz), independent of the flop balance.
	maskedBitGatherWord = 1.0
	// maskedBitInsertFactor prices the fused bit-test add against
	// MSA's state-byte automaton step: the unconditional set-bit store
	// makes the accumulate path slightly dearer per flop, which is why
	// flops-dominated rows (flops ≫ nnz(mask row)) stay with MSA.
	maskedBitInsertFactor = 1.1
	// maskedBitColdScale softens the cold-line penalty relative to
	// MSA: the values array is as wide as MSA's, but the state traffic
	// shrinks 8×, keeping the bitset cache-resident long after MSA's
	// state bytes spill.
	maskedBitColdScale = 0.75
)

// msaRowCost models MSA (§5.2): mask-row walks for Begin and Gather
// plus one direct-address insert per flop. The touches scatter over
// width-n arrays, so once the row is sparse (touch spacing beyond a
// cache line) and the arrays outgrow cache, each touch pays a cold
// line — the regime where Hash overtakes MSA.
func msaRowCost(c RowCostContext) float64 {
	m, f := float64(c.MaskNNZ), float64(c.Flops)
	touch := 1.0
	if c.touchSpacing() > 8 {
		touch += math.Min(msaColdMax, float64(c.Cols)/msaCacheCols)
	}
	if c.Complement {
		// MSAC tracks inserted keys and sorts them at gather.
		out := c.outBound()
		return 1 + (m+f)*touch + 0.5*out*math.Log2(out+2)
	}
	return 1 + (2*m+f+c.outBound())*touch
}

// maskedBitRowCost models MaskedBit (DESIGN.md §12): MSA's row shape
// with the state byte per column collapsed to two bits. The Begin fill
// (maskedBitWalkFactor), Gather's cleanup is a word walk over the
// row's column range (maskedBitGatherWord) rather than a second mask
// walk, the fused insert pays a small premium for its unconditional
// set-bit store (maskedBitInsertFactor), and the cold-line regime is
// softened because only the width-n values array — not the states —
// outgrows cache (maskedBitColdScale). The crossover against MSA
// therefore sits where mask rows are dense relative to the flops that
// land on them: walks dominate → MaskedBit; flops dominate → MSA.
func maskedBitRowCost(c RowCostContext) float64 {
	m, f := float64(c.MaskNNZ), float64(c.Flops)
	words := maskedBitGatherWord * (float64(c.Cols)/64 + 1)
	touch := 1.0
	if c.touchSpacing() > 8 {
		touch += maskedBitColdScale * math.Min(msaColdMax, float64(c.Cols)/msaCacheCols)
	}
	if c.Complement {
		// MaskedBitC gathers by walking its set bitset when the inserted
		// keys are dense enough in their word span, and sorts them
		// otherwise, whichever measures faster (DESIGN §12): the cheaper
		// of a full-width word walk and MSAC's sort, plus one emit per
		// output.
		out := c.outBound()
		return 1 + (maskedBitWalkFactor*m+f)*touch + math.Min(words, 0.5*out*math.Log2(out+2)) + out
	}
	return 1 + (maskedBitWalkFactor*m+words+maskedBitInsertFactor*f+c.outBound())*touch
}

// hashRowCost models Hash (§5.3): the same row shape as MSA but every
// operation is a probe into a table compressed to O(nnz(m_i)) — hot
// lines at a constant per-op premium, insensitive to n.
func hashRowCost(c RowCostContext) float64 {
	m, f := float64(c.MaskNNZ), float64(c.Flops)
	if c.Complement {
		out := c.outBound()
		return 1 + hashOpFactor*(m+f) + 0.5*out*math.Log2(out+2)
	}
	return 1 + hashOpFactor*(2*m+f) + c.outBound()
}

// heapRowCost models Heap (§5.5, NInspect=1): a·log a heap setup plus
// one of two fates per streamed B candidate — a cheap inspect-skip
// (the candidate's column is below the mask cursor, or the iterator
// dies) or a full heap round trip (a mask element sits at or past the
// column, probability ≈ min(1, heapMaskNear·m/n)). No accumulator is
// ever touched, which is why Heap wins exactly when A rows are short
// and the mask is tiny: the stream is all skips and the heap stays
// a-small.
func heapRowCost(c RowCostContext) float64 {
	m, a, f := float64(c.MaskNNZ), float64(c.ARowNNZ), float64(c.Flops)
	lg := math.Log2(a + 2)
	if c.Complement || c.HeapNInspect == 0 {
		// No inspection (complemented heaps always, plain heaps under
		// the HeapInspectNone override): every candidate takes a full
		// heap round trip.
		return 1 + heapPushCost*(a+f)*lg + m
	}
	near := heapMaskNear * m / float64(c.Cols)
	if near > 1 {
		near = 1
	}
	return 1 + heapPushCost*a*lg + f*(heapWalk+heapPushCost*lg*near) + 0.5*m
}

// pullRowCost models the pull-based inner products (§4.1): one
// merge-dot of a + nnz(B_*j) steps per admitted position j, the §4.3
// model summed exactly over the row's admitted columns. Under a
// complemented mask that is Θ(n) dots, which is why pull practically
// never wins there (§8.4) but stays admissible.
func pullRowCost(c RowCostContext) float64 {
	return 1 + pullMergeStep*(c.admitted()*float64(c.ARowNNZ)+float64(c.BColSum))
}

// bColCounts is the B-column side of the pull cost: nnz(B_*j) for every
// column j, from one O(nnz(B)) pass per plan.
type bColCounts struct {
	nnz   []int32
	total int64
}

// newBColCounts histograms B's column indices.
func newBColCounts[T any](b *sparse.CSR[T]) bColCounts {
	c := bColCounts{nnz: make([]int32, b.Cols), total: int64(b.NNZ())}
	for _, j := range b.ColIdx {
		c.nnz[j]++
	}
	return c
}

// admitted returns Σ nnz(B_*j) over the columns a mask row admits: its
// own entries on a plain mask, every other column under a complement.
func (c bColCounts) admitted(maskRow []int32, complement bool) int64 {
	var sum int64
	for _, j := range maskRow {
		sum += int64(c.nnz[j])
	}
	if complement {
		return c.total - sum
	}
	return sum
}

// hybridMenu resolves Options.HybridFamilies against the Hybrid menu:
// the families whose registry scheme carries a RowCost model. Zero
// requests the whole menu; an explicit set is intersected with it, and
// if nothing remains the selector falls back to MSA. A family joins the
// menu through its registry entry, so its scheme must support
// complemented masks (menu families bind under either mask mode,
// TestHybridMenu), and newDetachedPlan must set any sizing hint its
// binder reads.
func hybridMenu(req FamilySet) (fams []Family, models []func(RowCostContext) float64) {
	for f := Family(0); f < NumFamilies; f++ {
		if s, _ := LookupScheme(famAlgo[f]); s.RowCost != nil && (req == 0 || req.Has(f)) {
			fams, models = append(fams, f), append(models, s.RowCost)
		}
	}
	if len(fams) == 0 {
		return hybridMenu(Families(FamMSA))
	}
	return fams, models
}

// polyScan evaluates the menu's cost models on every row and writes
// each row's cheapest family into fam (famAny for rows with no work
// under any family) and, when cost is non-nil, the chosen cost — the
// scheduling profile planSchedule reuses. opt must be normalized. The
// scan runs at the host's full width: plan-time analysis is independent
// of the width the plan later executes at.
func polyScan[T any](mask *sparse.Pattern, a, b *sparse.CSR[T], opt Options, fam []uint8, cost []int64) {
	fams, models := hybridMenu(opt.HybridFamilies)
	pullAt := slices.Index(fams, FamPull)
	colCounts := newBColCounts(b)
	cols, complement := mask.Cols, opt.Complement
	nInspect := resolveHeapNInspect(opt)
	parallel.ForEachBlock(mask.Rows, parallel.Threads(0), opt.Grain, func(lo, hi, _ int) {
		for i := lo; i < hi; i++ {
			maskRow := mask.Row(i)
			aRow := a.Row(i)
			var flops int64
			for _, k := range aRow {
				flops += b.RowPtr[k+1] - b.RowPtr[k]
			}
			admitted := len(maskRow)
			if complement {
				admitted = cols - len(maskRow)
			}
			if admitted == 0 || flops == 0 {
				fam[i] = famAny
				if cost != nil {
					cost[i] = 1
				}
				continue
			}
			ctx := RowCostContext{
				MaskNNZ: len(maskRow), ARowNNZ: len(aRow), Flops: flops,
				Cols: cols, Complement: complement, HeapNInspect: nInspect,
			}
			best, bestCost := fams[0], math.Inf(1)
			for j, model := range models {
				if j == pullAt {
					continue
				}
				if c := model(ctx); c < bestCost {
					best, bestCost = fams[j], c
				}
			}
			// Pull's cost grows with BColSum, so its value at zero bounds
			// it below: the mask-row walk for the exact sum runs only on
			// rows where pull can still win.
			if pullAt >= 0 && models[pullAt](ctx) < bestCost {
				ctx.BColSum = colCounts.admitted(maskRow, complement)
				if c := models[pullAt](ctx); c < bestCost {
					best, bestCost = FamPull, c
				}
			}
			fam[i] = uint8(best)
			if cost != nil {
				cost[i] = 1 + int64(bestCost)
			}
		}
	})
}

// resolveTrivial rewrites famAny rows in place so every row carries a
// concrete family: a leading stretch of don't-cares joins the first
// concrete family (MSA if the whole workload is trivial), later ones
// join the run in progress. Trivial rows execute correctly under any
// family, so folding them maximizes run length.
func resolveTrivial(fam []uint8) {
	cur := uint8(FamMSA)
	for _, f := range fam {
		if f != famAny {
			cur = f
			break
		}
	}
	for i, f := range fam {
		if f == famAny {
			fam[i] = cur
		} else {
			cur = f
		}
	}
}

// planHybrid runs the per-row selector and stores the decisions in
// the immutable plan as runs. With needCost it also returns the
// per-row chosen costs (with the spare trailing slot planSchedule
// prefix-sums into), which planSchedule uses as its scheduling
// profile — selection and scheduling read one shared cost picture;
// plans whose schedule is explicitly cost-blind skip the O(rows)
// vector entirely.
//
//mspgemm:planwrite
func (p *Plan[T, S]) planHybrid(a, b *sparse.CSR[T], needCost bool) []int64 {
	rowFam := make([]uint8, p.mask.Rows)
	var cost []int64
	if needCost {
		cost = make([]int64, p.mask.Rows+1)
	}
	polyScan(p.mask, a, b, p.opt, rowFam, cost)
	p.encodeRuns(rowFam)
	return cost
}

// encodeRuns compresses the resolved per-row families into the plan's
// run encoding: run r covers rows [runEnds[r-1], runEnds[r]) (with
// runEnds[-1] = 0) and executes family runFam[r]. polyFams collects
// the families bound by at least one run — exactly the accumulators
// the executor will materialize.
//
//mspgemm:planwrite
func (p *Plan[T, S]) encodeRuns(rowFam []uint8) {
	resolveTrivial(rowFam)
	rows := len(rowFam)
	cur := uint8(FamMSA)
	if rows > 0 {
		cur = rowFam[0]
	}
	ends := make([]int32, 0, 8)
	fams := make([]uint8, 0, 8)
	for i := 1; i < rows; i++ {
		if rowFam[i] != cur {
			ends = append(ends, int32(i))
			fams = append(fams, cur)
			cur = rowFam[i]
		}
	}
	ends = append(ends, int32(rows))
	fams = append(fams, cur)
	p.runEnds, p.runFam = ends, fams
	var set FamilySet
	for _, f := range fams {
		set = set.with(Family(f))
	}
	p.polyFams = set
}

// bindHybrid builds the poly plan's kernel tables under either mask
// mode: one kernel pair per family the run encoding actually uses, each
// bound by that family's own registry entry, so poly rows execute
// exactly the registered kernels. Families without a run get no
// kernels — and, downstream, no accumulators: the per-worker workspaces
// construct lazily on first row, so a single-family poly plan allocates
// exactly what the plain scheme would.
func bindHybrid[T any, S semiring.Semiring[T]](p *Plan[T, S], e *Executor[T, S], a, b *sparse.CSR[T]) kernels[T] {
	numFam := make([]rowNumericFn[T], NumFamilies)
	symFam := make([]rowSymbolicFn, NumFamilies)
	for f := Family(0); f < NumFamilies; f++ {
		if !p.polyFams.Has(f) {
			continue
		}
		fk := kernelsForAlgo[T, S](famAlgo[f]).binder(p.opt.Complement)(p, e, a, b)
		numFam[f], symFam[f] = fk.numeric, fk.symbolic
	}
	return kernels[T]{runEnds: p.runEnds, runFam: p.runFam, numFam: numFam, symFam: symFam}
}

// FamilyRows reports the per-family row counts of the plan's run
// encoding — what this plan's executions actually dispatch, decoded
// straight from the stored runs. All zeros for non-poly plans.
func (p *Plan[T, S]) FamilyRows() [NumFamilies]int {
	var out [NumFamilies]int
	prev := int32(0)
	for r, end := range p.runEnds {
		out[p.runFam[r]] += int(end - prev)
		prev = end
	}
	return out
}

// HybridFamilyRows reports how AlgoHybrid's per-row selector would
// bind a workload's rows under the given options: one row count per
// family, indexed by Family. Trivial rows are folded into their
// surrounding run and counted under the family they execute as —
// the counts sum to mask.Rows.
func HybridFamilyRows[T any](mask *sparse.Pattern, a, b *sparse.CSR[T], opt Options) [NumFamilies]int {
	opt.Algorithm = AlgoHybrid
	opt.normalize()
	fam := make([]uint8, mask.Rows)
	polyScan(mask, a, b, opt, fam, nil)
	resolveTrivial(fam)
	var out [NumFamilies]int
	for _, f := range fam {
		out[f]++
	}
	return out
}
