package alloc

import (
	"math"
	"math/rand"
	"testing"
)

// requireSameEval asserts bit-identity of two evaluations: validity,
// violation grade, first-failure reason, every objective and every
// per-communication vector.
func requireSameEval(t *testing.T, ctx string, got, want *Eval) {
	t.Helper()
	if got.Valid != want.Valid {
		t.Fatalf("%s: Valid = %v, want %v", ctx, got.Valid, want.Valid)
	}
	sameF := func(name string, g, w float64) {
		t.Helper()
		if math.Float64bits(g) != math.Float64bits(w) {
			t.Fatalf("%s: %s = %v (%016x), want %v (%016x)", ctx, name, g, math.Float64bits(g), w, math.Float64bits(w))
		}
	}
	sameF("Violation", got.Violation, want.Violation)
	sameF("MakespanCycles", got.MakespanCycles, want.MakespanCycles)
	sameF("BitEnergyFJ", got.BitEnergyFJ, want.BitEnergyFJ)
	sameF("MeanBER", got.MeanBER, want.MeanBER)
	sameF("WorstBER", got.WorstBER, want.WorstBER)
	if gr, wr := got.Reason(), want.Reason(); gr != wr {
		t.Fatalf("%s: Reason = %q, want %q", ctx, gr, wr)
	}
	if !want.Valid {
		return
	}
	if len(got.Counts) != len(want.Counts) {
		t.Fatalf("%s: %d counts, want %d", ctx, len(got.Counts), len(want.Counts))
	}
	for i := range want.Counts {
		if got.Counts[i] != want.Counts[i] {
			t.Fatalf("%s: Counts[%d] = %d, want %d", ctx, i, got.Counts[i], want.Counts[i])
		}
		sameF("CommBER", got.CommBER[i], want.CommBER[i])
		sameF("CommEnergyFJ", got.CommEnergyFJ[i], want.CommEnergyFJ[i])
	}
}

// mutateOneGene flips one random gene of g in place and describes the
// flip: the edge row, and the channel released (oldCh) or reserved
// (newCh), -1 for the other.
func mutateOneGene(rng *rand.Rand, g Genome) (edge, oldCh, newCh int) {
	gene := rng.Intn(g.Len())
	edge = gene / g.Channels()
	ch := gene % g.Channels()
	if g.Get(edge, ch) {
		g.Set(edge, ch, false)
		return edge, ch, -1
	}
	g.Set(edge, ch, true)
	return edge, -1, ch
}

// TestDeltaKernelMatchesFull drives long chains of random single-gene
// mutations (plus occasional same-edge channel swaps) through the
// delta kernel and checks every evaluation — objectives, violation
// grade, first-failure reason, per-communication vectors — against a
// fresh full EvaluateInto, across comb sizes. Chains deliberately
// cross in and out of the feasible region, so delta-off-delta
// (captured child becomes the next parent), delta-off-invalid-parent
// fallbacks and full-kernel re-entry are all exercised. Every delta
// evaluation of these one-row children must report EvalPathGeneDelta.
func TestDeltaKernelMatchesFull(t *testing.T) {
	for _, nw := range []int{4, 8, 16} {
		in, err := DefaultInstance(nw)
		if err != nil {
			t.Fatal(err)
		}
		ev, err := NewEvaluator(in)
		if err != nil {
			t.Fatal(err)
		}
		ev.EnableDeltaCache(0)
		ref, err := NewEvaluator(in)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(int64(100 + nw)))

		// Start from a feasible allocation so the first capture exists.
		cur, err := Assign(in, UniformCounts(in.Edges(), 1), FirstFit, nil)
		if err != nil {
			t.Fatal(err)
		}
		var out Eval
		ev.EvaluateInto(&out, cur)
		if !out.Valid {
			t.Fatalf("NW=%d: seed genome invalid: %s", nw, out.Reason())
		}
		lastValid := cur
		deltaCalls := 0
		for step := 0; step < 600; step++ {
			// Long invalid excursions starve the delta path (only valid
			// parents are retained): pull the chain back to the last
			// valid genome now and then, like selection pressure does.
			if rng.Intn(3) == 0 {
				cur = lastValid
			}
			child := cur.Clone()
			edge, oldCh, newCh := mutateOneGene(rng, child)
			if rng.Intn(4) == 0 {
				// Turn the flip into a same-edge channel swap when
				// possible: release one reserved channel, reserve the
				// mutated one (or vice versa), keeping the count.
				if set := child.ChannelSet(edge); oldCh == -1 && len(set) > 1 {
					for _, c := range set {
						if c != newCh {
							child.Set(edge, c, false)
							oldCh = c
							break
						}
					}
				}
			}

			var want Eval
			ref.EvaluateInto(&want, child)

			var got Eval
			if ev.EvaluateNearInto(&got, child, cur.Bits()) {
				deltaCalls++
				if path := ev.LastEvalPath(); path != EvalPathGeneDelta {
					t.Fatalf("NW=%d: one-row child served as path %d, want EvalPathGeneDelta", nw, path)
				}
			}
			requireSameEval(t, "chain", &got, &want)
			cur = child
			if want.Valid {
				lastValid = child
			}
		}
		if deltaCalls < 200 {
			t.Fatalf("NW=%d: only %d delta evaluations in 600 steps — chain never exercised the delta path", nw, deltaCalls)
		}
	}
}

// TestEvaluateNearMatchesFull exercises the general few-row delta
// (crossover-child shape): children differing from a retained parent
// in 1..3 edge rows, plus far children that must fall back to the
// full kernel, all bit-identical to the reference.
func TestEvaluateNearMatchesFull(t *testing.T) {
	for _, nw := range []int{4, 8, 16} {
		in, err := DefaultInstance(nw)
		if err != nil {
			t.Fatal(err)
		}
		ev, err := NewEvaluator(in)
		if err != nil {
			t.Fatal(err)
		}
		ev.EnableDeltaCache(0)
		ref, err := NewEvaluator(in)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(int64(200 + nw)))

		parent, err := Assign(in, UniformCounts(in.Edges(), 1), LeastUsed, nil)
		if err != nil {
			t.Fatal(err)
		}
		var out Eval
		ev.EvaluateInto(&out, parent)
		if !out.Valid {
			t.Fatalf("NW=%d: parent invalid: %s", nw, out.Reason())
		}
		usedDelta, usedFull := 0, 0
		for trial := 0; trial < 400; trial++ {
			child := parent.Clone()
			rows := 1 + rng.Intn(in.Edges()) // up to every row mutated
			for r := 0; r < rows; r++ {
				mutateOneGene(rng, child)
			}
			var want Eval
			ref.EvaluateInto(&want, child)
			var got Eval
			if ev.EvaluateNearInto(&got, child, parent.Bits()) {
				usedDelta++
			} else {
				usedFull++
			}
			requireSameEval(t, "near", &got, &want)
		}
		if usedDelta == 0 || usedFull == 0 {
			t.Fatalf("NW=%d: delta/full split %d/%d — both paths must be exercised", nw, usedDelta, usedFull)
		}
	}
}

// rowDiff counts the edge rows on which two same-shape genomes differ.
func rowDiff(a, b Genome) int {
	nw, d := a.Channels(), 0
	ab, bb := a.Bits(), b.Bits()
	for r := 0; r < a.Edges(); r++ {
		if string(ab[r*nw:(r+1)*nw]) != string(bb[r*nw:(r+1)*nw]) {
			d++
		}
	}
	return d
}

// TestEvaluateCrossMatchesFull exercises the two-parent crossover
// delta: children spliced from two retained parents by gene-level
// two-point crossover (the GA's operator shape), occasionally plus
// mutations, all bit-identical to the full kernel. It additionally
// asserts that the crossover path engages (LastEvalPath reports
// EvalPathCrossDelta) and that children too distant from EITHER
// parent alone — which the single-parent rule would send to the full
// kernel — are still evaluated incrementally when the two parents
// jointly cover all but a few rows.
func TestEvaluateCrossMatchesFull(t *testing.T) {
	for _, nw := range []int{4, 8, 16} {
		in, err := DefaultInstance(nw)
		if err != nil {
			t.Fatal(err)
		}
		ev, err := NewEvaluator(in)
		if err != nil {
			t.Fatal(err)
		}
		ev.EnableDeltaCache(0)
		ref, err := NewEvaluator(in)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(int64(300 + nw)))

		parentA, err := Assign(in, UniformCounts(in.Edges(), 1), FirstFit, nil)
		if err != nil {
			t.Fatal(err)
		}
		var out Eval
		ev.EvaluateInto(&out, parentA)
		if !out.Valid {
			t.Fatalf("NW=%d: parent A invalid: %s", nw, out.Reason())
		}
		// Parent B: swap every row's channel so the parents differ on
		// every edge (retry until the swap combination is feasible).
		var parentB Genome
		for attempt := 0; ; attempt++ {
			if attempt >= 1000 {
				t.Fatalf("NW=%d: no feasible all-rows-distinct mate found", nw)
			}
			cand := parentA.Clone()
			for r := 0; r < in.Edges(); r++ {
				old := cand.ChannelSet(r)[0]
				cand.Set(r, old, false)
				cand.Set(r, (old+1+rng.Intn(nw-1))%nw, true)
			}
			ref.EvaluateInto(&out, cand)
			if out.Valid {
				parentB = cand
				break
			}
		}
		ev.EvaluateInto(&out, parentB)
		if rowDiff(parentA, parentB) != in.Edges() {
			t.Fatalf("NW=%d: mate construction broken", nw)
		}

		maxRows := in.Edges() / 2
		if maxRows < 2 {
			maxRows = 2
		}
		crossDelta, distantDelta, usedFull := 0, 0, 0
		for trial := 0; trial < 500; trial++ {
			c1, c2 := rng.Intn(parentA.Len()+1), rng.Intn(parentA.Len()+1)
			if c1 > c2 {
				c1, c2 = c2, c1
			}
			child := parentA.Clone()
			copy(child.Bits()[c1:c2], parentB.Bits()[c1:c2])
			if rng.Intn(4) == 0 {
				for r := rng.Intn(in.Edges()); r >= 0; r-- {
					mutateOneGene(rng, child)
				}
			}
			var want Eval
			ref.EvaluateInto(&want, child)
			var got Eval
			took := ev.EvaluateNearInto(&got, child, parentA.Bits(), parentB.Bits())
			requireSameEval(t, "cross", &got, &want)
			if !took {
				usedFull++
				continue
			}
			if ev.LastEvalPath() == EvalPathCrossDelta {
				crossDelta++
			}
			dA, dB := rowDiff(child, parentA), rowDiff(child, parentB)
			if dA > maxRows && dB > maxRows {
				distantDelta++
			}
		}
		if crossDelta == 0 {
			t.Fatalf("NW=%d: crossover-delta path never engaged", nw)
		}
		if distantDelta == 0 {
			t.Fatalf("NW=%d: no distant-from-both-parents child took the delta path", nw)
		}
		if usedFull == 0 {
			t.Fatalf("NW=%d: full-kernel fallback never exercised", nw)
		}
	}
}

// TestDeltaHandleMissesInvalid pins the store policy: only valid
// evaluations are retained as parents, so a one-row child of an
// invalid parent goes to the full kernel.
func TestDeltaHandleMissesInvalid(t *testing.T) {
	in, err := DefaultInstance(8)
	if err != nil {
		t.Fatal(err)
	}
	ev, err := NewEvaluator(in)
	if err != nil {
		t.Fatal(err)
	}
	ev.EnableDeltaCache(0)
	zero := in.NewZeroGenome()
	var out Eval
	ev.EvaluateInto(&out, zero)
	if out.Valid {
		t.Fatal("zero genome cannot be valid")
	}
	child := zero.Clone()
	child.Set(0, 0, true)
	if ev.EvaluateNearInto(&out, child, zero.Bits()) || ev.LastEvalPath() != EvalPathFull {
		t.Fatal("invalid evaluation must not be retained as a delta parent")
	}
}

// TestDeltaKernelSteadyStateZeroAllocs pins the delta path's
// allocation budget: re-evaluating an already-retained single-gene
// child off a retained parent performs no heap allocations.
func TestDeltaKernelSteadyStateZeroAllocs(t *testing.T) {
	in, err := DefaultInstance(8)
	if err != nil {
		t.Fatal(err)
	}
	ev, err := NewEvaluator(in)
	if err != nil {
		t.Fatal(err)
	}
	ev.EnableDeltaCache(0)
	parent, err := Assign(in, []int{1, 4, 2, 3, 2, 3}, LeastUsed, nil)
	if err != nil {
		t.Fatal(err)
	}
	var out Eval
	ev.EvaluateInto(&out, parent)
	if !out.Valid {
		t.Fatal(out.Reason())
	}
	child := parent.Clone()
	child.Set(0, parent.ChannelSet(0)[0], false)
	if !ev.EvaluateNearInto(&out, child, parent.Bits()) { // warm: child capture
		t.Fatal("parent not retained")
	}
	allocs := testing.AllocsPerRun(100, func() {
		ev.EvaluateNearInto(&out, child, parent.Bits())
	})
	if allocs != 0 {
		t.Fatalf("delta path allocates %v times per evaluation, want 0", allocs)
	}
}

// FuzzEvaluateDelta feeds arbitrary flip scripts through the delta
// kernel and cross-checks every step against the full kernel.
func FuzzEvaluateDelta(f *testing.F) {
	f.Add(int64(1), []byte{0x01, 0x42, 0x17, 0x99})
	f.Add(int64(7), []byte{0xff, 0x00, 0x3c})
	in, err := DefaultInstance(8)
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, seed int64, script []byte) {
		ev, err := NewEvaluator(in)
		if err != nil {
			t.Fatal(err)
		}
		ev.EnableDeltaCache(64)
		ref, err := NewEvaluator(in)
		if err != nil {
			t.Fatal(err)
		}
		cur, err := Assign(in, UniformCounts(in.Edges(), 1), FirstFit, nil)
		if err != nil {
			t.Fatal(err)
		}
		var out Eval
		ev.EvaluateInto(&out, cur)
		for _, b := range script {
			child := cur.Clone()
			gene := int(b) % child.Len()
			edge, ch := gene/child.Channels(), gene%child.Channels()
			child.Set(edge, ch, !child.Get(edge, ch))
			var want Eval
			ref.EvaluateInto(&want, child)
			var got Eval
			ev.EvaluateNearInto(&got, child, cur.Bits())
			requireSameEval(t, "fuzz", &got, &want)
			cur = child
		}
	})
}
