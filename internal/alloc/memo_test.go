package alloc

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"unsafe"

	"repro/internal/crossbar"
	"repro/internal/energy"
	"repro/internal/fabric"
	"repro/internal/graph"
	"repro/internal/phys"
	"repro/internal/ring"
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

// requireExplained holds a valid evaluation of g to Explain, which
// walks every budget directly: each communication's mean BER and laser
// energy must agree bit for bit.
func requireExplained(t *testing.T, ctx string, in *Instance, g Genome, got *Eval) {
	t.Helper()
	ex, err := in.Explain(g)
	if err != nil {
		t.Fatalf("%s: %v", ctx, err)
	}
	for _, cb := range ex.Comms {
		var sum float64
		powers := make([]phys.MilliWatt, 0, len(cb.Lambdas))
		for _, lb := range cb.Lambdas {
			sum += lb.BER
			powers = append(powers, lb.LaserMW)
		}
		mean := sum / float64(len(cb.Lambdas))
		fj := in.Energy.EnergyFJ(powers, cb.Window.Duration())
		if math.Float64bits(mean) != math.Float64bits(got.CommBER[cb.Edge]) ||
			math.Float64bits(fj) != math.Float64bits(got.CommEnergyFJ[cb.Edge]) {
			t.Fatalf("%s: genome %s, %s: explained BER %g / %g fJ, kernel %g / %g fJ",
				ctx, g, cb.Name, mean, fj, got.CommBER[cb.Edge], got.CommEnergyFJ[cb.Edge])
		}
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

// memoConfig is one instance variant the memo is held to.
type memoConfig struct {
	backend   string // "ring", "bidir" or "crossbar"
	nw        int
	berTarget float64
	xtalk     CrosstalkMode
}

func (c memoConfig) String() string {
	return fmt.Sprintf("%s/NW%d/target%g/%v", c.backend, c.nw, c.berTarget, c.xtalk)
}

// memoConfigs spans the fabrics at every tested comb, plus both laser
// modes and the single-source crosstalk modes at NW 8.
func memoConfigs(backends ...string) []memoConfig {
	var cs []memoConfig
	for _, b := range backends {
		for _, nw := range []int{4, 8, 16} {
			cs = append(cs, memoConfig{backend: b, nw: nw})
		}
		cs = append(cs,
			memoConfig{backend: b, nw: 8, berTarget: 1e-9},
			memoConfig{backend: b, nw: 8, xtalk: XtalkIntraOnly},
			memoConfig{backend: b, nw: 8, xtalk: XtalkInterOnly})
	}
	return cs
}

func (c memoConfig) instance(t *testing.T) *Instance {
	t.Helper()
	var f fabric.Fabric
	var err error
	switch c.backend {
	case "crossbar":
		f, err = crossbar.New(crossbar.DefaultConfig(c.nw))
	default:
		cfg := ring.DefaultConfig(c.nw)
		cfg.Bidirectional = c.backend == "bidir"
		f, err = ring.New(cfg)
	}
	if err != nil {
		t.Fatal(err)
	}
	em := energy.Default()
	em.BERTarget = c.berTarget
	in, err := NewInstance(f, graph.PaperApp(), graph.PaperMapping(), 1, em)
	if err != nil {
		t.Fatal(err)
	}
	in.Xtalk = c.xtalk
	return in
}

// transmitting counts the communications whose optics a valid
// evaluation walks or replays: one memo lookup each.
func transmitting(in *Instance, out *Eval) int {
	n := 0
	for ei := range in.App.Edges {
		if in.App.Edges[ei].VolumeBits > 0 && out.Counts[ei] > 0 && !in.selfEdge[ei] {
			n++
		}
	}
	return n
}

// memoTally counts a warm evaluator's memo lookups and misses (new
// entries) over a run too short to reach a wholesale reset.
type memoTally struct{ lookups, misses int }

func (m *memoTally) add(t *testing.T, ev *Evaluator, out *Eval, before int) {
	t.Helper()
	after := len(ev.memo.ents)
	if after < before {
		t.Fatal("memo reset during a short chain")
	}
	m.misses += after - before
	if out.Valid {
		m.lookups += transmitting(ev.in, out)
	}
}

// requireHitShare fails when the memo served less than min of the
// lookups: a memo that never hits must not pass as exact.
func (m memoTally) requireHitShare(t *testing.T, ctx string, min float64) {
	t.Helper()
	if m.lookups == 0 {
		t.Fatalf("%s: no valid evaluation reached the optics", ctx)
	}
	share := float64(m.lookups-m.misses) / float64(m.lookups)
	t.Logf("%s: memo served %d of %d lookups (%.0f %%)", ctx, m.lookups-m.misses, m.lookups, 100*share)
	if share < min {
		t.Fatalf("%s: memo served %d of %d lookups (%.0f %%), want at least %.0f %%",
			ctx, m.lookups-m.misses, m.lookups, 100*share, 100*min)
	}
}

// runKernelChain drives a random mutation chain through a long-lived
// evaluator on inMemo, whose memo stays warm across the chain, and
// checks every evaluation against a fresh evaluator on inRef (a cold
// memo) and, when valid, against Explain. Steps are single-gene flips,
// same-edge channel swaps and crossover-shaped splices of a row from
// the last valid genome; the chain crosses in and out of the feasible
// region, so failure reasons are compared too. It returns the memo's
// lookups and misses.
func runKernelChain(t *testing.T, ctx string, inMemo, inRef *Instance, seed int64, steps int) memoTally {
	t.Helper()
	ev, err := NewEvaluator(inMemo)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(seed))
	cur, err := Assign(inMemo, UniformCounts(inMemo.Edges(), 1), FirstFit, nil)
	if err != nil {
		t.Fatal(err)
	}
	lastValid := cur
	var tally memoTally
	for step := 0; step < steps; step++ {
		// Long invalid excursions would starve the optics: pull the
		// chain back to the last valid genome now and then, like
		// selection pressure does.
		if rng.Intn(3) == 0 {
			cur = lastValid
		}
		child := cur.Clone()
		edge, oldCh, newCh := mutateOneGene(rng, child)
		switch rng.Intn(5) {
		case 0:
			// Same-edge channel swap: after reserving newCh, release
			// another reserved channel of the row, keeping the count.
			if set := child.ChannelSet(edge); oldCh == -1 && len(set) > 1 {
				for _, c := range set {
					if c != newCh {
						child.Set(edge, c, false)
						break
					}
				}
			}
		case 1:
			// Crossover shape: splice a second edge row from the last
			// valid genome.
			other := (edge + 1) % child.Edges()
			for c := 0; c < child.Channels(); c++ {
				child.Set(other, c, lastValid.Get(other, c))
			}
		}

		fresh, err := NewEvaluator(inRef)
		if err != nil {
			t.Fatal(err)
		}
		var want Eval
		fresh.EvaluateInto(&want, child)

		before := len(ev.memo.ents)
		var got Eval
		ev.EvaluateInto(&got, child)
		tally.add(t, ev, &got, before)
		requireSameEval(t, ctx, &got, &want)
		if want.Valid {
			requireExplained(t, ctx, inRef, child, &got)
			lastValid = child
		}
		cur = child
	}
	return tally
}

// TestMemoKernelMatchesFull holds the warm memo to the cold kernel and
// to Explain on the ring, one-way and bidirectional, across comb
// sizes, both laser-sizing modes and the single-source crosstalk
// modes, and requires the memo to serve a real share of the lookups.
func TestMemoKernelMatchesFull(t *testing.T) {
	for i, c := range memoConfigs("ring", "bidir") {
		in := c.instance(t)
		tally := runKernelChain(t, c.String(), in, in, int64(100+i), 400)
		tally.requireHitShare(t, c.String(), 0.3)
	}
}

// TestCrossbarMemoKernelMatchesFull runs the same chains on the
// crossbar: all paths share lane 0 and overlap exactly by destination,
// and a path crosses no receiver bank but its own, so keys there are
// short and contributor sets large.
func TestCrossbarMemoKernelMatchesFull(t *testing.T) {
	for i, c := range memoConfigs("crossbar") {
		in := c.instance(t)
		tally := runKernelChain(t, c.String(), in, in, int64(900+i), 400)
		tally.requireHitShare(t, c.String(), 0.3)
	}
}

// TestMemoKernelRandomApps runs the chains on random layered task
// graphs mapped at random onto every fabric, injective and shared-core
// (self edges included): many more communications than the paper's
// six, so contributors come from ONIs far outside the victim's own
// path and contributor sets vary between keys of the same edge.
func TestMemoKernelRandomApps(t *testing.T) {
	for _, backend := range []string{"ring", "bidir", "crossbar"} {
		ran := 0
		for seed := int64(1); seed <= 4; seed++ {
			rng := rand.New(rand.NewSource(seed))
			app, err := graph.Layered(rng, 3+int(seed%2), 4, 0.5, graph.DefaultGenConfig())
			if err != nil {
				t.Fatal(err)
			}
			base := memoConfig{backend: backend, nw: 16}.instance(t)
			var m graph.Mapping
			if seed%2 == 0 {
				m, err = graph.RandomMapping(rng, app, base.Fabric().Size())
			} else {
				m, err = graph.SharedRandomMapping(rng, app, base.Fabric().Size())
			}
			if err != nil {
				t.Fatal(err)
			}
			in, err := NewInstance(base.Fabric(), app, m, 1, energy.Default())
			if err != nil {
				t.Fatal(err)
			}
			if _, err := Assign(in, UniformCounts(in.Edges(), 1), FirstFit, nil); err != nil {
				continue // no one-wavelength start for this draw
			}
			ctx := fmt.Sprintf("%s/app%d (%d comms)", backend, seed, in.Edges())
			tally := runKernelChain(t, ctx, in, in, seed, 300)
			tally.requireHitShare(t, ctx, 0.2)
			ran++
		}
		if ran < 2 {
			t.Fatalf("%s: only %d of 4 random applications had a feasible start", backend, ran)
		}
	}
}

// TestEvaluateNearMatchesFull evaluates children differing from one
// parent in 1..all edge rows through a warm evaluator, bit-identical
// to a fresh one: the rows a child shares with its parent replay.
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
		rng := rand.New(rand.NewSource(int64(200 + nw)))

		parent, err := Assign(in, UniformCounts(in.Edges(), 1), LeastUsed, nil)
		if err != nil {
			t.Fatal(err)
		}
		var tally memoTally
		for trial := 0; trial < 400; trial++ {
			child := parent.Clone()
			rows := 1 + rng.Intn(in.Edges()) // up to every row mutated
			for r := 0; r < rows; r++ {
				mutateOneGene(rng, child)
			}
			fresh, err := NewEvaluator(in)
			if err != nil {
				t.Fatal(err)
			}
			var want Eval
			fresh.EvaluateInto(&want, child)
			before := len(ev.memo.ents)
			var got Eval
			ev.EvaluateInto(&got, child)
			tally.add(t, ev, &got, before)
			requireSameEval(t, "near", &got, &want)
		}
		tally.requireHitShare(t, fmt.Sprintf("NW=%d", nw), 0.3)
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

// TestEvaluateCrossMatchesFull evaluates crossover children spliced
// from two parents that differ on every row (the GA's two-point
// operator), occasionally plus mutations, through a warm evaluator,
// bit-identical to a fresh one.
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
		if rowDiff(parentA, parentB) != in.Edges() {
			t.Fatalf("NW=%d: mate construction broken", nw)
		}

		var tally memoTally
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
			fresh, err := NewEvaluator(in)
			if err != nil {
				t.Fatal(err)
			}
			var want Eval
			fresh.EvaluateInto(&want, child)
			before := len(ev.memo.ents)
			var got Eval
			ev.EvaluateInto(&got, child)
			tally.add(t, ev, &got, before)
			requireSameEval(t, "cross", &got, &want)
		}
		tally.requireHitShare(t, fmt.Sprintf("NW=%d", nw), 0.3)
	}
}

// TestMemoSkipsInvalid pins that an invalid genome is rejected before
// the optics: it stores nothing in the memo.
func TestMemoSkipsInvalid(t *testing.T) {
	in, err := DefaultInstance(8)
	if err != nil {
		t.Fatal(err)
	}
	ev, err := NewEvaluator(in)
	if err != nil {
		t.Fatal(err)
	}
	zero := in.NewZeroGenome()
	var out Eval
	ev.EvaluateInto(&out, zero)
	child := zero.Clone()
	child.Set(0, 0, true)
	ev.EvaluateInto(&out, child)
	if out.Valid {
		t.Fatal("a genome with unserved communications cannot be valid")
	}
	if len(ev.memo.ents) != 0 || ev.memo.table != nil {
		t.Fatalf("invalid evaluations stored %d memo entries", len(ev.memo.ents))
	}
}

// TestMemoFollowsInstanceModel changes the instance's crosstalk mode
// and energy model between evaluations of one evaluator: the memo
// keys leave both out, so the evaluator must start its memo over and
// match a fresh evaluator under the new model.
func TestMemoFollowsInstanceModel(t *testing.T) {
	in, err := DefaultInstance(8)
	if err != nil {
		t.Fatal(err)
	}
	ev, err := NewEvaluator(in)
	if err != nil {
		t.Fatal(err)
	}
	g, err := Assign(in, []int{1, 4, 2, 3, 2, 3}, LeastUsed, nil)
	if err != nil {
		t.Fatal(err)
	}
	var got Eval
	ev.EvaluateInto(&got, g)
	for i, change := range []func(){
		func() { in.Xtalk = XtalkInterOnly },
		func() { in.Energy.BERTarget = 1e-9 },
		func() { in.Energy.RxTargetDBm-- },
	} {
		change()
		fresh, err := NewEvaluator(in)
		if err != nil {
			t.Fatal(err)
		}
		var want Eval
		fresh.EvaluateInto(&want, g)
		ev.EvaluateInto(&got, g)
		requireSameEval(t, fmt.Sprintf("change %d", i), &got, &want)
	}
}

// memoBytes reports the memory a memo holds.
func memoBytes(m *edgeMemo) int {
	return 4*cap(m.table) + memoEntBytes*cap(m.ents) + 8*cap(m.keys) + 8*cap(m.vals)
}

// TestEdgeMemoBound pins the memo's memory contract: it never holds
// more than memoBudget, a wholesale reset keeps every array's
// capacity, an entry stays retrievable until the next reset, and a
// warm evaluator makes no allocation, misses and resets included.
func TestEdgeMemoBound(t *testing.T) {
	if unsafe.Sizeof(memoEnt{}) != memoEntBytes {
		t.Fatalf("memoEnt is %d bytes, memoEntBytes says %d", unsafe.Sizeof(memoEnt{}), memoEntBytes)
	}
	// Short keys fill the entry bound first, long keys the key arena.
	for _, keyLen := range []int{8, 100} {
		var m edgeMemo
		key := make([]uint64, keyLen)
		vals := []float64{1, 2, 3}
		resets := 0
		var capsAtReset [4]int
		for i := 0; i < 3*memoEntries; i++ {
			key[0] = uint64(i)
			vals[0] = float64(i)
			_, h, ok := m.lookup(key)
			if ok {
				t.Fatalf("key %d found before its insert", i)
			}
			before := len(m.ents)
			m.insert(h, key, vals)
			if len(m.ents) < before {
				caps := [4]int{len(m.table), cap(m.ents), cap(m.keys), cap(m.vals)}
				if resets > 0 && caps != capsAtReset {
					t.Fatalf("key length %d: reset %d changed capacities %v -> %v", keyLen, resets, capsAtReset, caps)
				}
				resets++
				capsAtReset = caps
				if len(m.ents) != 1 {
					t.Fatalf("key length %d: %d entries after a reset", keyLen, len(m.ents))
				}
			}
			if b := memoBytes(&m); b > memoBudget {
				t.Fatalf("key length %d: memo holds %d bytes, budget %d", keyLen, b, memoBudget)
			}
			// The first key since the last reset is still there.
			first := m.keys[m.ents[0].key : m.ents[0].key+m.ents[0].nkey]
			got, _, ok := m.lookup(first)
			if !ok || got[0] != float64(first[0]) {
				t.Fatalf("key length %d: entry %d lost before a reset", keyLen, first[0])
			}
		}
		if resets < 2 {
			t.Fatalf("key length %d: %d resets in %d inserts", keyLen, resets, 3*memoEntries)
		}
	}

	// A warm evaluator: fill its memo to every bound once, then cycle
	// distinct genomes through misses and resets without allocating.
	in, err := DefaultInstance(8)
	if err != nil {
		t.Fatal(err)
	}
	ev, err := NewEvaluator(in)
	if err != nil {
		t.Fatal(err)
	}
	gs := distinctValid(t, in, 64)
	var out Eval
	for _, g := range gs {
		ev.EvaluateInto(&out, g)
	}
	fillToBounds(&ev.memo)
	if len(ev.memo.table) != memoTableLen || cap(ev.memo.ents) != memoEntries ||
		cap(ev.memo.keys) != memoKeyWords || cap(ev.memo.vals) != memoValFloats {
		t.Fatalf("memo not at its bounds: table %d, %d entries, %d key words, %d values",
			len(ev.memo.table), cap(ev.memo.ents), cap(ev.memo.keys), cap(ev.memo.vals))
	}
	i := 0
	allocs := testing.AllocsPerRun(1000, func() {
		ev.EvaluateInto(&out, gs[i%len(gs)])
		i++
	})
	if allocs != 0 {
		t.Fatalf("warm evaluator allocates %v times per evaluation, want 0", allocs)
	}
}

// fillToBounds inserts synthetic entries until every array of m has
// grown to its bound: short entries for the table and the entry
// array, long keys for the key arena, long values for the value arena.
func fillToBounds(m *edgeMemo) {
	n := 0
	for _, shape := range []struct{ keyLen, valLen, count int }{
		{2, 2, 2 * memoEntries},
		{512, 2, 2 * memoKeyWords / 512},
		{2, 256, 2 * memoValFloats / 256},
	} {
		key := make([]uint64, shape.keyLen)
		vals := make([]float64, shape.valLen)
		for i := 0; i < shape.count; i++ {
			key[0] = 1<<62 | uint64(n)
			n++
			_, h, _ := m.lookup(key)
			m.insert(h, key, vals)
		}
	}
}

// distinctValid draws n distinct valid genomes of varied counts.
func distinctValid(t *testing.T, in *Instance, n int) []Genome {
	t.Helper()
	rng := rand.New(rand.NewSource(5))
	ev, err := NewEvaluator(in)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	counts := make([]int, in.Edges())
	var gs []Genome
	var out Eval
	for len(gs) < n {
		for i := range counts {
			counts[i] = 1 + rng.Intn((in.Channels()+1)/2)
		}
		g, err := Assign(in, counts, RandomFit, rng)
		if err != nil || seen[g.Key()] {
			continue
		}
		if ev.EvaluateInto(&out, g); out.Valid {
			seen[g.Key()] = true
			gs = append(gs, g)
		}
	}
	return gs
}

// FuzzEvaluateMemo feeds arbitrary flip scripts through a warm
// evaluator and cross-checks every step against a fresh one.
func FuzzEvaluateMemo(f *testing.F) {
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
			fresh, err := NewEvaluator(in)
			if err != nil {
				t.Fatal(err)
			}
			var want Eval
			fresh.EvaluateInto(&want, child)
			var got Eval
			ev.EvaluateInto(&got, child)
			requireSameEval(t, "fuzz", &got, &want)
			cur = child
		}
	})
}
