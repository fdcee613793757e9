package alloc

import (
	"math/rand"
	"testing"

	"repro/internal/crossbar"
	"repro/internal/energy"
	"repro/internal/fabric"
	"repro/internal/graph"
	"repro/internal/ring"
)

// This file pins the tentpole refactor: routing the evaluation stack
// through the fabric.Fabric interface must be bit-identical to the
// pre-refactor direct ring calls — for the loss model, the full
// kernel, every delta kernel and Explain — and the delta kernels must
// hold their bit-identity contract on the crossbar backend too, whose
// single-lane all-paths-share-a-destination overlap structure stresses
// the affected-set computation differently than the ring.

// ringFabric builds the paper platform and returns it both as the
// concrete ring and as an opaque fabric handle.
func ringFabric(t *testing.T, nw int) (*ring.Ring, fabric.Fabric) {
	t.Helper()
	r, err := ring.New(ring.DefaultConfig(nw))
	if err != nil {
		t.Fatal(err)
	}
	return r, r
}

// randomBank flips a random subset of (oni, channel) micro-rings ON.
func randomBank(rng *rand.Rand, onis, nw int) *fabric.Bank {
	b := fabric.NewBank(onis, nw)
	for i := 0; i < onis*nw/3; i++ {
		b.Set(rng.Intn(onis), rng.Intn(nw), true)
	}
	return b
}

// TestRingFabricLossBitIdentical compares every fabric loss method,
// called through the interface, against the direct ring method on
// random paths, channels and bank states across the comb sizes: the
// interface indirection must not change a single bit.
func TestRingFabricLossBitIdentical(t *testing.T) {
	for _, nw := range []int{4, 8, 16} {
		r, f := ringFabric(t, nw)
		rng := rand.New(rand.NewSource(int64(nw)))
		for trial := 0; trial < 200; trial++ {
			src, dst := rng.Intn(r.Size()), rng.Intn(r.Size())
			if src == dst {
				continue
			}
			p, err := r.PathBetween(src, dst)
			if err != nil {
				t.Fatal(err)
			}
			fp, err := f.PathBetween(src, dst)
			if err != nil {
				t.Fatal(err)
			}
			if fp.Src != p.Src || fp.Dst != p.Dst || fp.Lane != p.Lane || fp.Hops() != p.Hops() {
				t.Fatalf("NW=%d: fabric path %d->%d differs from ring path", nw, src, dst)
			}
			bank := randomBank(rng, r.Size(), nw)
			ch, detCh := rng.Intn(nw), rng.Intn(nw)
			if got, want := f.TransitLossDB(p, ch, bank), r.TransitLossDB(p, ch, bank); got != want {
				t.Fatalf("NW=%d: TransitLossDB via fabric %v, direct %v", nw, got, want)
			}
			if got, want := f.SignalArrivalDB(p, ch, bank), r.SignalArrivalDB(p, ch, bank); got != want {
				t.Fatalf("NW=%d: SignalArrivalDB via fabric %v, direct %v", nw, got, want)
			}
			gotA, gotErr := f.DetectorArrivalDB(src, dst, ch, detCh, bank)
			wantA, wantErr := r.DetectorArrivalDB(src, dst, ch, detCh, bank)
			if gotA != wantA || (gotErr == nil) != (wantErr == nil) {
				t.Fatalf("NW=%d: DetectorArrivalDB via fabric (%v,%v), direct (%v,%v)", nw, gotA, gotErr, wantA, wantErr)
			}
		}
	}
}

// TestRingFabricKernelsAndExplainBitIdentical runs mutation chains
// through two instances of the same ring — one consumed through the
// evaluation stack's fabric handle, one rebuilt independently — and
// checks the full kernel, the gene-delta kernel, the near/crossover
// delta kernels and Explain agree bit for bit at every step.
func TestRingFabricKernelsAndExplainBitIdentical(t *testing.T) {
	for _, nw := range []int{4, 8, 16} {
		r, f := ringFabric(t, nw)
		app := graph.PaperApp()
		inDirect, err := NewInstance(r, app, graph.PaperMapping(), 1, energy.Default())
		if err != nil {
			t.Fatal(err)
		}
		inFabric, err := NewInstance(f, app, graph.PaperMapping(), 1, energy.Default())
		if err != nil {
			t.Fatal(err)
		}
		if inFabric.Fabric().Name() != "ring" {
			t.Fatalf("fabric name %q", inFabric.Fabric().Name())
		}
		runKernelChain(t, nw, inFabric, inDirect, 300)

		// Explain: identical strings through either instance.
		g, err := Assign(inFabric, UniformCounts(inFabric.Edges(), 1), FirstFit, nil)
		if err != nil {
			t.Fatal(err)
		}
		exF, err := inFabric.Explain(g)
		if err != nil {
			t.Fatal(err)
		}
		exD, err := inDirect.Explain(g)
		if err != nil {
			t.Fatal(err)
		}
		if exF.String() != exD.String() {
			t.Fatalf("NW=%d: Explain differs between fabric-handle and direct instances", nw)
		}
	}
}

// TestCrossbarDeltaKernelsMatchFull holds the delta kernels to their
// bit-identity contract on the crossbar backend: all paths share lane
// 0 and overlap exactly by destination, so the affected-set scan sees
// a conflict graph shape the ring never produces.
func TestCrossbarDeltaKernelsMatchFull(t *testing.T) {
	for _, nw := range []int{4, 8, 16} {
		x, err := crossbar.New(crossbar.DefaultConfig(nw))
		if err != nil {
			t.Fatal(err)
		}
		in, err := NewInstance(x, graph.PaperApp(), graph.PaperMapping(), 1, energy.Default())
		if err != nil {
			t.Fatal(err)
		}
		if in.Fabric().Name() != "crossbar" {
			t.Fatalf("fabric name %q", in.Fabric().Name())
		}
		runKernelChain(t, nw, in, in, 300)
	}
}

// runKernelChain drives a random single-gene mutation chain (with
// occasional crossover-shaped two-parent children) through a
// delta-enabled evaluator on inDelta and a fresh full evaluator on
// inRef, requiring bit-identical evaluations throughout and that the
// delta path actually served a meaningful share.
func runKernelChain(t *testing.T, nw int, inDelta, inRef *Instance, steps int) {
	t.Helper()
	ev, err := NewEvaluator(inDelta)
	if err != nil {
		t.Fatal(err)
	}
	ev.EnableDeltaCache(0)
	ref, err := NewEvaluator(inRef)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(int64(900 + nw)))
	cur, err := Assign(inDelta, UniformCounts(inDelta.Edges(), 1), FirstFit, nil)
	if err != nil {
		t.Fatal(err)
	}
	var seedOut Eval
	ev.EvaluateInto(&seedOut, cur)
	if !seedOut.Valid {
		t.Fatalf("NW=%d: seed genome invalid: %s", nw, seedOut.Reason())
	}
	lastValid := cur
	deltaCalls := 0
	for step := 0; step < steps; step++ {
		if rng.Intn(3) == 0 {
			cur = lastValid
		}
		child := cur.Clone()
		edge, _, _ := mutateOneGene(rng, child)
		if rng.Intn(5) == 0 {
			// Crossover shape: splice a second edge row from the last
			// valid genome, giving the two-parent near kernel a child
			// that matches neither parent exactly.
			other := (edge + 1) % child.Edges()
			for c := 0; c < child.Channels(); c++ {
				child.Set(other, c, lastValid.Get(other, c))
			}
		}

		var want Eval
		ref.EvaluateInto(&want, child)

		var got Eval
		if ev.EvaluateNearInto(&got, child, cur.Bits(), lastValid.Bits()) {
			deltaCalls++
		}
		requireSameEval(t, "fabric chain", &got, &want)
		cur = child
		if want.Valid {
			lastValid = child
		}
	}
	if deltaCalls < steps/3 {
		t.Fatalf("NW=%d: only %d of %d steps served by delta kernels", nw, deltaCalls, steps)
	}
}
