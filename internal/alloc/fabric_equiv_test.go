package alloc

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/energy"
	"repro/internal/fabric"
	"repro/internal/graph"
	"repro/internal/ring"
)

// This file pins the fabric indirection: routing the evaluation stack
// through the fabric.Fabric interface must be bit-identical to the
// direct ring calls, for the loss model, the memoized kernel and
// Explain.

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
// checks the warm-memo kernel, a cold kernel and Explain agree bit for
// bit at every step.
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
		runKernelChain(t, fmt.Sprintf("NW=%d", nw), inFabric, inDirect, int64(900+nw), 300)

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
