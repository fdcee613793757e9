package alloc

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/energy"
	"repro/internal/fabric"
	"repro/internal/graph"
	"repro/internal/phys"
	"repro/internal/ring"
)

// This file pins the ring's link budget: the arrivals fabric.Budget
// composes on the ring's transit against an independent closed form,
// and the evaluation stack routed through an opaque fabric.Fabric
// against the concrete ring, for the memoized kernel and Explain.

// fabricOnly forwards exactly fabric.Fabric's methods to an inner
// backend. An instance built on it sees no concrete type, so nothing
// in the evaluation stack can reach the backend but through the
// interface.
type fabricOnly struct{ f fabric.Fabric }

func (o fabricOnly) ResourceName() string { return o.f.ResourceName() }
func (o fabricOnly) Size() int            { return o.f.Size() }
func (o fabricOnly) Channels() int        { return o.f.Channels() }
func (o fabricOnly) Grid() phys.Grid      { return o.f.Grid() }
func (o fabricOnly) Params() phys.Params  { return o.f.Params() }
func (o fabricOnly) PathBetween(src, dst int) (fabric.Path, error) {
	return o.f.PathBetween(src, dst)
}
func (o fabricOnly) TransitLossDB(p fabric.Path, ch int, bank *fabric.Bank) phys.DB {
	return o.f.TransitLossDB(p, ch, bank)
}

// randomBank flips a random subset of (oni, channel) micro-rings ON.
func randomBank(rng *rand.Rand, onis, nw int) *fabric.Bank {
	b := fabric.NewBank(onis, nw)
	for i := 0; i < onis*nw/3; i++ {
		b.Set(rng.Intn(onis), rng.Intn(nw), true)
	}
	return b
}

// ringArrivalOracle is the closed-form Eqs. 1-6 arrival on ring r of
// channel ch, travelling path p, at the detector behind the ring tuned
// to detCh at ONI det (on p): waveguide length and bends summed from
// the Segment geometry of each hop in travel order, a full bank walk
// at every ONI strictly before det, the partial walk at det, then the
// drop or Eq. 1's leak. It shares no loss code with the fabric and
// ring packages, and adds the terms in the order the light meets them,
// so it holds the budget's float operations to account bit for bit.
func ringArrivalOracle(r *ring.Ring, p fabric.Path, det, ch, detCh int, bank *fabric.Bank) phys.DB {
	par, nw := r.Config().Params, r.Channels()
	walk := func(oni, upto int) phys.DB {
		var w phys.DB
		for idx := 0; idx < upto; idx++ {
			w += phys.ThroughLossDB(par, phys.MRState(bank.On(oni, idx)), idx == ch)
		}
		return w
	}
	onis := p.ONIs()
	k := 1
	for onis[k] != det {
		k++
	}
	onis = onis[:k+1] // source through det
	var lengthCM float64
	bends := 0
	for h := 1; h < len(onis); h++ {
		seg := r.Segment(onis[h-1]) // clockwise hop onis[h-1] -> onis[h]
		lengthCM += seg.LengthCM
		bends += seg.Bends
	}
	loss := phys.DB(lengthCM)*par.PropagationDBPerCM + phys.DB(bends)*par.BendingDBPer90
	for _, oni := range onis[1:k] {
		loss += walk(oni, nw)
	}
	loss += walk(det, detCh)
	if ch == detCh {
		return loss + phys.DropLossDB(par, phys.MRState(bank.On(det, detCh)))
	}
	return loss + r.Config().Grid.CrosstalkDB(detCh, ch)
}

// TestRingFabricLossBitIdentical holds the ring's arrivals, composed
// by fabric.Budget on ring.TransitLossDB, to ringArrivalOracle:
// random paths, random detectors along them, random channels and bank
// states, across the comb sizes. Every arrival must match to the bit.
func TestRingFabricLossBitIdentical(t *testing.T) {
	for _, nw := range []int{4, 8, 16} {
		r, err := ring.New(ring.DefaultConfig(nw))
		if err != nil {
			t.Fatal(err)
		}
		bud := fabric.NewBudget(r)
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
			bank := randomBank(rng, r.Size(), nw)
			ch, detCh := rng.Intn(nw), rng.Intn(nw)
			where := fmt.Sprintf("NW=%d %d->%d ch %d", nw, src, dst, ch)
			if got, want := bud.SignalArrivalDB(p, ch, bank), ringArrivalOracle(r, p, dst, ch, ch, bank); got != want {
				t.Fatalf("%s: SignalArrivalDB %v, closed form %v", where, got, want)
			}
			det := p.ONIs()[1+rng.Intn(p.Hops())]
			got, err := bud.ArrivalAlongDB(p, det, ch, detCh, bank)
			if err != nil {
				t.Fatalf("%s: ArrivalAlongDB to ONI %d on the path: %v", where, det, err)
			}
			if want := ringArrivalOracle(r, p, det, ch, detCh, bank); got != want {
				t.Fatalf("%s: ArrivalAlongDB at ONI %d ring %d = %v, closed form %v", where, det, detCh, got, want)
			}
		}
	}
}

// TestRingFabricKernelsAndExplainBitIdentical runs mutation chains
// through two instances of the paper platform — one on a concrete
// ring, one on an independently built ring reached only through
// fabricOnly — and checks the warm-memo kernel, a cold kernel and
// Explain agree bit for bit at every step.
func TestRingFabricKernelsAndExplainBitIdentical(t *testing.T) {
	for _, nw := range []int{4, 8, 16} {
		r, err := ring.New(ring.DefaultConfig(nw))
		if err != nil {
			t.Fatal(err)
		}
		twin, err := ring.New(ring.DefaultConfig(nw))
		if err != nil {
			t.Fatal(err)
		}
		app := graph.PaperApp()
		inDirect, err := NewInstance(r, app, graph.PaperMapping(), 1, energy.Default())
		if err != nil {
			t.Fatal(err)
		}
		inFabric, err := NewInstance(fabricOnly{twin}, app, graph.PaperMapping(), 1, energy.Default())
		if err != nil {
			t.Fatal(err)
		}
		runKernelChain(t, fmt.Sprintf("NW=%d", nw), inFabric, inDirect, int64(900+nw), 300)

		// Explain: identical strings through either instance.
		g, err := Assign(inFabric, UniformCounts(inFabric.Edges(), 1), FirstFit, nil)
		if err != nil {
			t.Fatal(err)
		}
		if mustExplain(t, inFabric, g).String() != mustExplain(t, inDirect, g).String() {
			t.Fatalf("NW=%d: Explain differs between fabric-handle and direct instances", nw)
		}
	}
}
