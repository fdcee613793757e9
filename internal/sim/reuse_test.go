package sim

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/alloc"
	"repro/internal/crossbar"
	"repro/internal/energy"
	"repro/internal/graph"
	"repro/internal/ring"
)

// validGenome draws a random valid allocation of 1-2 wavelengths per
// communication.
func validGenome(t *testing.T, in *alloc.Instance, rng *rand.Rand) alloc.Genome {
	t.Helper()
	for tries := 0; tries < 500; tries++ {
		counts := make([]int, in.Edges())
		for i := range counts {
			counts[i] = 1 + rng.Intn(2)
		}
		if g, err := alloc.Assign(in, counts, alloc.RandomFit, rng); err == nil {
			return g
		}
	}
	t.Fatal("no valid genome in 500 tries")
	return alloc.Genome{}
}

func mustSets(t *testing.T, sets [][]int, nw int) alloc.Genome {
	t.Helper()
	g, err := alloc.FromSets(sets, nw)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// sameResult fails unless got equals want field for field: the
// timeline, the core lists, the violation strings in order, the
// (resource, channel) lists and the bits of LaserFJ (NaN for an
// unchecked invalid run).
func sameResult(t *testing.T, label string, got, want *Result) {
	t.Helper()
	if math.Float64bits(got.LaserFJ) != math.Float64bits(want.LaserFJ) {
		t.Errorf("%s: LaserFJ %v, fresh run %v", label, got.LaserFJ, want.LaserFJ)
	}
	g, w := *got, *want
	g.LaserFJ, w.LaserFJ = 0, 0
	if !reflect.DeepEqual(g, w) {
		t.Errorf("%s: reused simulator's result differs from a fresh run's:\n got %+v\nwant %+v", label, g, w)
	}
	for seg := 0; seg < max(len(got.slot), len(want.slot)); seg++ {
		for ch := 0; ch < max(got.nw, want.nw); ch++ {
			if a, b := got.SegmentChannel(seg, ch), want.SegmentChannel(seg, ch); !reflect.DeepEqual(a, b) {
				t.Errorf("%s: resource %d channel %d: %v, fresh run %v", label, seg, ch, a, b)
			}
		}
	}
}

// TestSimulatorReuseMatchesRun reuses one Simulator per instance over a
// mixed sequence — valid genomes of different sizes, an unchecked
// conflicting genome, a refused invalid one, a run with hop latency,
// then a valid genome again — and holds every result to a fresh
// sim.Run's.
func TestSimulatorReuseMatchesRun(t *testing.T) {
	x, err := crossbar.New(crossbar.DefaultConfig(8))
	if err != nil {
		t.Fatal(err)
	}
	// T4 shares T5's core, so on the crossbar c0 (12->15) and c3
	// (13->15) ride destination 15's waveguide during the same window.
	xin, err := alloc.NewInstance(x, graph.PaperApp(), graph.Mapping{12, 1, 5, 13, 15, 15}, 1, energy.Default())
	if err != nil {
		t.Fatal(err)
	}
	// A layered graph of 24 tasks on the 16-core ring: unlike a chain, its
	// communications run concurrently, so they can conflict.
	lrng := rand.New(rand.NewSource(1))
	app, err := graph.Layered(lrng, 6, 4, 0.3, graph.DefaultGenConfig())
	if err != nil {
		t.Fatal(err)
	}
	m, err := graph.SharedRandomMapping(lrng, app, 16)
	if err != nil {
		t.Fatal(err)
	}
	r, err := ring.New(ring.DefaultConfig(8))
	if err != nil {
		t.Fatal(err)
	}
	shared, err := alloc.NewInstance(r, app, m, 1, energy.Default())
	if err != nil {
		t.Fatal(err)
	}
	sharedConflict := make([][]int, shared.Edges())
	for e := range sharedConflict {
		sharedConflict[e] = []int{0}
	}
	cases := []struct {
		name     string
		in       *alloc.Instance
		conflict [][]int
	}{
		{"ring", mustInstance(t, 8), [][]int{{0}, {1}, {2}, {3}, {2}, {5}}},
		{"crossbar", xin, [][]int{{0, 6}, {1}, {2}, {0, 6}, {4}, {}}},
		{"shared-core", shared, sharedConflict},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			in := c.in
			rng := rand.New(rand.NewSource(3))
			a, b := validGenome(t, in, rng), validGenome(t, in, rng)
			conflict := mustSets(t, c.conflict, in.Channels())
			steps := []struct {
				g   alloc.Genome
				opt Options
			}{
				{a, Options{}},
				{b, Options{}},
				{conflict, Options{Unchecked: true}},
				{conflict, Options{}},
				{in.NewZeroGenome(), Options{Unchecked: true}},
				{b, Options{LatencyPerHopCycles: 7}},
				{a, Options{}},
			}
			ev, err := alloc.NewEvaluator(in)
			if err != nil {
				t.Fatal(err)
			}
			s := NewSimulator(ev)
			for i, st := range steps {
				label := fmt.Sprintf("step %d", i)
				want, werr := Run(in, st.g, st.opt)
				got, gerr := s.Run(st.g, st.opt)
				if (werr == nil) != (gerr == nil) || (werr != nil && werr.Error() != gerr.Error()) {
					t.Fatalf("%s: error %v, fresh run %v", label, gerr, werr)
				}
				if werr != nil {
					continue
				}
				if st.opt.Unchecked && i == 2 && len(want.Violations) == 0 {
					t.Fatalf("%s: the conflicting genome books no conflict", label)
				}
				sameResult(t, label, got, want)
			}
		})
	}
}

// TestSimRejectsMisshapenGenome pins that a genome of another shape is
// an error in unchecked mode too, where no validity gate refuses it
// before the counts are read.
func TestSimRejectsMisshapenGenome(t *testing.T) {
	in := mustInstance(t, 8)
	g := alloc.NewGenome(in.Edges(), 4)
	for _, opt := range []Options{{}, {Unchecked: true}} {
		if _, err := Run(in, g, opt); err == nil {
			t.Errorf("a %dx4 genome on a %dx8 instance ran (unchecked %v)", in.Edges(), in.Edges(), opt.Unchecked)
		}
	}
}
