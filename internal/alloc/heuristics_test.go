package alloc

import (
	"math/rand"
	"reflect"
	"testing"
)

func TestUniformCounts(t *testing.T) {
	if got := UniformCounts(4, 2); !reflect.DeepEqual(got, []int{2, 2, 2, 2}) {
		t.Errorf("UniformCounts = %v", got)
	}
}

func TestAssignPoliciesProduceValidGenomes(t *testing.T) {
	in := mustInstance(t, 8)
	rng := rand.New(rand.NewSource(1))
	for _, pol := range []Policy{FirstFit, RandomFit, MostUsed, LeastUsed} {
		for _, n := range []int{1, 2} {
			g, err := Assign(in, UniformCounts(in.Edges(), n), pol, rng)
			if err != nil {
				t.Fatalf("%v with %d wavelengths: %v", pol, n, err)
			}
			ev := in.Evaluate(g)
			if !ev.Valid {
				t.Fatalf("%v produced invalid genome: %s", pol, ev.Reason())
			}
			for e, c := range ev.Counts {
				if c != n {
					t.Fatalf("%v gave edge %d %d wavelengths, want %d", pol, e, c, n)
				}
			}
		}
	}
}

func TestAssignMixedCounts(t *testing.T) {
	in := mustInstance(t, 12)
	counts := []int{1, 4, 2, 3, 2, 3}
	for _, pol := range []Policy{FirstFit, LeastUsed, MostUsed} {
		g, err := Assign(in, counts, pol, nil)
		if err != nil {
			t.Fatalf("%v: %v", pol, err)
		}
		ev := in.Evaluate(g)
		if !ev.Valid {
			t.Fatalf("%v invalid: %s", pol, ev.Reason())
		}
		if !reflect.DeepEqual(ev.Counts, counts) {
			t.Fatalf("%v counts = %v, want %v", pol, ev.Counts, counts)
		}
	}
}

func TestAssignLeastUsedSpreadsMoreThanFirstFit(t *testing.T) {
	// First-fit concentrates everything on the low channels;
	// least-used spreads. With enough headroom the least-used
	// assignment must touch more distinct channels.
	in := mustInstance(t, 12)
	counts := UniformCounts(in.Edges(), 2)
	ff, err := Assign(in, counts, FirstFit, nil)
	if err != nil {
		t.Fatal(err)
	}
	lu, err := Assign(in, counts, LeastUsed, nil)
	if err != nil {
		t.Fatal(err)
	}
	distinct := func(g Genome) int {
		used := map[int]bool{}
		for e := 0; e < g.Edges(); e++ {
			for _, ch := range g.ChannelSet(e) {
				used[ch] = true
			}
		}
		return len(used)
	}
	if distinct(lu) <= distinct(ff) {
		t.Errorf("least-used touched %d channels, first-fit %d; want strictly more",
			distinct(lu), distinct(ff))
	}
}

func TestAssignRandomNeedsRNG(t *testing.T) {
	in := mustInstance(t, 8)
	if _, err := Assign(in, UniformCounts(in.Edges(), 1), RandomFit, nil); err == nil {
		t.Error("random policy without rng must fail")
	}
}

func TestAssignRandomDeterministicPerSeed(t *testing.T) {
	in := mustInstance(t, 8)
	a, err := Assign(in, UniformCounts(in.Edges(), 2), RandomFit, rand.New(rand.NewSource(9)))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Assign(in, UniformCounts(in.Edges(), 2), RandomFit, rand.New(rand.NewSource(9)))
	if err != nil {
		t.Fatal(err)
	}
	if a.Key() != b.Key() {
		t.Error("same seed must reproduce the assignment")
	}
}

func TestAssignInfeasibleCounts(t *testing.T) {
	// On a 4-channel comb, demanding 4 channels for overlapping
	// communications starves someone.
	in := mustInstance(t, 4)
	if _, err := Assign(in, UniformCounts(in.Edges(), 4), FirstFit, nil); err == nil {
		t.Error("overcommitted counts must fail")
	}
	if _, err := Assign(in, []int{1}, FirstFit, nil); err == nil {
		t.Error("wrong count length must fail")
	}
	if _, err := Assign(in, []int{0, 1, 1, 1, 1, 1}, FirstFit, nil); err == nil {
		t.Error("zero wavelengths on a loaded edge must fail in the scheduler")
	}
}

func TestAssignFirstFitMatchesPaperChromosomeShape(t *testing.T) {
	// With NW = 4 and one wavelength per communication, first-fit
	// tracks the validity structure the paper's example chromosome
	// illustrates: overlapping communications land on different
	// channels, sequential ones reuse channel 0.
	in := mustInstance(t, 4)
	g, err := Assign(in, UniformCounts(in.Edges(), 1), FirstFit, nil)
	if err != nil {
		t.Fatal(err)
	}
	ev := in.Evaluate(g)
	if !ev.Valid {
		t.Fatalf("first-fit genome invalid: %s", ev.Reason())
	}
	// c0 (window [5,11), path 0->15) and c1 (window [5,13), path
	// 1->5) overlap in both; they must differ.
	if reflect.DeepEqual(g.ChannelSet(0), g.ChannelSet(1)) {
		t.Error("overlapping c0/c1 must use different channels")
	}
}

func TestPolicyStrings(t *testing.T) {
	for pol, want := range map[Policy]string{
		FirstFit: "first-fit", RandomFit: "random", MostUsed: "most-used", LeastUsed: "least-used",
	} {
		if pol.String() != want {
			t.Errorf("%d.String() = %q, want %q", int(pol), pol.String(), want)
		}
	}
}
