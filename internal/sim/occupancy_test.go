package sim

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/alloc"
	"repro/internal/crossbar"
	"repro/internal/energy"
	"repro/internal/graph"
)

// checkSortedDisjoint fails unless ivs is in start order and no two of
// its half-open intervals overlap.
func checkSortedDisjoint(t *testing.T, label string, ivs []Interval) {
	t.Helper()
	for i := range ivs {
		if i > 0 && ivs[i].Start < ivs[i-1].Start {
			t.Fatalf("%s: not in start order: %+v", label, ivs)
		}
		for j := i + 1; j < len(ivs); j++ {
			if ivs[i].Start < ivs[j].End && ivs[j].Start < ivs[i].End {
				t.Fatalf("%s: %+v overlaps %+v", label, ivs[i], ivs[j])
			}
		}
	}
}

// TestSimOccupancyListsSortedDisjoint is the property the occupancy
// arena relies on: bookings happen at non-decreasing event times, so
// every (resource, channel) and core list comes out in start order
// without a sort, and a valid genome never double-books. It also
// checks that the lists hold every booking exactly once.
func TestSimOccupancyListsSortedDisjoint(t *testing.T) {
	x, err := crossbar.New(crossbar.DefaultConfig(8))
	if err != nil {
		t.Fatal(err)
	}
	xin, err := alloc.NewInstance(x, graph.PaperApp(), graph.PaperMapping(), 1, energy.Default())
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		in   *alloc.Instance
	}{
		{"ring", mustInstance(t, 8)},
		{"crossbar", xin},
		{"shared-core", sharedInstance(t, 24, graph.DefaultGenConfig(), 4)},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			in := c.in
			rng := rand.New(rand.NewSource(11))
			for trials, tries := 0, 0; trials < 20; tries++ {
				if tries > 500 {
					t.Fatalf("only %d valid genomes in %d tries", trials, tries)
				}
				counts := make([]int, in.Edges())
				for i := range counts {
					counts[i] = 1 + rng.Intn(3)
				}
				g, err := alloc.Assign(in, counts, alloc.RandomFit, rng)
				if err != nil {
					continue // infeasible counts: skip
				}
				trials++
				res, err := Run(in, g, Options{})
				if err != nil {
					t.Fatal(err)
				}
				if len(res.Violations) != 0 {
					t.Fatalf("violations on a valid genome: %v", res.Violations)
				}

				want, got := 0, 0
				maxRes := -1
				for e := 0; e < in.Edges(); e++ {
					if res.CommEnd[e] > res.CommStart[e] {
						want += in.Path(e).Hops() * len(g.ChannelSet(e))
					}
					for _, seg := range in.Path(e).Resources() {
						maxRes = max(maxRes, seg)
					}
				}
				for seg := 0; seg <= maxRes; seg++ {
					for ch := 0; ch < in.Channels(); ch++ {
						ivs := res.SegmentChannel(seg, ch)
						got += len(ivs)
						checkSortedDisjoint(t, fmt.Sprintf("resource %d channel %d", seg, ch), ivs)
					}
				}
				if got != want {
					t.Fatalf("%d (resource, channel) bookings listed, %d made", got, want)
				}

				tasks := 0
				for core, ivs := range res.CoreBusy {
					tasks += len(ivs)
					checkSortedDisjoint(t, fmt.Sprintf("core %d", core), ivs)
				}
				if tasks != in.App.NumTasks() {
					t.Fatalf("%d core bookings, %d tasks", tasks, in.App.NumTasks())
				}
			}
		})
	}
}

// TestSimAllocsIndependentOfNW pins that the simulator's allocations
// do not grow with the comb size: the occupancy lists share one arena
// sized up front.
func TestSimAllocsIndependentOfNW(t *testing.T) {
	if raceEnabled {
		// Run evaluates through the instance's evaluator pool, which
		// the race detector empties at random.
		t.Skip("allocation counts vary under -race")
	}
	allocs := func(nw int) float64 {
		in := mustInstance(t, nw)
		g, err := alloc.Assign(in, alloc.UniformCounts(in.Edges(), 1), alloc.LeastUsed, nil)
		if err != nil {
			t.Fatal(err)
		}
		return testing.AllocsPerRun(50, func() {
			if _, err := Run(in, g, Options{}); err != nil {
				t.Fatal(err)
			}
		})
	}
	if a4, a16 := allocs(4), allocs(16); a4 != a16 {
		t.Errorf("sim.Run allocates %v times at NW 4, %v at NW 16", a4, a16)
	}
}
