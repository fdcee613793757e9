package sim

import (
	"cmp"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/alloc"
	"repro/internal/crossbar"
	"repro/internal/energy"
	"repro/internal/graph"
	"repro/internal/ring"
)

// oracleOutcome is what the booking oracle reports of one run.
type oracleOutcome struct {
	makespan   int64
	occ        map[[2]int][]Interval // keyed by (resource, channel)
	violations []string
}

// oracleRun is the reference for Run's occupancy bookkeeping: an
// independent re-simulation that books gene by gene. Every booking
// walks the path's resources and, for each, tests g.Get on every
// channel, instead of reading per-edge channel lists decoded once per
// run; the occupancy is a map and the event queue a slice scanned for
// its (time, kind, seq) minimum. It books no cores: the dispatcher
// serializes them, so a core violation from Run fails the comparison.
func oracleRun(in *alloc.Instance, g alloc.Genome, opt Options) oracleOutcome {
	app, nw := in.App, in.Channels()
	counts := make([]int, in.Edges())
	for e := range counts {
		for ch := 0; ch < nw; ch++ {
			if g.Get(e, ch) {
				counts[e]++
			}
		}
	}
	out := oracleOutcome{occ: map[[2]int][]Interval{}}
	book := func(ei int, start, end int64) {
		for _, seg := range in.Path(ei).Resources() {
			for ch := 0; ch < nw; ch++ {
				if !g.Get(ei, ch) {
					continue
				}
				k := [2]int{seg, ch}
				for _, iv := range out.occ[k] {
					if start < iv.End && iv.Start < end {
						out.violations = append(out.violations, fmt.Sprintf(
							"%s %d channel %d double-booked: %s [%d,%d) vs %s [%d,%d)",
							in.Fabric().ResourceName(), seg, ch, app.Edges[iv.Comm].Name, iv.Start, iv.End,
							app.Edges[ei].Name, start, end))
					}
				}
				out.occ[k] = append(out.occ[k], Interval{Start: start, End: end, Comm: ei})
			}
		}
	}

	var queue []event
	seq := 0
	push := func(time int64, kind, id int) {
		queue = append(queue, event{time: time, kind: kind, id: id, seq: seq})
		seq++
	}
	first := func() int {
		best := 0
		for i := range queue {
			if queue[i].before(queue[best]) {
				best = i
			}
		}
		return best
	}

	nCores := in.Fabric().Size()
	pending := make([]int, app.NumTasks())
	for _, e := range app.Edges {
		pending[e.Dst]++
	}
	readyAt := make([]int64, app.NumTasks())
	coreFree := make([]int64, nCores)
	waiting := make([][]int, nCores)
	dispatch := func(core int, now int64) {
		if coreFree[core] > now || len(waiting[core]) == 0 {
			return
		}
		t := slices.MinFunc(waiting[core], func(a, b int) int {
			return cmp.Or(cmp.Compare(readyAt[a], readyAt[b]), cmp.Compare(a, b))
		})
		waiting[core] = slices.DeleteFunc(waiting[core], func(u int) bool { return u == t })
		coreFree[core] = now + ceil64(app.Tasks[t].ExecCycles)
		push(coreFree[core], 0, t)
	}
	for t := range pending {
		if pending[t] == 0 {
			waiting[in.Map[t]] = append(waiting[in.Map[t]], t)
		}
	}
	for core := range waiting {
		dispatch(core, 0)
	}
	for len(queue) > 0 {
		now := queue[first()].time
		for len(queue) > 0 && queue[first()].time == now {
			i := first()
			e := queue[i]
			queue = slices.Delete(queue, i, i+1)
			if e.kind == 0 {
				out.makespan = max(out.makespan, e.time)
				for ei, edge := range app.Edges {
					if edge.Src != e.id {
						continue
					}
					dur := commDuration(in, counts, ei) + opt.LatencyPerHopCycles*int64(in.Path(ei).Hops())
					if dur > 0 {
						book(ei, e.time, e.time+dur)
					}
					push(e.time+dur, 1, ei)
				}
				continue
			}
			dst := app.Edges[e.id].Dst
			if pending[dst]--; pending[dst] == 0 {
				readyAt[dst] = e.time
				waiting[in.Map[dst]] = append(waiting[in.Map[dst]], dst)
			}
		}
		for core := range waiting {
			dispatch(core, now)
		}
	}
	return out
}

// layeredInstance is TestSimulatorReuseMatchesRun's shared-core
// instance: a 24-task layered graph, whose communications run
// concurrently, mapped with shared cores onto the 16-core ring at
// NW 8.
func layeredInstance(t *testing.T) *alloc.Instance {
	t.Helper()
	rng := rand.New(rand.NewSource(1))
	app, err := graph.Layered(rng, 6, 4, 0.3, graph.DefaultGenConfig())
	if err != nil {
		t.Fatal(err)
	}
	m, err := graph.SharedRandomMapping(rng, app, 16)
	if err != nil {
		t.Fatal(err)
	}
	r, err := ring.New(ring.DefaultConfig(8))
	if err != nil {
		t.Fatal(err)
	}
	in, err := alloc.NewInstance(r, app, m, 1, energy.Default())
	if err != nil {
		t.Fatal(err)
	}
	return in
}

// randomGenome draws every gene on with probability 0.3: a genome the
// validity rule usually refuses, run unchecked.
func randomGenome(in *alloc.Instance, rng *rand.Rand) alloc.Genome {
	g := in.NewZeroGenome()
	for e := 0; e < in.Edges(); e++ {
		for ch := 0; ch < in.Channels(); ch++ {
			g.Set(e, ch, rng.Float64() < 0.3)
		}
	}
	return g
}

// TestRunMatchesPerGeneBookingOracle holds one reused simulator per
// instance to oracleRun over random valid genomes and random unchecked
// ones: the same (resource, channel) lists, the same violation strings
// in the same order and the same makespan.
func TestRunMatchesPerGeneBookingOracle(t *testing.T) {
	x, err := crossbar.New(crossbar.DefaultConfig(8))
	if err != nil {
		t.Fatal(err)
	}
	// TestSimulatorReuseMatchesRun's shared mapping: T4 and T5 share
	// core 15, so two communications can ride its waveguide together.
	xin, err := alloc.NewInstance(x, graph.PaperApp(), graph.Mapping{12, 1, 5, 13, 15, 15}, 1, energy.Default())
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		in   *alloc.Instance
	}{
		{"ring", mustInstance(t, 8)},
		{"crossbar", xin},
		{"shared-core", layeredInstance(t)},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			in := c.in
			ev, err := alloc.NewEvaluator(in)
			if err != nil {
				t.Fatal(err)
			}
			s := NewSimulator(ev)
			rng := rand.New(rand.NewSource(5))
			conflicted := 0
			for trial := 0; trial < 60; trial++ {
				g, opt := validGenome(t, in, rng), Options{}
				if trial%2 == 1 {
					g, opt = randomGenome(in, rng), Options{Unchecked: true}
				}
				opt.LatencyPerHopCycles = int64(rng.Intn(3))
				label := fmt.Sprintf("trial %d (unchecked %v)", trial, opt.Unchecked)
				got, err := s.Run(g, opt)
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				want := oracleRun(in, g, opt)
				if got.MakespanCycles != want.makespan {
					t.Errorf("%s: makespan %d, oracle %d", label, got.MakespanCycles, want.makespan)
				}
				if !slices.Equal(got.Violations, want.violations) {
					t.Errorf("%s: violations\n%q\noracle\n%q", label, got.Violations, want.violations)
				}
				if len(want.violations) > 0 {
					conflicted++
				}
				for k, ivs := range want.occ {
					if l := got.SegmentChannel(k[0], k[1]); !slices.Equal(l, ivs) {
						t.Errorf("%s: resource %d channel %d: %v, oracle %v", label, k[0], k[1], l, ivs)
					}
				}
				for seg := range got.slot {
					for ch := 0; ch < in.Channels(); ch++ {
						if l := got.SegmentChannel(seg, ch); len(l) > 0 && want.occ[[2]int{seg, ch}] == nil {
							t.Errorf("%s: resource %d channel %d booked %v, oracle books nothing", label, seg, ch, l)
						}
					}
				}
			}
			if conflicted == 0 {
				t.Fatal("no unchecked genome double-booked a channel: the violation order went untested")
			}
		})
	}
}
