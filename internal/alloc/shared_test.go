package alloc

import (
	"math/rand"
	"testing"

	"repro/internal/energy"
	"repro/internal/graph"
	"repro/internal/ring"
	"repro/internal/sched"
)

// sharedChainInstance maps a chain longer than the platform onto the
// 16-core ring with a load-balanced shared mapping.
func sharedChainInstance(t *testing.T, n int, nw int, seed int64) *Instance {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	app, err := graph.Chain(rng, n, graph.DefaultGenConfig())
	if err != nil {
		t.Fatal(err)
	}
	m, err := graph.SharedRandomMapping(rng, app, 16)
	if err != nil {
		t.Fatal(err)
	}
	r, err := ring.New(ring.DefaultConfig(nw))
	if err != nil {
		t.Fatal(err)
	}
	in, err := NewInstance(r, app, m, 1, energy.Default())
	if err != nil {
		t.Fatal(err)
	}
	return in
}

// blockedChainInstance maps a chain with m[i] = i/3: consecutive
// tasks share cores, guaranteeing self edges.
func blockedChainInstance(t *testing.T, n, nw int) *Instance {
	t.Helper()
	rng := rand.New(rand.NewSource(1))
	app, err := graph.Chain(rng, n, graph.DefaultGenConfig())
	if err != nil {
		t.Fatal(err)
	}
	m := make(graph.Mapping, n)
	for i := range m {
		m[i] = i / 3
	}
	r, err := ring.New(ring.DefaultConfig(nw))
	if err != nil {
		t.Fatal(err)
	}
	in, err := NewInstance(r, app, m, 1, energy.Default())
	if err != nil {
		t.Fatal(err)
	}
	return in
}

func TestSharedInstanceConstruction(t *testing.T) {
	in := blockedChainInstance(t, 40, 8)
	selfs := 0
	for e := 0; e < in.Edges(); e++ {
		if in.SelfEdge(e) {
			selfs++
			if in.SrcCore(e) != in.DstCore(e) {
				t.Errorf("edge %d marked self with cores %d->%d", e, in.SrcCore(e), in.DstCore(e))
			}
			if in.Path(e).Hops() != 0 {
				t.Errorf("self edge %d has %d hops, want 0", e, in.Path(e).Hops())
			}
			for j := 0; j < in.Edges(); j++ {
				if in.Path(e).Overlaps(in.Path(j)) {
					t.Errorf("self edge %d overlaps edge %d", e, j)
				}
			}
		}
	}
	// Blocks of three consecutive chain tasks share a core: two of
	// every three edges are self edges.
	if want := 26; selfs != want {
		t.Errorf("found %d self edges, want %d", selfs, want)
	}
}

func TestSharedEvaluationSelfEdgesNeedNoWavelengths(t *testing.T) {
	in := blockedChainInstance(t, 40, 8)
	// One wavelength per cross-core communication, none on self edges:
	// the heuristic assigner applies exactly that policy.
	g, err := Assign(in, UniformCounts(in.Edges(), 1), LeastUsed, nil)
	if err != nil {
		t.Fatal(err)
	}
	for e := 0; e < in.Edges(); e++ {
		if in.SelfEdge(e) && len(g.ChannelSet(e)) != 0 {
			t.Errorf("assigner reserved wavelengths on self edge %d", e)
		}
	}
	ev := in.Evaluate(g)
	if !ev.Valid {
		t.Fatalf("allocation invalid: %s", ev.Reason())
	}
	// The makespan must match the core-serialized analytic model.
	p, err := sched.NewPlannerMapped(in.App, in.Map, in.Fabric().Size())
	if err != nil {
		t.Fatal(err)
	}
	if !p.Shared() {
		t.Fatal("40 tasks on 16 cores must share")
	}
	var s sched.Schedule
	if err := p.ComputeInto(&s, ev.Counts, 1); err != nil {
		t.Fatal(err)
	}
	if ev.MakespanCycles != s.MakespanCycles {
		t.Errorf("evaluation makespan %v, serialized model %v", ev.MakespanCycles, s.MakespanCycles)
	}
	if err := s.ValidateCoreSerial(in.App, in.Map); err != nil {
		t.Errorf("core-serial check: %v", err)
	}
	// Self edges carry no optical metrics.
	for e := 0; e < in.Edges(); e++ {
		if in.SelfEdge(e) && (ev.CommBER[e] != 0 || ev.CommEnergyFJ[e] != 0) {
			t.Errorf("self edge %d has BER %v energy %v, want zero", e, ev.CommBER[e], ev.CommEnergyFJ[e])
		}
	}
}

func TestSharedEvaluationReservedSelfWavelengthsAreInert(t *testing.T) {
	in := blockedChainInstance(t, 40, 8)
	base, err := Assign(in, UniformCounts(in.Edges(), 1), LeastUsed, nil)
	if err != nil {
		t.Fatal(err)
	}
	evBase := in.Evaluate(base)
	if !evBase.Valid {
		t.Fatalf("base allocation invalid: %s", evBase.Reason())
	}
	// Flip wavelengths on every self edge: the metrics must not move.
	withSelf := base.Clone()
	flipped := false
	for e := 0; e < in.Edges(); e++ {
		if in.SelfEdge(e) {
			withSelf.Set(e, 0, true)
			flipped = true
		}
	}
	if !flipped {
		t.Skip("this draw produced no self edges")
	}
	evSelf := in.Evaluate(withSelf)
	if !evSelf.Valid {
		t.Fatalf("self-reserving allocation invalid: %s", evSelf.Reason())
	}
	if evSelf.MakespanCycles != evBase.MakespanCycles ||
		evSelf.BitEnergyFJ != evBase.BitEnergyFJ ||
		evSelf.MeanBER != evBase.MeanBER {
		t.Errorf("self-edge reservations changed metrics: (%v,%v,%v) vs (%v,%v,%v)",
			evSelf.MakespanCycles, evSelf.BitEnergyFJ, evSelf.MeanBER,
			evBase.MakespanCycles, evBase.BitEnergyFJ, evBase.MeanBER)
	}
}

func TestSharedEvaluatorZeroAlloc(t *testing.T) {
	in := sharedChainInstance(t, 40, 8, 5)
	ev, err := NewEvaluator(in)
	if err != nil {
		t.Fatal(err)
	}
	g, err := Assign(in, UniformCounts(in.Edges(), 1), LeastUsed, nil)
	if err != nil {
		t.Fatal(err)
	}
	var out Eval
	ev.EvaluateInto(&out, g)
	if !out.Valid {
		t.Fatalf("allocation invalid: %s", out.Reason())
	}
	allocs := testing.AllocsPerRun(100, func() {
		ev.EvaluateInto(&out, g)
	})
	if allocs != 0 {
		t.Errorf("shared-core EvaluateInto allocates %v objects per run, want 0", allocs)
	}
}

func TestInjectiveInstanceRejectsNothingNew(t *testing.T) {
	// The relaxed mapping validation must not have loosened the
	// bounds checks NewInstance relies on.
	r, err := ring.New(ring.DefaultConfig(8))
	if err != nil {
		t.Fatal(err)
	}
	app := graph.PaperApp()
	if _, err := NewInstance(r, app, graph.Mapping{0, 1, 2, 3, 4, 16}, 1, energy.Default()); err == nil {
		t.Error("out-of-range core must be rejected")
	}
	if _, err := NewInstance(r, app, graph.Mapping{0, 1}, 1, energy.Default()); err == nil {
		t.Error("short mapping must be rejected")
	}
	// A shared mapping of the paper app is now accepted.
	if _, err := NewInstance(r, app, graph.Mapping{0, 0, 1, 1, 2, 2}, 1, energy.Default()); err != nil {
		t.Errorf("shared mapping rejected: %v", err)
	}
}
