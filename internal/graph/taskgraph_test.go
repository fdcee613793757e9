package graph

import (
	"math/rand"
	"testing"
)

func TestPaperAppStructure(t *testing.T) {
	g := PaperApp()
	if err := g.Validate(); err != nil {
		t.Fatalf("paper app must validate: %v", err)
	}
	if g.NumTasks() != 6 {
		t.Errorf("tasks = %d, want 6", g.NumTasks())
	}
	if g.NumEdges() != 6 {
		t.Errorf("edges (Nl) = %d, want 6", g.NumEdges())
	}
	for i, task := range g.Tasks {
		if task.ExecCycles != 5000 {
			t.Errorf("task %d exec = %v, want 5000 (5 k-cc)", i, task.ExecCycles)
		}
	}
	// Volumes preserved from the figure text.
	wantVol := map[string]float64{"c0": 6000, "c2": 4000, "c4": 8000, "c5": 4000}
	for _, e := range g.Edges {
		if want, ok := wantVol[e.Name]; ok && e.VolumeBits != want {
			t.Errorf("%s volume = %v, want %v", e.Name, e.VolumeBits, want)
		}
	}
}

func TestPaperAppCriticalPathIs20KCC(t *testing.T) {
	// The paper: "the optimized execution time will tend to the
	// minimal execution time (20 k-cc)".
	g := PaperApp()
	cp, err := g.CriticalPathCycles()
	if err != nil {
		t.Fatal(err)
	}
	if cp != 20000 {
		t.Errorf("critical path = %v cycles, want 20000", cp)
	}
}

func TestPaperMappingValid(t *testing.T) {
	g := PaperApp()
	m := PaperMapping()
	if err := m.Validate(g, 16); err != nil {
		t.Fatalf("paper mapping must validate on 16 cores: %v", err)
	}
}

func TestValidateCatchesBrokenGraphs(t *testing.T) {
	base := func() *TaskGraph {
		return &TaskGraph{
			Tasks: []Task{{Name: "a", ExecCycles: 1}, {Name: "b", ExecCycles: 1}},
			Edges: []Edge{{Name: "e", Src: 0, Dst: 1, VolumeBits: 10}},
		}
	}
	cases := []struct {
		name string
		mut  func(*TaskGraph)
	}{
		{"empty", func(g *TaskGraph) { g.Tasks = nil; g.Edges = nil }},
		{"negative exec", func(g *TaskGraph) { g.Tasks[0].ExecCycles = -1 }},
		{"edge out of range", func(g *TaskGraph) { g.Edges[0].Dst = 9 }},
		{"negative edge", func(g *TaskGraph) { g.Edges[0].Src = -1 }},
		{"self loop", func(g *TaskGraph) { g.Edges[0].Dst = 0 }},
		{"negative volume", func(g *TaskGraph) { g.Edges[0].VolumeBits = -5 }},
		{"duplicate edge", func(g *TaskGraph) {
			g.Edges = append(g.Edges, Edge{Name: "e2", Src: 0, Dst: 1, VolumeBits: 1})
		}},
		{"cycle", func(g *TaskGraph) {
			g.Edges = append(g.Edges, Edge{Name: "back", Src: 1, Dst: 0, VolumeBits: 1})
		}},
	}
	for _, c := range cases {
		g := base()
		c.mut(g)
		if err := g.Validate(); err == nil {
			t.Errorf("%s: expected validation error", c.name)
		}
	}
	if err := base().Validate(); err != nil {
		t.Fatalf("base graph must validate: %v", err)
	}
}

func TestTopoOrderRespectsEdges(t *testing.T) {
	g := PaperApp()
	order, err := g.TopoOrder()
	if err != nil {
		t.Fatal(err)
	}
	pos := make(map[int]int, len(order))
	for i, task := range order {
		pos[task] = i
	}
	if len(pos) != g.NumTasks() {
		t.Fatalf("order %v does not cover all tasks", order)
	}
	for _, e := range g.Edges {
		if pos[e.Src] >= pos[e.Dst] {
			t.Errorf("edge %s violated: %d not before %d in %v", e.Name, e.Src, e.Dst, order)
		}
	}
}

func TestPredsSuccs(t *testing.T) {
	g := PaperApp()
	preds := g.Preds()
	succs := g.Succs()
	// T5 receives c0, c4, c5.
	if len(preds[5]) != 3 {
		t.Errorf("T5 preds = %v, want 3 incoming edges", preds[5])
	}
	// T2 emits c2 and c4.
	if len(succs[2]) != 2 {
		t.Errorf("T2 succs = %v, want 2 outgoing edges", succs[2])
	}
	// Edge lists are consistent with the edges themselves.
	for ti, es := range preds {
		for _, ei := range es {
			if g.Edges[ei].Dst != ti {
				t.Errorf("pred edge %d of task %d has Dst %d", ei, ti, g.Edges[ei].Dst)
			}
		}
	}
	for ti, es := range succs {
		for _, ei := range es {
			if g.Edges[ei].Src != ti {
				t.Errorf("succ edge %d of task %d has Src %d", ei, ti, g.Edges[ei].Src)
			}
		}
	}
}

func TestCriticalPathIgnoresVolumes(t *testing.T) {
	g := PaperApp()
	for i := range g.Edges {
		g.Edges[i].VolumeBits *= 100
	}
	cp, err := g.CriticalPathCycles()
	if err != nil {
		t.Fatal(err)
	}
	if cp != 20000 {
		t.Errorf("critical path must ignore communication: %v", cp)
	}
}

func TestTotalVolume(t *testing.T) {
	g := PaperApp()
	if got := g.TotalVolumeBits(); got != 36000 {
		t.Errorf("total volume = %v, want 36000 bits", got)
	}
}

func TestCloneIsDeep(t *testing.T) {
	g := PaperApp()
	c := g.Clone()
	c.Tasks[0].ExecCycles = 1
	c.Edges[0].VolumeBits = 1
	if g.Tasks[0].ExecCycles == 1 || g.Edges[0].VolumeBits == 1 {
		t.Error("clone shares storage with original")
	}
}

func TestMappingValidate(t *testing.T) {
	g := PaperApp()
	if err := (Mapping{0, 1, 2, 3, 4, 5}).Validate(g, 16); err != nil {
		t.Errorf("identity-style mapping should validate: %v", err)
	}
	cases := []struct {
		name string
		m    Mapping
	}{
		{"too short", Mapping{0, 1, 2}},
		{"out of range", Mapping{0, 1, 2, 3, 4, 16}},
		{"negative", Mapping{0, 1, 2, 3, 4, -1}},
	}
	for _, c := range cases {
		if err := c.m.Validate(g, 16); err == nil {
			t.Errorf("%s: expected error", c.name)
		}
	}
	// The relaxed check accepts shared cores; the strict one (paper
	// mode, Definition 3) rejects them.
	shared := Mapping{0, 1, 2, 3, 4, 0}
	if err := shared.Validate(g, 16); err != nil {
		t.Errorf("shared-core mapping must pass the relaxed check: %v", err)
	}
	if err := shared.ValidateInjective(g, 16); err == nil {
		t.Error("shared-core mapping must fail the injective check")
	}
	if err := (Mapping{0, 1, 2, 3, 4, 5}).ValidateInjective(g, 16); err != nil {
		t.Errorf("injective mapping failed the strict check: %v", err)
	}
	if shared.Injective() {
		t.Error("Injective() must report the shared core")
	}
	if !(Mapping{0, 1, 2, 3, 4, 5}).Injective() {
		t.Error("Injective() must accept distinct cores")
	}
	loads := shared.CoreLoads(16)
	if loads[0] != 2 || loads[1] != 1 || loads[5] != 0 {
		t.Errorf("CoreLoads = %v", loads)
	}
}

func TestSharedRandomMapping(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	g, err := Chain(rng, 40, DefaultGenConfig())
	if err != nil {
		t.Fatal(err)
	}
	m, err := SharedRandomMapping(rng, g, 16)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Validate(g, 16); err != nil {
		t.Fatalf("shared mapping invalid: %v", err)
	}
	// Load balance: 40 tasks on 16 cores means every core carries
	// floor(40/16)=2 or ceil(40/16)=3 tasks.
	for c, l := range m.CoreLoads(16) {
		if l < 2 || l > 3 {
			t.Errorf("core %d carries %d tasks, want 2 or 3", c, l)
		}
	}
	// Small graphs stay injective.
	small := PaperApp()
	mi, err := SharedRandomMapping(rng, small, 16)
	if err != nil {
		t.Fatal(err)
	}
	if err := mi.ValidateInjective(small, 16); err != nil {
		t.Errorf("<=16-task shared mapping must be injective: %v", err)
	}
	// Determinism for a fixed source.
	a, _ := SharedRandomMapping(rand.New(rand.NewSource(3)), g, 16)
	b, _ := SharedRandomMapping(rand.New(rand.NewSource(3)), g, 16)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("shared mapping is not deterministic for a fixed seed")
		}
	}
	if _, err := SharedRandomMapping(rng, g, 0); err == nil {
		t.Error("zero cores must fail")
	}
}

func TestRandomMapping(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	g := PaperApp()
	for trial := 0; trial < 50; trial++ {
		m, err := RandomMapping(rng, g, 16)
		if err != nil {
			t.Fatal(err)
		}
		if err := m.Validate(g, 16); err != nil {
			t.Fatalf("trial %d: random mapping invalid: %v", trial, err)
		}
	}
	if _, err := RandomMapping(rng, g, 4); err == nil {
		t.Error("mapping 6 tasks on 4 cores must fail")
	}
}
