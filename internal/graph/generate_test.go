package graph

import (
	"math/rand"
	"strings"
	"testing"
)

func TestChainGenerator(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	g, err := Chain(rng, 5, DefaultGenConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Validate(); err != nil {
		t.Fatalf("chain invalid: %v", err)
	}
	if g.NumTasks() != 5 || g.NumEdges() != 4 {
		t.Errorf("chain size = %d tasks / %d edges, want 5/4", g.NumTasks(), g.NumEdges())
	}
	if _, err := Chain(rng, 1, DefaultGenConfig()); err == nil {
		t.Error("chain of 1 must fail")
	}
}

func TestForkJoinGenerator(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	g, err := ForkJoin(rng, 4, DefaultGenConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Validate(); err != nil {
		t.Fatalf("fork-join invalid: %v", err)
	}
	if g.NumTasks() != 6 || g.NumEdges() != 8 {
		t.Errorf("fork-join size = %d/%d, want 6 tasks / 8 edges", g.NumTasks(), g.NumEdges())
	}
	// Source has no preds, sink has no succs.
	if len(g.Preds()[0]) != 0 || len(g.Succs()[5]) != 0 {
		t.Error("fork-join source/sink wiring broken")
	}
	if _, err := ForkJoin(rng, 0, DefaultGenConfig()); err == nil {
		t.Error("fork-join of width 0 must fail")
	}
}

func TestLayeredGenerator(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 20; trial++ {
		g, err := Layered(rng, 4, 3, 0.3, DefaultGenConfig())
		if err != nil {
			t.Fatal(err)
		}
		if err := g.Validate(); err != nil {
			t.Fatalf("trial %d: layered invalid: %v", trial, err)
		}
		if g.NumTasks() != 12 {
			t.Fatalf("layered tasks = %d, want 12", g.NumTasks())
		}
		// Every non-first-layer task must have an incoming edge and
		// every non-last-layer task an outgoing one.
		preds, succs := g.Preds(), g.Succs()
		for ti := 3; ti < 12; ti++ {
			if len(preds[ti]) == 0 {
				t.Fatalf("trial %d: task %d unreachable", trial, ti)
			}
		}
		for ti := 0; ti < 9; ti++ {
			if len(succs[ti]) == 0 {
				t.Fatalf("trial %d: task %d is a dead end", trial, ti)
			}
		}
	}
	if _, err := Layered(rand.New(rand.NewSource(1)), 1, 3, 0.3, DefaultGenConfig()); err == nil {
		t.Error("single-layer graph must fail")
	}
	if _, err := Layered(rand.New(rand.NewSource(1)), 3, 3, 1.5, DefaultGenConfig()); err == nil {
		t.Error("probability > 1 must fail")
	}
}

func TestRandomDAGGenerator(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 20; trial++ {
		g, err := RandomDAG(rng, 10, 0.25, DefaultGenConfig())
		if err != nil {
			t.Fatal(err)
		}
		if err := g.Validate(); err != nil {
			t.Fatalf("trial %d: random DAG invalid: %v", trial, err)
		}
	}
}

func TestSeriesParallelGenerator(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 20; trial++ {
		g, err := SeriesParallel(rng, 12, DefaultGenConfig())
		if err != nil {
			t.Fatal(err)
		}
		if err := g.Validate(); err != nil {
			t.Fatalf("trial %d: series-parallel invalid: %v", trial, err)
		}
		if g.NumTasks() < 2 {
			t.Fatalf("trial %d: too few tasks", trial)
		}
	}
}

func TestGeneratorRangesRespected(t *testing.T) {
	cfg := GenConfig{ExecMin: 100, ExecMax: 200, VolMin: 10, VolMax: 20}
	rng := rand.New(rand.NewSource(6))
	g, err := RandomDAG(rng, 20, 0.3, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, task := range g.Tasks {
		if task.ExecCycles < 100 || task.ExecCycles > 200 {
			t.Errorf("exec %v outside [100,200]", task.ExecCycles)
		}
	}
	for _, e := range g.Edges {
		if e.VolumeBits < 10 || e.VolumeBits > 20 {
			t.Errorf("volume %v outside [10,20]", e.VolumeBits)
		}
	}
}

func TestGenConfigValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	if _, err := Chain(rng, 3, GenConfig{ExecMin: 10, ExecMax: 5}); err == nil {
		t.Error("inverted exec range must fail")
	}
	if _, err := Chain(rng, 3, GenConfig{VolMin: -1, VolMax: 5}); err == nil {
		t.Error("negative volume range must fail")
	}
}

func TestGeneratorsDeterministicPerSeed(t *testing.T) {
	a, _ := Layered(rand.New(rand.NewSource(42)), 3, 3, 0.4, DefaultGenConfig())
	b, _ := Layered(rand.New(rand.NewSource(42)), 3, 3, 0.4, DefaultGenConfig())
	if FormatString(a, nil) != FormatString(b, nil) {
		t.Error("same seed must reproduce the same graph")
	}
}

func TestTextFormatRoundTrip(t *testing.T) {
	g := PaperApp()
	m := PaperMapping()
	text := FormatString(g, m)
	g2, m2, err := Parse(strings.NewReader(text))
	if err != nil {
		t.Fatalf("parse: %v\n%s", err, text)
	}
	if FormatString(g2, m2) != text {
		t.Errorf("round trip mismatch:\n%s\nvs\n%s", text, FormatString(g2, m2))
	}
}

func TestTextFormatNoMapping(t *testing.T) {
	g := PaperApp()
	text := FormatString(g, nil)
	if strings.Contains(text, "map ") {
		t.Error("nil mapping must not emit map lines")
	}
	g2, m2, err := Parse(strings.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	if m2 != nil {
		t.Errorf("mapping = %v, want nil", m2)
	}
	if g2.NumTasks() != g.NumTasks() || g2.NumEdges() != g.NumEdges() {
		t.Error("parsed sizes differ")
	}
}

func TestParseComments(t *testing.T) {
	src := `
# a comment
task a 100

task b 200
edge e a b 50
`
	g, _, err := Parse(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	if g.NumTasks() != 2 || g.NumEdges() != 1 {
		t.Errorf("parsed %d tasks / %d edges, want 2/1", g.NumTasks(), g.NumEdges())
	}
}

func TestParseErrors(t *testing.T) {
	cases := []struct {
		name string
		src  string
	}{
		{"unknown directive", "bogus x y"},
		{"task arity", "task a"},
		{"bad exec", "task a notanumber"},
		{"duplicate task", "task a 1\ntask a 2"},
		{"edge arity", "task a 1\ntask b 1\nedge e a b"},
		{"edge unknown task", "task a 1\nedge e a z 5"},
		{"bad volume", "task a 1\ntask b 1\nedge e a b x"},
		{"map arity", "task a 1\nmap a"},
		{"map unknown task", "task a 1\nmap z 0"},
		{"bad core", "task a 1\nmap a x"},
		{"double map", "task a 1\ntask b 1\nedge e a b 1\nmap a 0\nmap a 1"},
		{"incomplete map", "task a 1\ntask b 1\nedge e a b 1\nmap a 0"},
		{"cyclic", "task a 1\ntask b 1\nedge e a b 1\nedge f b a 1"},
		{"empty graph", "# nothing"},
	}
	for _, c := range cases {
		if _, _, err := Parse(strings.NewReader(c.src)); err == nil {
			t.Errorf("%s: expected parse error", c.name)
		}
	}
}
