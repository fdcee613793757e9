package core

import (
	"testing"

	"repro/internal/graph"
	"repro/internal/nsga2"
)

// TestConfigInstanceValidation pins the shared-instance contract:
// comb sizes must match, and the instance-describing fields are
// mutually exclusive with an explicit Instance.
func TestConfigInstanceValidation(t *testing.T) {
	in, err := NewSharedInstance(Config{NW: 8})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := New(Config{NW: 4, Instance: in}); err == nil {
		t.Error("comb-size mismatch between NW and Instance must fail")
	}
	if _, err := New(Config{NW: 8, Instance: in, App: graph.PaperApp()}); err == nil {
		t.Error("Instance together with App must fail")
	}
	if _, err := New(Config{NW: 8, Instance: in}); err != nil {
		t.Errorf("valid shared-instance config rejected: %v", err)
	}
}

// TestSharedInstanceRunsBitIdentical proves two problems over one
// shared instance reproduce the self-built-instance run exactly.
func TestSharedInstanceRunsBitIdentical(t *testing.T) {
	ga := nsga2.Config{PopSize: 20, Generations: 8, Seed: 5}
	own, err := New(Config{NW: 8, GA: ga})
	if err != nil {
		t.Fatal(err)
	}
	want, err := own.Optimize()
	if err != nil {
		t.Fatal(err)
	}
	in, err := NewSharedInstance(Config{NW: 8})
	if err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 2; round++ {
		p, err := New(Config{NW: 8, Instance: in, GA: ga})
		if err != nil {
			t.Fatal(err)
		}
		got, err := p.Optimize()
		if err != nil {
			t.Fatal(err)
		}
		if got.Evaluations != want.Evaluations || got.DistinctValid != want.DistinctValid {
			t.Fatalf("round %d: counters diverge from self-built instance", round)
		}
		if len(got.Front) != len(want.Front) {
			t.Fatalf("round %d: front sizes diverge", round)
		}
		for i := range want.Front {
			if got.Front[i].Genome.Key() != want.Front[i].Genome.Key() {
				t.Fatalf("round %d: front genome %d diverges", round, i)
			}
		}
	}
}
