package core

import (
	"reflect"
	"testing"

	"repro/internal/nsga2"
)

func islandProblem(t *testing.T, ga nsga2.Config) *Problem {
	t.Helper()
	p, err := New(Config{NW: 4, GA: ga})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestIslandsOneMatchesPlainRun pins the degenerate topology: one
// island with any interval is the plain single-engine run — same
// front, archive-derived counts, everything.
func TestIslandsOneMatchesPlainRun(t *testing.T) {
	ga := nsga2.Config{PopSize: 16, Generations: 8, Seed: 11}
	ref, err := islandProblem(t, ga).Optimize()
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := islandProblem(t, ga).RunIslands(IslandSpec{Islands: 1, Interval: 3})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(ref, got) {
		t.Fatalf("1-island run differs from plain run:\nplain: %+v\nisland: %+v", ref, got)
	}
}

// TestIslandsDeterministic: the island model is reproducible for a
// given (seed, islands, interval, top-k) — results and aggregated
// stats from two independent runs are identical.
func TestIslandsDeterministic(t *testing.T) {
	ga := nsga2.Config{PopSize: 18, Generations: 7, Seed: 4}
	spec := IslandSpec{Islands: 3, Interval: 2, TopK: 2}
	r1, s1, err := islandProblem(t, ga).RunIslands(spec)
	if err != nil {
		t.Fatal(err)
	}
	r2, s2, err := islandProblem(t, ga).RunIslands(spec)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(r1, r2) {
		t.Fatal("island runs with identical parameters diverged")
	}
	if s1 != s2 {
		t.Fatalf("island stats diverged: %+v vs %+v", s1, s2)
	}
	// A different interval is a different (valid) trajectory — guard
	// against the migration machinery being a no-op.
	r3, _, err := islandProblem(t, ga).RunIslands(IslandSpec{Islands: 3, Interval: 4, TopK: 2})
	if err != nil {
		t.Fatal(err)
	}
	if r3.Evaluations == 0 || len(r3.Front) == 0 {
		t.Fatal("island run produced no work")
	}
}

func TestIslandsValidation(t *testing.T) {
	p := islandProblem(t, nsga2.Config{PopSize: 4, Generations: 3, Seed: 1})
	if _, _, err := p.RunIslands(IslandSpec{Islands: 3}); err == nil {
		t.Fatal("population 4 split into 3 islands accepted")
	}
	if _, _, err := p.RunIslands(IslandSpec{Islands: 0}); err == nil {
		t.Fatal("zero islands accepted")
	}
	p2 := islandProblem(t, nsga2.Config{PopSize: 8, Seed: 1})
	if _, _, err := p2.RunIslands(IslandSpec{Islands: 2}); err == nil {
		t.Fatal("island run without explicit generations accepted")
	}
}

// TestIslandSeedsDistinct: derived island seeds differ from the base
// and from each other (island 0 keeps the base seed).
func TestIslandSeedsDistinct(t *testing.T) {
	base := int64(42)
	if islandSeed(base, 0) != base {
		t.Fatal("island 0 must keep the base seed")
	}
	seen := map[int64]bool{base: true}
	for i := 1; i < 8; i++ {
		s := islandSeed(base, i)
		if s < 0 {
			t.Fatalf("island seed %d negative", i)
		}
		if seen[s] {
			t.Fatalf("island seed collision at %d", i)
		}
		seen[s] = true
	}
}
