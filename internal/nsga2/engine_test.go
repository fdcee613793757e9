package nsga2

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

// randomPopulation builds a mixed feasible/infeasible population with
// deliberate objective ties and duplicates, the shapes that stress
// dominance ranking and stable-sort order.
func randomPopulation(rng *rand.Rand, n, m int) []Individual {
	pop := make([]Individual, n)
	for i := range pop {
		objs := make([]float64, m)
		for k := range objs {
			objs[k] = float64(rng.Intn(6))
		}
		pop[i] = Individual{Objs: objs}
		if rng.Intn(4) == 0 {
			pop[i].Violation = float64(1 + rng.Intn(3))
			for k := range objs {
				objs[k] = math.Inf(1)
			}
		}
		if i > 0 && rng.Intn(5) == 0 {
			// Exact duplicate of an earlier individual.
			pop[i] = Individual{
				Objs:      append([]float64(nil), pop[rng.Intn(i)].Objs...),
				Violation: pop[rng.Intn(i)].Violation,
			}
		}
	}
	return pop
}

// scratchEngine builds an engine sized for populations of up to 2*half
// without running a problem, for driving the ranking and survival
// machinery directly against the reference implementations.
func scratchEngine(half, m int) *Engine {
	return &Engine{
		ranker:   newRanker(2*half, m),
		size:     half,
		rest:     make([]int, 0, 2*half),
		nextBuf:  make([]Individual, half),
		nextSlab: make([]byte, half),
		popBuf:   make([]Individual, half),
		curSlab:  make([]byte, half),
		gl:       1,
	}
}

// TestRankAndCrowdMatchesReference pins the scratch non-dominated
// sort and crowding pass to the allocating reference implementations
// on randomized populations.
func TestRankAndCrowdMatchesReference(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(40)
		m := 1 + rng.Intn(3)
		ref := randomPopulation(rng, n, m)
		got := make([]Individual, n)
		copy(got, ref)

		refFronts := fastNonDominatedSort(ref)
		for rank, front := range refFronts {
			for _, i := range front {
				ref[i].Rank = rank
			}
			assignCrowding(ref, front)
		}

		e := scratchEngine(n, m)
		gotFronts := e.rankAndCrowd(got)

		if len(gotFronts) != len(refFronts) {
			return false
		}
		for fi := range refFronts {
			if len(gotFronts[fi]) != len(refFronts[fi]) {
				return false
			}
			for k := range refFronts[fi] {
				if gotFronts[fi][k] != refFronts[fi][k] {
					return false
				}
			}
		}
		for i := range ref {
			if got[i].Rank != ref[i].Rank {
				return false
			}
			if got[i].Crowding != ref[i].Crowding &&
				!(math.IsInf(got[i].Crowding, 1) && math.IsInf(ref[i].Crowding, 1)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestGroupedDominanceDuplicateHeavy pins the grouped-dominance pass
// on populations dominated by duplicates — the shape real GA merges
// have (every infeasible individual of one violation grade shares one
// objective vector): fronts, member order, ranks and crowding must be
// bit-identical to the ungrouped reference sorter.
func TestGroupedDominanceDuplicateHeavy(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 10 + rng.Intn(70)
		m := 1 + rng.Intn(3)
		// A handful of distinct vectors, heavily repeated: ~85% of
		// individuals duplicate one of ~n/8 archetypes.
		archetypes := randomPopulation(rng, 2+n/8, m)
		pop := make([]Individual, n)
		for i := range pop {
			if rng.Intn(8) == 0 {
				one := randomPopulation(rng, 1, m)
				pop[i] = one[0]
				continue
			}
			src := archetypes[rng.Intn(len(archetypes))]
			pop[i] = Individual{
				Objs:      append([]float64(nil), src.Objs...),
				Violation: src.Violation,
			}
		}
		ref := make([]Individual, n)
		copy(ref, pop)
		refFronts := fastNonDominatedSort(ref)
		for rank, front := range refFronts {
			for _, i := range front {
				ref[i].Rank = rank
			}
			assignCrowding(ref, front)
		}

		e := scratchEngine((n+1)/2+1, m)
		gotFronts := e.rankAndCrowd(pop)

		if len(gotFronts) != len(refFronts) {
			return false
		}
		for fi := range refFronts {
			if len(gotFronts[fi]) != len(refFronts[fi]) {
				return false
			}
			for k := range refFronts[fi] {
				if gotFronts[fi][k] != refFronts[fi][k] {
					return false
				}
			}
		}
		for i := range ref {
			if pop[i].Rank != ref[i].Rank {
				return false
			}
			if math.Float64bits(pop[i].Crowding) != math.Float64bits(ref[i].Crowding) {
				return false
			}
		}
		// Duplication must actually have been exploited: far fewer
		// groups than individuals.
		if g := e.groupIndividuals(n); g >= n {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestSurviveIntoMatchesReference pins the scratch survival selection
// (front fill plus crowding truncation) to the reference survive on
// randomized merged populations, genome bytes included.
func TestSurviveIntoMatchesReference(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		half := 1 + rng.Intn(20)
		m := 1 + rng.Intn(3)
		merged := randomPopulation(rng, 2*half, m)
		for i := range merged {
			merged[i].Genome = []byte{byte(i)}
		}
		refMerged := make([]Individual, len(merged))
		copy(refMerged, merged)

		ref := survive(refMerged, half)

		e := scratchEngine(half, m)
		got := e.surviveInto(merged)

		if len(got) != len(ref) {
			return false
		}
		for i := range ref {
			if got[i].Rank != ref[i].Rank || got[i].Violation != ref[i].Violation {
				return false
			}
			if got[i].Genome[0] != ref[i].Genome[0] {
				return false
			}
			if got[i].Crowding != ref[i].Crowding &&
				!(math.IsInf(got[i].Crowding, 1) && math.IsInf(ref[i].Crowding, 1)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestEngineStepMatchesRun pins the incremental API to Run: stepping
// an engine by hand is the same run.
func TestEngineStepMatchesRun(t *testing.T) {
	cfg := Config{PopSize: 20, Generations: 8, Seed: 11, ArchiveAll: true}
	want, err := Run(twoMin(12), cfg)
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewEngine(twoMin(12), cfg)
	if err != nil {
		t.Fatal(err)
	}
	for g := 0; g < 8; g++ {
		if e.Generation() != g {
			t.Fatalf("generation counter %d, want %d", e.Generation(), g)
		}
		e.Step()
	}
	got := e.Result()
	if got.Evaluations != want.Evaluations || got.DistinctEvaluated != want.DistinctEvaluated ||
		got.ValidEvaluations != want.ValidEvaluations || got.DistinctValid != want.DistinctValid {
		t.Fatalf("counters diverge: got %+v want %+v", got, want)
	}
	for i := range want.Final {
		if string(got.Final[i].Genome) != string(want.Final[i].Genome) {
			t.Fatal("final populations diverge between Run and manual stepping")
		}
	}
	for i := range want.Archive {
		if string(got.Archive[i].Genome) != string(want.Archive[i].Genome) {
			t.Fatal("archive order diverges between Run and manual stepping")
		}
	}
}

// TestResultDetachedFromScratch proves Result survives later Steps:
// the hot path reuses arena genomes, so Result must deep-copy what it
// hands out.
func TestResultDetachedFromScratch(t *testing.T) {
	e, err := NewEngine(twoMin(10), Config{PopSize: 16, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	for g := 0; g < 4; g++ {
		e.Step()
	}
	res := e.Result()
	frozen := make([]string, len(res.Final))
	for i, ind := range res.Final {
		frozen[i] = string(ind.Genome)
	}
	for g := 0; g < 6; g++ {
		e.Step()
	}
	for i, ind := range res.Final {
		if string(ind.Genome) != frozen[i] {
			t.Fatal("Result population mutated by later Steps")
		}
	}
}

// TestSnapshotRestoreReplaysExactly pins the replay contract: after
// Restore, the engine retraces the identical trajectory, including
// the PRNG, the populations and the evaluation counters.
func TestSnapshotRestoreReplaysExactly(t *testing.T) {
	e, err := NewEngine(twoMin(14), Config{PopSize: 24, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	e.Step()
	e.Step()
	snap := e.Snapshot()

	record := func() ([]string, int, int) {
		var genomes []string
		e.Step()
		e.Step()
		for _, ind := range e.Population() {
			genomes = append(genomes, string(ind.Genome))
		}
		return genomes, e.evals, e.Generation()
	}
	wantPop, wantEvals, wantGen := record()
	e.Restore(snap)
	if e.Generation() != 2 {
		t.Fatalf("restored generation %d, want 2", e.Generation())
	}
	gotPop, gotEvals, gotGen := record()
	if wantEvals != gotEvals || wantGen != gotGen {
		t.Fatalf("replay counters diverge: %d/%d vs %d/%d", gotEvals, gotGen, wantEvals, wantGen)
	}
	for i := range wantPop {
		if wantPop[i] != gotPop[i] {
			t.Fatal("replayed population diverges from the original trajectory")
		}
	}
}

// TestStepSteadyStateZeroAllocs drives the engine into a fully cached
// regime (a closed 2^8 genome universe is exhausted within a few
// generations) and demands allocation-free Steps: the tentpole
// contract of the scratch-arena rebuild.
func TestStepSteadyStateZeroAllocs(t *testing.T) {
	e, err := NewEngine(twoMin(8), Config{PopSize: 64, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	for g := 0; g < 60; g++ {
		e.Step()
	}
	before := len(e.cache.entries)
	allocs := testing.AllocsPerRun(20, func() { e.Step() })
	if after := len(e.cache.entries); after != before {
		// The universe was not exhausted; the measurement would be
		// charging legitimate cache growth to the machinery.
		t.Fatalf("cache still growing (%d -> %d); test setup broken", before, after)
	}
	if allocs != 0 {
		t.Errorf("steady-state Step allocates %.1f times per generation, want 0", allocs)
	}
}

// TestOffDisablesOperators covers the sentinel paths of the
// probability defaults: Off must truly disable an operator, while the
// zero value keeps the paper's defaults.
func TestOffDisablesOperators(t *testing.T) {
	d := Config{}.withDefaults()
	if d.CrossoverProb != 0.9 || d.MutationProb != 1.0 {
		t.Fatalf("zero-value defaults broken: crossover %v mutation %v", d.CrossoverProb, d.MutationProb)
	}
	d = Config{CrossoverProb: Off, MutationProb: Off}.withDefaults()
	if d.CrossoverProb != 0 || d.MutationProb != 0 {
		t.Fatalf("Off sentinel not mapped to 0: crossover %v mutation %v", d.CrossoverProb, d.MutationProb)
	}

	// With both operators off, offspring are verbatim parent copies:
	// no genome beyond the initial population is ever created.
	res, err := Run(twoMin(12), Config{PopSize: 20, Generations: 15, Seed: 8,
		CrossoverProb: Off, MutationProb: Off, ArchiveAll: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.DistinctEvaluated > 20 {
		t.Errorf("disabled operators still produced %d distinct genomes from a population of 20",
			res.DistinctEvaluated)
	}

	// Mutation alone disabled: crossover still recombines, so the
	// distinct count may grow, but every genome is a recombination of
	// initial material (sanity: the run completes and stays
	// deterministic).
	a, err := Run(twoMin(12), Config{PopSize: 20, Generations: 10, Seed: 8, MutationProb: Off})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(twoMin(12), Config{PopSize: 20, Generations: 10, Seed: 8, MutationProb: Off})
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Final {
		if string(a.Final[i].Genome) != string(b.Final[i].Genome) {
			t.Fatal("MutationProb: Off runs are not deterministic")
		}
	}

	// Other negative probabilities stay rejected.
	if _, err := Run(twoMin(8), Config{CrossoverProb: -0.5}); err == nil {
		t.Error("negative non-sentinel crossover probability must fail")
	}
	if _, err := Run(twoMin(8), Config{MutationProb: -0.5}); err == nil {
		t.Error("negative non-sentinel mutation probability must fail")
	}
}

// TestGenomeCacheBasics exercises the interned-key cache directly:
// lookups are exact, insertion order is preserved, growth keeps every
// entry reachable.
func TestGenomeCacheBasics(t *testing.T) {
	c := newGenomeCache(64, 16)
	rng := rand.New(rand.NewSource(1))
	var keys [][]byte
	for i := 0; i < 5000; i++ {
		g := make([]byte, 16)
		for j := range g {
			g[j] = byte(rng.Intn(2))
		}
		if _, ok := c.lookup(g); !ok {
			idx := c.insert(g)
			if idx != len(c.entries)-1 {
				t.Fatalf("insert returned %d, want %d", idx, len(c.entries)-1)
			}
			keys = append(keys, append([]byte(nil), g...))
		}
	}
	if len(keys) != len(c.entries) {
		t.Fatalf("%d inserts but %d entries", len(keys), len(c.entries))
	}
	for i, k := range keys {
		idx, ok := c.lookup(k)
		if !ok || idx != i {
			t.Fatalf("key %d lost after growth: ok=%v idx=%d", i, ok, idx)
		}
		if string(c.entries[i].key) != string(k) {
			t.Fatalf("entry %d insertion order broken", i)
		}
	}
	// Mutating the probe key must not affect the interned copy.
	k := append([]byte(nil), keys[0]...)
	if _, ok := c.lookup(k); !ok {
		t.Fatal("lookup of copied key failed")
	}
	k[0] ^= 1
	if string(c.entries[0].key) == string(k) {
		t.Fatal("cache aliased the caller's key slice")
	}
}

// nanPanic runs build, which must panic on a NaN, and returns the
// panic message.
func nanPanic(t *testing.T, build func()) (msg string) {
	t.Helper()
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("NaN accepted without a panic")
		}
		msg = fmt.Sprint(r)
	}()
	build()
	return ""
}

// TestEngineRejectsNaN pins the engine's NaN boundary: a problem
// result with a NaN objective or violation panics on the caller's
// goroutine — serial and parallel alike — with a message naming the
// genome.
func TestEngineRejectsNaN(t *testing.T) {
	poison := []byte{1, 0, 1, 1, 0, 0, 1, 0}
	base := twoMin(len(poison))
	for _, tc := range []struct {
		name string
		objs []float64
		viol float64
	}{
		{"objective", []float64{math.NaN(), 1}, 0},
		{"violation", []float64{1, 1}, math.NaN()},
	} {
		p := funcProblem{n: base.n, m: base.m, eval: func(g []byte) ([]float64, float64) {
			if bytes.Equal(g, poison) {
				return tc.objs, tc.viol
			}
			return base.eval(g)
		}}
		for _, workers := range []int{1, 2} {
			cfg := Config{PopSize: 8, Seed: 1, Workers: workers, Seeds: [][]byte{poison}}
			msg := nanPanic(t, func() { _, _ = NewEngine(p, cfg) })
			if !strings.Contains(msg, "EvaluateInto") || !strings.Contains(msg, fmt.Sprint(poison)) {
				t.Errorf("%s, workers=%d: panic %q does not name EvaluateInto and genome %v", tc.name, workers, msg, poison)
			}
		}
	}
}
