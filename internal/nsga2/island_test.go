package nsga2

import (
	"bytes"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// loadFlat copies a population's objective vectors and packed
// violation words into the engine's SoA dominance buffers, the way
// rankAndCrowd does before front building.
func loadFlat(e *Engine, pop []Individual) {
	for i, ind := range pop {
		e.vfW[i] = math.Float64bits(ind.Violation)
		for k := 0; k < e.nObj && k < len(ind.Objs); k++ {
			e.objCol[k][i] = ind.Objs[k]
		}
	}
}

// TestRelationMatchesDominates pins the unrolled pair relation —
// including the 2/3-objective fast paths — to the reference
// dominates evaluated in both directions, on populations mixing
// feasible, infeasible and duplicate individuals with ±Inf and -0
// objectives sprinkled in.
func TestRelationMatchesDominates(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(24)
		m := 1 + rng.Intn(6) // covers the unrolled widths and the generic fallback
		pop := randomPopulation(rng, n, m)
		specials := []float64{math.Inf(1), math.Inf(-1), math.Copysign(0, -1)}
		for i := range pop {
			if rng.Intn(8) == 0 {
				pop[i].Objs[rng.Intn(m)] = specials[rng.Intn(len(specials))]
			}
		}
		e := scratchEngine(n, m)
		loadFlat(e, pop)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				want := 0
				switch {
				case dominates(pop[i], pop[j]):
					want = 1
				case dominates(pop[j], pop[i]):
					want = -1
				}
				if got := e.relation(i, j); got != want {
					t.Logf("relation(%d,%d)=%d want %d (m=%d, i=%+v, j=%+v)",
						i, j, got, want, m, pop[i], pop[j])
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// BenchmarkRelation measures the pair relation at the unrolled widths
// (m2, m3) and on the generic loop (m4, m5-generic), over a feasible
// population with tie-heavy objective vectors (the shape that defeats
// the early exit).
func BenchmarkRelation(b *testing.B) {
	for _, m := range []int{2, 3, 4, 5} {
		name := map[int]string{2: "m2", 3: "m3", 4: "m4", 5: "m5-generic"}[m]
		b.Run(name, func(b *testing.B) {
			rng := rand.New(rand.NewSource(42))
			const n = 64
			pop := make([]Individual, n)
			for i := range pop {
				objs := make([]float64, m)
				for k := range objs {
					objs[k] = float64(rng.Intn(4))
				}
				pop[i] = Individual{Objs: objs}
			}
			e := scratchEngine(n, m)
			loadFlat(e, pop)
			b.ReportAllocs()
			b.ResetTimer()
			sink := 0
			for it := 0; it < b.N; it++ {
				i := it % n
				j := (it * 31) % n
				sink += e.relation(i, j)
			}
			if sink == math.MaxInt {
				b.Fatal("unreachable")
			}
		})
	}
}

func newTestEngine(t *testing.T, n, pop, gens int, seed int64) *Engine {
	t.Helper()
	e, err := NewEngine(twoMin(n), Config{PopSize: pop, Generations: gens, Seed: seed, ArchiveAll: true})
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// TestTopGenomesDistinctPrefix: the emigrant set is the first k
// distinct genomes of the ranked population, copied (mutating the
// returned slices must not touch engine state), and repeat calls on an
// unchanged engine agree.
func TestTopGenomesDistinctPrefix(t *testing.T) {
	e := newTestEngine(t, 12, 20, 0, 9)
	for g := 0; g < 6; g++ {
		e.Step()
	}
	top := e.TopGenomes(5)
	if len(top) == 0 || len(top) > 5 {
		t.Fatalf("TopGenomes(5) returned %d genomes", len(top))
	}
	seen := map[string]bool{}
	for _, g := range top {
		if len(g) != 12 {
			t.Fatalf("emigrant genome length %d, want 12", len(g))
		}
		if seen[string(g)] {
			t.Fatalf("duplicate emigrant %v", g)
		}
		seen[string(g)] = true
	}
	// The set must be the distinct-prefix of the ranked population.
	want := [][]byte{}
	wseen := map[string]bool{}
	for _, ind := range e.Population() {
		if wseen[string(ind.Genome)] {
			continue
		}
		wseen[string(ind.Genome)] = true
		want = append(want, ind.Genome)
		if len(want) == 5 {
			break
		}
	}
	for i := range top {
		if !bytes.Equal(top[i], want[i]) {
			t.Fatalf("emigrant %d = %v, want %v", i, top[i], want[i])
		}
	}
	// Returned genomes are copies.
	top[0][0] ^= 1
	again := e.TopGenomes(5)
	if !bytes.Equal(again[0], want[0]) {
		t.Fatal("TopGenomes returned aliases into engine state")
	}
	if e.TopGenomes(0) != nil {
		t.Fatal("TopGenomes(0) should be nil")
	}
}

// TestInjectGenomesDeterministicNoDraws: injection consumes zero PRNG
// draws, leaves the generation counter alone, and two engines with
// identical histories that inject the same immigrants stay in
// lockstep through further Steps — the determinism contract the
// island model's migration relies on.
func TestInjectGenomesDeterministicNoDraws(t *testing.T) {
	mk := func() *Engine { return newTestEngine(t, 10, 16, 0, 3) }
	a, b := mk(), mk()
	for g := 0; g < 4; g++ {
		a.Step()
		b.Step()
	}
	imm := [][]byte{
		bytes.Repeat([]byte{0}, 10),
		{0, 0, 0, 0, 0, 1, 1, 1, 1, 1},
	}
	drawsBefore, genBefore, evalsBefore := a.src.n, a.gen, a.evals
	if err := a.InjectGenomes(imm); err != nil {
		t.Fatal(err)
	}
	if a.src.n != drawsBefore {
		t.Fatalf("injection consumed %d PRNG draws, want 0", a.src.n-drawsBefore)
	}
	if a.gen != genBefore {
		t.Fatalf("injection advanced generation %d -> %d", genBefore, a.gen)
	}
	if a.evals != evalsBefore+int(len(imm)) {
		t.Fatalf("injection counted %d evaluations, want %d", a.evals-evalsBefore, len(imm))
	}
	if err := b.InjectGenomes(imm); err != nil {
		t.Fatal(err)
	}
	for g := 0; g < 4; g++ {
		a.Step()
		b.Step()
	}
	pa, pb := a.Population(), b.Population()
	if len(pa) != len(pb) {
		t.Fatalf("population sizes diverged: %d vs %d", len(pa), len(pb))
	}
	for i := range pa {
		if !bytes.Equal(pa[i].Genome, pb[i].Genome) || pa[i].Rank != pb[i].Rank {
			t.Fatalf("populations diverged at %d after identical injection", i)
		}
	}
	// An injected dominator must survive into the population.
	best := append(bytes.Repeat([]byte{0}, 5), bytes.Repeat([]byte{1}, 5)...)
	if err := a.InjectGenomes([][]byte{best}); err != nil {
		t.Fatal(err)
	}
	found := false
	for _, ind := range a.Population() {
		if bytes.Equal(ind.Genome, best) {
			found = true
		}
	}
	if !found {
		t.Fatal("injected optimum missing from survived population")
	}
}

func TestInjectGenomesValidation(t *testing.T) {
	e := newTestEngine(t, 8, 10, 0, 1)
	if err := e.InjectGenomes(nil); err != nil {
		t.Fatalf("empty injection: %v", err)
	}
	if err := e.InjectGenomes([][]byte{make([]byte, 7)}); err == nil {
		t.Fatal("wrong genome length accepted")
	}
	too := make([][]byte, 11)
	for i := range too {
		too[i] = make([]byte, 8)
	}
	if err := e.InjectGenomes(too); err == nil {
		t.Fatal("oversized immigrant batch accepted")
	}
}

// TestMergeResultsDedupAndRank: merged counters sum the work, the
// archive deduplicates by genome in island-major order, distinct
// counts are recomputed from the deduplicated archive, and the merged
// final population is re-ranked so rank 0 is globally non-dominated.
func TestMergeResultsDedupAndRank(t *testing.T) {
	r1, err := Run(twoMin(10), Config{PopSize: 12, Generations: 6, Seed: 1, ArchiveAll: true})
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Run(twoMin(10), Config{PopSize: 12, Generations: 6, Seed: 2, ArchiveAll: true})
	if err != nil {
		t.Fatal(err)
	}
	m := MergeResults(r1, r2)
	if m.Evaluations != r1.Evaluations+r2.Evaluations {
		t.Fatalf("Evaluations = %d, want %d", m.Evaluations, r1.Evaluations+r2.Evaluations)
	}
	if m.ValidEvaluations != r1.ValidEvaluations+r2.ValidEvaluations {
		t.Fatal("ValidEvaluations not summed")
	}
	if len(m.Final) != len(r1.Final)+len(r2.Final) {
		t.Fatalf("Final length %d, want %d", len(m.Final), len(r1.Final)+len(r2.Final))
	}
	seen := map[string]bool{}
	valid := 0
	for _, e := range m.Archive {
		if seen[string(e.Genome)] {
			t.Fatalf("duplicate genome %v in merged archive", e.Genome)
		}
		seen[string(e.Genome)] = true
		if e.Feasible() {
			valid++
		}
	}
	if m.DistinctEvaluated != len(m.Archive) {
		t.Fatalf("DistinctEvaluated = %d, want %d", m.DistinctEvaluated, len(m.Archive))
	}
	if m.DistinctValid != valid {
		t.Fatalf("DistinctValid = %d, want %d", m.DistinctValid, valid)
	}
	// Island-major dedup: every r1 archive genome appears, in order,
	// as a prefix subsequence of the merged archive.
	for i, e := range r1.Archive {
		if !bytes.Equal(m.Archive[i].Genome, e.Genome) {
			t.Fatalf("merged archive not island-major at %d", i)
		}
	}
	// Rank-0 of the merged population is globally non-dominated.
	for _, a := range m.Final {
		if a.Rank != 0 {
			continue
		}
		for _, b := range m.Final {
			if dominates(b, a) {
				t.Fatalf("rank-0 individual %v dominated by %v", a.Objs, b.Objs)
			}
		}
	}
	// MergeResults of a single run preserves its counters.
	single := MergeResults(r1)
	if single.DistinctEvaluated != r1.DistinctEvaluated || single.DistinctValid != r1.DistinctValid {
		t.Fatal("single-run merge changed distinct counts")
	}
}

// TestMergeResultsMatchesReference pins MergeResults' re-rank to the
// reference sortPopulation on three islands' concatenated final
// populations — 3*PopSize individuals, more than an engine's
// 2*PopSize ranker holds — with graded infeasible individuals at
// +Inf and cross-island duplicates: ranks and crowding bits agree.
func TestMergeResultsMatchesReference(t *testing.T) {
	const n, pop = 12, 16
	p := funcProblem{n: n, m: 2, eval: func(g []byte) ([]float64, float64) {
		ones := countOnes(g)
		if ones < 2*n/3 {
			return []float64{math.Inf(1), math.Inf(1)}, float64(2*n/3 - ones)
		}
		return []float64{float64(countOnes(g[:n/2])), float64(n/2 - countOnes(g[n/2:]))}, 0
	}}
	var rs []*Result
	for seed := int64(1); seed <= 3; seed++ {
		r, err := Run(p, Config{PopSize: pop, Generations: 3, Seed: seed, InitDensity: 0.3})
		if err != nil {
			t.Fatal(err)
		}
		rs = append(rs, r)
	}
	merged := MergeResults(rs...)
	var ref []Individual
	for _, r := range rs {
		ref = append(ref, r.Final...)
	}
	sortPopulation(ref)
	if len(merged.Final) != 3*pop || len(ref) != 3*pop {
		t.Fatalf("merged %d individuals, reference %d, want %d", len(merged.Final), len(ref), 3*pop)
	}
	feasible := 0
	for i := range ref {
		if ref[i].Feasible() {
			feasible++
		}
		if merged.Final[i].Rank != ref[i].Rank ||
			math.Float64bits(merged.Final[i].Crowding) != math.Float64bits(ref[i].Crowding) {
			t.Fatalf("individual %d: rank %d crowding %v, reference rank %d crowding %v",
				i, merged.Final[i].Rank, merged.Final[i].Crowding, ref[i].Rank, ref[i].Crowding)
		}
	}
	if feasible == 0 || feasible == len(ref) {
		t.Fatalf("%d of %d individuals feasible; the test needs both kinds", feasible, len(ref))
	}
}

func TestStatsAdd(t *testing.T) {
	a := Stats{Evaluations: 10, CacheHits: 4, RelationsCompared: 100,
		Eval: EvalStats{Full: 5}}
	b := Stats{Evaluations: 7, CacheHits: 1, RelationsCompared: 40,
		Eval: EvalStats{Full: 2}}
	want := Stats{Evaluations: 17, CacheHits: 5, RelationsCompared: 140,
		Eval: EvalStats{Full: 7}}
	if got := a.Add(b); got != want {
		t.Fatalf("a.Add(b) = %+v, want %+v", got, want)
	}
	if got := a.Add(Stats{}); got != a {
		t.Fatalf("a.Add(zero) = %+v, want %+v", got, a)
	}
}
