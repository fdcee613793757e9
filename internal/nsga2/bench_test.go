package nsga2

import (
	"math/rand"
	"testing"
)

// rankBenchPopulation builds a deterministic population for the
// ranking benches. Duplicate-heavy mirrors a real GA merge (a few
// archetype vectors, heavily repeated, so the duplicate-group layer
// collapses most of the population); all-distinct is the worst case
// for grouping and the best case for the sort-based builder's
// front-skip search.
func rankBenchPopulation(n, m int, dupHeavy bool) []Individual {
	rng := rand.New(rand.NewSource(11))
	pop := make([]Individual, n)
	if dupHeavy {
		archetypes := make([][]float64, 2+n/16)
		for a := range archetypes {
			objs := make([]float64, m)
			for k := range objs {
				objs[k] = float64(rng.Intn(8))
			}
			archetypes[a] = objs
		}
		for i := range pop {
			src := archetypes[rng.Intn(len(archetypes))]
			pop[i] = Individual{Objs: append([]float64(nil), src...)}
			if rng.Intn(4) == 0 {
				pop[i].Violation = float64(1 + rng.Intn(3))
			}
		}
		return pop
	}
	for i := range pop {
		objs := make([]float64, m)
		for k := range objs {
			objs[k] = rng.Float64()
		}
		pop[i] = Individual{Objs: objs}
		if rng.Intn(4) == 0 {
			pop[i].Violation = rng.Float64()
		}
	}
	return pop
}

// BenchmarkRankAndCrowdSoA holds the engine's struct-of-arrays
// ranking pass (columnar objectives + packed violation words feeding
// the sort-based builder) against the array-of-structs reference
// (fastNonDominatedSort + assignCrowding walking per-individual
// slices, kept in reference_test.go) on the same dup-heavy merged
// population. CI requires engine < reference within the run: the SoA
// layout must pay for itself, not merely match.
func BenchmarkRankAndCrowdSoA(b *testing.B) {
	const n, m = 800, 3
	pop := rankBenchPopulation(n, m, true)
	b.Run("engine", func(b *testing.B) {
		e := scratchEngine(n/2, m)
		work := make([]Individual, n)
		copy(work, pop)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			e.rankAndCrowd(work)
		}
	})
	b.Run("reference", func(b *testing.B) {
		work := make([]Individual, n)
		copy(work, pop)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for _, front := range fastNonDominatedSort(work) {
				assignCrowding(work, front)
			}
		}
	})
}

// BenchmarkRankAndCrowd measures the non-dominated ranking plus
// crowding pass at the paper-scale merged-population size (2x400) on
// duplicate-heavy and all-distinct populations. The sub-benchmarks
// keep their sorted- prefix, which CI's 0 allocs/op gate matches.
func BenchmarkRankAndCrowd(b *testing.B) {
	const n, m = 800, 3
	for _, shape := range []struct {
		name     string
		dupHeavy bool
	}{{"dup", true}, {"distinct", false}} {
		pop := rankBenchPopulation(n, m, shape.dupHeavy)
		b.Run("sorted-"+shape.name, func(b *testing.B) {
			e := scratchEngine(n/2, m)
			work := make([]Individual, n)
			copy(work, pop)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				e.rankAndCrowd(work)
			}
		})
	}
}
