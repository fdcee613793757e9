package nsga2

import "fmt"

// This file holds the engine surface the island model builds on:
// deterministic emigrant selection (TopGenomes), deterministic
// immigrant absorption (InjectGenomes), the merge of several island
// runs into one result (MergeResults) and the sum of their counters
// (Stats.Add). The island driver
// itself lives in internal/core — here are only the engine-level
// primitives, each of them PRNG-free so that migration never
// perturbs an island's replayable random trajectory.

// TopGenomes returns copies of the first k distinct genomes of the
// current population. The population is ranked (front by front, in
// the deterministic reference member order), so the returned set is
// the population's best k distinct individuals — the emigrants of the
// island model. Fewer than k distinct genomes returns what exists.
// The selection reads no randomness: for a given engine state it is
// always the same.
func (e *Engine) TopGenomes(k int) [][]byte {
	if k <= 0 {
		return nil
	}
	out := make([][]byte, 0, k)
	seen := make(map[string]bool, k)
	for _, ind := range e.pop {
		key := string(ind.Genome)
		if seen[key] {
			continue
		}
		seen[key] = true
		out = append(out, append([]byte(nil), ind.Genome...))
		if len(out) == k {
			break
		}
	}
	return out
}

// InjectGenomes absorbs foreign genomes (the island model's
// immigrants) into the population: each genome is evaluated through
// the dedup cache, appended to the current population, and the
// merged set is put through the usual elitist survival truncation
// back to the population size. The engine's PRNG is not consulted —
// injection is deterministic for a given (state, genomes) pair — and
// the generation counter does not advance, so a checkpoint written
// afterwards resumes exactly like any other.
func (e *Engine) InjectGenomes(genomes [][]byte) error {
	if len(genomes) == 0 {
		return nil
	}
	if len(genomes) > e.size {
		return fmt.Errorf("nsga2: injecting %d genomes exceeds population size %d", len(genomes), e.size)
	}
	for gi, g := range genomes {
		if len(g) != e.gl {
			return fmt.Errorf("nsga2: injected genome %d has %d genes, want %d", gi, len(g), e.gl)
		}
	}
	// Immigrants are staged in the offspring slab (unused between
	// Steps) so evaluation and survival run on arena-backed rows like
	// any generation's offspring.
	e.rowRefs = e.rowRefs[:0]
	for gi, g := range genomes {
		row := e.offRow(gi)
		copy(row, g)
		e.rowRefs = append(e.rowRefs, row)
	}
	e.evaluateBatch(e.rowRefs, e.offBuf)
	m := append(e.merged[:0], e.pop...)
	m = append(m, e.offBuf[:len(genomes)]...)
	e.pop = e.surviveInto(m)
	return nil
}

// MergeResults folds several independent runs over one problem (the
// island model's per-island results) into a single Result:
//
//   - Final is the concatenation of the final populations in island
//     order, re-ranked with the engine's ranking pass (a ranker sized
//     for the whole concatenation), so rank 0 is the globally
//     non-dominated set across islands.
//   - Archive is the island-major concatenation deduplicated by
//     genome (first occurrence wins; evaluation is deterministic, so
//     duplicates carry identical vectors either way).
//   - Evaluations and ValidEvaluations sum the per-island work;
//     DistinctEvaluated / DistinctValid are recomputed from the
//     deduplicated archive (islands may evaluate overlapping
//     genotypes, so the per-island counts do not simply add).
//
// Every step is deterministic in the input order, which the island
// driver fixes by island index.
func MergeResults(rs ...*Result) *Result {
	merged := &Result{}
	seen := make(map[string]bool)
	for _, r := range rs {
		merged.Final = append(merged.Final, r.Final...)
		merged.Evaluations += r.Evaluations
		merged.ValidEvaluations += r.ValidEvaluations
		for _, e := range r.Archive {
			key := string(e.Genome)
			if seen[key] {
				continue
			}
			seen[key] = true
			merged.Archive = append(merged.Archive, e)
			merged.DistinctEvaluated++
			if e.Feasible() {
				merged.DistinctValid++
			}
		}
	}
	if n := len(merged.Final); n > 0 {
		r := newRanker(n, len(merged.Final[0].Objs))
		r.rankAndCrowd(merged.Final)
	}
	return merged
}

// Add returns the counter-wise sum s + o.
func (s Stats) Add(o Stats) Stats {
	return Stats{
		Evaluations:       s.Evaluations + o.Evaluations,
		CacheHits:         s.CacheHits + o.CacheHits,
		RelationsCompared: s.RelationsCompared + o.RelationsCompared,
		Eval: EvalStats{
			Full: s.Eval.Full + o.Eval.Full,
		},
	}
}
