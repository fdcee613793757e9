// Package nsga2 implements the Non-dominated Sorting Genetic
// Algorithm II of Deb et al., the optimizer the paper builds its
// wavelength-allocation exploration on: fast non-dominated sorting,
// crowding-distance diversity preservation, binary tournament
// selection, the paper's two-point crossover and single-gene
// inversion mutation, and elitist (mu + lambda) survival.
//
// Genomes are binary gene strings ([]byte of 0/1), exactly the
// chromosome shape of Section III-D. Infeasible individuals (the
// paper "sets the fitness to infinity") are handled with Deb's
// constraint dominance: any feasible individual dominates any
// infeasible one, and among infeasible ones the smaller violation
// dominates, so they fall into ascending-violation fronts (equal
// violations tie).
//
// The hot path lives in the Engine (engine.go): an incremental,
// scratch-arena form of the generation loop that performs zero
// steady-state heap allocations per generation. This file keeps the
// public problem/config/result types. The simple reference
// implementations of the ranking machinery (dominates,
// fastNonDominatedSort, assignCrowding, survive) live in
// reference_test.go, where the property tests use them as the
// equivalence oracle for the engine's one ranking path.
//
// Objective values and violations may be +Inf but never NaN: the
// ranking cannot order NaN, so the engine rejects it where values
// enter — a panic for Problem results, an error for checkpoint cache
// entries.
package nsga2

// Problem is the optimization problem the engine minimizes.
type Problem interface {
	// GenomeLen is the number of binary genes.
	GenomeLen() int
	// NumObjectives is the dimension of the objective vector.
	NumObjectives() int
	// EvaluateInto writes genome's objective vector (minimized) into
	// dst (len NumObjectives, an engine-arena row) and returns its
	// constraint-violation magnitude: 0 means feasible, larger values
	// mean "more broken". Deb's constraint domination uses the
	// magnitude to give the search a gradient toward feasibility even
	// from an all-infeasible population.
	//
	// Objectives and violation may be +Inf (the paper's "fitness set
	// to infinity") but must not be NaN: the engine checks every new
	// result and panics, naming the genome, on a NaN.
	//
	// Results MUST be a pure, deterministic function of genome,
	// bit-for-bit. Implementations must not retain or mutate dst or
	// genome past the call.
	EvaluateInto(dst []float64, genome []byte) (violation float64)
}

// EvalStats is the kernel side of the engine instrumentation: Full
// counts the problem's kernel runs, the evaluations the dedup cache
// did not serve.
type EvalStats struct {
	Full int64
	// GeneDelta, NearDelta and CrossDelta are always zero. Only the
	// e2ebench trace still reads them; they go with the next change to
	// the benchmark harness.
	GeneDelta  int64
	NearDelta  int64
	CrossDelta int64
}

// PerWorkerProblem is the hook for problems whose evaluation benefits
// from per-goroutine state (scratch buffers, memos, metric shards). When the problem implements it, the engine
// calls NewWorker once per evaluation goroutine — once for a serial
// run — when it is built, and routes every evaluation through those
// views, so EvaluateInto implementations need no internal locking and
// no shared mutable state. Each view is used by exactly one goroutine
// at a time; the views of one engine are used concurrently with each
// other. Results must be bit-for-bit identical to the parent's
// EvaluateInto.
type PerWorkerProblem interface {
	Problem
	// NewWorker returns an evaluation view for exclusive use by one
	// engine worker goroutine.
	NewWorker() Problem
}

// Off is the sentinel disabling a genetic operator probability.
// Config's zero value keeps the paper's defaults, so a literal 0 for
// CrossoverProb or MutationProb cannot mean "never apply the
// operator" — set the field to Off for that. Any other negative value
// is rejected by Run.
const Off = -1

// Config tunes the engine. The zero value is completed by
// (*Config).withDefaults; the paper's settings are population 400 and
// 300 generations.
type Config struct {
	// PopSize is the (even) population size.
	PopSize int
	// Generations is the number of evolution steps after the initial
	// population.
	Generations int
	// CrossoverProb is the probability of applying two-point
	// crossover to a mating pair (otherwise the parents are copied).
	// 0 means the paper's default (0.9); use Off to disable crossover
	// entirely.
	CrossoverProb float64
	// MutationProb is the probability of inverting one random gene of
	// each offspring (the paper's mutation operator). 0 means the
	// paper's default (1.0); use Off to disable mutation entirely.
	MutationProb float64
	// PerBitMutation, when positive, replaces the single-gene
	// operator by an independent per-gene flip rate (classic binary
	// GA mutation). Used by the ablation benches.
	PerBitMutation float64
	// InitDensity is the 1-probability of the random initial genes.
	InitDensity float64
	// Seeds injects known genomes into the initial population (warm
	// start); the remainder is drawn randomly. Each seed must match
	// the problem's genome length. More seeds than the population
	// size is an error.
	Seeds [][]byte
	// Workers > 1 evaluates each generation's distinct new genomes on
	// that many goroutines. The run is bit-for-bit identical to the
	// serial one (operators, caching order and counters are
	// unaffected). Problems implementing PerWorkerProblem get one
	// private evaluation view per goroutine and need no locking;
	// plain Problems must make EvaluateInto safe for concurrent calls.
	Workers int
	// Seed drives the engine's private PRNG; runs are reproducible.
	Seed int64
	// ArchiveAll records every distinct evaluated genome, which the
	// Table II / Fig. 7 analyses need. The archive doubles as an
	// evaluation cache either way.
	ArchiveAll bool
	// AuxLen is the number of auxiliary float64 values serialized per
	// evaluation-cache entry in checkpoints (format v2): problem-side
	// state, such as derived metrics, that a resumed run needs without
	// re-evaluating the genotype. 0 (the default) writes no aux data.
	// Resuming a checkpoint whose aux dimension differs from AuxLen
	// fails loudly.
	AuxLen int
	// AuxFill, when non-nil and AuxLen > 0, supplies the aux values at
	// checkpoint-write time: it is called once per cache entry with aux
	// pre-filled with the entry's retained aux values (NaN when none),
	// and may overwrite them. Entries the problem has no aux for should
	// be left untouched. The genome slice must not be retained.
	AuxFill func(genome []byte, aux []float64)
	// OnGeneration, when non-nil, observes each generation's
	// population after survival selection. The Individual slice and
	// the genome bytes it references alias engine-owned scratch that
	// is reused by the next generation: callbacks that retain genomes
	// past their own return must copy them.
	OnGeneration func(gen int, pop []Individual)
}

func (c Config) withDefaults() Config {
	if c.PopSize <= 0 {
		c.PopSize = 400
	}
	if c.PopSize%2 == 1 {
		c.PopSize++
	}
	if c.Generations <= 0 {
		c.Generations = 300
	}
	switch {
	case c.CrossoverProb == 0:
		c.CrossoverProb = 0.9
	case c.CrossoverProb == Off:
		c.CrossoverProb = 0
	}
	switch {
	case c.MutationProb == 0:
		c.MutationProb = 1.0
	case c.MutationProb == Off:
		c.MutationProb = 0
	}
	if c.InitDensity == 0 {
		c.InitDensity = 0.5
	}
	return c
}

// Individual is one member of a population.
type Individual struct {
	Genome []byte
	Objs   []float64
	// Violation is the constraint-violation magnitude; 0 is feasible.
	Violation float64
	// Rank is the non-domination front index (0 is the best front).
	Rank int
	// Crowding is the crowding distance within the front; boundary
	// individuals carry +Inf.
	Crowding float64
}

// Feasible reports whether the individual satisfies every constraint.
func (i Individual) Feasible() bool { return i.Violation == 0 }

// ArchiveEntry records one distinct evaluated genotype.
type ArchiveEntry struct {
	Genome    []byte
	Objs      []float64
	Violation float64
}

// Feasible reports whether the archived genotype was valid.
func (e ArchiveEntry) Feasible() bool { return e.Violation == 0 }

// Result is the outcome of a run.
type Result struct {
	// Final is the last population, non-dominated-sorted.
	Final []Individual
	// Archive lists every distinct genome evaluated during the run
	// (only populated with Config.ArchiveAll).
	Archive []ArchiveEntry
	// Evaluations counts evaluation requests, ValidEvaluations those
	// requests that hit a feasible genotype (the paper's "number of
	// valid solutions generated", duplicates included),
	// DistinctEvaluated the distinct genotypes, and DistinctValid the
	// distinct feasible genotypes.
	Evaluations       int
	ValidEvaluations  int
	DistinctEvaluated int
	DistinctValid     int
}

// Run executes NSGA-II on the problem.
func Run(p Problem, cfg Config) (*Result, error) {
	e, err := NewEngine(p, cfg)
	if err != nil {
		return nil, err
	}
	for g := 0; g < e.cfg.Generations; g++ {
		e.Step()
	}
	return e.Result(), nil
}

// FeasibleFront extracts the distinct feasible rank-0 individuals of
// a sorted population.
func FeasibleFront(pop []Individual) []Individual {
	seen := make(map[string]bool)
	var front []Individual
	for _, ind := range pop {
		if ind.Rank != 0 || !ind.Feasible() {
			continue
		}
		k := string(ind.Genome)
		if seen[k] {
			continue
		}
		seen[k] = true
		front = append(front, ind)
	}
	return front
}
