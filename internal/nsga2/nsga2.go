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
// A problem (Problem) states its genome length, objective count and
// aux length, and builds evaluation views (Worker), one per engine
// goroutine; the engine evaluates through those views only.
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

// Problem is the optimization problem the engine minimizes. The
// engine evaluates only through the views NewWorker returns.
type Problem interface {
	// GenomeLen is the number of binary genes.
	GenomeLen() int
	// NumObjectives is the dimension of the objective vector.
	NumObjectives() int
	// AuxLen is the number of aux values (>= 0) kept per distinct
	// genome next to its objectives: side values such as derived
	// metrics that a resumed run needs without re-evaluating the
	// genome. The engine keeps them on the genome's cache entry,
	// reports them as ArchiveEntry.Aux and writes them to checkpoints,
	// so a resumed engine carries them without calling the problem. It
	// never ranks them; NaN is legal there and means "unknown".
	AuxLen() int
	// NewWorker returns an evaluation view for exclusive use by one
	// engine goroutine. The engine calls it once per evaluation
	// goroutine (max(1, Config.Workers) times) when it is built, and
	// uses each view from one goroutine at a time; the views of one
	// engine run concurrently with each other, so a view keeps its
	// mutable state (scratch buffers, memos) to itself.
	NewWorker() Worker
}

// Worker is one engine goroutine's evaluation view of a Problem.
type Worker interface {
	// EvaluateInto writes genome's objective vector (minimized) into
	// dst (an engine-arena row of NumObjectives()+AuxLen() values: the
	// objectives first, then the aux values) and returns its
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
	// bit-for-bit, and the same from every view of the problem.
	// Implementations must not retain or mutate dst or genome past the
	// call.
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
	// unaffected); each goroutine evaluates through its own
	// NewWorker view.
	Workers int
	// Seed drives the engine's private PRNG; runs are reproducible.
	Seed int64
	// ArchiveAll records every distinct evaluated genome, which the
	// Table II / Fig. 7 analyses need. The archive doubles as an
	// evaluation cache either way.
	ArchiveAll bool
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
	// Aux holds the problem's aux values for the genotype; nil for
	// a problem without them.
	Aux []float64
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
