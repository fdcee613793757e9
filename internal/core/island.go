package core

import (
	"fmt"
	"hash/fnv"
	"math"

	"repro/internal/nsga2"
)

// Island-model exploration: one long GA run split across several
// smaller populations ("islands") that evolve independently and
// exchange their best genomes at fixed generation boundaries.
// RunIslands keeps every island's engine live for the whole run and
// goes round by round in process: each island absorbs the previous
// round's emigrants from its predecessor on a directed ring, steps one
// migration interval and offers its top genomes to its successor. Each
// island's configuration (population share, derived seed, warm-start
// seeds on island 0 only) is a function of the base configuration and
// the island index, and migration reads no randomness, so the result
// is reproducible for a given (seed, islands, interval, top-k).

// IslandSpec parameterizes an island-model run.
type IslandSpec struct {
	// Islands is the number of independent populations. 1 degenerates
	// to a plain single-engine run (no migration).
	Islands int
	// Interval is the migration period in generations. Defaults to
	// DefaultMigrationInterval.
	Interval int
	// TopK is the number of emigrant genomes an island sends at each
	// boundary. Defaults to DefaultMigrationTopK.
	TopK int
}

// DefaultMigrationInterval is the migration period used when
// IslandSpec.Interval is unset.
const DefaultMigrationInterval = 25

// DefaultMigrationTopK is the emigrant count used when
// IslandSpec.TopK is unset.
const DefaultMigrationTopK = 3

func (s IslandSpec) withDefaults() IslandSpec {
	if s.Interval <= 0 {
		s.Interval = DefaultMigrationInterval
	}
	if s.TopK <= 0 {
		s.TopK = DefaultMigrationTopK
	}
	return s
}

// islandSeed derives island i's PRNG seed from the base seed, the
// same way campaign cells derive theirs: FNV-1a over a tagged tuple,
// masked non-negative. Island 0 keeps the base seed so a 1-island
// run is the plain run.
func islandSeed(base int64, i int) int64 {
	if i == 0 {
		return base
	}
	h := fnv.New64a()
	fmt.Fprintf(h, "%d|island|%d", base, i)
	return int64(h.Sum64() & math.MaxInt64)
}

// islandConfig derives island i's engine configuration: an even
// population split (earlier islands take the remainder), a derived
// seed, and heuristic warm-start seeds on island 0 only (truncated
// to its population share).
func (p *Problem) islandConfig(spec IslandSpec, i int) nsga2.Config {
	ga := p.baseGAConfig()
	n := spec.Islands
	share := ga.PopSize / n
	if i < ga.PopSize%n {
		share++
	}
	ga.PopSize = share
	ga.Seed = islandSeed(ga.Seed, i)
	if i == 0 && p.cfg.WarmStart && len(ga.Seeds) == 0 {
		ga.Seeds = p.HeuristicSeeds()
	}
	if len(ga.Seeds) > share {
		ga.Seeds = ga.Seeds[:share]
	}
	return ga
}

// validateIslands checks that the GA configuration can be split
// spec.Islands ways.
func (p *Problem) validateIslands(spec IslandSpec) error {
	switch {
	case spec.Islands < 1:
		return fmt.Errorf("core: island count %d, want >= 1", spec.Islands)
	case p.cfg.GA.PopSize < 2*spec.Islands:
		return fmt.Errorf("core: population %d cannot split into %d islands (need >= 2 per island)",
			p.cfg.GA.PopSize, spec.Islands)
	case p.cfg.GA.Generations <= 0:
		return fmt.Errorf("core: island mode needs an explicit generation count")
	}
	return nil
}

// RunIslands drives a full island-model run: rounds of one migration
// interval each, with every island's emigrants injected into its
// successor on a directed ring ((i+1) mod N) at the next round's
// start. The islands' final runs are merged (re-ranked through the
// engine's ranking pass, archives deduplicated) and go through the
// standard result assembly. Returns the assembled result and the
// islands' summed instrumentation.
func (p *Problem) RunIslands(spec IslandSpec) (*Result, nsga2.Stats, error) {
	spec = spec.withDefaults()
	if err := p.validateIslands(spec); err != nil {
		return nil, nsga2.Stats{}, err
	}
	n := spec.Islands
	engs := make([]*nsga2.Engine, n)
	for i := range engs {
		eng, err := nsga2.NewEngine(p, p.islandConfig(spec, i))
		if err != nil {
			return nil, nsga2.Stats{}, fmt.Errorf("core: island %d: %w", i, err)
		}
		engs[i] = eng
	}
	gens := p.cfg.GA.Generations
	inbound := make([][][]byte, n)
	for start := 0; start < gens; start += spec.Interval {
		g := min(spec.Interval, gens-start)
		outbound := make([][][]byte, n)
		for i, eng := range engs {
			if err := eng.InjectGenomes(inbound[i]); err != nil {
				return nil, nsga2.Stats{}, fmt.Errorf("core: island %d: %w", i, err)
			}
			for range g {
				eng.Step()
			}
			if n > 1 && start+g < gens {
				outbound[(i+1)%n] = eng.TopGenomes(spec.TopK)
			}
		}
		inbound = outbound
	}
	var stats nsga2.Stats
	rs := make([]*nsga2.Result, n)
	for i, eng := range engs {
		stats = stats.Add(eng.Stats())
		rs[i] = eng.Result()
	}
	res, err := p.assembleResult(nsga2.MergeResults(rs...))
	if err != nil {
		return nil, nsga2.Stats{}, err
	}
	return res, stats, nil
}
