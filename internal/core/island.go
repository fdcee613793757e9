package core

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"math"

	"repro/internal/nsga2"
)

// Island-model exploration: one long GA run split across several
// smaller populations ("islands") that evolve independently and
// exchange their best genomes at fixed generation boundaries. The
// model is built from three deterministic pieces —
//
//   - a per-island engine configuration (population share and a
//     seed derived from the base seed and the island index),
//   - a pure segment function that advances one island by one
//     migration interval, communicating only through checkpoint
//     bytes and genome lists, and
//   - a lockstep driver that runs rounds of segments and routes
//     emigrants around a directed ring —
//
// so the result is reproducible for a given (seed, islands,
// interval, top-k) regardless of where the segments execute. The
// distributed coordinator substitutes its own RoundRunner that ships
// segments to workers; because a segment's inputs and outputs are
// exactly the checkpoint wire format, the remote run is equivalent
// to the local one by construction.

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

// IslandSegment is one unit of island work: advance one island by
// Gens generations. It is self-describing — a process holding only
// the problem configuration and this struct can execute it — which
// is what lets the distributed coordinator hand segments to workers.
type IslandSegment struct {
	// Spec restates the run's island parameters so a remote executor
	// derives the same per-island engine configuration.
	Spec IslandSpec
	// Island is this segment's island index in [0, Spec.Islands).
	Island int
	// StartGen is the generation count already completed (0 for the
	// first segment, which starts the engine fresh).
	StartGen int
	// Gens is how many generations to advance.
	Gens int
	// Checkpoint is the island's engine state from the previous
	// segment (nil at StartGen 0).
	Checkpoint []byte
	// Immigrants are genomes injected before stepping — the previous
	// round's emigrants from the ring neighbor.
	Immigrants [][]byte
}

// IslandSegmentResult is the output of one segment.
type IslandSegmentResult struct {
	// Checkpoint is the island's engine state after stepping, input
	// to the island's next segment (and, after the last round, to
	// AssembleIslands).
	Checkpoint []byte
	// Emigrants are the island's top-K distinct genomes after
	// stepping.
	Emigrants [][]byte
	// Stats is the instrumentation delta attributable to this
	// segment (including initial-population evaluation at gen 0).
	Stats nsga2.Stats
}

// RoundRunner executes one migration round: all islands' segments
// for the same generation window. The local implementation
// (Problem.runIslandRound) runs them serially in-process; the
// distributed coordinator fans them out to workers. Results must be
// indexed like segs.
type RoundRunner func(segs []IslandSegment) ([]IslandSegmentResult, error)

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

// forkForSegment builds a fresh Problem over the same instance and
// settings — exactly the state a worker process starts a segment
// with. Running every segment on a fork keeps a local island run
// equivalent to a distributed one down to the instrumentation
// counters.
func (p *Problem) forkForSegment() (*Problem, error) {
	cfg := p.cfg
	cfg.Instance = p.in
	cfg.Backend, cfg.Ring, cfg.App, cfg.Mapping = "", nil, nil, nil
	return New(cfg)
}

// RunIslandSegment executes one island segment: resume (or start)
// the island engine, inject the immigrants, advance Gens
// generations, and return the new checkpoint, the emigrants, and the
// segment's instrumentation delta. The segment runs on a fresh fork
// of the problem (see forkForSegment) and consumes no randomness
// beyond the island engine's own seeded stream, so its outputs are a
// pure function of (problem configuration, segment) — the property
// that makes local and distributed island runs interchangeable.
func (p *Problem) RunIslandSegment(seg IslandSegment) (IslandSegmentResult, error) {
	fp, err := p.forkForSegment()
	if err != nil {
		return IslandSegmentResult{}, fmt.Errorf("core: island %d: %w", seg.Island, err)
	}
	ga := fp.islandConfig(seg.Spec, seg.Island)
	var (
		x *Explorer
		// engBefore is subtracted from the post-segment counters:
		// a resumed engine carries its history in its counters,
		// while a fresh engine's initial-population work belongs to
		// this segment.
		engBefore nsga2.Stats
	)
	if seg.Checkpoint == nil {
		x, err = fp.newExplorerWith(ga)
	} else {
		x, err = fp.resumeExplorerWith(ga, bytes.NewReader(seg.Checkpoint))
		if err == nil {
			engBefore = x.eng.Stats()
		}
	}
	if err != nil {
		return IslandSegmentResult{}, fmt.Errorf("core: island %d at gen %d: %w", seg.Island, seg.StartGen, err)
	}
	if got := x.Generation(); got != seg.StartGen {
		return IslandSegmentResult{}, fmt.Errorf("core: island %d checkpoint at generation %d, segment expects %d",
			seg.Island, got, seg.StartGen)
	}
	if err := x.eng.InjectGenomes(seg.Immigrants); err != nil {
		return IslandSegmentResult{}, fmt.Errorf("core: island %d: %w", seg.Island, err)
	}
	for g := 0; g < seg.Gens; g++ {
		x.Step()
	}
	var buf bytes.Buffer
	if err := x.WriteCheckpoint(&buf); err != nil {
		return IslandSegmentResult{}, fmt.Errorf("core: island %d: %w", seg.Island, err)
	}
	return IslandSegmentResult{
		Checkpoint: buf.Bytes(),
		Emigrants:  x.eng.TopGenomes(seg.Spec.TopK),
		Stats:      x.eng.Stats().Sub(engBefore),
	}, nil
}

// runIslandRound is the local RoundRunner: the round's segments run
// serially in-process, each on its own problem fork (evaluation
// within a segment still uses the configured worker pool).
// Island-level parallelism is the distributed coordinator's job.
func (p *Problem) runIslandRound(segs []IslandSegment) ([]IslandSegmentResult, error) {
	out := make([]IslandSegmentResult, len(segs))
	for i, seg := range segs {
		r, err := p.RunIslandSegment(seg)
		if err != nil {
			return nil, err
		}
		out[i] = r
	}
	return out, nil
}

// RunIslands drives a full island-model run: rounds of one migration
// interval each, with every island's emigrants injected into its
// successor on a directed ring ((i+1) mod N) at the next round's
// start. runner executes each round's segments (nil uses the local
// serial runIslandRound). Returns the assembled result and the
// summed per-segment instrumentation.
func (p *Problem) RunIslands(spec IslandSpec, runner RoundRunner) (*Result, nsga2.Stats, error) {
	spec = spec.withDefaults()
	if err := p.validateIslands(spec); err != nil {
		return nil, nsga2.Stats{}, err
	}
	if runner == nil {
		runner = p.runIslandRound
	}
	n := spec.Islands
	gens := p.cfg.GA.Generations
	ckpts := make([][]byte, n)
	inbound := make([][][]byte, n)
	var agg nsga2.Stats
	for start := 0; start < gens; start += spec.Interval {
		g := spec.Interval
		if start+g > gens {
			g = gens - start
		}
		segs := make([]IslandSegment, n)
		for i := 0; i < n; i++ {
			segs[i] = IslandSegment{
				Spec:       spec,
				Island:     i,
				StartGen:   start,
				Gens:       g,
				Checkpoint: ckpts[i],
				Immigrants: inbound[i],
			}
		}
		results, err := runner(segs)
		if err != nil {
			return nil, nsga2.Stats{}, err
		}
		if len(results) != n {
			return nil, nsga2.Stats{}, fmt.Errorf("core: island round returned %d results, want %d", len(results), n)
		}
		inbound = make([][][]byte, n)
		for i, r := range results {
			ckpts[i] = r.Checkpoint
			agg = agg.Add(r.Stats)
			if n > 1 && start+g < gens {
				inbound[(i+1)%n] = r.Emigrants
			}
		}
	}
	res, err := p.AssembleIslands(spec, ckpts)
	if err != nil {
		return nil, nsga2.Stats{}, err
	}
	return res, agg, nil
}

// AssembleIslands folds the islands' final checkpoints into one
// Result: each checkpoint is resumed (its archive entries carry their
// metric triples, exactly like a single-engine resume), the
// per-island results are merged (re-ranked through the engine's
// ranking pass, archives deduplicated), and the merged run goes
// through the standard result assembly. Because the inputs are
// checkpoint bytes, a distributed run assembles identically to a
// local one.
func (p *Problem) AssembleIslands(spec IslandSpec, finals [][]byte) (*Result, error) {
	spec = spec.withDefaults()
	if len(finals) != spec.Islands {
		return nil, fmt.Errorf("core: %d final island checkpoints, want %d", len(finals), spec.Islands)
	}
	rs := make([]*nsga2.Result, len(finals))
	for i, ck := range finals {
		x, err := p.resumeExplorerWith(p.islandConfig(spec, i), bytes.NewReader(ck))
		if err != nil {
			return nil, fmt.Errorf("core: assembling island %d: %w", i, err)
		}
		rs[i] = x.eng.Result()
	}
	return p.assembleResult(nsga2.MergeResults(rs...))
}
