package core

import (
	"fmt"
	"io"

	"repro/internal/alloc"
	"repro/internal/nsga2"
)

// Explorer is the incremental form of Optimize: it exposes the
// exploration one generation at a time, so long campaigns can
// checkpoint between generations and resume after preemption.
// Optimize itself is a thin loop over an Explorer, so a stepped run
// is bit-for-bit identical to a monolithic one.
//
// An Explorer is not safe for concurrent use.
type Explorer struct {
	p    *Problem
	eng  *nsga2.Engine
	gens int
}

// baseGAConfig assembles the part of the engine configuration every
// run — fresh or resumed — needs: the archive is forced on, because
// result assembly reads every valid genome's metric triple from it.
func (p *Problem) baseGAConfig() nsga2.Config {
	ga := p.cfg.GA
	ga.ArchiveAll = true
	return ga
}

// gaConfig is baseGAConfig plus the fresh-run concerns: WarmStart
// injects the heuristic seeds, exactly like Optimize always did.
func (p *Problem) gaConfig() nsga2.Config {
	ga := p.baseGAConfig()
	if p.cfg.WarmStart && len(ga.Seeds) == 0 {
		ga.Seeds = p.HeuristicSeeds()
	}
	return ga
}

// NewExplorer builds the engine and evaluates the initial population.
func (p *Problem) NewExplorer() (*Explorer, error) {
	eng, err := nsga2.NewEngine(p, p.gaConfig())
	if err != nil {
		return nil, err
	}
	return &Explorer{p: p, eng: eng, gens: eng.Config().Generations}, nil
}

// ResumeExplorer rebuilds an exploration from a checkpoint written by
// WriteCheckpoint, typically in a fresh process after preemption. The
// problem must be configured identically to the checkpointed run (the
// checkpoint header pins genome geometry, population size and seed
// and fails loudly on mismatch).
//
// Checkpoints carry every genotype's metric triple as its cache
// entry's aux values, so the resumed engine holds the triples without
// re-running the evaluation kernel. The triples were recorded from
// deterministic evaluations and round-trip as IEEE-754 bit patterns,
// which keeps the final Result bit-identical to an uninterrupted
// run's. A feasible entry without a complete triple (possible only in
// a hand-built stream) is evaluated once when the Result is
// assembled.
func (p *Problem) ResumeExplorer(r io.Reader) (*Explorer, error) {
	// Warm-start seeds are an initial-population concern; the
	// population comes from the checkpoint here, so skip the heuristic
	// recomputation gaConfig would do per resumed cell.
	eng, err := nsga2.ResumeEngine(p, p.baseGAConfig(), r)
	if err != nil {
		return nil, err
	}
	return &Explorer{p: p, eng: eng, gens: eng.Config().Generations}, nil
}

// Generation returns the number of completed generations.
func (x *Explorer) Generation() int { return x.eng.Generation() }

// Done reports whether the run has completed its configured
// generations.
func (x *Explorer) Done() bool { return x.eng.Generation() >= x.gens }

// Step advances one generation.
func (x *Explorer) Step() { x.eng.Step() }

// Population returns the current ranked population. It aliases engine
// scratch and is valid until the next Step (see
// nsga2.Engine.Population).
func (x *Explorer) Population() []nsga2.Individual { return x.eng.Population() }

// Evaluator returns the evaluator of the engine's first worker view.
// Its exact optics memo already holds the communications of the
// genomes the run evaluated, so re-evaluating them through it — as a
// campaign cell's simulator cross-check does — replays instead of
// walking, with the same bits. Use it only between Steps: the engine
// evaluates through it inside Step.
func (x *Explorer) Evaluator() *alloc.Evaluator {
	return x.eng.Worker().(*workerProblem).eval
}

// Stats exposes the engine's instrumentation counters: how many
// evaluations each kernel served, cache hits, and dominance
// relations compared (see nsga2.Stats).
func (x *Explorer) Stats() nsga2.Stats { return x.eng.Stats() }

// WriteCheckpoint serializes the exploration state (see
// nsga2.Engine.WriteCheckpoint). Call it between Steps.
func (x *Explorer) WriteCheckpoint(w io.Writer) error {
	return x.eng.WriteCheckpoint(w)
}

// Finish assembles the Result. The explorer can keep stepping
// afterwards (e.g. to extend a run), but the usual pattern is
// Step-until-Done, then Finish.
func (x *Explorer) Finish() (*Result, error) {
	if !x.Done() {
		return nil, fmt.Errorf("core: Finish at generation %d of %d (step the explorer to completion first)",
			x.eng.Generation(), x.gens)
	}
	return x.p.assembleResult(x.eng.Result())
}
