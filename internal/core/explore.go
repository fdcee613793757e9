package core

import (
	"fmt"
	"io"

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
// run — fresh or resumed — needs: the archive is forced on (result
// assembly needs it) and checkpoints carry the metric triple as the
// aux payload.
func (p *Problem) baseGAConfig() nsga2.Config {
	ga := p.cfg.GA
	ga.ArchiveAll = true
	ga.AuxLen = metricsAuxLen
	ga.AuxFill = p.auxFill
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
	return p.newExplorerWith(p.gaConfig())
}

// newExplorerWith is NewExplorer under an explicit engine
// configuration — the island model derives per-island configurations
// from the problem's instead of using it verbatim.
func (p *Problem) newExplorerWith(ga nsga2.Config) (*Explorer, error) {
	eng, err := nsga2.NewEngine(p, ga)
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
// Beyond the engine state, the problem's metric cache is rehydrated:
// checkpoints persist the metric triple of every known genotype as
// the cache entries' aux payload, so a resume decodes the triples
// straight back instead of re-running the evaluation kernel. The
// triples were recorded from deterministic evaluations and round-trip
// as IEEE-754 bit patterns, which keeps the rehydrated metrics — and
// therefore the final Result — bit-identical to an uninterrupted
// run's. A feasible entry without a complete triple (possible only in
// a hand-built stream) falls back to one evaluation.
func (p *Problem) ResumeExplorer(r io.Reader) (*Explorer, error) {
	// Warm-start seeds are an initial-population concern; the
	// population comes from the checkpoint here, so skip the heuristic
	// recomputation gaConfig would do per resumed cell.
	return p.resumeExplorerWith(p.baseGAConfig(), r)
}

// resumeExplorerWith is ResumeExplorer under an explicit engine
// configuration (which must match the checkpoint header); the island
// model resumes per-island checkpoints with per-island
// configurations.
func (p *Problem) resumeExplorerWith(ga nsga2.Config, r io.Reader) (*Explorer, error) {
	eng, err := nsga2.ResumeEngine(p, ga, r)
	if err != nil {
		return nil, err
	}
	// Rehydration inserts up to one metric triple per archive entry;
	// pre-sizing the cache once replaces the incremental map growth
	// (and rehashing of everything already inserted) a large resumed
	// archive would otherwise pay.
	p.mu.Lock()
	if len(p.metrics) == 0 {
		p.metrics = make(map[string]Metrics, eng.ArchiveLen())
	}
	p.mu.Unlock()
	scratch := make([]float64, len(p.objs))
	eng.VisitArchive(func(genome []byte, objs []float64, violation float64, aux []float64) {
		if violation != 0 {
			return
		}
		if len(aux) == metricsAuxLen && !anyNaN(aux) {
			p.injectMetrics(genome, Metrics{TimeKCC: aux[0], BitEnergyFJ: aux[1], MeanBER: aux[2]})
			return
		}
		p.EvaluateInto(scratch, genome)
	})
	return &Explorer{p: p, eng: eng, gens: eng.Config().Generations}, nil
}

// Generation returns the number of completed generations.
func (x *Explorer) Generation() int { return x.eng.Generation() }

// Generations returns the run's target generation count.
func (x *Explorer) Generations() int { return x.gens }

// Done reports whether the run has completed its configured
// generations.
func (x *Explorer) Done() bool { return x.eng.Generation() >= x.gens }

// Step advances one generation.
func (x *Explorer) Step() { x.eng.Step() }

// Stats exposes the engine's instrumentation counters: how many
// evaluations each kernel served, cache hits, and dominance
// relations compared (see nsga2.Stats).
func (x *Explorer) Stats() nsga2.Stats { return x.eng.Stats() }

// WriteCheckpoint serializes the exploration state (see
// nsga2.Engine.WriteCheckpoint). Call it between Steps.
func (x *Explorer) WriteCheckpoint(w io.Writer) error {
	return x.eng.WriteCheckpoint(w)
}

// Finish folds the worker metric shards and assembles the Result. The
// explorer can keep stepping afterwards (e.g. to extend a run), but
// the usual pattern is Step-until-Done, then Finish.
func (x *Explorer) Finish() (*Result, error) {
	if !x.Done() {
		return nil, fmt.Errorf("core: Finish at generation %d of %d (step the explorer to completion first)",
			x.eng.Generation(), x.gens)
	}
	runRes := x.eng.Result()
	x.p.mergeWorkers()
	return x.p.assembleResult(runRes)
}
