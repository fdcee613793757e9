// Package expt is the benchmark harness that regenerates every table
// and figure of the paper's evaluation section (Section IV): the
// Table I parameter listing, the Fig. 6(a) bit-energy/time and
// Fig. 6(b) BER/time Pareto fronts for NW = 4/8/12, the Fig. 7 valid
// solution cloud for NW = 8, and the Table II solution counts. All
// runs are seeded and deterministic; reports render as text tables
// and ASCII scatter plots, with CSV export for external plotting.
//
// Every exploration — the paper suite, the robustness study, the
// convergence trace and every campaign — is a campaign cell whose GA
// cellProblem builds on a shared instance (see campaign.go).
package expt

import (
	"fmt"
	"sort"

	"repro/internal/core"
)

// Suite holds the per-NW exploration results of one harness run.
type Suite struct {
	Results map[int]*core.Result
}

// paperCells enumerates the paper suite's cells: reps GA seeds of the
// 3-objective paper workload on the ring per comb size of cfg, whose
// defaults must be applied. Replicate s of comb size NW runs with the
// historical seed cfg.Seed + 1000·NW + 7919·s, which decorrelates the
// comb sizes and keeps every published suite output reproducible.
func paperCells(cfg CampaignConfig, reps int) []Cell {
	cells := make([]Cell, 0, len(cfg.NWs)*reps)
	for _, nw := range cfg.NWs {
		for s := 0; s < reps; s++ {
			cells = append(cells, Cell{
				Index:      len(cells),
				Backend:    core.DefaultBackend,
				NW:         nw,
				Objectives: core.TimeEnergyBER,
				Workload:   PaperWorkload().Name,
				Replicate:  s,
				Seed:       cfg.Seed + 1000*int64(nw) + 7919*int64(s),
			})
		}
	}
	return cells
}

// runPaper runs reps paper-suite cells per comb size. Of cfg it reads
// NWs, Pop, Generations, Seed, CellWorkers and EvalWorkers; the other
// axes are the paper's. A cell whose front the simulator contradicts
// (an occupancy violation or a makespan outside the analytic bracket)
// fails the run: the suite's outputs report no simulator counts, so
// the error is the only place a disagreement can show.
func runPaper(cfg CampaignConfig, reps int) (*Campaign, error) {
	cfg = CampaignConfig{
		NWs: cfg.NWs, Pop: cfg.Pop, Generations: cfg.Generations, Seed: cfg.Seed,
		CellWorkers: cfg.CellWorkers, EvalWorkers: cfg.EvalWorkers,
	}.withDefaults()
	if err := checkNWs(cfg.NWs); err != nil {
		return nil, err
	}
	camp, err := runCells(cfg, paperCells(cfg, reps))
	if err != nil {
		return nil, err
	}
	if err := camp.simDisagreement(); err != nil {
		return nil, err
	}
	return camp, nil
}

// simDisagreement names the first cell whose simulator cross-check
// found an occupancy violation or a bracket miss.
func (c *Campaign) simDisagreement() error {
	for _, cr := range c.Cells {
		if cr.SimViolations > 0 || cr.SimBracketMisses > 0 {
			return fmt.Errorf("expt: cell %d (%s): the simulator contradicts the analytic model (%d violations, %d bracket misses over %d checked genomes)",
				cr.Cell.Index, cr.Cell, cr.SimViolations, cr.SimBracketMisses, cr.SimChecked)
		}
	}
	return nil
}

// Run executes the paper suite: one exploration per comb size of cfg
// (default 4, 8 and 12 at the paper's pop 400 × 300 generations).
func Run(cfg CampaignConfig) (*Suite, error) {
	camp, err := runPaper(cfg, 1)
	if err != nil {
		return nil, err
	}
	s := &Suite{Results: make(map[int]*core.Result, len(camp.Cells))}
	for _, cr := range camp.Cells {
		s.Results[cr.Cell.NW] = cr.Result
	}
	return s, nil
}

// NWs returns the suite's comb sizes in ascending order.
func (s *Suite) NWs() []int {
	nws := make([]int, 0, len(s.Results))
	for nw := range s.Results {
		nws = append(nws, nw)
	}
	sort.Ints(nws)
	return nws
}
