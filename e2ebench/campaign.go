package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"

	"repro/internal/alloc"
	"repro/internal/core"
	"repro/internal/expt"
	"repro/internal/nsga2"
	"repro/internal/sim"
)

// campaign runs a campaign grid end to end — each cell a GA plus the
// simulator cross-check of its fronts — and renders the JSON and CSV
// artifacts. The grid is the one the CI resume- and
// distributed-equivalence jobs run (`wadate -campaign -backends
// ring,crossbar -nw 4,8 -pop 24 -gens 10`, paper workload, one
// replicate). A campaign's cost depends on its seed (front sizes set
// the simulator's share), so the operations cycle through
// campaignSeeds campaign seeds drawn from the run's, and the run's
// median is taken over all of them. The reference artifacts come from
// one untimed run per seed at start; every operation, traced or not,
// must reproduce its seed's byte for byte.
type campaign struct {
	runs    []campaignRun
	next    int
	cur     *campaignRun
	json    bytes.Buffer
	csv     bytes.Buffer
	checked []probe
	paper   expt.Workload
}

// campaignRun is one seeded campaign and its reference artifacts.
type campaignRun struct {
	cfg      expt.CampaignConfig
	wantJSON []byte
	wantCSV  []byte
}

var (
	campaignBackends = []string{"ring", "crossbar"}
	campaignNWs      = []int{4, 8}
)

const (
	campaignPop   = 24
	campaignGens  = 10
	campaignSeeds = 16
)

// setup resolves the workload and builds the grid's shared instances,
// as expt.RunCampaign does before the first cell.
func (w *campaign) setup() error {
	wl, err := expt.NamedWorkload("paper")
	if err != nil {
		return err
	}
	for _, backend := range campaignBackends {
		for _, nw := range campaignNWs {
			if _, err := core.NewSharedInstance(core.Config{NW: nw, Backend: backend, App: wl.App, Mapping: wl.Mapping}); err != nil {
				return err
			}
		}
	}
	return nil
}

func (w *campaign) start(seed int64) error {
	var err error
	if w.paper, err = expt.NamedWorkload("paper"); err != nil {
		return err
	}
	seeds := rand.New(rand.NewSource(seed))
	for tries := 0; len(w.runs) < campaignSeeds; tries++ {
		if tries == 4*campaignSeeds {
			return fmt.Errorf("only %d of %d campaign seeds find a valid allocation in every cell", len(w.runs), campaignSeeds)
		}
		cfg := expt.CampaignConfig{
			Backends:      campaignBackends,
			NWs:           campaignNWs,
			Workloads:     []expt.Workload{w.paper},
			ObjectiveSets: []core.ObjectiveSet{core.TimeEnergyBER},
			Replicates:    1,
			Pop:           campaignPop,
			Generations:   campaignGens,
			Seed:          1 + seeds.Int63n(1<<40),
		}
		c, err := expt.RunCampaign(cfg)
		if err != nil {
			return err
		}
		if !allCellsValid(c) {
			continue
		}
		if err := w.render(c, nil); err != nil {
			return err
		}
		if err := w.verify(c); err != nil {
			return fmt.Errorf("campaign seed %d: %w", cfg.Seed, err)
		}
		w.runs = append(w.runs, campaignRun{cfg: cfg,
			wantJSON: append([]byte(nil), w.json.Bytes()...),
			wantCSV:  append([]byte(nil), w.csv.Bytes()...)})
	}
	return nil
}

func (w *campaign) op(tr *tracer) error {
	w.cur = &w.runs[w.next%len(w.runs)]
	w.next++
	var c *expt.Campaign
	var err error
	if tr == nil {
		c, err = expt.RunCampaign(w.cur.cfg)
	} else {
		c, err = w.tracedCampaign(tr)
	}
	if err != nil {
		return err
	}
	return w.render(c, tr)
}

func (w *campaign) check() error {
	if !bytes.Equal(w.json.Bytes(), w.cur.wantJSON) || !bytes.Equal(w.csv.Bytes(), w.cur.wantCSV) {
		return fmt.Errorf("campaign seed %d: artifacts differ from the reference run's", w.cur.cfg.Seed)
	}
	return nil
}

func (w *campaign) render(c *expt.Campaign, tr *tracer) error {
	var err error
	w.json.Reset()
	w.csv.Reset()
	tr.time("render", func() {
		if err = expt.WriteCampaignJSON(&w.json, c); err == nil {
			err = expt.WriteCampaignCSV(&w.csv, c)
		}
	})
	return err
}

// tracedCampaign runs the grid through the calls expt.RunCampaign makes
// for an in-memory campaign: one shared instance per (backend,
// workload, NW), then per cell the problem, the exploration and the
// simulator cross-check.
func (w *campaign) tracedCampaign(tr *tracer) (*expt.Campaign, error) {
	type key struct {
		backend, workload string
		nw                int
	}
	insts := map[key]*alloc.Instance{}
	cfg := w.cur.cfg
	cells := cfg.Cells()
	var err error
	tr.time("build", func() {
		for _, cell := range cells {
			k := key{cell.Backend, cell.Workload, cell.NW}
			if insts[k] != nil {
				continue
			}
			var in *alloc.Instance
			if in, err = core.NewSharedInstance(core.Config{NW: cell.NW, Backend: cell.Backend, App: w.paper.App, Mapping: w.paper.Mapping}); err != nil {
				return
			}
			insts[k] = in
		}
	})
	if err != nil {
		return nil, err
	}
	c := &expt.Campaign{Cfg: cfg}
	for _, cell := range cells {
		in := insts[key{cell.Backend, cell.Workload, cell.NW}]
		var p *core.Problem
		var x *core.Explorer
		var res *core.Result
		tr.time("build", func() {
			p, err = core.New(core.Config{NW: cell.NW, Instance: in, Objectives: cell.Objectives,
				GA: nsga2.Config{PopSize: cfg.Pop, Generations: cfg.Generations, Seed: cell.Seed}})
		})
		if err != nil {
			return nil, err
		}
		if tr.time("init", func() { x, err = p.NewExplorer() }); err != nil {
			return nil, err
		}
		tr.time("generations", func() {
			for !x.Done() {
				x.Step()
			}
		})
		if tr.time("assembly", func() { res, err = x.Finish() }); err != nil {
			return nil, err
		}
		tr.engine(x.Stats())
		cr := expt.CellResult{Cell: cell, Result: res}
		tr.time("sim", func() {
			cr.SimChecked, cr.SimViolations, cr.SimBracketMisses, cr.Err = simCheck(in, res)
		})
		tr.count("sim_runs", int64(cr.SimChecked))
		c.Cells = append(c.Cells, cr)
	}
	return c, nil
}

// simCheck is the campaign's simulator cross-check (expt's simCheck):
// every distinct projected-front genome through the cycle-resolution
// simulator, counting occupancy violations and makespans outside the
// analytic bracket.
func simCheck(in *alloc.Instance, res *core.Result) (checked, violations, bracketMisses int, err error) {
	var maxExec float64
	for _, t := range in.App.Tasks {
		if t.ExecCycles > maxExec {
			maxExec = t.ExecCycles
		}
	}
	slack := float64(in.App.NumTasks()+in.Edges()+1) + maxExec
	seen := make(map[string]bool)
	for _, front := range [][]core.Solution{res.FrontTimeEnergy, res.FrontTimeBER} {
		for _, sol := range front {
			key := sol.Genome.Key()
			if seen[key] {
				continue
			}
			seen[key] = true
			r, serr := sim.Run(in, sol.Genome, sim.Options{})
			if serr != nil {
				return checked, violations, bracketMisses, fmt.Errorf("sim cross-check: %w", serr)
			}
			checked++
			violations += len(r.Violations)
			simT := float64(r.MakespanCycles)
			analytic := sol.TimeKCC * 1000
			if simT < analytic-maxExec-1e-6 || simT > analytic+slack {
				bracketMisses++
			}
		}
	}
	return checked, violations, bracketMisses, nil
}

// allCellsValid reports whether every cell of a campaign found a valid
// allocation. At pop 24 x 10 a seed may leave a cell without one; such
// seeds are skipped, so that every campaign measured has fronts for the
// simulator to check.
func allCellsValid(c *expt.Campaign) bool {
	for _, cr := range c.Cells {
		if cr.Err == nil && (cr.Result == nil || len(cr.Result.Valid) == 0) {
			return false
		}
	}
	return true
}

// verify checks the reference campaign: every cell succeeded with a
// non-empty valid set, the simulator found no double booking, and the
// JSON artifact parses. It also collects the front genomes for the
// kernel probe.
func (w *campaign) verify(c *expt.Campaign) error {
	if n := c.Failed(); n > 0 {
		return fmt.Errorf("%d campaign cells failed", n)
	}
	if want := len(c.Cfg.Cells()); len(c.Cells) != want {
		return fmt.Errorf("%d cells, want %d", len(c.Cells), want)
	}
	for _, cr := range c.Cells {
		if cr.Result == nil || len(cr.Result.Valid) == 0 {
			return fmt.Errorf("cell %d (%s): no valid solutions", cr.Cell.Index, cr.Cell)
		}
		if cr.SimChecked == 0 || cr.SimViolations != 0 {
			return fmt.Errorf("cell %d (%s): simulator checked %d genomes, %d violations",
				cr.Cell.Index, cr.Cell, cr.SimChecked, cr.SimViolations)
		}
		in, err := core.NewSharedInstance(core.Config{NW: cr.Cell.NW, Backend: cr.Cell.Backend, App: w.paper.App, Mapping: w.paper.Mapping})
		if err != nil {
			return err
		}
		for _, sol := range cr.Result.FrontTimeEnergy {
			w.checked = append(w.checked, probe{in, sol.Genome})
		}
	}
	if !json.Valid(w.json.Bytes()) {
		return fmt.Errorf("campaign JSON artifact does not parse")
	}
	return nil
}

func (w *campaign) digest() string  { return digestOf(w.json.Bytes(), w.csv.Bytes()) }
func (w *campaign) probes() []probe { return w.checked }
func (w *campaign) stop()           {}
