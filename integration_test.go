// Cross-module integration tests: the full pipeline from workload
// generation through optimization to simulation, exercised end to end
// the way the CLIs drive it.
package repro_test

import (
	"encoding/csv"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/alloc"
	"repro/internal/core"
	"repro/internal/energy"
	"repro/internal/expt"
	"repro/internal/graph"
	"repro/internal/nsga2"
	"repro/internal/ring"
	"repro/internal/sim"
)

// quickResult runs one reduced exploration shared by the integration
// tests.
func quickResult(t *testing.T) *core.Result {
	t.Helper()
	p, err := core.New(core.Config{NW: 8,
		GA: nsga2.Config{PopSize: 60, Generations: 40, Seed: 11}})
	if err != nil {
		t.Fatal(err)
	}
	res, err := p.Optimize()
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestFrontSolutionsSimulateCleanly(t *testing.T) {
	// Every Pareto-front allocation the optimizer reports must run on
	// the cycle-resolution simulator without occupancy violations,
	// with a makespan bracketing the analytic one.
	res := quickResult(t)
	in, err := alloc.DefaultInstance(8)
	if err != nil {
		t.Fatal(err)
	}
	checked := 0
	for _, sol := range res.FrontTimeEnergy {
		simRes, err := sim.Run(in, sol.Genome, sim.Options{})
		if err != nil {
			t.Fatalf("front solution %v rejected by the simulator: %v", sol.Counts, err)
		}
		if len(simRes.Violations) != 0 {
			t.Fatalf("front solution %v double-books the waveguide: %v", sol.Counts, simRes.Violations)
		}
		analytic := sol.TimeKCC * 1000
		simT := float64(simRes.MakespanCycles)
		if simT < analytic-1e-6 || simT > analytic+float64(in.Edges()) {
			t.Fatalf("front solution %v: sim %v vs analytic %v out of bracket", sol.Counts, simT, analytic)
		}
		checked++
	}
	if checked == 0 {
		t.Fatal("no front solutions to check")
	}
}

func TestCSVGenomesRoundTripThroughEvaluation(t *testing.T) {
	// The CSV the harness exports carries enough to re-evaluate every
	// solution bit-for-bit.
	s, err := expt.Run(expt.CampaignConfig{NWs: []int{8}, Pop: 40, Generations: 20, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := expt.WriteSolutionsCSV(&sb, 8, "front", s.Results[8].FrontTimeEnergy); err != nil {
		t.Fatal(err)
	}
	rows, err := csv.NewReader(strings.NewReader(sb.String())).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	in, err := alloc.DefaultInstance(8)
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range rows[1:] {
		g, err := alloc.ParseGenome(row[7], in.Edges(), in.Channels())
		if err != nil {
			t.Fatalf("CSV genome %q: %v", row[7], err)
		}
		ev := in.Evaluate(g)
		if !ev.Valid {
			t.Fatalf("CSV genome %q re-evaluates invalid: %s", row[7], ev.Reason())
		}
	}
}

func TestGeneratedWorkloadEndToEnd(t *testing.T) {
	// wagen -> textio -> instance -> heuristic assignment -> sim, all
	// in process: the CLI pipeline without the processes.
	rng := rand.New(rand.NewSource(17))
	app, err := graph.Layered(rng, 3, 3, 0.35, graph.DefaultGenConfig())
	if err != nil {
		t.Fatal(err)
	}
	m, err := graph.RandomMapping(rng, app, 16)
	if err != nil {
		t.Fatal(err)
	}
	text := graph.FormatString(app, m)
	app2, m2, err := graph.Parse(strings.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	r, err := ring.New(ring.DefaultConfig(12))
	if err != nil {
		t.Fatal(err)
	}
	in, err := alloc.NewInstance(r, app2, m2, 1, energy.Default())
	if err != nil {
		t.Fatal(err)
	}
	g, err := alloc.Assign(in, alloc.UniformCounts(in.Edges(), 1), alloc.LeastUsed, nil)
	if err != nil {
		t.Fatal(err)
	}
	ev := in.Evaluate(g)
	if !ev.Valid {
		t.Fatalf("generated workload allocation invalid: %s", ev.Reason())
	}
	simRes, err := sim.Run(in, g, sim.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(simRes.Violations) != 0 {
		t.Fatalf("violations: %v", simRes.Violations)
	}
	if simRes.MakespanCycles <= 0 {
		t.Fatal("empty simulation")
	}
}

func TestSharedCoreCampaignEndToEnd(t *testing.T) {
	// The acceptance path of the shared-core change: a campaign over a
	// >16-task workload (the CLI's `wadate -campaign -workloads
	// chain32` route) completes with every projected-front genome
	// cross-checked on the simulator and zero violations.
	wl, err := expt.NamedWorkload("chain32")
	if err != nil {
		t.Fatal(err)
	}
	camp, err := expt.RunCampaign(expt.CampaignConfig{
		NWs:           []int{8},
		ObjectiveSets: []core.ObjectiveSet{core.TimeEnergyBER},
		Workloads:     []expt.Workload{wl},
		Pop:           24,
		Generations:   10,
		Seed:          13,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, cr := range camp.Cells {
		if cr.Result == nil || len(cr.Result.Valid) == 0 {
			t.Fatalf("cell %v found no valid allocations for the shared-core workload", cr.Cell)
		}
		if cr.SimChecked == 0 {
			t.Fatalf("cell %v: simulator cross-check did not run", cr.Cell)
		}
		if cr.SimViolations != 0 {
			t.Fatalf("cell %v: %d simulator violations on a shared-core workload", cr.Cell, cr.SimViolations)
		}
		if cr.SimBracketMisses != 0 {
			t.Fatalf("cell %v: %d makespan bracket misses on a shared-core workload", cr.Cell, cr.SimBracketMisses)
		}
	}
}

func TestPipelineDeterminism(t *testing.T) {
	// The same configuration must reproduce the same rendered figure,
	// byte for byte.
	run := func() string {
		s, err := expt.Run(expt.CampaignConfig{NWs: []int{4}, Pop: 30, Generations: 15, Seed: 9})
		if err != nil {
			t.Fatal(err)
		}
		return expt.Fig6a(s)
	}
	if run() != run() {
		t.Fatal("identical configurations rendered different figures")
	}
}
