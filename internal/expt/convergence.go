package expt

import (
	"fmt"
	"math"
	"strings"

	"repro/internal/nsga2"
	"repro/internal/pareto"
)

// ConvergencePoint snapshots the GA's state after one generation.
type ConvergencePoint struct {
	Generation int
	// FeasibleFraction is the share of the population satisfying the
	// validity rules — how fast constraint domination pulls the
	// search into the feasible region.
	FeasibleFraction float64
	// BestTimeKCC is the fastest feasible makespan in the population.
	BestTimeKCC float64
	// Hypervolume is the (time k-cc, fJ/bit) dominated volume of the
	// feasible first front against the reference box (40, 10).
	Hypervolume float64
}

// Convergence runs the paper-suite exploration of comb size nw, under
// cfg's Pop, Generations and Seed, and records the per-generation
// trajectory. warmStart seeds the initial population with the
// heuristic allocations.
func Convergence(cfg CampaignConfig, nw int, warmStart bool) ([]ConvergencePoint, error) {
	cfg = CampaignConfig{NWs: []int{nw}, Pop: cfg.Pop, Generations: cfg.Generations, Seed: cfg.Seed,
		WarmStart: warmStart}.withDefaults()
	cell := paperCells(cfg, 1)[0]
	in, err := BuildCellInstance(cell, PaperWorkload())
	if err != nil {
		return nil, err
	}
	p, err := cellProblem(cfg, cell, in)
	if err != nil {
		return nil, err
	}
	x, err := p.NewExplorer()
	if err != nil {
		return nil, err
	}
	var points []ConvergencePoint
	for !x.Done() {
		x.Step()
		points = append(points, convergencePoint(len(points), x.Population()))
	}
	return points, nil
}

// convergencePoint summarizes one generation's ranked population.
func convergencePoint(gen int, pop []nsga2.Individual) ConvergencePoint {
	p := ConvergencePoint{Generation: gen, BestTimeKCC: math.Inf(1)}
	var front [][]float64
	for _, ind := range pop {
		if !ind.Feasible() {
			continue
		}
		p.FeasibleFraction++
		t := ind.Objs[0] / 1000 // objective 0 is time in cycles
		if t < p.BestTimeKCC {
			p.BestTimeKCC = t
		}
		if ind.Rank == 0 {
			front = append(front, []float64{t, ind.Objs[1]})
		}
	}
	p.FeasibleFraction /= float64(len(pop))
	p.Hypervolume = pareto.Hypervolume2D(front, [2]float64{40, 10})
	return p
}

// ConvergenceReport renders cold- vs warm-start trajectories side by
// side: the ablation behind the WarmStart option.
func ConvergenceReport(cfg CampaignConfig, nw int) (string, error) {
	cold, err := Convergence(cfg, nw, false)
	if err != nil {
		return "", err
	}
	warm, err := Convergence(cfg, nw, true)
	if err != nil {
		return "", err
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "GA convergence, NW = %d (cold vs heuristic warm start)\n\n", nw)
	rows := make([][]string, 0)
	marks := milestones(len(cold))
	for _, gen := range marks {
		rows = append(rows, []string{
			fmt.Sprintf("%d", gen),
			fmt.Sprintf("%.0f%%", 100*cold[gen].FeasibleFraction),
			fmt.Sprintf("%.2f", cold[gen].BestTimeKCC),
			fmt.Sprintf("%.1f", cold[gen].Hypervolume),
			fmt.Sprintf("%.0f%%", 100*warm[gen].FeasibleFraction),
			fmt.Sprintf("%.2f", warm[gen].BestTimeKCC),
			fmt.Sprintf("%.1f", warm[gen].Hypervolume),
		})
	}
	sb.WriteString(Table([]string{
		"gen", "cold feas", "cold best t", "cold hv", "warm feas", "warm best t", "warm hv",
	}, rows))
	sb.WriteByte('\n')
	coldPts := make([]Point, len(cold))
	warmPts := make([]Point, len(warm))
	for i := range cold {
		coldPts[i] = Point{X: float64(i), Y: cold[i].Hypervolume}
		warmPts[i] = Point{X: float64(i), Y: warm[i].Hypervolume}
	}
	sb.WriteString("front hypervolume vs generation:\n")
	sb.WriteString(Scatter([]Series{
		{Name: "cold", Glyph: 'c', Points: coldPts},
		{Name: "warm", Glyph: 'w', Points: warmPts},
	}, 64, 12))
	return sb.String(), nil
}

// milestones picks representative generation indices for the table.
func milestones(n int) []int {
	if n == 0 {
		return nil
	}
	idx := map[int]bool{0: true, n - 1: true}
	for _, f := range []float64{0.1, 0.25, 0.5, 0.75} {
		idx[int(f*float64(n-1))] = true
	}
	out := make([]int, 0, len(idx))
	for i := 0; i < n; i++ {
		if idx[i] {
			out = append(out, i)
		}
	}
	return out
}
