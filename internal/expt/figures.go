package expt

import (
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/phys"
)

// Table1 renders the paper's Table I: the power loss values the whole
// physical model is parameterized with.
func Table1() string {
	p := phys.DefaultParams()
	rows := [][]string{
		{"Propagation loss", "Lp", fmt.Sprintf("%g dB/cm", float64(p.PropagationDBPerCM))},
		{"Bending loss", "Lb", fmt.Sprintf("%g dB/90deg", float64(p.BendingDBPer90))},
		{"Power loss: OFF-state MR", "Lp0", fmt.Sprintf("%g dB", float64(p.LossOffMR))},
		{"Power loss: ON-state MR", "Lp1", fmt.Sprintf("%g dB", float64(p.LossOnMR))},
		{"Crosstalk loss: OFF-state MR", "Kp0", fmt.Sprintf("%g dB", float64(p.XtalkOffMR))},
		{"Crosstalk loss: ON-state MR", "Kp1", fmt.Sprintf("%g dB", float64(p.XtalkOnMR))},
		{"Laser 1-level power", "Pv", fmt.Sprintf("%g dBm", float64(p.LaserOnDBm))},
		{"Laser 0-level residue", "P0", fmt.Sprintf("%g dBm", float64(p.LaserOffDBm))},
	}
	return "Table I: power loss values\n" + Table([]string{"Parameter", "Symbol", "Value"}, rows)
}

// frontRows renders one projected front as table rows: time, metric,
// and the paper-style allocation vector.
func frontRows(front []core.Solution, metric func(core.Solution) string) [][]string {
	rows := make([][]string, 0, len(front))
	for _, s := range front {
		rows = append(rows, []string{
			fmt.Sprintf("%.2f", s.TimeKCC),
			metric(s),
			s.AllocationVector(),
		})
	}
	return rows
}

// Fig6a renders the paper's Fig. 6(a): per-NW Pareto fronts of bit
// energy versus global execution time, with the per-communication
// allocation vectors the paper annotates.
func Fig6a(s *Suite) string {
	var sb strings.Builder
	sb.WriteString("Fig. 6(a): Pareto solutions, bit energy vs execution time\n\n")
	var series []Series
	glyphs := []byte{'4', '8', 'x'}
	for i, nw := range s.NWs() {
		res := s.Results[nw]
		fmt.Fprintf(&sb, "NW = %d wavelengths (best time %.2f k-cc)\n", nw, res.BestTimeKCC())
		sb.WriteString(Table(
			[]string{"time (k-cc)", "bit energy (fJ/bit)", "allocation"},
			frontRows(res.FrontTimeEnergy, func(sol core.Solution) string {
				return fmt.Sprintf("%.2f", sol.BitEnergyFJ)
			})))
		sb.WriteByte('\n')
		pts := make([]Point, 0, len(res.FrontTimeEnergy))
		for _, sol := range res.FrontTimeEnergy {
			pts = append(pts, Point{X: sol.TimeKCC, Y: sol.BitEnergyFJ})
		}
		series = append(series, Series{Name: fmt.Sprintf("%dl", nw), Glyph: glyphs[i%len(glyphs)], Points: pts})
	}
	sb.WriteString("bit energy (fJ/bit) vs execution time (k-cc):\n")
	sb.WriteString(Scatter(series, 64, 16))
	return sb.String()
}

// Fig6b renders the paper's Fig. 6(b): per-NW Pareto fronts of
// log10(mean BER) versus global execution time.
func Fig6b(s *Suite) string {
	var sb strings.Builder
	sb.WriteString("Fig. 6(b): Pareto solutions, log10(BER) vs execution time\n\n")
	var series []Series
	glyphs := []byte{'4', '8', 'x'}
	for i, nw := range s.NWs() {
		res := s.Results[nw]
		fmt.Fprintf(&sb, "NW = %d wavelengths\n", nw)
		sb.WriteString(Table(
			[]string{"time (k-cc)", "log10(BER)", "allocation"},
			frontRows(res.FrontTimeBER, func(sol core.Solution) string {
				return fmt.Sprintf("%.2f", sol.Log10BER())
			})))
		sb.WriteByte('\n')
		pts := make([]Point, 0, len(res.FrontTimeBER))
		for _, sol := range res.FrontTimeBER {
			pts = append(pts, Point{X: sol.TimeKCC, Y: sol.Log10BER()})
		}
		series = append(series, Series{Name: fmt.Sprintf("%dl", nw), Glyph: glyphs[i%len(glyphs)], Points: pts})
	}
	sb.WriteString("log10(BER) vs execution time (k-cc):\n")
	sb.WriteString(Scatter(series, 64, 16))
	return sb.String()
}

// Fig7 renders the paper's Fig. 7: every distinct valid allocation of
// the NW = 8 run on the (time, log10 BER) plane with the Pareto front
// highlighted, demonstrating how far careless allocations sit from
// the front.
func Fig7(s *Suite) string {
	res, ok := s.Results[8]
	if !ok {
		return "Fig. 7 needs an NW = 8 run\n"
	}
	var sb strings.Builder
	sb.WriteString("Fig. 7: all valid 8-wavelength allocations, BER vs execution time\n\n")
	cloud := make([]Point, 0, len(res.Valid))
	for _, sol := range res.Valid {
		cloud = append(cloud, Point{X: sol.TimeKCC, Y: sol.Log10BER()})
	}
	front := make([]Point, 0, len(res.FrontTimeBER))
	for _, sol := range res.FrontTimeBER {
		front = append(front, Point{X: sol.TimeKCC, Y: sol.Log10BER()})
	}
	sb.WriteString(Scatter([]Series{
		{Name: "valid", Glyph: '.', Points: cloud},
		{Name: "front", Glyph: '*', Points: front},
	}, 64, 18))
	fmt.Fprintf(&sb, "\n%d distinct valid solutions, %d on the (time, BER) Pareto front\n",
		len(res.Valid), len(res.FrontTimeBER))
	return sb.String()
}

// Table2 renders the paper's Table II: the number of valid solutions
// generated by the GA and the number of solutions on the Pareto
// front, per comb size. The paper's single "Pareto front" column maps
// to the (time, BER) projection (its Fig. 7 highlights exactly that
// front); the (time, energy) and distinct-valid columns are reported
// alongside for completeness.
func Table2(s *Suite) string {
	rows := make([][]string, 0, len(s.Results))
	for _, nw := range s.NWs() {
		res := s.Results[nw]
		rows = append(rows, []string{
			fmt.Sprintf("%d", nw),
			fmt.Sprintf("%d", len(res.FrontTimeBER)),
			fmt.Sprintf("%d", len(res.FrontTimeEnergy)),
			fmt.Sprintf("%d", res.ValidEvaluations),
			fmt.Sprintf("%d", res.DistinctValid),
		})
	}
	return "Table II: generated solutions and Pareto front sizes\n" + Table(
		[]string{"NW", "front(time,BER)", "front(time,energy)", "valid generated", "valid distinct"},
		rows)
}

// Summary prints the headline anchors of the run next to the paper's
// numbers (see refdata.go), the quick-look view of EXPERIMENTS.md.
func Summary(s *Suite) string {
	var sb strings.Builder
	sb.WriteString("Reproduction summary (paper value in parentheses)\n\n")
	rows := make([][]string, 0, len(s.Results))
	for _, nw := range s.NWs() {
		res := s.Results[nw]
		paperTime := "-"
		if t, ok := PaperBestTimeKCC[nw]; ok {
			paperTime = fmt.Sprintf("%.2f", t)
		}
		paperFront := "-"
		if f, ok := PaperFrontSize[nw]; ok {
			paperFront = fmt.Sprintf("%d", f)
		}
		paperValid := "-"
		if v, ok := PaperValidCount[nw]; ok {
			paperValid = fmt.Sprintf("%d", v)
		}
		minE := "-"
		if sol, ok := res.MinEnergySolution(); ok {
			minE = fmt.Sprintf("%.2f %v", sol.BitEnergyFJ, sol.Counts)
		}
		rows = append(rows, []string{
			fmt.Sprintf("%d", nw),
			fmt.Sprintf("%.2f (%s)", res.BestTimeKCC(), paperTime),
			minE,
			fmt.Sprintf("%d (%s)", len(res.FrontTimeBER), paperFront),
			fmt.Sprintf("%d (%s)", res.ValidEvaluations, paperValid),
		})
	}
	sb.WriteString(Table(
		[]string{"NW", "best time k-cc", "min energy fJ/bit [alloc]", "front size", "valid generated"},
		rows))
	// The paper's application is acyclic, so its critical path exists.
	floor, _ := graph.PaperApp().CriticalPathCycles()
	fmt.Fprintf(&sb, "\nminimum execution time floor: %.1f k-cc (paper: %.1f)\n",
		floor/1000, PaperMinTimeKCC)
	return sb.String()
}
