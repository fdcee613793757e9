package expt

import (
	"encoding/csv"
	"fmt"
	"math"
	"strings"
	"testing"
)

// suite runs one quick suite per test binary; the GA is deterministic
// so sharing is safe.
var cachedSuite *Suite

func quickSuite(t *testing.T) *Suite {
	t.Helper()
	if cachedSuite != nil {
		return cachedSuite
	}
	s, err := Run(CampaignConfig{NWs: []int{4, 8}, Pop: 80, Generations: 60, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	cachedSuite = s
	return s
}

func TestRunQuickSuite(t *testing.T) {
	s := quickSuite(t)
	nws := s.NWs()
	if len(nws) != 2 || nws[0] != 4 || nws[1] != 8 {
		t.Fatalf("NWs = %v, want [4 8]", nws)
	}
	for _, nw := range nws {
		res := s.Results[nw]
		if res.NW != nw {
			t.Errorf("result NW = %d under key %d", res.NW, nw)
		}
		if len(res.Valid) == 0 || len(res.FrontTimeEnergy) == 0 || len(res.FrontTimeBER) == 0 {
			t.Errorf("NW=%d: empty results", nw)
		}
	}
}

func TestShapeAnchorBestTimeImprovesWithNW(t *testing.T) {
	// The paper's central trend: more wavelengths, faster execution,
	// never beating the 20 k-cc floor.
	s := quickSuite(t)
	t4 := s.Results[4].BestTimeKCC()
	t8 := s.Results[8].BestTimeKCC()
	if t8 >= t4 {
		t.Errorf("best time must improve 4->8 wavelengths: %v vs %v", t4, t8)
	}
	for nw, res := range s.Results {
		if res.BestTimeKCC() < 20 {
			t.Errorf("NW=%d: best time %v beats the 20 k-cc floor", nw, res.BestTimeKCC())
		}
	}
}

func TestShapeAnchorMinEnergyIsAllOnes(t *testing.T) {
	s := quickSuite(t)
	for nw, res := range s.Results {
		sol, ok := res.MinEnergySolution()
		if !ok {
			t.Fatalf("NW=%d: no valid solutions", nw)
		}
		// The quick GA may stop one mutation short of the exact
		// all-ones optimum; it must still land on a lean allocation
		// (the full-scale benchmark asserts exact all-ones).
		total := 0
		for _, c := range sol.Counts {
			total += c
			if c > 2 {
				t.Errorf("NW=%d: min-energy allocation %v not lean", nw, sol.Counts)
				break
			}
		}
		if total > len(sol.Counts)+1 {
			t.Errorf("NW=%d: min-energy allocation %v reserves %d wavelengths, want near %d",
				nw, sol.Counts, total, len(sol.Counts))
		}
		lo, hi := PaperEnergyRangeFJ[0], PaperEnergyRangeFJ[1]
		if sol.BitEnergyFJ < lo-1.5 || sol.BitEnergyFJ > hi {
			t.Errorf("NW=%d: min energy %v fJ/bit far from the paper band [%v,%v]",
				nw, sol.BitEnergyFJ, lo, hi)
		}
	}
}

func TestShapeAnchorCountsGrowWithNW(t *testing.T) {
	s := quickSuite(t)
	if s.Results[8].DistinctValid <= s.Results[4].DistinctValid {
		t.Errorf("distinct valid solutions must grow with NW: %d vs %d",
			s.Results[4].DistinctValid, s.Results[8].DistinctValid)
	}
	if len(s.Results[8].FrontTimeBER) < len(s.Results[4].FrontTimeBER) {
		t.Errorf("front size should not shrink with NW: %d vs %d",
			len(s.Results[4].FrontTimeBER), len(s.Results[8].FrontTimeBER))
	}
}

func TestTable1Content(t *testing.T) {
	out := Table1()
	for _, want := range []string{"Lp", "-0.274", "Lp0", "-0.005", "Lp1", "-0.5", "Kp0", "-20", "Kp1", "-25", "Pv", "-10"} {
		if !strings.Contains(out, want) {
			t.Errorf("Table I missing %q:\n%s", want, out)
		}
	}
}

func TestFig6aReport(t *testing.T) {
	out := Fig6a(quickSuite(t))
	for _, want := range []string{"Fig. 6(a)", "NW = 4", "NW = 8", "bit energy", "allocation"} {
		if !strings.Contains(out, want) {
			t.Errorf("Fig6a missing %q", want)
		}
	}
	// The all-ones minimum-energy vector must appear somewhere.
	if !strings.Contains(out, "[1 1 1 1 1 1]") {
		t.Error("Fig6a should show the all-ones allocation")
	}
}

func TestFig6bReport(t *testing.T) {
	out := Fig6b(quickSuite(t))
	for _, want := range []string{"Fig. 6(b)", "log10(BER)", "NW = 8"} {
		if !strings.Contains(out, want) {
			t.Errorf("Fig6b missing %q", want)
		}
	}
}

func TestFig7Report(t *testing.T) {
	out := Fig7(quickSuite(t))
	if !strings.Contains(out, "Fig. 7") || !strings.Contains(out, "Pareto front") {
		t.Errorf("Fig7 report malformed:\n%s", out)
	}
	if !strings.Contains(out, "*") || !strings.Contains(out, ".") {
		t.Error("Fig7 scatter must draw both the cloud and the front")
	}
}

func TestFig7NeedsNW8(t *testing.T) {
	s, err := Run(CampaignConfig{NWs: []int{4}, Pop: 20, Generations: 10, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(Fig7(s), "needs an NW = 8 run") {
		t.Error("Fig7 without NW=8 must say so")
	}
}

func TestTable2Report(t *testing.T) {
	out := Table2(quickSuite(t))
	for _, want := range []string{"Table II", "front(time,BER)", "valid generated", "valid distinct"} {
		if !strings.Contains(out, want) {
			t.Errorf("Table2 missing %q:\n%s", want, out)
		}
	}
}

func TestSummaryReport(t *testing.T) {
	out := Summary(quickSuite(t))
	for _, want := range []string{"Reproduction summary", "28.30", "20.0"} {
		if !strings.Contains(out, want) {
			t.Errorf("Summary missing %q:\n%s", want, out)
		}
	}
}

func TestCSVOutputParses(t *testing.T) {
	s := quickSuite(t)
	var sb strings.Builder
	if err := WriteSuiteCSV(&sb, s); err != nil {
		t.Fatal(err)
	}
	// Each front emits its own header; validate each block parses.
	blocks := strings.Split(strings.TrimSpace(sb.String()), "nw,kind,")
	if len(blocks) < 4 {
		t.Fatalf("expected >= 4 CSV blocks, got %d", len(blocks)-1)
	}
	for _, block := range blocks[1:] {
		r := csv.NewReader(strings.NewReader("nw,kind," + block))
		rows, err := r.ReadAll()
		if err != nil {
			t.Fatalf("CSV parse: %v", err)
		}
		if len(rows) < 2 {
			t.Fatal("CSV block has no data rows")
		}
		if len(rows[0]) != 8 {
			t.Fatalf("CSV header has %d columns, want 8", len(rows[0]))
		}
	}
}

func TestScatterRendering(t *testing.T) {
	out := Scatter([]Series{
		{Name: "a", Glyph: 'a', Points: []Point{{0, 0}, {1, 1}}},
		{Name: "b", Glyph: 'b', Points: []Point{{0.5, 0.5}}},
	}, 20, 8)
	if !strings.Contains(out, "a") || !strings.Contains(out, "b") {
		t.Errorf("scatter lost glyphs:\n%s", out)
	}
	if !strings.Contains(out, "a=a(2)") {
		t.Errorf("scatter legend malformed:\n%s", out)
	}
	if got := Scatter(nil, 20, 8); !strings.Contains(got, "no points") {
		t.Error("empty scatter must degrade gracefully")
	}
	// Degenerate single point must not divide by zero.
	one := Scatter([]Series{{Name: "p", Glyph: 'p', Points: []Point{{3, 7}}}}, 20, 8)
	if !strings.Contains(one, "p") {
		t.Error("single-point scatter lost its point")
	}
}

func TestTableRendering(t *testing.T) {
	out := Table([]string{"a", "long header"}, [][]string{{"1", "2"}, {"333", "4"}})
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 4 {
		t.Fatalf("table has %d lines, want 4", len(lines))
	}
	if !strings.HasPrefix(lines[1], "---") {
		t.Error("missing header rule")
	}
}

func TestConfigDefaults(t *testing.T) {
	c := CampaignConfig{}.withDefaults()
	if c.Pop != PaperGAPopulation || c.Generations != PaperGAGenerations {
		t.Errorf("defaults %d/%d, want the paper's %d/%d",
			c.Pop, c.Generations, PaperGAPopulation, PaperGAGenerations)
	}
	if len(c.NWs) != 3 || c.NWs[0] != 4 || c.NWs[1] != 8 || c.NWs[2] != 12 {
		t.Errorf("default NWs = %v, want the paper's [4 8 12]", c.NWs)
	}
}

func TestConvergenceTrajectory(t *testing.T) {
	cfg := CampaignConfig{Pop: 40, Generations: 30, Seed: 5}
	points, err := Convergence(cfg, 8, false)
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 30 {
		t.Fatalf("recorded %d generations, want 30", len(points))
	}
	// Feasible fraction and hypervolume must both improve from the
	// random start to the end.
	first, last := points[0], points[len(points)-1]
	if last.FeasibleFraction < first.FeasibleFraction {
		t.Errorf("feasible fraction regressed: %v -> %v", first.FeasibleFraction, last.FeasibleFraction)
	}
	if last.Hypervolume <= first.Hypervolume {
		t.Errorf("hypervolume did not grow: %v -> %v", first.Hypervolume, last.Hypervolume)
	}
	for i, p := range points {
		if p.FeasibleFraction < 0 || p.FeasibleFraction > 1 {
			t.Fatalf("gen %d: feasible fraction %v", i, p.FeasibleFraction)
		}
	}
}

func TestConvergenceWarmStartsFeasible(t *testing.T) {
	cfg := CampaignConfig{Pop: 40, Generations: 10, Seed: 5}
	warm, err := Convergence(cfg, 8, true)
	if err != nil {
		t.Fatal(err)
	}
	// Heuristic seeds guarantee feasible individuals from the first
	// generation.
	if warm[0].FeasibleFraction == 0 {
		t.Error("warm start produced no feasible individuals in generation 0")
	}
	if math.IsInf(warm[0].BestTimeKCC, 1) {
		t.Error("warm start has no best time in generation 0")
	}
}

func TestConvergenceReportRenders(t *testing.T) {
	cfg := CampaignConfig{Pop: 30, Generations: 12, Seed: 3}
	out, err := ConvergenceReport(cfg, 8)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"GA convergence", "cold", "warm", "hypervolume vs generation"} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q", want)
		}
	}
}

func TestMilestones(t *testing.T) {
	ms := milestones(100)
	if ms[0] != 0 || ms[len(ms)-1] != 99 {
		t.Errorf("milestones must include endpoints: %v", ms)
	}
	for i := 1; i < len(ms); i++ {
		if ms[i] <= ms[i-1] {
			t.Errorf("milestones not increasing: %v", ms)
		}
	}
	if got := milestones(0); got != nil {
		t.Errorf("milestones(0) = %v", got)
	}
	if got := milestones(1); len(got) != 1 || got[0] != 0 {
		t.Errorf("milestones(1) = %v", got)
	}
}

func TestMultiSeedStats(t *testing.T) {
	cfg := CampaignConfig{NWs: []int{8}, Pop: 30, Generations: 15, Seed: 2}
	all, err := MultiSeed(cfg, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != 1 {
		t.Fatalf("%d comb sizes, want 1", len(all))
	}
	ss := all[0]
	if ss.NW != 8 || ss.BestTime.N != 3 {
		t.Fatalf("stats = %+v", ss)
	}
	if ss.BestTime.Min < 20 {
		t.Errorf("a seed beat the 20 k-cc floor: %+v", ss.BestTime)
	}
	if ss.BestTime.Max >= 36 {
		t.Errorf("a seed failed to improve on all-ones: %+v", ss.BestTime)
	}
	if _, err := MultiSeed(cfg, 0); err == nil {
		t.Error("zero seeds must fail")
	}
}

func TestMultiSeedReportRenders(t *testing.T) {
	cfg := CampaignConfig{NWs: []int{4}, Pop: 20, Generations: 10, Seed: 2}
	out, err := MultiSeedReport(cfg, 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"Multi-seed robustness", "best time", "n=2"} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q:\n%s", want, out)
		}
	}
}

func TestSensitivityReport(t *testing.T) {
	out, err := Sensitivity()
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"quality factor", "Q", "9600", "area", "mm^2"} {
		if !strings.Contains(out, want) {
			t.Errorf("sensitivity report missing %q", want)
		}
	}
	// The Q=9600/NW=8 cell must be present and parse as a negative
	// log10 BER; spot-check monotonicity: the Q=2400 row must be
	// worse (higher log BER) than Q=19200 at NW=8.
	lines := strings.Split(out, "\n")
	var low, high float64
	var lowSet, highSet bool
	for _, line := range lines {
		fields := strings.Fields(line)
		if len(fields) >= 3 && fields[0] == "2400" {
			fmt.Sscanf(fields[2], "%f", &low)
			lowSet = true
		}
		if len(fields) >= 3 && fields[0] == "19200" {
			fmt.Sscanf(fields[2], "%f", &high)
			highSet = true
		}
	}
	if !lowSet || !highSet {
		t.Fatalf("could not locate Q rows in:\n%s", out)
	}
	if low <= high {
		t.Errorf("low-Q BER (log %v) must be worse than high-Q (log %v)", low, high)
	}
}

// TestSuiteRejectsDuplicateNWs pins that a comb size listed twice
// fails the paper suite's entry points before any cell runs, as it
// fails RunCampaign.
func TestSuiteRejectsDuplicateNWs(t *testing.T) {
	cfg := CampaignConfig{NWs: []int{4, 8, 4}, Pop: 8, Generations: 1, Seed: 1}
	const want = "duplicate comb size 4"
	if _, err := Run(cfg); err == nil || !strings.Contains(err.Error(), want) {
		t.Errorf("Run: err = %v, want %q", err, want)
	}
	if _, err := MultiSeed(cfg, 2); err == nil || !strings.Contains(err.Error(), want) {
		t.Errorf("MultiSeed: err = %v, want %q", err, want)
	}
}

// TestSimDisagreementNamesFirstCell pins the check runPaper applies to
// every suite run (Run and MultiSeed alike): the first cell whose
// simulator cross-check reports a violation or a bracket miss fails
// the run, and a clean campaign passes.
func TestSimDisagreementNamesFirstCell(t *testing.T) {
	cell := func(i, nw int) Cell {
		return Cell{Index: i, Backend: "ring", NW: nw, Workload: "paper"}
	}
	camp := &Campaign{Cells: []CellResult{
		{Cell: cell(0, 4), SimChecked: 5},
		{Cell: cell(1, 8), SimChecked: 7, SimViolations: 1},
		{Cell: cell(2, 12), SimChecked: 3, SimBracketMisses: 2},
	}}
	err := camp.simDisagreement()
	if err == nil {
		t.Fatal("a cell with a simulator violation must fail the suite")
	}
	for _, want := range []string{"cell 1 (NW=8", "1 violations", "0 bracket misses", "7 checked"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not mention %q", err, want)
		}
	}
	camp.Cells[1].SimViolations = 0
	if err := camp.simDisagreement(); err == nil || !strings.Contains(err.Error(), "cell 2 (NW=12") {
		t.Errorf("bracket miss: err = %v, want cell 2 named", err)
	}
	camp.Cells[2].SimBracketMisses = 0
	if err := camp.simDisagreement(); err != nil {
		t.Errorf("clean campaign: %v", err)
	}
}
