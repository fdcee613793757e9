package core

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/alloc"
	"repro/internal/graph"
	"repro/internal/nsga2"
	"repro/internal/ring"
)

// smallGA keeps unit-test runs fast; the full paper settings run in
// the benchmarks.
func smallGA(seed int64) nsga2.Config {
	return nsga2.Config{PopSize: 60, Generations: 40, Seed: seed}
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Error("missing NW must fail")
	}
	rcfg := ring.DefaultConfig(4)
	if _, err := New(Config{NW: 8, Ring: &rcfg}); err == nil {
		t.Error("NW/ring channel mismatch must fail")
	}
	if _, err := New(Config{NW: 8, App: graph.PaperApp()}); err == nil {
		t.Error("custom app without mapping must fail")
	}
	if _, err := New(Config{NW: 8, Objectives: ObjectiveSet(9)}); err == nil {
		t.Error("unknown objective set must fail")
	}
}

func TestProblemShape(t *testing.T) {
	p, err := New(Config{NW: 8})
	if err != nil {
		t.Fatal(err)
	}
	if p.GenomeLen() != 48 {
		t.Errorf("genome length = %d, want 6*8", p.GenomeLen())
	}
	if p.NumObjectives() != 3 {
		t.Errorf("objectives = %d, want 3 (default set)", p.NumObjectives())
	}
	p2, err := New(Config{NW: 8, Objectives: TimeBER})
	if err != nil {
		t.Fatal(err)
	}
	if p2.NumObjectives() != 2 {
		t.Errorf("TimeBER objectives = %d, want 2", p2.NumObjectives())
	}
}

// evaluate runs one evaluation through the nsga2.Problem interface.
func evaluate(p nsga2.Problem, genome []byte) ([]float64, float64) {
	objs := make([]float64, p.NumObjectives())
	return objs, p.EvaluateInto(objs, genome)
}

func TestEvaluateThroughInterface(t *testing.T) {
	p, err := New(Config{NW: 8})
	if err != nil {
		t.Fatal(err)
	}
	// The valid staggered genome from the heuristics must evaluate
	// feasible through the nsga2.Problem interface.
	g, err := alloc.Assign(p.Instance(), alloc.UniformCounts(6, 1), alloc.FirstFit, nil)
	if err != nil {
		t.Fatal(err)
	}
	objs, violation := evaluate(p, g.Bits())
	if violation != 0 {
		t.Fatalf("heuristic genome must be feasible, violation %v", violation)
	}
	if len(objs) != 3 {
		t.Fatalf("objective vector = %v", objs)
	}
	for _, v := range objs {
		if math.IsInf(v, 0) || math.IsNaN(v) {
			t.Errorf("feasible objective carries %v", v)
		}
	}
	// All-zero genome is infeasible, with one violation per loaded
	// communication.
	zero := make([]byte, p.GenomeLen())
	objs, violation = evaluate(p, zero)
	if violation != 6 {
		t.Errorf("all-zero genome violation = %v, want 6 (one per communication)", violation)
	}
	for _, v := range objs {
		if !math.IsInf(v, 1) {
			t.Error("infeasible objectives must be +Inf")
		}
	}
}

func TestOptimizeSmallRun(t *testing.T) {
	p, err := New(Config{NW: 8, GA: smallGA(1)})
	if err != nil {
		t.Fatal(err)
	}
	res, err := p.Optimize()
	if err != nil {
		t.Fatal(err)
	}
	if res.NW != 8 {
		t.Errorf("NW = %d", res.NW)
	}
	if len(res.Front) == 0 {
		t.Fatal("empty final front")
	}
	if len(res.Valid) == 0 || res.DistinctValid != len(res.Valid) {
		t.Fatalf("valid bookkeeping: %d solutions vs %d distinct", len(res.Valid), res.DistinctValid)
	}
	if res.DistinctEvaluated < res.DistinctValid {
		t.Error("distinct evaluated cannot undercut distinct valid")
	}
	if len(res.FrontTimeEnergy) == 0 || len(res.FrontTimeBER) == 0 {
		t.Fatal("projected fronts must not be empty")
	}
	// Projected fronts are subsets of the valid set and sorted by
	// time.
	for i := 1; i < len(res.FrontTimeEnergy); i++ {
		if res.FrontTimeEnergy[i].TimeKCC < res.FrontTimeEnergy[i-1].TimeKCC {
			t.Error("time-energy front not sorted by time")
		}
	}
	// On a 2D front sorted by time, energy must be strictly
	// decreasing (otherwise a point would be dominated).
	for i := 1; i < len(res.FrontTimeEnergy); i++ {
		a, b := res.FrontTimeEnergy[i-1], res.FrontTimeEnergy[i]
		if a.TimeKCC < b.TimeKCC && b.BitEnergyFJ >= a.BitEnergyFJ {
			t.Errorf("dominated point on time-energy front: %+v then %+v", a.Metrics, b.Metrics)
		}
	}
}

func TestOptimizeFindsPaperAnchors(t *testing.T) {
	// Structural anchors from Section IV, checked on a reduced GA:
	// the makespan floor is 20 k-cc, no valid solution beats it, and
	// a near-floor solution exists for NW = 8... the reduced run must
	// at least respect the bounds and land under the all-ones 36 k-cc.
	p, err := New(Config{NW: 8, GA: smallGA(2)})
	if err != nil {
		t.Fatal(err)
	}
	res, err := p.Optimize()
	if err != nil {
		t.Fatal(err)
	}
	best := res.BestTimeKCC()
	if best < 20 {
		t.Errorf("best time %v beats the physical floor of 20 k-cc", best)
	}
	if best >= 36 {
		t.Errorf("best time %v did not improve on the single-wavelength 36 k-cc", best)
	}
	for _, s := range res.Valid {
		if s.TimeKCC < 20-1e-9 {
			t.Fatalf("valid solution below the floor: %+v", s.Metrics)
		}
	}
}

func TestMinEnergySolutionIsAllOnes(t *testing.T) {
	// The paper: "the most energy saving is the allocation
	// [1,1,1,1,1,1]". Any other valid allocation must cost at least
	// as much per bit.
	p, err := New(Config{NW: 8, GA: smallGA(3)})
	if err != nil {
		t.Fatal(err)
	}
	res, err := p.Optimize()
	if err != nil {
		t.Fatal(err)
	}
	s, ok := res.MinEnergySolution()
	if !ok {
		t.Fatal("no valid solutions")
	}
	total := 0
	for _, c := range s.Counts {
		total += c
	}
	if total != len(s.Counts) {
		t.Errorf("minimum-energy allocation = %v, want all ones", s.Counts)
	}
}

func TestOptimizeDeterministicPerSeed(t *testing.T) {
	run := func() *Result {
		p, err := New(Config{NW: 4, GA: smallGA(7)})
		if err != nil {
			t.Fatal(err)
		}
		res, err := p.Optimize()
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if a.DistinctValid != b.DistinctValid || len(a.Front) != len(b.Front) {
		t.Fatal("same seed must reproduce the result")
	}
	for i := range a.Front {
		if a.Front[i].Genome.Key() != b.Front[i].Genome.Key() {
			t.Fatal("front genomes differ across identical runs")
		}
	}
}

func TestSolutionAllocationVector(t *testing.T) {
	g, err := alloc.ParseGenome("1000/0001/0001/0001/1000/1000", 6, 4)
	if err != nil {
		t.Fatal(err)
	}
	s := Solution{Genome: g, Counts: g.Counts()}
	if s.AllocationVector() != "[1 1 1 1 1 1]" {
		t.Errorf("vector = %q", s.AllocationVector())
	}
}

func TestObjectiveSetStrings(t *testing.T) {
	for set, want := range map[ObjectiveSet]string{
		TimeEnergyBER: "time+energy+BER",
		TimeEnergy:    "time+energy",
		TimeBER:       "time+BER",
	} {
		if set.String() != want {
			t.Errorf("%d.String() = %q, want %q", int(set), set.String(), want)
		}
	}
}

func TestMetricsLog10BER(t *testing.T) {
	if got := (Metrics{MeanBER: 1e-4}).Log10BER(); math.Abs(got+4) > 1e-12 {
		t.Errorf("Log10BER = %v, want -4", got)
	}
	if got := (Metrics{MeanBER: 0}).Log10BER(); got != -300 {
		t.Errorf("Log10BER(0) = %v, want -300 floor", got)
	}
}

func TestHeuristicSeeds(t *testing.T) {
	p, err := New(Config{NW: 8})
	if err != nil {
		t.Fatal(err)
	}
	seeds := p.HeuristicSeeds()
	if len(seeds) == 0 {
		t.Fatal("no heuristic seeds on the default instance")
	}
	for i, s := range seeds {
		if len(s) != p.GenomeLen() {
			t.Fatalf("seed %d has %d genes, want %d", i, len(s), p.GenomeLen())
		}
		if _, violation := evaluate(p, s); violation != 0 {
			t.Fatalf("heuristic seed %d is infeasible", i)
		}
	}
}

func TestWarmStartFindsAllOnesImmediately(t *testing.T) {
	// With warm start, the all-ones energy optimum is present from
	// generation zero, so even a tiny run reports it.
	p, err := New(Config{NW: 8, WarmStart: true,
		GA: nsga2.Config{PopSize: 30, Generations: 3, Seed: 5}})
	if err != nil {
		t.Fatal(err)
	}
	res, err := p.Optimize()
	if err != nil {
		t.Fatal(err)
	}
	sol, ok := res.MinEnergySolution()
	if !ok {
		t.Fatal("no valid solutions")
	}
	for _, c := range sol.Counts {
		if c != 1 {
			t.Fatalf("warm-started min-energy allocation %v, want all ones", sol.Counts)
		}
	}
}

func TestEvaluateBadGenomeLength(t *testing.T) {
	p, err := New(Config{NW: 8})
	if err != nil {
		t.Fatal(err)
	}
	objs, violation := evaluate(p, []byte{1, 0, 1})
	if !math.IsInf(violation, 1) {
		t.Errorf("short genome violation = %v, want +Inf", violation)
	}
	for _, v := range objs {
		if !math.IsInf(v, 1) {
			t.Error("short genome objectives must be +Inf")
		}
	}
}

func TestResultAccessorsOnEmpty(t *testing.T) {
	var r Result
	if !math.IsInf(r.BestTimeKCC(), 1) {
		t.Error("empty result best time must be +Inf")
	}
	if _, ok := r.MinEnergySolution(); ok {
		t.Error("empty result has no min-energy solution")
	}
}

// sameResult demands byte-identical fronts and identical Table II
// counters between two runs.
func sameResult(t *testing.T, label string, a, b *Result) {
	t.Helper()
	if a.Evaluations != b.Evaluations || a.ValidEvaluations != b.ValidEvaluations ||
		a.DistinctEvaluated != b.DistinctEvaluated || a.DistinctValid != b.DistinctValid {
		t.Fatalf("%s: counters differ: %d/%d/%d/%d vs %d/%d/%d/%d", label,
			a.Evaluations, a.ValidEvaluations, a.DistinctEvaluated, a.DistinctValid,
			b.Evaluations, b.ValidEvaluations, b.DistinctEvaluated, b.DistinctValid)
	}
	fronts := func(r *Result) [][]Solution {
		return [][]Solution{r.Front, r.Valid, r.FrontTimeEnergy, r.FrontTimeBER}
	}
	names := []string{"Front", "Valid", "FrontTimeEnergy", "FrontTimeBER"}
	fa, fb := fronts(a), fronts(b)
	for fi := range fa {
		if len(fa[fi]) != len(fb[fi]) {
			t.Fatalf("%s: %s sizes differ: %d vs %d", label, names[fi], len(fa[fi]), len(fb[fi]))
		}
		for i := range fa[fi] {
			sa, sb := fa[fi][i], fb[fi][i]
			if sa.Genome.Key() != sb.Genome.Key() {
				t.Fatalf("%s: %s[%d] genomes differ", label, names[fi], i)
			}
			if sa.Metrics != sb.Metrics {
				t.Fatalf("%s: %s[%d] metrics differ: %+v vs %+v", label, names[fi], i, sa.Metrics, sb.Metrics)
			}
		}
	}
}

// TestParallelWorkersBitIdenticalToSerial is the determinism
// guarantee of the per-worker evaluator design: any worker count
// yields the same fronts and the same Table II counters as the serial
// run.
func TestParallelWorkersBitIdenticalToSerial(t *testing.T) {
	run := func(workers int) *Result {
		ga := smallGA(11)
		ga.Workers = workers
		p, err := New(Config{NW: 8, GA: ga})
		if err != nil {
			t.Fatal(err)
		}
		res, err := p.Optimize()
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	serial := run(0)
	for _, workers := range []int{1, 2, 8} {
		sameResult(t, fmt.Sprintf("workers=%d", workers), serial, run(workers))
	}
}

// TestNewWorkerSharesInstance pins the worker-view contract.
func TestNewWorkerSharesInstance(t *testing.T) {
	p, err := New(Config{NW: 4, GA: smallGA(3)})
	if err != nil {
		t.Fatal(err)
	}
	w := p.NewWorker()
	if w.GenomeLen() != p.GenomeLen() || w.NumObjectives() != p.NumObjectives() {
		t.Fatal("worker view has a different shape")
	}
	genome := make([]byte, p.GenomeLen())
	for i := range genome {
		genome[i] = byte(i % 2)
	}
	ow, vw := evaluate(w, genome)
	op, vp := evaluate(p, genome)
	if vw != vp || len(ow) != len(op) {
		t.Fatalf("worker and parent disagree: %v/%v vs %v/%v", ow, vw, op, vp)
	}
	for i := range ow {
		if ow[i] != op[i] && !(math.IsInf(ow[i], 1) && math.IsInf(op[i], 1)) {
			t.Fatalf("objective %d differs: %v vs %v", i, ow[i], op[i])
		}
	}
}
