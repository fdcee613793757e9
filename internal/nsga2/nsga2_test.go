package nsga2

import (
	"math"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"
)

// funcProblem adapts a pure closure to the Problem interface; being
// stateless, it serves as its own view on every goroutine.
type funcProblem struct {
	n, m int
	eval func([]byte) ([]float64, float64)
}

func (p funcProblem) GenomeLen() int     { return p.n }
func (p funcProblem) NumObjectives() int { return p.m }
func (p funcProblem) AuxLen() int        { return 0 }
func (p funcProblem) NewWorker() Worker  { return p }
func (p funcProblem) EvaluateInto(dst []float64, g []byte) float64 {
	objs, violation := p.eval(g)
	copy(dst, objs)
	return violation
}

func countOnes(g []byte) int {
	c := 0
	for _, b := range g {
		if b != 0 {
			c++
		}
	}
	return c
}

// twoMin is a simple bi-objective problem: minimize the ones in the
// first half and the zeros in the second half. The single optimum is
// 000...111; the trade-off front is wide on the way there.
func twoMin(n int) funcProblem {
	return funcProblem{n: n, m: 2, eval: func(g []byte) ([]float64, float64) {
		h := n / 2
		onesLo := countOnes(g[:h])
		zerosHi := h - countOnes(g[h:])
		return []float64{float64(onesLo), float64(zerosHi)}, 0
	}}
}

func TestRunFindsOptimum(t *testing.T) {
	res, err := Run(twoMin(16), Config{PopSize: 60, Generations: 60, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	front := FeasibleFront(res.Final)
	if len(front) == 0 {
		t.Fatal("empty front")
	}
	best := math.Inf(1)
	for _, ind := range front {
		if s := ind.Objs[0] + ind.Objs[1]; s < best {
			best = s
		}
	}
	if best != 0 {
		t.Errorf("best objective sum = %v, want 0 (exact optimum)", best)
	}
}

func TestRunDeterministicPerSeed(t *testing.T) {
	run := func() *Result {
		res, err := Run(twoMin(12), Config{PopSize: 20, Generations: 10, Seed: 7, ArchiveAll: true})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if a.Evaluations != b.Evaluations || a.DistinctEvaluated != b.DistinctEvaluated {
		t.Fatal("same seed must reproduce the run")
	}
	for i := range a.Final {
		if string(a.Final[i].Genome) != string(b.Final[i].Genome) {
			t.Fatal("final populations differ between identical runs")
		}
	}
	if len(a.Archive) != len(b.Archive) {
		t.Fatal("archives differ between identical runs")
	}
}

func TestDifferentSeedsDiffer(t *testing.T) {
	a, _ := Run(twoMin(12), Config{PopSize: 20, Generations: 5, Seed: 1})
	b, _ := Run(twoMin(12), Config{PopSize: 20, Generations: 5, Seed: 2})
	same := true
	for i := range a.Final {
		if string(a.Final[i].Genome) != string(b.Final[i].Genome) {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds should explore differently")
	}
}

func TestConstraintDominance(t *testing.T) {
	feas := Individual{Objs: []float64{5, 5}}
	infeas := Individual{Objs: []float64{math.Inf(1), math.Inf(1)}, Violation: 1}
	if !dominates(feas, infeas) {
		t.Error("feasible must dominate infeasible")
	}
	if dominates(infeas, feas) {
		t.Error("infeasible must not dominate feasible")
	}
	other := Individual{Objs: []float64{math.Inf(1), math.Inf(1)}, Violation: 1}
	if dominates(infeas, other) || dominates(other, infeas) {
		t.Error("equally infeasible individuals tie")
	}
	// Deb's rule: the less-broken infeasible individual dominates.
	worse := Individual{Objs: []float64{math.Inf(1), math.Inf(1)}, Violation: 5}
	if !dominates(infeas, worse) {
		t.Error("smaller violation must dominate larger violation")
	}
	if dominates(worse, infeas) {
		t.Error("larger violation must not dominate smaller")
	}
}

func TestRunWithConstraints(t *testing.T) {
	// Feasible only when at least a third of the genes are set;
	// objective pulls toward all-zero. The GA must settle on the
	// constraint boundary, never returning an infeasible front.
	n := 15
	p := funcProblem{n: n, m: 2, eval: func(g []byte) ([]float64, float64) {
		ones := countOnes(g)
		if ones < n/3 {
			// Graded violation: how many genes short of feasibility.
			return []float64{math.Inf(1), math.Inf(1)}, float64(n/3 - ones)
		}
		return []float64{float64(ones), float64(n - ones)}, 0
	}}
	res, err := Run(p, Config{PopSize: 40, Generations: 40, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	front := FeasibleFront(res.Final)
	if len(front) == 0 {
		t.Fatal("no feasible solutions found")
	}
	for _, ind := range front {
		if countOnes(ind.Genome) < n/3 {
			t.Error("front contains an infeasible individual")
		}
	}
}

func TestFastNonDominatedSortKnownCase(t *testing.T) {
	pop := []Individual{
		{Objs: []float64{1, 4}}, // front 0
		{Objs: []float64{4, 1}}, // front 0
		{Objs: []float64{2, 5}}, // dominated by #0 only
		{Objs: []float64{5, 5}}, // dominated by all above
	}
	fronts := fastNonDominatedSort(pop)
	if len(fronts) != 3 {
		t.Fatalf("fronts = %v, want 3 levels", fronts)
	}
	if len(fronts[0]) != 2 || len(fronts[1]) != 1 || len(fronts[2]) != 1 {
		t.Errorf("front sizes = %v", fronts)
	}
}

func TestSortRanksRespectDominance(t *testing.T) {
	// Property: whenever a dominates b, rank(a) < rank(b).
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		pop := make([]Individual, 24)
		for i := range pop {
			pop[i] = Individual{
				Objs: []float64{float64(rng.Intn(6)), float64(rng.Intn(6))},
			}
			if rng.Intn(4) == 0 {
				pop[i].Violation = float64(1 + rng.Intn(3))
				pop[i].Objs = []float64{math.Inf(1), math.Inf(1)}
			}
		}
		sortPopulation(pop)
		for i := range pop {
			for j := range pop {
				if dominates(pop[i], pop[j]) && pop[i].Rank >= pop[j].Rank {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestCrowdingBoundariesInfinite(t *testing.T) {
	pop := []Individual{
		{Objs: []float64{1, 5}},
		{Objs: []float64{2, 4}},
		{Objs: []float64{3, 3}},
		{Objs: []float64{4, 2}},
	}
	front := []int{0, 1, 2, 3}
	assignCrowding(pop, front)
	if !math.IsInf(pop[0].Crowding, 1) || !math.IsInf(pop[3].Crowding, 1) {
		t.Error("boundary individuals must carry infinite crowding")
	}
	if math.IsInf(pop[1].Crowding, 1) || pop[1].Crowding <= 0 {
		t.Errorf("interior crowding = %v, want finite positive", pop[1].Crowding)
	}
}

func TestCrowdingDegenerateFronts(t *testing.T) {
	// Single- and two-individual fronts are all boundary.
	pop := []Individual{
		{Objs: []float64{1, 1}},
		{Objs: []float64{2, 2}},
	}
	assignCrowding(pop, []int{0, 1})
	if !math.IsInf(pop[0].Crowding, 1) || !math.IsInf(pop[1].Crowding, 1) {
		t.Error("two-individual front must be all-infinite")
	}
	// An all-infeasible front (all +Inf objectives) must not produce
	// NaN crowding.
	inf := []Individual{
		{Objs: []float64{math.Inf(1), math.Inf(1)}},
		{Objs: []float64{math.Inf(1), math.Inf(1)}},
		{Objs: []float64{math.Inf(1), math.Inf(1)}},
	}
	assignCrowding(inf, []int{0, 1, 2})
	for i, ind := range inf {
		if math.IsNaN(ind.Crowding) {
			t.Errorf("individual %d has NaN crowding", i)
		}
	}
}

func TestSurviveKeepsBestFrontWhole(t *testing.T) {
	pop := []Individual{
		{Objs: []float64{1, 4}},
		{Objs: []float64{4, 1}},
		{Objs: []float64{2, 5}},
		{Objs: []float64{5, 5}},
	}
	next := survive(pop, 2)
	if len(next) != 2 {
		t.Fatalf("survivors = %d, want 2", len(next))
	}
	for _, ind := range next {
		if ind.Rank != 0 {
			t.Errorf("survivor from rank %d, want only rank 0", ind.Rank)
		}
	}
}

func TestSurviveTruncatesByCrowding(t *testing.T) {
	// Five-point front truncated to 4: the most crowded interior
	// point must be the one dropped.
	pop := []Individual{
		{Objs: []float64{0, 10}},
		{Objs: []float64{10, 0}},
		{Objs: []float64{5, 5}},
		{Objs: []float64{5.1, 4.9}}, // crowded pair
		{Objs: []float64{2, 8}},
	}
	next := survive(pop, 4)
	if len(next) != 4 {
		t.Fatalf("survivors = %d, want 4", len(next))
	}
	// The dropped one must be 2 or 3 (the crowded pair).
	for _, ind := range next {
		if ind.Objs[0] == 0 || ind.Objs[0] == 10 || ind.Objs[0] == 2 {
			continue
		}
	}
	count55 := 0
	for _, ind := range next {
		if ind.Objs[0] > 4.5 && ind.Objs[0] < 5.5 {
			count55++
		}
	}
	if count55 != 1 {
		t.Errorf("crowded pair should lose exactly one member, kept %d", count55)
	}
}

func TestConfigValidation(t *testing.T) {
	if _, err := Run(funcProblem{n: 0, m: 1, eval: nil}, Config{}); err == nil {
		t.Error("zero-length genome must fail")
	}
	if _, err := Run(funcProblem{n: 4, m: 0, eval: nil}, Config{}); err == nil {
		t.Error("zero objectives must fail")
	}
	if _, err := Run(twoMin(4), Config{CrossoverProb: 2}); err == nil {
		t.Error("crossover probability > 1 must fail")
	}
	if _, err := Run(twoMin(4), Config{MutationProb: -0.5}); err == nil {
		t.Error("negative mutation probability must fail")
	}
}

func TestOddPopulationRoundedUp(t *testing.T) {
	res, err := Run(twoMin(8), Config{PopSize: 7, Generations: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Final) != 8 {
		t.Errorf("population = %d, want rounded to 8", len(res.Final))
	}
}

func TestArchiveRecordsDistinctGenomes(t *testing.T) {
	res, err := Run(twoMin(10), Config{PopSize: 20, Generations: 10, Seed: 5, ArchiveAll: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Archive) != res.DistinctEvaluated {
		t.Errorf("archive %d entries, distinct %d", len(res.Archive), res.DistinctEvaluated)
	}
	seen := map[string]bool{}
	for _, e := range res.Archive {
		k := string(e.Genome)
		if seen[k] {
			t.Fatal("duplicate genome in archive")
		}
		seen[k] = true
	}
	if res.DistinctValid != res.DistinctEvaluated {
		t.Errorf("unconstrained problem: all %d distinct should be valid, got %d",
			res.DistinctEvaluated, res.DistinctValid)
	}
	if res.Evaluations < res.DistinctEvaluated {
		t.Error("evaluation count cannot undercut distinct count")
	}
}

func TestStepPopulation(t *testing.T) {
	e, err := NewEngine(twoMin(8), Config{PopSize: 10, Generations: 7, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	for gen := 0; gen < 7; gen++ {
		e.Step()
		if n := len(e.Population()); n != 10 {
			t.Errorf("generation %d population size %d", gen, n)
		}
	}
	if e.Generation() != 7 {
		t.Errorf("engine at generation %d after 7 steps, want 7", e.Generation())
	}
}

func TestFeasibleFrontDedupes(t *testing.T) {
	pop := []Individual{
		{Genome: []byte{1, 0}, Objs: []float64{1, 1}, Rank: 0},
		{Genome: []byte{1, 0}, Objs: []float64{1, 1}, Rank: 0},
		{Genome: []byte{0, 1}, Objs: []float64{2, 0}, Rank: 0},
		{Genome: []byte{1, 1}, Objs: []float64{0, 3}, Rank: 1},
		{Genome: []byte{0, 0}, Objs: []float64{9, 9}, Violation: 2, Rank: 0},
	}
	front := FeasibleFront(pop)
	if len(front) != 2 {
		t.Fatalf("front = %d entries, want 2 (dedup + rank + feasibility)", len(front))
	}
}

func TestTwoPointCrossoverPreservesGenePool(t *testing.T) {
	e := &Engine{rng: rand.New(rand.NewSource(1)), cfg: Config{}.withDefaults()}
	a := []byte{1, 1, 1, 1, 1, 1, 1, 1}
	b := []byte{0, 0, 0, 0, 0, 0, 0, 0}
	e.twoPointCrossover(a, b)
	for i := range a {
		if a[i]+b[i] != 1 {
			t.Fatalf("position %d lost material: %v %v", i, a, b)
		}
	}
}

func TestSingleFlipMutationChangesOneGene(t *testing.T) {
	e := &Engine{rng: rand.New(rand.NewSource(2)), cfg: Config{MutationProb: 1}.withDefaults()}
	g := []byte{0, 0, 0, 0, 0, 0}
	e.mutate(g)
	if countOnes(g) != 1 {
		t.Errorf("single-flip mutation changed %d genes", countOnes(g))
	}
}

func TestSeedsInjectedIntoInitialPopulation(t *testing.T) {
	seed := []byte{0, 0, 0, 0, 1, 1, 1, 1} // the exact optimum of twoMin(8)
	res, err := Run(twoMin(8), Config{PopSize: 10, Generations: 1, Seed: 4,
		ArchiveAll: true, Seeds: [][]byte{seed}})
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, e := range res.Archive {
		if string(e.Genome) == string(seed) {
			found = true
			break
		}
	}
	if !found {
		t.Error("seed genome never evaluated")
	}
	// With the optimum seeded, the front holds it from the start.
	best := math.Inf(1)
	for _, ind := range FeasibleFront(res.Final) {
		if s := ind.Objs[0] + ind.Objs[1]; s < best {
			best = s
		}
	}
	if best != 0 {
		t.Errorf("seeded optimum lost: best sum %v", best)
	}
}

func TestSeedValidation(t *testing.T) {
	if _, err := Run(twoMin(8), Config{PopSize: 4, Generations: 1,
		Seeds: [][]byte{{1, 0}}}); err == nil {
		t.Error("wrong-length seed must fail")
	}
	seeds := make([][]byte, 10)
	for i := range seeds {
		seeds[i] = make([]byte, 8)
	}
	if _, err := Run(twoMin(8), Config{PopSize: 4, Generations: 1,
		Seeds: seeds}); err == nil {
		t.Error("more seeds than population must fail")
	}
}

func TestSeedsAreCopiedNotAliased(t *testing.T) {
	seed := []byte{1, 1, 1, 1, 0, 0, 0, 0}
	orig := append([]byte(nil), seed...)
	if _, err := Run(twoMin(8), Config{PopSize: 6, Generations: 3, Seed: 2,
		Seeds: [][]byte{seed}}); err != nil {
		t.Fatal(err)
	}
	for i := range seed {
		if seed[i] != orig[i] {
			t.Fatal("engine mutated the caller's seed slice")
		}
	}
}

func TestParallelEvaluationIdenticalToSerial(t *testing.T) {
	run := func(workers int) *Result {
		res, err := Run(twoMin(14), Config{PopSize: 24, Generations: 12, Seed: 6,
			ArchiveAll: true, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	serial := run(0)
	parallel := run(4)
	if serial.Evaluations != parallel.Evaluations ||
		serial.ValidEvaluations != parallel.ValidEvaluations ||
		serial.DistinctEvaluated != parallel.DistinctEvaluated {
		t.Fatalf("counters diverge: serial %+v parallel %+v",
			[3]int{serial.Evaluations, serial.ValidEvaluations, serial.DistinctEvaluated},
			[3]int{parallel.Evaluations, parallel.ValidEvaluations, parallel.DistinctEvaluated})
	}
	for i := range serial.Final {
		if string(serial.Final[i].Genome) != string(parallel.Final[i].Genome) {
			t.Fatal("final populations diverge between serial and parallel runs")
		}
	}
	if len(serial.Archive) != len(parallel.Archive) {
		t.Fatal("archive sizes diverge")
	}
	for i := range serial.Archive {
		if string(serial.Archive[i].Genome) != string(parallel.Archive[i].Genome) {
			t.Fatal("archive order diverges: parallel evaluation must preserve insertion order")
		}
	}
}

// viewProblem wraps twoMin, counting the views the engine builds and
// the evaluations each serves.
type viewProblem struct {
	funcProblem
	mu      sync.Mutex
	workers []*countingWorker
}

type countingWorker struct {
	funcProblem
	evals int
}

func (p *viewProblem) NewWorker() Worker {
	p.mu.Lock()
	defer p.mu.Unlock()
	w := &countingWorker{funcProblem: p.funcProblem}
	p.workers = append(p.workers, w)
	return w
}

func (w *countingWorker) EvaluateInto(dst []float64, g []byte) float64 {
	// No lock: the engine promises exclusive use; the race detector
	// polices the promise.
	w.evals++
	return w.funcProblem.EvaluateInto(dst, g)
}

// TestWorkerViewsAreUsed proves the engine builds one view per worker
// — one for a serial run — routes every evaluation through them, and
// reproduces the serial run exactly at any worker count.
func TestWorkerViewsAreUsed(t *testing.T) {
	cfg := Config{PopSize: 24, Generations: 12, Seed: 6, ArchiveAll: true}
	ps := &viewProblem{funcProblem: twoMin(14)}
	serial, err := Run(ps, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(ps.workers) != 1 || ps.workers[0].evals != serial.DistinctEvaluated {
		t.Fatalf("serial run: %d views, the first saw %d of %d distinct; want 1 view serving all",
			len(ps.workers), ps.workers[0].evals, serial.DistinctEvaluated)
	}
	p := &viewProblem{funcProblem: twoMin(14)}
	cfg.Workers = 4
	parallel, err := Run(p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.workers) != 4 {
		t.Fatalf("built %d worker views, want 4", len(p.workers))
	}
	// Every distinct genome is evaluated exactly once, through a
	// worker view.
	workerEvals := 0
	for _, w := range p.workers {
		workerEvals += w.evals
	}
	if workerEvals != parallel.DistinctEvaluated {
		t.Fatalf("workers saw %d evaluations, engine reports %d distinct", workerEvals, parallel.DistinctEvaluated)
	}
	if serial.Evaluations != parallel.Evaluations || serial.DistinctEvaluated != parallel.DistinctEvaluated {
		t.Fatal("per-worker run diverges from serial")
	}
	for i := range serial.Final {
		if string(serial.Final[i].Genome) != string(parallel.Final[i].Genome) {
			t.Fatal("final populations diverge")
		}
	}
	for i := range serial.Archive {
		if string(serial.Archive[i].Genome) != string(parallel.Archive[i].Genome) {
			t.Fatal("archive order diverges")
		}
	}
}
