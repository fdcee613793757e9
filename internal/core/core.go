// Package core is the paper's primary contribution as a library: the
// multi-objective wavelength-allocation (WA) explorer for ring-based
// WDM optical NoCs. It ties the substrates together — the photonic
// device models (internal/phys), the ring architecture and loss
// budget (internal/ring), the application time model (internal/sched)
// and the chromosome evaluation (internal/alloc) — and drives the
// NSGA-II engine (internal/nsga2) to produce the Pareto fronts of
// execution time, bit energy and BER that Section IV of the paper
// reports.
//
// Typical use:
//
//	p, err := core.New(core.Config{NW: 8})   // paper's defaults
//	res, err := p.Optimize()
//	for _, s := range res.FrontTimeEnergy { ... }
package core

import (
	"cmp"
	"fmt"
	"math"
	"slices"

	"repro/internal/alloc"
	"repro/internal/crossbar"
	"repro/internal/energy"
	"repro/internal/fabric"
	"repro/internal/graph"
	"repro/internal/nsga2"
	"repro/internal/pareto"
	"repro/internal/ring"
)

// DefaultBackend is the optical fabric a zero Config.Backend selects:
// the paper's serpentine ring.
const DefaultBackend = "ring"

// Backends lists the optical fabric backends a Config.Backend may
// name, in canonical order.
func Backends() []string { return []string{"ring", "crossbar"} }

// ObjectiveSet selects which of the paper's criteria the GA optimizes
// simultaneously.
type ObjectiveSet int

const (
	// TimeEnergyBER explores all three criteria at once; the paper's
	// two plots are projections of this run's archive.
	TimeEnergyBER ObjectiveSet = iota
	// TimeEnergy matches Fig. 6(a).
	TimeEnergy
	// TimeBER matches Fig. 6(b) and Fig. 7.
	TimeBER
)

// String names the set for reports.
func (s ObjectiveSet) String() string {
	switch s {
	case TimeEnergyBER:
		return "time+energy+BER"
	case TimeEnergy:
		return "time+energy"
	case TimeBER:
		return "time+BER"
	}
	return fmt.Sprintf("objectives(%d)", int(s))
}

// ParseObjectiveSet resolves the short objective-set names the CLI
// and the serving API use ("teb", "te", "tb") — the single place the
// wadate flags, the waserve endpoints and the session tokens agree on
// the spelling.
func ParseObjectiveSet(name string) (ObjectiveSet, error) {
	switch name {
	case "teb":
		return TimeEnergyBER, nil
	case "te":
		return TimeEnergy, nil
	case "tb":
		return TimeBER, nil
	}
	return 0, fmt.Errorf("core: unknown objective set %q (want teb, te or tb)", name)
}

func (s ObjectiveSet) objectives() ([]alloc.Objective, error) {
	switch s {
	case TimeEnergyBER:
		return []alloc.Objective{alloc.ObjTime, alloc.ObjEnergy, alloc.ObjBER}, nil
	case TimeEnergy:
		return []alloc.Objective{alloc.ObjTime, alloc.ObjEnergy}, nil
	case TimeBER:
		return []alloc.Objective{alloc.ObjTime, alloc.ObjBER}, nil
	}
	return nil, fmt.Errorf("core: unknown objective set %d", int(s))
}

// Config assembles a WA problem. Zero fields default to the paper's
// evaluation setup: the 6-task virtual application mapped on the 4x4
// serpentine ring with Table I parameters, B = 1 bit/cycle, NSGA-II
// with population 400 over 300 generations.
type Config struct {
	// NW is the number of wavelengths of the comb (required).
	NW int
	// Backend names the optical fabric the allocation runs on: "ring"
	// (the paper's serpentine ring, the default for "") or "crossbar"
	// (the multi-layer MWSR crossbar of internal/crossbar). Both use
	// the default 16-core platform; Ring customizes the ring backend
	// only and is rejected with Backend "crossbar".
	Backend string
	// Ring optionally overrides the platform; its Grid.Channels must
	// equal NW when set. Only meaningful for the ring backend.
	Ring *ring.Config
	// App and Mapping optionally override the workload. The mapping
	// may place several tasks on one core (shared-core regime): the
	// evaluation stack then core-serializes same-core tasks, and
	// campaigns can sweep workloads larger than the 16-core platform.
	App     *graph.TaskGraph
	Mapping graph.Mapping
	// Objectives selects the optimization criteria.
	Objectives ObjectiveSet
	// Instance optionally supplies a prebuilt evaluation instance
	// (see NewSharedInstance). Instances are read-only during
	// evaluation, so any number of problems — e.g. a campaign's
	// replicate cells over the same (workload, NW) pair — may share
	// one and reuse its precomputed routes, path-overlap matrix and
	// conflict-neighbor lists instead of rebuilding them per run.
	// Mutually exclusive with Backend, Ring, App and Mapping; its comb
	// size must equal NW.
	Instance *alloc.Instance
	// WarmStart seeds the GA's initial population with the
	// related-work heuristic allocations (First-Fit / Most-Used /
	// Least-Used at small uniform budgets): the all-ones energy
	// optimum is then present from generation zero instead of having
	// to be discovered.
	WarmStart bool
	// GA tunes the engine; GA.ArchiveAll is forced on because the
	// result assembly needs the archive.
	GA nsga2.Config
}

// Problem is a configured wavelength-allocation exploration. It
// implements nsga2.Problem: every engine, serial or parallel, gets one
// view per evaluation goroutine, each with its own zero-allocation
// alloc.Evaluator, so parallel runs scale without a shared lock while
// staying bit-for-bit identical to serial ones. Each view's evaluator
// keeps its own per-communication optics memo warm across the run.
// The engine keeps every genome's metric triple, the aux values, on
// its cache entry next to the objectives. A Problem is immutable
// after New.
type Problem struct {
	cfg  Config
	in   *alloc.Instance
	objs []alloc.Objective
}

// metricsAuxLen is the aux dimension: the metric triple [TimeKCC,
// BitEnergyFJ, MeanBER], NaN for an invalid genome.
const metricsAuxLen = 3

// Metrics is the full figure-of-merit triple of a valid genome.
type Metrics struct {
	TimeKCC     float64
	BitEnergyFJ float64
	MeanBER     float64
}

// Log10BER is the display form of MeanBER.
func (m Metrics) Log10BER() float64 {
	if m.MeanBER <= 0 {
		return -300
	}
	return math.Log10(m.MeanBER)
}

// NewSharedInstance builds the evaluation instance a Config
// describes, without the GA around it. The result is safe to share
// read-only across any number of problems via Config.Instance: a
// campaign hands every replicate cell of one (workload, NW) pair the
// same instance, so the precomputed routes, overlap matrix and
// conflict-neighbor lists are built once per pair instead of once per
// cell.
func NewSharedInstance(cfg Config) (*alloc.Instance, error) {
	if cfg.NW <= 0 {
		return nil, fmt.Errorf("core: NW must be positive, got %d", cfg.NW)
	}
	f, err := newFabric(cfg)
	if err != nil {
		return nil, err
	}
	app := cfg.App
	if app == nil {
		app = graph.PaperApp()
	}
	m := cfg.Mapping
	if m == nil {
		if cfg.App != nil {
			return nil, fmt.Errorf("core: custom application needs an explicit mapping")
		}
		m = graph.PaperMapping()
	}
	return alloc.NewInstance(f, app, m, 1, energy.Default())
}

// newFabric builds the optical backend Config.Backend selects.
func newFabric(cfg Config) (fabric.Fabric, error) {
	switch cfg.Backend {
	case "", "ring":
		rcfg := ring.DefaultConfig(cfg.NW)
		if cfg.Ring != nil {
			rcfg = *cfg.Ring
			if rcfg.Grid.Channels != cfg.NW {
				return nil, fmt.Errorf("core: ring grid has %d channels, config says NW=%d",
					rcfg.Grid.Channels, cfg.NW)
			}
		}
		return ring.New(rcfg)
	case "crossbar":
		if cfg.Ring != nil {
			return nil, fmt.Errorf("core: Ring override is meaningless with the crossbar backend")
		}
		return crossbar.New(crossbar.DefaultConfig(cfg.NW))
	default:
		return nil, fmt.Errorf("core: unknown backend %q (known: %v)", cfg.Backend, Backends())
	}
}

// New validates the configuration and builds the problem.
func New(cfg Config) (*Problem, error) {
	if cfg.NW <= 0 {
		return nil, fmt.Errorf("core: NW must be positive, got %d", cfg.NW)
	}
	in := cfg.Instance
	if in != nil {
		if cfg.Backend != "" || cfg.Ring != nil || cfg.App != nil || cfg.Mapping != nil {
			return nil, fmt.Errorf("core: Instance is mutually exclusive with Backend, Ring, App and Mapping")
		}
		if in.Channels() != cfg.NW {
			return nil, fmt.Errorf("core: shared instance has %d channels, config says NW=%d",
				in.Channels(), cfg.NW)
		}
	} else {
		var err error
		in, err = NewSharedInstance(cfg)
		if err != nil {
			return nil, err
		}
	}
	objs, err := cfg.Objectives.objectives()
	if err != nil {
		return nil, err
	}
	return &Problem{cfg: cfg, in: in, objs: objs}, nil
}

// GenomeLen implements nsga2.Problem.
func (p *Problem) GenomeLen() int { return p.in.Edges() * p.in.Channels() }

// NumObjectives implements nsga2.Problem.
func (p *Problem) NumObjectives() int { return len(p.objs) }

// AuxLen implements nsga2.Problem.
func (p *Problem) AuxLen() int { return metricsAuxLen }

// writeEval writes ev's projection onto the configured objectives,
// then its metric triple (NaN x3 when invalid), into dst and returns
// the violation: 0 for valid chromosomes, the graded constraint
// violation otherwise.
func (p *Problem) writeEval(dst []float64, ev *alloc.Eval) float64 {
	n := len(p.objs)
	ev.ObjectivesInto(dst[:n], p.objs)
	m := metricsOf(ev)
	if !ev.Valid {
		nan := math.NaN()
		m = Metrics{TimeKCC: nan, BitEnergyFJ: nan, MeanBER: nan}
	}
	dst[n], dst[n+1], dst[n+2] = m.TimeKCC, m.BitEnergyFJ, m.MeanBER
	return ev.Violation
}

// metricsOf extracts the metric triple of a valid evaluation.
func metricsOf(ev *alloc.Eval) Metrics {
	return Metrics{TimeKCC: ev.TimeKCC(), BitEnergyFJ: ev.BitEnergyFJ, MeanBER: ev.MeanBER}
}

// workerProblem is one engine goroutine's private evaluation view: a
// zero-allocation evaluator over the parent's instance.
type workerProblem struct {
	parent *Problem
	eval   *alloc.Evaluator
}

// NewWorker implements nsga2.Problem. The worker shares the parent's
// immutable instance and objective set; only the evaluator, with its
// optics memo, is private.
func (p *Problem) NewWorker() nsga2.Worker {
	ev, err := alloc.NewEvaluator(p.in)
	if err != nil {
		// NewEvaluator checks only what NewInstance already validated.
		panic(fmt.Sprintf("core: %v", err))
	}
	return &workerProblem{parent: p, eval: ev}
}

// EvaluateInto implements nsga2.Worker on the worker's private
// evaluator, with the parent's write-out. No locks and no
// steady-state allocations.
func (w *workerProblem) EvaluateInto(dst []float64, genome []byte) float64 {
	p := w.parent
	g, err := alloc.FromBits(genome, p.in.Edges(), p.in.Channels())
	if err != nil {
		return p.writeEval(dst, &alloc.Eval{Violation: math.Inf(1)})
	}
	var ev alloc.Eval
	w.eval.EvaluateInto(&ev, g)
	return p.writeEval(dst, &ev)
}

// Solution is one valid wavelength allocation with its metrics.
type Solution struct {
	Genome alloc.Genome
	Counts []int
	Metrics
}

// AllocationVector renders the per-communication wavelength counts in
// the paper's "[2 8 6 6 4 7]" style.
func (s Solution) AllocationVector() string {
	return fmt.Sprint(s.Counts)
}

// Result is the outcome of one exploration run.
type Result struct {
	// NW echoes the comb size of the run.
	NW int
	// Front is the final population's feasible first front, deduped
	// and sorted by execution time.
	Front []Solution
	// Valid lists every distinct valid genome evaluated during the
	// run (the paper's Table II "number of valid solutions").
	Valid []Solution
	// FrontTimeEnergy and FrontTimeBER are the global Pareto fronts
	// over Valid, projected on (time, bit energy) and (time, mean
	// BER): the point sets of Figs. 6(a) and 6(b).
	FrontTimeEnergy []Solution
	FrontTimeBER    []Solution
	// Evaluations, ValidEvaluations, DistinctEvaluated and
	// DistinctValid count the engine's work; ValidEvaluations
	// (duplicates included) is what the paper's Table II reports as
	// the "number of valid solutions" generated by the GA.
	Evaluations       int
	ValidEvaluations  int
	DistinctEvaluated int
	DistinctValid     int
}

// HeuristicSeeds builds the warm-start genomes: every related-work
// policy at uniform budgets of 1..3 wavelengths, keeping whatever is
// feasible on this instance.
func (p *Problem) HeuristicSeeds() [][]byte {
	var seeds [][]byte
	for n := 1; n <= 3 && n <= p.in.Channels(); n++ {
		counts := alloc.UniformCounts(p.in.Edges(), n)
		for _, pol := range []alloc.Policy{alloc.FirstFit, alloc.MostUsed, alloc.LeastUsed} {
			g, err := alloc.Assign(p.in, counts, pol, nil)
			if err != nil {
				continue
			}
			seeds = append(seeds, append([]byte(nil), g.Bits()...))
		}
	}
	return seeds
}

// Optimize runs NSGA-II and assembles the result. It is a loop over
// an Explorer: runs that need to checkpoint between generations use
// NewExplorer/Step/Finish directly and get bit-identical results.
func (p *Problem) Optimize() (*Result, error) {
	x, err := p.NewExplorer()
	if err != nil {
		return nil, err
	}
	for !x.Done() {
		x.Step()
	}
	return x.Finish()
}

// assembleResult builds the Result from a finished run: the feasible
// final front, the valid archive and its 2D Pareto projections, each
// solution's metrics read from its archive entry's aux triple.
func (p *Problem) assembleResult(runRes *nsga2.Result) (*Result, error) {
	res := &Result{
		NW:                p.in.Channels(),
		Evaluations:       runRes.Evaluations,
		ValidEvaluations:  runRes.ValidEvaluations,
		DistinctEvaluated: runRes.DistinctEvaluated,
		DistinctValid:     runRes.DistinctValid,
	}
	// The final front is resolved in the same archive pass: slot i
	// receives the solution of front genome i.
	front := nsga2.FeasibleFront(runRes.Final)
	slot := make(map[string]int, len(front))
	for i, ind := range front {
		slot[string(ind.Genome)] = i
	}
	frontSols := make([]Solution, len(front))
	resolved := make([]bool, len(front))
	// The solutions' genome copies and count vectors are carved from
	// two flat arrays sized for the feasible entries.
	feasible := 0
	for _, e := range runRes.Archive {
		if e.Feasible() {
			feasible++
		}
	}
	gl, nl := p.GenomeLen(), p.in.Edges()
	bits := make([]byte, feasible*gl)
	counts := make([]int, feasible*nl)
	res.Valid = make([]Solution, 0, feasible)
	for _, e := range runRes.Archive {
		if !e.Feasible() {
			continue
		}
		k := len(res.Valid)
		s, ok := p.solutionFor(e.Genome, e.Aux,
			bits[k*gl:(k+1)*gl:(k+1)*gl], counts[k*nl:(k+1)*nl:(k+1)*nl])
		if !ok {
			continue
		}
		res.Valid = append(res.Valid, s)
		if i, inFront := slot[string(e.Genome)]; inFront {
			frontSols[i], resolved[i] = s, true
		}
	}
	for i, s := range frontSols {
		if resolved[i] {
			res.Front = append(res.Front, s)
		}
	}
	sortByTime(res.Front)
	res.FrontTimeEnergy = projectFront(res.Valid, func(s Solution) [2]float64 {
		return [2]float64{s.TimeKCC, s.BitEnergyFJ}
	})
	res.FrontTimeBER = projectFront(res.Valid, func(s Solution) [2]float64 {
		return [2]float64{s.TimeKCC, s.MeanBER}
	})
	return res, nil
}

// solutionFor resolves a feasible archive entry to a Solution whose
// genome is a copy in bits and whose counts fill counts. The metric
// triple comes from the entry's aux values; an entry without a
// complete triple (only a hand-built checkpoint or session token holds
// one) is evaluated once instead.
func (p *Problem) solutionFor(genome []byte, aux []float64, bits []byte, counts []int) (Solution, bool) {
	if len(genome) != len(bits) {
		return Solution{}, false
	}
	copy(bits, genome)
	g, err := alloc.FromBits(bits, p.in.Edges(), p.in.Channels())
	if err != nil {
		return Solution{}, false
	}
	var m Metrics
	if len(aux) == metricsAuxLen && !anyNaN(aux) {
		m = Metrics{TimeKCC: aux[0], BitEnergyFJ: aux[1], MeanBER: aux[2]}
	} else {
		ev := p.in.Evaluate(g)
		if !ev.Valid {
			return Solution{}, false
		}
		m = metricsOf(&ev)
	}
	return Solution{Genome: g, Counts: g.CountsInto(counts), Metrics: m}, true
}

func anyNaN(xs []float64) bool {
	for _, x := range xs {
		if math.IsNaN(x) {
			return true
		}
	}
	return false
}

// projectFront reduces the valid set to its 2D Pareto front under the
// projection, sorted by the first coordinate.
func projectFront(valid []Solution, proj func(Solution) [2]float64) []Solution {
	if len(valid) == 0 {
		return nil
	}
	flat := make([]float64, 2*len(valid))
	points := make([][]float64, len(valid))
	for i, s := range valid {
		xy := proj(s)
		flat[2*i], flat[2*i+1] = xy[0], xy[1]
		points[i] = flat[2*i : 2*i+2 : 2*i+2]
	}
	idx := pareto.FrontIndices2D(points)
	front := make([]Solution, 0, len(idx))
	for _, i := range idx {
		front = append(front, valid[i])
	}
	sortByTime(front)
	return front
}

func sortByTime(ss []Solution) {
	slices.SortStableFunc(ss, func(a, b Solution) int {
		if c := cmp.Compare(a.TimeKCC, b.TimeKCC); c != 0 {
			return c
		}
		if c := cmp.Compare(a.BitEnergyFJ, b.BitEnergyFJ); c != 0 {
			return c
		}
		return cmp.Compare(a.MeanBER, b.MeanBER)
	})
}

// BestTimeKCC returns the fastest valid solution's makespan, the
// per-NW anchor the paper quotes (28.3, 23.8, 22.96 k-cc).
func (r *Result) BestTimeKCC() float64 {
	best := math.Inf(1)
	for _, s := range r.Valid {
		if s.TimeKCC < best {
			best = s.TimeKCC
		}
	}
	return best
}

// MinEnergySolution returns the lowest-bit-energy valid solution (the
// paper's all-ones allocation).
func (r *Result) MinEnergySolution() (Solution, bool) {
	if len(r.Valid) == 0 {
		return Solution{}, false
	}
	best := r.Valid[0]
	for _, s := range r.Valid[1:] {
		if s.BitEnergyFJ < best.BitEnergyFJ {
			best = s
		}
	}
	return best, true
}
