package expt

import (
	"bytes"
	"encoding/csv"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"math/rand"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/alloc"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/nsga2"
	"repro/internal/sim"
)

// This file implements the campaign layer: large multi-cell
// experiment sweeps over (backend x comb size x objective set x
// workload x replicate seed), fanned out across a bounded pool of
// cell workers.
// Cells are completely independent GA runs, so the fan-out scales
// near-linearly with worker count; per-cell seeds derive from the
// cell's identity (not from execution order), so a parallel campaign
// is bit-for-bit identical to a serial one and the JSON/CSV artifacts
// are byte-stable.

// Workload names an application/mapping pair a campaign cell runs
// on. The zero App/Mapping means the paper's virtual application with
// its design-time mapping.
type Workload struct {
	Name    string
	App     *graph.TaskGraph
	Mapping graph.Mapping
}

// PaperWorkload is the paper's 6-task virtual application.
func PaperWorkload() Workload { return Workload{Name: "paper"} }

// NamedWorkload resolves a workload spec into a deterministic
// workload mapped onto the 16-core platform: "paper", "chain<N>",
// "forkjoin<W>", "fft<N>", "gauss<N>" or "diamond<N>". Generated
// graphs draw volumes and execution times from the default generator
// configuration with a PRNG seeded by the spec string, so the same
// name always denotes the same workload.
//
// Workloads with at most 16 tasks keep the paper's injective random
// mapping; larger ones (chain64, fft64, gauss8, ...) get a
// load-balanced shared-core mapping, which the core-serialized time
// model and the simulator handle end to end.
func NamedWorkload(spec string) (Workload, error) {
	if spec == "paper" {
		return PaperWorkload(), nil
	}
	kind := strings.TrimRight(spec, "0123456789")
	if kind == spec || kind == "" {
		return Workload{}, fmt.Errorf("expt: unknown workload %q (want paper, chain<N>, forkjoin<W>, fft<N>, gauss<N> or diamond<N>)", spec)
	}
	n, err := strconv.Atoi(spec[len(kind):])
	if err != nil || n < 1 {
		return Workload{}, fmt.Errorf("expt: workload %q: size must be >= 1 (shared-core mappings support more than %d tasks)", spec, PlatformCores)
	}
	h := fnv.New64a()
	io.WriteString(h, spec)
	rng := rand.New(rand.NewSource(int64(h.Sum64() & math.MaxInt64)))
	cfg := graph.DefaultGenConfig()
	var g *graph.TaskGraph
	switch kind {
	case "chain":
		g, err = graph.Chain(rng, n, cfg)
	case "forkjoin":
		g, err = graph.ForkJoin(rng, n, cfg)
	case "fft":
		g, err = graph.FFT(rng, n, cfg)
	case "gauss":
		g, err = graph.GaussianElimination(rng, n, cfg)
	case "diamond":
		g, err = graph.Diamond(rng, n, cfg)
	default:
		return Workload{}, fmt.Errorf("expt: unknown workload kind %q in %q", kind, spec)
	}
	if err != nil {
		return Workload{}, fmt.Errorf("expt: workload %q: %w", spec, err)
	}
	// Small graphs keep the historical injective mapping (existing
	// specs stay bit-identical); larger graphs share cores.
	var m graph.Mapping
	if g.NumTasks() <= PlatformCores {
		m, err = graph.RandomMapping(rng, g, PlatformCores)
	} else {
		m, err = graph.SharedRandomMapping(rng, g, PlatformCores)
	}
	if err != nil {
		return Workload{}, fmt.Errorf("expt: workload %q: %w", spec, err)
	}
	return Workload{Name: spec, App: g, Mapping: m}, nil
}

// PlatformCores is the ONI count of the paper's 4x4 platform, the
// target of generated workload mappings.
const PlatformCores = 16

// CampaignConfig spans one experiment campaign. Zero fields default
// to the paper's evaluation setup with one replicate of the paper
// workload per comb size.
type CampaignConfig struct {
	// Backends lists the optical fabric backends to sweep (default
	// just "ring", the paper's platform). Adding "crossbar" makes the
	// campaign compare ring and multi-layer crossbar Pareto fronts on
	// otherwise identical cells. Ring-only campaigns keep their
	// historical artifacts and seeds byte-for-byte.
	Backends []string
	// NWs lists the comb sizes to sweep (default 4, 8, 12).
	NWs []int
	// ObjectiveSets lists the GA criteria combinations (default the
	// 3-objective paper run).
	ObjectiveSets []core.ObjectiveSet
	// Workloads lists the applications (default the paper's).
	Workloads []Workload
	// Replicates is the number of independent GA seeds per
	// (NW, objectives, workload) combination (default 1).
	Replicates int
	// Pop and Generations configure the GA of every cell.
	Pop, Generations int
	// Seed is the campaign master seed; each cell derives its own
	// seed from (Seed, cell identity) so results do not depend on
	// execution order.
	Seed int64
	// WarmStart seeds every cell's GA with the heuristic allocations.
	WarmStart bool
	// CellWorkers bounds the number of cells in flight (default 1 =
	// serial). Cells are independent, so throughput scales
	// near-linearly until the machine is saturated.
	CellWorkers int
	// EvalWorkers parallelizes chromosome evaluation inside each cell
	// (nsga2.Config.Workers). Prefer CellWorkers for big campaigns:
	// whole-cell parallelism has no sequential remainder.
	EvalWorkers int
	// Progress, when non-nil, observes cell starts and completions.
	// Events are delivered serially.
	Progress func(CellEvent)

	// CheckpointDir, when set, makes the campaign durable: a manifest
	// plus per-cell completion records and in-flight engine snapshots
	// are maintained in the directory (atomic tmp+rename writes), so a
	// killed campaign resumes where it stopped — mid-cell, not just at
	// cell granularity. See checkpoint.go for the on-disk layout.
	CheckpointDir string
	// CheckpointEvery is the in-flight snapshot cadence in
	// generations (default DefaultCheckpointEvery when checkpointing).
	CheckpointEvery int
	// Resume continues the campaign recorded in CheckpointDir:
	// completed cells are restored from their records, in-flight cells
	// resume their GA mid-run, untouched cells run from scratch. The
	// resumed campaign's JSON/CSV artifacts are byte-identical to an
	// uninterrupted run's. The directory's manifest must match this
	// configuration exactly; a mismatch is an error.
	Resume bool
	// StopAfterCheckpoints > 0 stops the campaign ungracefully after
	// that many checkpoint writes (RunCampaign returns
	// ErrCampaignStopped): the deterministic preemption simulator
	// behind the CI resume-equivalence job. Requires CheckpointDir.
	StopAfterCheckpoints int
	// Stats records each cell's engine instrumentation (evaluations,
	// cache hits, kernel runs, dominance comparisons) in the JSON
	// artifact and completion records. Opt-in because it adds fields
	// to the artifact. Part of the campaign identity when
	// checkpointing (restored cells must carry the same fields).
	Stats bool
	// Islands > 1 runs every cell's GA as an island model: the
	// population splits into that many independent engines that
	// exchange their best genomes on a ring every MigrationEvery
	// generations (see core.IslandSpec). Results differ from the
	// single-engine run but are reproducible for a given (seed,
	// islands, interval, top-k) — the fields join the campaign
	// identity when checkpointing. Island cells carry no mid-cell
	// snapshots: a resume re-runs an interrupted island cell from
	// scratch (completed cells still restore from their records).
	Islands int
	// MigrationEvery is the island migration period in generations
	// (default core.DefaultMigrationInterval). Requires Islands > 1.
	MigrationEvery int
	// MigrationK is the number of emigrant genomes per island per
	// migration (default core.DefaultMigrationTopK). Requires
	// Islands > 1.
	MigrationK int
}

func (c CampaignConfig) withDefaults() CampaignConfig {
	if len(c.Backends) == 0 {
		c.Backends = []string{core.DefaultBackend}
	}
	if len(c.NWs) == 0 {
		c.NWs = []int{4, 8, 12}
	}
	if len(c.ObjectiveSets) == 0 {
		c.ObjectiveSets = []core.ObjectiveSet{core.TimeEnergyBER}
	}
	if len(c.Workloads) == 0 {
		c.Workloads = []Workload{PaperWorkload()}
	}
	if c.Replicates <= 0 {
		c.Replicates = 1
	}
	if c.Pop == 0 {
		c.Pop = PaperGAPopulation
	}
	if c.Generations == 0 {
		c.Generations = PaperGAGenerations
	}
	if c.Seed == 0 {
		c.Seed = 42
	}
	if c.CellWorkers <= 0 {
		c.CellWorkers = 1
	}
	if c.CheckpointDir != "" && c.CheckpointEvery <= 0 {
		c.CheckpointEvery = DefaultCheckpointEvery
	}
	if c.Islands > 1 {
		if c.MigrationEvery <= 0 {
			c.MigrationEvery = core.DefaultMigrationInterval
		}
		if c.MigrationK <= 0 {
			c.MigrationK = core.DefaultMigrationTopK
		}
	}
	return c
}

// islandSpec renders the campaign's island parameters for the core
// driver; the zero value (no island mode) maps to a 1-island spec.
func (c CampaignConfig) islandSpec() core.IslandSpec {
	n := c.Islands
	if n < 1 {
		n = 1
	}
	return core.IslandSpec{Islands: n, Interval: c.MigrationEvery, TopK: c.MigrationK}
}

// Cell identifies one campaign experiment.
type Cell struct {
	// Index is the cell's position in the campaign's deterministic
	// enumeration order.
	Index int
	// Backend names the optical fabric the cell runs on ("ring",
	// "crossbar").
	Backend string
	// NW is the comb size.
	NW int
	// Objectives selects the GA criteria.
	Objectives core.ObjectiveSet
	// Workload names the application (resolved through the campaign's
	// workload list).
	Workload string
	// Replicate numbers the independent repetition (0-based).
	Replicate int
	// Seed is the cell's derived GA seed.
	Seed int64
}

// String renders the cell for progress lines. The default ring
// backend keeps the historical wording; other backends are named
// explicitly.
func (c Cell) String() string {
	if c.Backend != "" && c.Backend != core.DefaultBackend {
		return fmt.Sprintf("backend=%s NW=%d obj=%s workload=%s rep=%d", c.Backend, c.NW, c.Objectives, c.Workload, c.Replicate)
	}
	return fmt.Sprintf("NW=%d obj=%s workload=%s rep=%d", c.NW, c.Objectives, c.Workload, c.Replicate)
}

// cellSeed derives a cell's GA seed from the campaign seed and the
// cell's identity alone. FNV-1a keeps nearby cells decorrelated; the
// sign bit is cleared so seeds read naturally in reports. Ring cells
// keep the historical backend-free derivation, so every pre-existing
// ring campaign reproduces bit-for-bit; other backends extend the
// identity tuple.
func cellSeed(base int64, backend string, nw int, objs core.ObjectiveSet, workload string, replicate int) int64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d|%d|%d|%s|%d", base, nw, int(objs), workload, replicate)
	if backend != core.DefaultBackend {
		fmt.Fprintf(h, "|%s", backend)
	}
	return int64(h.Sum64() & math.MaxInt64)
}

// Cells enumerates the campaign's cells in deterministic order:
// backend-major, then workload, then objective set, then NW, then
// replicate. Backend outermost keeps a ring-only campaign's cell
// indices identical to the historical (backend-free) enumeration.
func (c CampaignConfig) Cells() []Cell {
	c = c.withDefaults()
	var cells []Cell
	for _, backend := range c.Backends {
		for _, wl := range c.Workloads {
			for _, objs := range c.ObjectiveSets {
				for _, nw := range c.NWs {
					for rep := 0; rep < c.Replicates; rep++ {
						cells = append(cells, Cell{
							Index:      len(cells),
							Backend:    backend,
							NW:         nw,
							Objectives: objs,
							Workload:   wl.Name,
							Replicate:  rep,
							Seed:       cellSeed(c.Seed, backend, nw, objs, wl.Name, rep),
						})
					}
				}
			}
		}
	}
	return cells
}

// CellEvent is one structured progress notification.
type CellEvent struct {
	Cell Cell
	// Done is false for the start notification, true on completion.
	Done bool
	// Err is the cell's failure, if any (only with Done).
	Err error
	// Elapsed is the cell's wall time (only with Done).
	Elapsed time.Duration
	// Completed and Total count finished cells and the campaign size.
	Completed, Total int
	// Restored marks a cell replayed from a checkpoint directory's
	// completion record instead of being re-explored.
	Restored bool
}

// CellResult pairs a cell with its exploration outcome. Elapsed is
// informational and excluded from the serialized artifacts, which
// must be byte-identical across serial and parallel runs.
type CellResult struct {
	Cell    Cell
	Result  *core.Result
	Err     error
	Elapsed time.Duration
	// SimChecked counts the distinct projected-front genomes that were
	// cross-run on the cycle-resolution simulator; SimViolations sums
	// their occupancy double-bookings ((segment, channel) and core).
	// Any nonzero SimViolations means the analytic validity rule and
	// the simulator disagree — a model bug, not a workload property.
	SimChecked    int
	SimViolations int
	// SimBracketMisses counts genomes whose integer makespan fell
	// outside the expected analytic bracket. The bracket allows one
	// ceiling per task and communication plus one task execution (an
	// integer-rounding tie on a shared core may dispatch same-core
	// tasks in a different order than the fractional model), so a miss
	// flags a scheduling disagreement worth investigating rather than
	// a hard invariant breach.
	SimBracketMisses int
	// restored holds a completed cell's artifact view loaded from a
	// checkpoint directory; the artifact writers consume it in place
	// of a live Result.
	restored *cellArtifact
	// stats holds the cell's instrumentation record when the campaign
	// ran with CampaignConfig.Stats.
	stats *CellStats
}

// CellStats is one cell's engine instrumentation record (see
// CampaignConfig.Stats): how each evaluation was served and how much
// dominance work ranking did. Records written before the delta kernel
// was deleted also carry gene_delta_evals and near_delta_evals keys;
// decoding ignores them.
type CellStats struct {
	// Evaluations counts genome evaluations the engine requested;
	// CacheHits the subset served by the dedup cache.
	Evaluations int64 `json:"evaluations"`
	CacheHits   int64 `json:"cache_hits"`
	// FullEvals counts kernel runs: Evaluations - CacheHits.
	FullEvals int64 `json:"full_evals"`
	// RelationsCompared counts Deb-dominance pair comparisons across
	// the run's ranking passes.
	RelationsCompared int64 `json:"relations_compared"`
}

// cellStatsOf flattens the engine's counter view into the artifact
// record.
func cellStatsOf(s nsga2.Stats) *CellStats {
	return &CellStats{
		Evaluations:       s.Evaluations,
		CacheHits:         s.CacheHits,
		FullEvals:         s.Eval.Full,
		RelationsCompared: s.RelationsCompared,
	}
}

// Stats returns the cell's instrumentation record, nil unless the
// campaign ran with CampaignConfig.Stats.
func (cr *CellResult) Stats() *CellStats {
	if cr.restored != nil {
		return cr.restored.Stats
	}
	return cr.stats
}

// Restored reports whether the cell was replayed from a checkpoint
// completion record rather than explored in this run.
func (cr *CellResult) Restored() bool { return cr.restored != nil }

// artifact renders the cell's serializable outcome view — the single
// source the JSON artifact, the CSV table, the summary table and the
// checkpoint completion record all derive from, so a restored cell is
// indistinguishable from a freshly explored one in every artifact.
func (cr *CellResult) artifact() cellArtifact {
	if cr.restored != nil {
		return *cr.restored
	}
	a := cellArtifact{
		SimChecked:       cr.SimChecked,
		SimViolations:    cr.SimViolations,
		SimBracketMisses: cr.SimBracketMisses,
	}
	a.Stats = cr.stats
	if cr.Err != nil {
		a.Error = cr.Err.Error()
	}
	if res := cr.Result; res != nil {
		a.HasResult = true
		a.Evaluations = res.Evaluations
		a.ValidEvaluations = res.ValidEvaluations
		a.DistinctEvaluated = res.DistinctEvaluated
		a.DistinctValid = res.DistinctValid
		if best := res.BestTimeKCC(); !math.IsInf(best, 1) {
			a.BestTimeKCC = &best
		}
		if sol, ok := res.MinEnergySolution(); ok {
			v := sol.BitEnergyFJ
			a.MinEnergyFJ = &v
		}
		a.FrontTimeEnergy = solutionRecs(res.FrontTimeEnergy)
		a.FrontTimeBER = solutionRecs(res.FrontTimeBER)
	}
	return a
}

// cellArtifact is the artifact-facing view of one cell's outcome:
// plain values whose floats round-trip exactly through JSON (Go
// encodes float64 at shortest-round-trip precision), which is what
// makes restored-cell artifacts byte-identical to live ones.
type cellArtifact struct {
	Error             string        `json:"error,omitempty"`
	HasResult         bool          `json:"has_result"`
	Evaluations       int           `json:"evaluations"`
	ValidEvaluations  int           `json:"valid_evaluations"`
	DistinctEvaluated int           `json:"distinct_evaluated"`
	DistinctValid     int           `json:"distinct_valid"`
	SimChecked        int           `json:"sim_checked"`
	SimViolations     int           `json:"sim_violations"`
	SimBracketMisses  int           `json:"sim_bracket_misses"`
	BestTimeKCC       *float64      `json:"best_time_kcc,omitempty"`
	MinEnergyFJ       *float64      `json:"min_energy_fj,omitempty"`
	FrontTimeEnergy   []solutionRec `json:"front_time_energy,omitempty"`
	FrontTimeBER      []solutionRec `json:"front_time_ber,omitempty"`
	Stats             *CellStats    `json:"stats,omitempty"`
}

// solutionRec is one front solution in artifact form. Unlike the JSON
// artifact's point records it carries the genome, which the CSV table
// needs and which makes completion records self-contained.
type solutionRec struct {
	TimeKCC     float64 `json:"time_kcc"`
	BitEnergyFJ float64 `json:"bit_energy_fj"`
	MeanBER     float64 `json:"mean_ber"`
	Counts      []int   `json:"counts"`
	Genome      string  `json:"genome"`
}

func solutionRecs(sols []core.Solution) []solutionRec {
	out := make([]solutionRec, 0, len(sols))
	for _, s := range sols {
		out = append(out, solutionRec{
			TimeKCC:     s.TimeKCC,
			BitEnergyFJ: s.BitEnergyFJ,
			MeanBER:     s.MeanBER,
			Counts:      s.Counts,
			Genome:      s.Genome.String(),
		})
	}
	return out
}

// Campaign is the outcome of one campaign run.
type Campaign struct {
	Cfg   CampaignConfig
	Cells []CellResult
	// Elapsed is the campaign wall time (informational).
	Elapsed time.Duration
}

// Failed counts cells that ended in error.
func (c *Campaign) Failed() int {
	n := 0
	for _, cr := range c.Cells {
		if cr.Err != nil {
			n++
		}
	}
	return n
}

// RunCampaign executes every cell across a bounded worker pool. The
// result (and its JSON/CSV artifacts) is bit-for-bit independent of
// CellWorkers; only the wall time changes. Individual cell failures
// do not abort the campaign — they are recorded on the cell and
// summarized in the returned error.
func RunCampaign(cfg CampaignConfig) (*Campaign, error) {
	cfg = cfg.withDefaults()
	byName := make(map[string]Workload, len(cfg.Workloads))
	for _, wl := range cfg.Workloads {
		if wl.Name == "" {
			return nil, fmt.Errorf("expt: campaign workload with empty name")
		}
		if _, dup := byName[wl.Name]; dup {
			return nil, fmt.Errorf("expt: duplicate campaign workload %q", wl.Name)
		}
		byName[wl.Name] = wl
	}
	// Backend names must be known up front: a typo'd backend would
	// otherwise surface as every owning cell failing individually.
	known := make(map[string]bool, len(core.Backends()))
	for _, b := range core.Backends() {
		known[b] = true
	}
	seenBackend := make(map[string]bool, len(cfg.Backends))
	for _, b := range cfg.Backends {
		if !known[b] {
			return nil, fmt.Errorf("expt: unknown campaign backend %q (known: %v)", b, core.Backends())
		}
		if seenBackend[b] {
			return nil, fmt.Errorf("expt: duplicate campaign backend %q", b)
		}
		seenBackend[b] = true
	}
	// Duplicate axis entries would enumerate bit-identical cells
	// (identical identity tuples, therefore identical seeds) counted
	// as independent results — reject them like duplicate workloads.
	seenNW := make(map[int]bool, len(cfg.NWs))
	for _, nw := range cfg.NWs {
		if seenNW[nw] {
			return nil, fmt.Errorf("expt: duplicate campaign comb size %d", nw)
		}
		seenNW[nw] = true
	}
	seenObjs := make(map[core.ObjectiveSet]bool, len(cfg.ObjectiveSets))
	for _, objs := range cfg.ObjectiveSets {
		if seenObjs[objs] {
			return nil, fmt.Errorf("expt: duplicate campaign objective set %s", objs)
		}
		seenObjs[objs] = true
	}
	if cfg.CheckpointDir == "" {
		if cfg.Resume {
			return nil, fmt.Errorf("expt: Resume needs CheckpointDir")
		}
		if cfg.StopAfterCheckpoints > 0 {
			return nil, fmt.Errorf("expt: StopAfterCheckpoints needs CheckpointDir")
		}
		if cfg.CheckpointEvery > 0 {
			// Silently ignoring the cadence would let a user believe
			// snapshots are being written when nothing is durable.
			return nil, fmt.Errorf("expt: CheckpointEvery needs CheckpointDir")
		}
	}
	if cfg.Islands > 1 {
		// Island cells split their population across engines and keep
		// no single mid-cell snapshot, so the snapshot-dependent
		// features cannot compose with them.
		if cfg.StopAfterCheckpoints > 0 {
			return nil, fmt.Errorf("expt: StopAfterCheckpoints is incompatible with Islands (island cells write no mid-cell snapshots)")
		}
		if cfg.Pop < 2*cfg.Islands {
			return nil, fmt.Errorf("expt: population %d cannot split into %d islands (need >= 2 per island)", cfg.Pop, cfg.Islands)
		}
	} else if cfg.MigrationEvery > 0 || cfg.MigrationK > 0 {
		return nil, fmt.Errorf("expt: MigrationEvery/MigrationK need Islands > 1")
	}
	cells := cfg.Cells()
	results := make([]CellResult, len(cells))

	var dir *CampaignDir
	if cfg.CheckpointDir != "" {
		var err error
		if dir, err = OpenCampaignDir(cfg); err != nil {
			return nil, err
		}
	}
	// written counts snapshot writes toward StopAfterCheckpoints
	// across cell workers.
	var written atomic.Int64
	stopped := func() bool {
		return cfg.StopAfterCheckpoints > 0 && written.Load() >= int64(cfg.StopAfterCheckpoints)
	}

	// Build one shared evaluation instance per (backend, workload, NW)
	// triple up front: instances are read-only during evaluation, so
	// every replicate and objective-set cell of a triple reuses the
	// same precomputed routes, overlap matrix and conflict-neighbor
	// lists. A failed build surfaces as the owning cells' error,
	// exactly as a per-cell core.New failure used to.
	instances := make(map[string]sharedInstance, len(cfg.Backends)*len(cfg.Workloads)*len(cfg.NWs))
	for _, backend := range cfg.Backends {
		for _, wl := range cfg.Workloads {
			for _, nw := range cfg.NWs {
				in, err := core.NewSharedInstance(core.Config{NW: nw, Backend: backend, App: wl.App, Mapping: wl.Mapping})
				instances[instanceKey(backend, wl.Name, nw)] = sharedInstance{in: in, err: err}
			}
		}
	}

	// progressMu serializes event delivery AND the completed counter,
	// so the Completed values seen by the consumer are monotone in
	// delivery order.
	var progressMu sync.Mutex
	completed := 0
	notifyStart := func(cell Cell, restored bool) {
		if cfg.Progress == nil {
			return
		}
		progressMu.Lock()
		cfg.Progress(CellEvent{Cell: cell, Completed: completed, Total: len(cells), Restored: restored})
		progressMu.Unlock()
	}
	notifyDone := func(cell Cell, r CellResult) {
		progressMu.Lock()
		completed++
		if cfg.Progress != nil {
			cfg.Progress(CellEvent{Cell: cell, Done: true, Err: r.Err,
				Elapsed: r.Elapsed, Completed: completed, Total: len(cells), Restored: r.Restored()})
		}
		progressMu.Unlock()
	}

	// Scheduling order: normally the deterministic enumeration. On
	// resume, cells with an in-flight snapshot are scheduled first —
	// they carry the most sunk cost, so finishing them converts
	// partial work into durable completion records soonest. Results
	// are indexed by cell, so the order only affects wall-clock shape.
	order := make([]int, 0, len(cells))
	if dir != nil && cfg.Resume {
		order = dir.scheduleOrder()
	} else {
		for i := range cells {
			order = append(order, i)
		}
	}

	start := time.Now()
	var next atomic.Int64
	var wg sync.WaitGroup
	workers := cfg.CellWorkers
	if workers > len(cells) {
		workers = len(cells)
	}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				oi := int(next.Add(1)) - 1
				if oi >= len(cells) {
					return
				}
				i := order[oi]
				cell := cells[i]
				if stopped() {
					results[i] = CellResult{Cell: cell, Err: ErrCampaignStopped}
					notifyDone(cell, results[i])
					continue
				}
				if dir != nil {
					if cr, ok, err := dir.LoadDone(cell); err != nil {
						results[i] = CellResult{Cell: cell, Err: err}
						notifyDone(cell, results[i])
						continue
					} else if ok {
						results[i] = cr
						notifyStart(cell, true)
						notifyDone(cell, results[i])
						continue
					}
				}
				notifyStart(cell, false)
				results[i] = runCell(cfg, instances[instanceKey(cell.Backend, cell.Workload, cell.NW)], cell, dir, func() bool {
					written.Add(1)
					return stopped()
				})
				notifyDone(cell, results[i])
			}
		}()
	}
	wg.Wait()

	camp := &Campaign{Cfg: cfg, Cells: results, Elapsed: time.Since(start)}
	if stopped() {
		return camp, fmt.Errorf("expt: campaign interrupted mid-cell with durable checkpoints in %s: %w", cfg.CheckpointDir, ErrCampaignStopped)
	}
	if n := camp.Failed(); n > 0 {
		return camp, fmt.Errorf("expt: %d of %d campaign cells failed (first: %v)", n, len(cells), firstErr(results))
	}
	return camp, nil
}

func firstErr(results []CellResult) error {
	for _, r := range results {
		if r.Err != nil {
			return fmt.Errorf("cell %d (%s): %w", r.Cell.Index, r.Cell, r.Err)
		}
	}
	return nil
}

// sharedInstance pairs a prebuilt per-(workload, NW) evaluation
// instance with its construction error, if any.
type sharedInstance struct {
	in  *alloc.Instance
	err error
}

func instanceKey(backend, workload string, nw int) string {
	return backend + "|" + workload + "|" + strconv.Itoa(nw)
}

// runCell is RunCampaign's adapter around executeCell. Without a
// checkpoint directory it encodes nothing. With one, it resumes the
// cell's in-flight snapshot, stores every snapshot the executor emits
// (counting it through snapshotted, which reports when
// StopAfterCheckpoints has tripped), and stores the completion record.
func runCell(cfg CampaignConfig, si sharedInstance, cell Cell, dir *CampaignDir, snapshotted func() (stop bool)) CellResult {
	if si.err != nil {
		return CellResult{Cell: cell, Err: si.err}
	}
	if dir == nil {
		return executeCell(cfg, cell, si.in, nil, nil, nil)
	}
	resume, err := dir.LoadCkpt(cell)
	if err != nil {
		return CellResult{Cell: cell, Err: err}
	}
	cr := executeCell(cfg, cell, si.in, resume, func(ckpt []byte) error {
		if err := dir.StoreCkpt(cell, ckpt); err != nil {
			return err
		}
		if snapshotted() {
			return ErrCampaignStopped
		}
		return nil
	}, nil)
	if cr.Err == nil {
		// Failures are not recorded: they are deterministic, so a
		// resume re-runs the cell and reports the same error, while a
		// fixed environment gets a fresh chance.
		raw, err := encodeCellDone(cell, cr.artifact())
		if err == nil {
			err = dir.StoreDone(cell, raw)
		}
		cr.Err = err
	}
	return cr
}

// executeCell runs one cell with its derived seed on the shared
// read-only instance in, then cross-checks the projected fronts on
// the simulator. It is the one cell executor: RunCampaign, a
// distributed worker and the distributed coordinator's island driver
// all run cells through it.
//
// A single-engine cell runs Step by Step (bit-identical to the
// monolithic Optimize): from resume, a cell-<N>.ckpt file, when
// non-nil, and handing emit a fresh snapshot file every
// cfg.CheckpointEvery generations when emit is non-nil. An island
// cell (cfg.Islands > 1) runs its migration rounds through runner
// (nil runs them locally) and ignores resume and emit: its state is a
// set of per-island checkpoints, not one engine stream, so an
// interrupted island cell re-runs from scratch. cfg must have its
// defaults applied.
func executeCell(cfg CampaignConfig, cell Cell, in *alloc.Instance, resume []byte, emit func(ckpt []byte) error, runner core.RoundRunner) (cr CellResult) {
	t0 := time.Now()
	cr.Cell = cell
	defer func() { cr.Elapsed = time.Since(t0) }()
	p, err := cellProblem(cfg, cell, in)
	if err != nil {
		cr.Err = err
		return cr
	}
	var stats nsga2.Stats
	if cfg.Islands > 1 {
		cr.Result, stats, cr.Err = p.RunIslands(cfg.islandSpec(), runner)
	} else {
		x, err := startExplorer(p, cell, resume)
		if err != nil {
			cr.Err = err
			return cr
		}
		for !x.Done() {
			x.Step()
			if emit != nil && cfg.CheckpointEvery > 0 && !x.Done() && x.Generation()%cfg.CheckpointEvery == 0 {
				ckpt, err := encodeCellCkpt(cell, x)
				if err == nil {
					err = emit(ckpt)
				}
				if err != nil {
					cr.Err = err
					return cr
				}
			}
		}
		cr.Result, cr.Err = x.Finish()
		stats = x.Stats()
	}
	if cr.Err != nil {
		return cr
	}
	if cfg.Stats {
		cr.stats = cellStatsOf(stats)
	}
	if cr.Result != nil {
		cr.SimChecked, cr.SimViolations, cr.SimBracketMisses, cr.Err = simCheck(p.Instance(), cr.Result)
	}
	return cr
}

// startExplorer opens a single-engine cell's explorer: fresh, or from
// resume, a cell-<N>.ckpt file whose header must name this cell.
func startExplorer(p *core.Problem, cell Cell, resume []byte) (*core.Explorer, error) {
	if resume == nil {
		return p.NewExplorer()
	}
	payload, err := decodeCellCkpt(cell, resume)
	if err != nil {
		return nil, err
	}
	x, err := p.ResumeExplorer(bytes.NewReader(payload))
	if err != nil {
		return nil, fmt.Errorf("expt: resume cell %d: %w", cell.Index, err)
	}
	return x, nil
}

// cellProblem builds one cell's exploration problem on the pair's
// shared read-only instance — the construction executeCell and the
// distributed island segment (RunCellSegment) share, so a cell means
// exactly the same GA wherever it executes.
func cellProblem(cfg CampaignConfig, cell Cell, in *alloc.Instance) (*core.Problem, error) {
	return core.New(core.Config{
		NW:         cell.NW,
		Instance:   in,
		Objectives: cell.Objectives,
		WarmStart:  cfg.WarmStart,
		GA: nsga2.Config{
			PopSize:     cfg.Pop,
			Generations: cfg.Generations,
			Seed:        cell.Seed,
			Workers:     cfg.EvalWorkers,
		},
	})
}

// simCheck runs every distinct projected-front genome of a cell
// through the cycle-resolution simulator. Occupancy double-bookings
// ((segment, channel) and core) are violations — the hard invariant.
// An integer makespan outside [analytic − ε, analytic + one ceiling
// per task and communication + one maximal task execution] counts
// separately as a bracket miss: on shared cores an integer-rounding
// tie can reorder same-core dispatch against the fractional model, so
// the looser bound keeps a correct model/simulator pair at zero.
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

// ---- artifacts ----

// campaignJSON is the stable JSON artifact schema. It holds only
// deterministic data (no timestamps, no durations), so the same
// campaign configuration always produces byte-identical artifacts —
// diffable and cacheable.
type campaignJSON struct {
	Schema string `json:"schema"`
	// Backends is only emitted when the campaign sweeps a non-default
	// backend: ring-only campaigns keep the historical artifact bytes.
	Backends      []string   `json:"backends,omitempty"`
	NWs           []int      `json:"nws"`
	ObjectiveSets []string   `json:"objective_sets"`
	Workloads     []string   `json:"workloads"`
	Replicates    int        `json:"replicates"`
	Pop           int        `json:"pop"`
	Generations   int        `json:"generations"`
	Seed          int64      `json:"seed"`
	WarmStart     bool       `json:"warm_start,omitempty"`
	Cells         []cellJSON `json:"cells"`
}

type cellJSON struct {
	Index int `json:"index"`
	// Backend is emitted (on every cell) exactly when the campaign
	// sweeps a non-default backend.
	Backend           string      `json:"backend,omitempty"`
	NW                int         `json:"nw"`
	Objectives        string      `json:"objectives"`
	Workload          string      `json:"workload"`
	Replicate         int         `json:"replicate"`
	Seed              int64       `json:"seed"`
	Error             string      `json:"error,omitempty"`
	Evaluations       int         `json:"evaluations"`
	ValidEvaluations  int         `json:"valid_evaluations"`
	DistinctEvaluated int         `json:"distinct_evaluated"`
	DistinctValid     int         `json:"distinct_valid"`
	SimChecked        int         `json:"sim_checked"`
	SimViolations     int         `json:"sim_violations"`
	SimBracketMisses  int         `json:"sim_bracket_misses"`
	BestTimeKCC       *float64    `json:"best_time_kcc,omitempty"`
	MinEnergyFJ       *float64    `json:"min_energy_fj,omitempty"`
	FrontTimeEnergy   []pointJSON `json:"front_time_energy,omitempty"`
	FrontTimeBER      []pointJSON `json:"front_time_ber,omitempty"`
	Stats             *CellStats  `json:"stats,omitempty"`
}

type pointJSON struct {
	TimeKCC     float64 `json:"time_kcc"`
	BitEnergyFJ float64 `json:"bit_energy_fj"`
	MeanBER     float64 `json:"mean_ber"`
	Counts      []int   `json:"counts"`
}

func points(recs []solutionRec) []pointJSON {
	out := make([]pointJSON, 0, len(recs))
	for _, r := range recs {
		out = append(out, pointJSON{
			TimeKCC:     r.TimeKCC,
			BitEnergyFJ: r.BitEnergyFJ,
			MeanBER:     r.MeanBER,
			Counts:      r.Counts,
		})
	}
	return out
}

// WriteCampaignJSON serializes the campaign artifact. The bytes are
// deterministic: independent of CellWorkers, EvalWorkers and wall
// time.
func WriteCampaignJSON(w io.Writer, c *Campaign) error {
	cfg := c.Cfg.withDefaults()
	doc := campaignJSON{
		Schema:      "wadate-campaign/v1",
		NWs:         cfg.NWs,
		Replicates:  cfg.Replicates,
		Pop:         cfg.Pop,
		Generations: cfg.Generations,
		Seed:        cfg.Seed,
		WarmStart:   cfg.WarmStart,
	}
	multi := sweepsBackends(cfg)
	if multi {
		doc.Backends = cfg.Backends
	}
	for _, os := range cfg.ObjectiveSets {
		doc.ObjectiveSets = append(doc.ObjectiveSets, os.String())
	}
	for _, wl := range cfg.Workloads {
		doc.Workloads = append(doc.Workloads, wl.Name)
	}
	for i := range c.Cells {
		cr := &c.Cells[i]
		a := cr.artifact()
		cj := cellJSON{
			Index:      cr.Cell.Index,
			NW:         cr.Cell.NW,
			Objectives: cr.Cell.Objectives.String(),
			Workload:   cr.Cell.Workload,
			Replicate:  cr.Cell.Replicate,
			Seed:       cr.Cell.Seed,
			Error:      a.Error,
		}
		if multi {
			cj.Backend = cr.Cell.Backend
		}
		cj.SimChecked = a.SimChecked
		cj.SimViolations = a.SimViolations
		cj.SimBracketMisses = a.SimBracketMisses
		if a.HasResult {
			cj.Evaluations = a.Evaluations
			cj.ValidEvaluations = a.ValidEvaluations
			cj.DistinctEvaluated = a.DistinctEvaluated
			cj.DistinctValid = a.DistinctValid
			cj.BestTimeKCC = a.BestTimeKCC
			cj.MinEnergyFJ = a.MinEnergyFJ
			cj.FrontTimeEnergy = points(a.FrontTimeEnergy)
			cj.FrontTimeBER = points(a.FrontTimeBER)
		}
		cj.Stats = a.Stats
		doc.Cells = append(doc.Cells, cj)
	}
	return writeIndentedJSON(w, doc)
}

// writeIndentedJSON renders v as the campaign documents are stored:
// encoding/json with two-space indentation and a trailing newline.
func writeIndentedJSON(w io.Writer, v any) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(v)
}

// WriteCampaignCSV emits one row per front point per cell, a flat
// table external plotting tools slice by (workload, objectives, nw).
// Like the JSON artifact, the bytes are deterministic. The header is
// written first, so an all-failed campaign still yields a well-formed
// (header-only) table; the backend column appears exactly when the
// campaign sweeps a non-default backend, keeping ring-only tables in
// their historical format.
func WriteCampaignCSV(w io.Writer, c *Campaign) error {
	backend := sweepsBackends(c.Cfg.withDefaults())
	cw := csv.NewWriter(w)
	header := []string{"cell"}
	if backend {
		header = append(header, "backend")
	}
	header = append(header, "workload", "objectives", "nw", "replicate", "seed", "kind",
		"time_kcc", "bit_energy_fj", "mean_ber", "log10_ber", "counts", "genome")
	if err := cw.Write(header); err != nil {
		return err
	}
	writeFront := func(cell Cell, kind string, recs []solutionRec) error {
		for _, r := range recs {
			counts := make([]string, len(r.Counts))
			for i, n := range r.Counts {
				counts[i] = strconv.Itoa(n)
			}
			row := []string{strconv.Itoa(cell.Index)}
			if backend {
				row = append(row, cell.Backend)
			}
			if err := cw.Write(append(row,
				cell.Workload,
				cell.Objectives.String(),
				strconv.Itoa(cell.NW),
				strconv.Itoa(cell.Replicate),
				strconv.FormatInt(cell.Seed, 10),
				kind,
				fmt.Sprintf("%.6f", r.TimeKCC),
				fmt.Sprintf("%.6f", r.BitEnergyFJ),
				fmt.Sprintf("%.6e", r.MeanBER),
				fmt.Sprintf("%.4f", core.Metrics{MeanBER: r.MeanBER}.Log10BER()),
				strings.Join(counts, ";"),
				r.Genome,
			)); err != nil {
				return err
			}
		}
		return nil
	}
	for i := range c.Cells {
		cr := &c.Cells[i]
		a := cr.artifact()
		if !a.HasResult {
			continue
		}
		if err := writeFront(cr.Cell, "front_time_energy", a.FrontTimeEnergy); err != nil {
			return err
		}
		if err := writeFront(cr.Cell, "front_time_ber", a.FrontTimeBER); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// campaignStatsLine is one cell's engine instrumentation as a JSON
// line: cell identity plus the CellStats counters.
type campaignStatsLine struct {
	Cell       int        `json:"cell"`
	Backend    string     `json:"backend,omitempty"`
	Workload   string     `json:"workload"`
	Objectives string     `json:"objectives"`
	NW         int        `json:"nw"`
	Replicate  int        `json:"replicate"`
	Stats      *CellStats `json:"stats"`
}

// WriteCampaignStats emits one JSON line per cell carrying the
// cell's engine instrumentation (cells without recorded stats are
// skipped). The backend column appears exactly when the campaign
// sweeps a non-default backend — the same rule as every other
// artifact. Restored cells carry the stats from their completion
// records, so the lines are identical whether the campaign ran
// in-process or was distributed across workers.
func WriteCampaignStats(w io.Writer, c *Campaign) error {
	multi := sweepsBackends(c.Cfg.withDefaults())
	for i := range c.Cells {
		cr := &c.Cells[i]
		s := cr.Stats()
		if s == nil {
			continue
		}
		line := campaignStatsLine{
			Cell:       cr.Cell.Index,
			Workload:   cr.Cell.Workload,
			Objectives: cr.Cell.Objectives.String(),
			NW:         cr.Cell.NW,
			Replicate:  cr.Cell.Replicate,
			Stats:      s,
		}
		if multi {
			line.Backend = cr.Cell.Backend
		}
		raw, err := json.Marshal(line)
		if err != nil {
			return err
		}
		if _, err := w.Write(append(raw, '\n')); err != nil {
			return err
		}
	}
	return nil
}

// sweepsBackends reports whether the campaign sweeps any non-default
// backend — the condition under which the backend column appears in
// every artifact (ring-only campaigns keep their historical bytes).
func sweepsBackends(cfg CampaignConfig) bool {
	for _, b := range cfg.Backends {
		if b != core.DefaultBackend {
			return true
		}
	}
	return false
}

// CampaignSummary renders the per-cell outcome table for the
// terminal.
func CampaignSummary(c *Campaign) string {
	multi := sweepsBackends(c.Cfg.withDefaults())
	headers := []string{"cell", "workload", "objectives", "NW", "rep", "evals", "valid", "best t (k-cc)", "min E (fJ/bit)", "|front TE|", "|front TB|", "sim viol", "wall"}
	if multi {
		headers = append([]string{"cell", "backend"}, headers[1:]...)
	}
	var rows [][]string
	for i := range c.Cells {
		cr := &c.Cells[i]
		a := cr.artifact()
		row := []string{
			strconv.Itoa(cr.Cell.Index),
		}
		if multi {
			row = append(row, cr.Cell.Backend)
		}
		row = append(row,
			cr.Cell.Workload,
			cr.Cell.Objectives.String(),
			strconv.Itoa(cr.Cell.NW),
			strconv.Itoa(cr.Cell.Replicate),
		)
		wall := cr.Elapsed.Round(time.Millisecond).String()
		if cr.Restored() {
			wall = "restored"
		}
		if a.Error != "" {
			row = append(row, "error: "+a.Error, "", "", "", "", "", "", wall)
		} else if a.HasResult {
			best := "-"
			if a.BestTimeKCC != nil {
				best = fmt.Sprintf("%.2f", *a.BestTimeKCC)
			}
			minE := "-"
			if a.MinEnergyFJ != nil {
				minE = fmt.Sprintf("%.2f", *a.MinEnergyFJ)
			}
			row = append(row,
				strconv.Itoa(a.Evaluations),
				strconv.Itoa(a.ValidEvaluations),
				best,
				minE,
				strconv.Itoa(len(a.FrontTimeEnergy)),
				strconv.Itoa(len(a.FrontTimeBER)),
				fmt.Sprintf("%d/%d", a.SimViolations, a.SimChecked),
				wall,
			)
		}
		rows = append(rows, row)
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "Campaign: %d cells, %d failed, wall %s\n\n",
		len(c.Cells), c.Failed(), c.Elapsed.Round(time.Millisecond))
	sb.WriteString(Table(headers, rows))
	return sb.String()
}
