package nsga2

import (
	"cmp"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sync"
	"sync/atomic"
)

// Engine is an incremental NSGA-II run: NewEngine evaluates and ranks
// the initial population, each Step advances one generation, and
// Result assembles the outcome at any point. Run wraps the three for
// the common case.
//
// The engine owns a scratch arena sized once at construction — genome
// slabs for the population, offspring and survivors, per-objective
// column buffers and packed violation words for the non-dominated
// sort (see ranker), index buffers for crowding and truncation, and
// the interned-key genome cache — so a steady-state Step performs
// zero heap allocations beyond the entries retained for newly
// discovered genotypes (and the problem's own allocations while
// evaluating them). The slice Population returns aliases that
// arena; Result detaches what it returns.
//
// An Engine is not safe for concurrent use.
type Engine struct {
	cfg Config
	rng *rand.Rand
	src *countingSource
	// views are the problem's NewWorker views, one per evaluation
	// goroutine (max(1, Workers) of them).
	views []Worker

	gl     int // genome length
	size   int // population size (even)
	auxLen int // aux values per cache entry (Problem.AuxLen)
	gen    int

	evals      int
	validEvals int

	cache genomeCache

	// Population arena: pop always aliases popBuf, whose genomes live
	// in curSlab; offspring go to offBuf/offSlab; survivors are built
	// in nextBuf/nextSlab, then the buffers swap roles.
	pop      []Individual
	popBuf   []Individual
	nextBuf  []Individual
	offBuf   []Individual
	merged   []Individual
	curSlab  []byte
	nextSlab []byte
	offSlab  []byte

	// Batch-evaluation scratch.
	rowRefs  [][]byte
	jobs     []evalJob
	entryIdx []int
	nextJob  atomic.Int64 // next unclaimed index into jobs

	// ranker is the rank/crowd scratch, sized for the merged 2*size
	// population; rest is the survival truncation's.
	ranker
	rest []int

	// store is the engine's chunked objective arena: each cache
	// entry's objectives and aux values are one row carved from it
	// instead of being boxed one allocation each (checkpoint
	// rehydration and live evaluation both carve from it). Its first
	// chunk is sized from the run's bound of distinct genomes. Chunks
	// are never reallocated, so carved slices stay valid for the
	// engine's lifetime.
	store arena[float64]

	// Instrumentation counters (see Stats; the relation count lives in
	// the ranker).
	cacheHits int64
}

// countingSource wraps the standard math/rand source, counting state
// advances so Restore can rebuild the exact PRNG position by fast-
// forwarding a fresh source. Both Int63 and Uint64 advance the
// underlying generator by one step, so a single counter suffices.
type countingSource struct {
	src rand.Source64
	n   uint64
}

func (c *countingSource) Int63() int64 {
	c.n++
	return c.src.Int63()
}

func (c *countingSource) Uint64() uint64 {
	c.n++
	return c.src.Uint64()
}

func (c *countingSource) Seed(s int64) { c.src.Seed(s) }

// newCountedRNG builds the engine PRNG: the exact sequence of
// rand.New(rand.NewSource(seed)), observed through a draw counter.
func newCountedRNG(seed int64) (*rand.Rand, *countingSource) {
	src := &countingSource{src: rand.NewSource(seed).(rand.Source64)}
	return rand.New(src), src
}

// NewEngine validates the configuration, sizes the scratch arena, and
// evaluates and ranks the initial population (seeds first, then
// random genomes).
func NewEngine(p Problem, cfg Config) (*Engine, error) {
	e, err := newEngineArena(p, cfg)
	if err != nil {
		return nil, err
	}
	P := e.size
	e.rowRefs = e.rowRefs[:0]
	for i := 0; i < P; i++ {
		row := e.curRow(i)
		if i < len(e.cfg.Seeds) {
			copy(row, e.cfg.Seeds[i])
		} else {
			e.fillRandomGenome(row)
		}
		e.rowRefs = append(e.rowRefs, row)
	}
	e.evaluateBatch(e.rowRefs, e.popBuf)
	e.pop = e.popBuf[:P]
	e.rankAndCrowd(e.pop)
	return e, nil
}

// newEngineArena validates the configuration and builds an engine
// with its scratch arena sized, its PRNG seeded and its worker pool
// ready — but with no population yet. NewEngine initializes the
// population from seeds and random genomes; ResumeEngine loads it
// from a checkpoint instead.
func newEngineArena(p Problem, cfg Config) (*Engine, error) {
	cfg = cfg.withDefaults()
	if p.GenomeLen() <= 0 {
		return nil, fmt.Errorf("nsga2: genome length must be positive")
	}
	if p.NumObjectives() <= 0 {
		return nil, fmt.Errorf("nsga2: need at least one objective")
	}
	if cfg.CrossoverProb < 0 || cfg.CrossoverProb > 1 {
		return nil, fmt.Errorf("nsga2: crossover probability %v outside [0,1] (use nsga2.Off to disable)", cfg.CrossoverProb)
	}
	if cfg.MutationProb < 0 || cfg.MutationProb > 1 {
		return nil, fmt.Errorf("nsga2: mutation probability %v outside [0,1] (use nsga2.Off to disable)", cfg.MutationProb)
	}
	if len(cfg.Seeds) > cfg.PopSize {
		return nil, fmt.Errorf("nsga2: %d seeds exceed population %d", len(cfg.Seeds), cfg.PopSize)
	}
	for i, s := range cfg.Seeds {
		if len(s) != p.GenomeLen() {
			return nil, fmt.Errorf("nsga2: seed %d has %d genes, want %d", i, len(s), p.GenomeLen())
		}
	}
	auxLen := p.AuxLen()
	if auxLen < 0 {
		return nil, fmt.Errorf("nsga2: negative aux length %d", auxLen)
	}
	P, gl, m := cfg.PopSize, p.GenomeLen(), p.NumObjectives()
	// A run evaluates at most P distinct genomes per population it
	// builds: the initial one and one offspring set per generation.
	bound := P * (cfg.Generations + 1)
	e := &Engine{
		cfg:    cfg,
		gl:     gl,
		size:   P,
		auxLen: auxLen,
		cache:  newGenomeCache(bound, gl),
		store:  newArena[float64](bound*(m+auxLen), storeChunk),
		ranker: newRanker(2*P, m),
		rest:   make([]int, 0, 2*P),

		popBuf:   make([]Individual, P),
		nextBuf:  make([]Individual, P),
		offBuf:   make([]Individual, P),
		merged:   make([]Individual, 0, 2*P),
		curSlab:  make([]byte, P*gl),
		nextSlab: make([]byte, P*gl),
		offSlab:  make([]byte, P*gl),

		rowRefs:  make([][]byte, 0, P),
		jobs:     make([]evalJob, 0, P),
		entryIdx: make([]int, 0, P),
	}
	e.rng, e.src = newCountedRNG(cfg.Seed)
	e.views = make([]Worker, max(1, cfg.Workers))
	for w := range e.views {
		e.views[w] = p.NewWorker()
	}
	return e, nil
}

func (e *Engine) curRow(i int) []byte {
	return e.curSlab[i*e.gl : (i+1)*e.gl : (i+1)*e.gl]
}

func (e *Engine) offRow(i int) []byte {
	return e.offSlab[i*e.gl : (i+1)*e.gl : (i+1)*e.gl]
}

// Worker returns the engine's first evaluation view, the problem's
// first NewWorker view. The engine uses it only inside NewEngine and
// Step, so between Steps a caller may use it freely.
func (e *Engine) Worker() Worker { return e.views[0] }

// Generation returns the number of completed Steps.
func (e *Engine) Generation() int { return e.gen }

// Config returns the engine's effective configuration (defaults
// applied), e.g. to read the target generation count of a run driven
// Step by Step.
func (e *Engine) Config() Config { return e.cfg }

// Population returns the current ranked population. The slice and its
// genomes alias engine scratch: they are valid until the next Step or
// Restore. Copy to retain.
func (e *Engine) Population() []Individual { return e.pop }

// Step advances one generation: binary-tournament mating, two-point
// crossover, mutation, batched (optionally parallel) evaluation of
// the distinct new genomes, and elitist survival over the merged
// parent+offspring population.
func (e *Engine) Step() {
	off := e.makeOffspring()
	m := append(e.merged[:0], e.pop...)
	m = append(m, off...)
	e.pop = e.surviveInto(m)
	e.gen++
}

// Result assembles the run outcome. The returned population and
// archive are detached from engine scratch (archive genomes are the
// cache's interned keys, which the engine never mutates), so the
// result stays valid across further Steps.
func (e *Engine) Result() *Result {
	res := &Result{
		Final:             make([]Individual, len(e.pop)),
		Evaluations:       e.evals,
		ValidEvaluations:  e.validEvals,
		DistinctEvaluated: len(e.cache.entries),
	}
	copy(res.Final, e.pop)
	for i := range res.Final {
		res.Final[i].Genome = append([]byte(nil), res.Final[i].Genome...)
	}
	if e.cfg.ArchiveAll {
		res.Archive = make([]ArchiveEntry, 0, len(e.cache.entries))
	}
	for i := range e.cache.entries {
		ent := &e.cache.entries[i]
		if ent.violation == 0 {
			res.DistinctValid++
		}
		if e.cfg.ArchiveAll {
			res.Archive = append(res.Archive, ArchiveEntry{Genome: ent.key, Objs: ent.objs, Violation: ent.violation, Aux: ent.aux})
		}
	}
	return res
}

// fillRandomGenome draws a random chromosome into g, consuming the
// PRNG exactly like the original engine.
func (e *Engine) fillRandomGenome(g []byte) {
	for i := range g {
		g[i] = 0
		if e.rng.Float64() < e.cfg.InitDensity {
			g[i] = 1
		}
	}
}

// evalJob is one distinct new genome of a batch: its cache entry and
// the arena row EvaluateInto fills (the objectives, then any aux
// values).
type evalJob struct {
	idx int
	row []float64
}

// evaluateBatch resolves a generation's genomes through the dedup
// cache, evaluating the distinct new ones — in parallel when there is
// more than one view — and writes the individuals into out (one per
// genome, same order). Cache insertion order, counters and results
// are identical however the jobs are spread over the views.
func (e *Engine) evaluateBatch(genomes [][]byte, out []Individual) {
	e.jobs = e.jobs[:0]
	e.entryIdx = e.entryIdx[:0]
	for _, g := range genomes {
		idx, ok := e.cache.lookup(g)
		if ok {
			e.cacheHits++
		} else {
			idx = e.cache.insert(g)
			// Arena row for the write-out: carved serially here so the
			// concurrent fill below never touches the store.
			row := e.store.alloc(e.nObj + e.auxLen)
			e.cache.entries[idx].setRow(row, e.nObj)
			e.jobs = append(e.jobs, evalJob{idx: idx, row: row})
		}
		e.entryIdx = append(e.entryIdx, idx)
	}
	// All inserts for this batch are done, so the entries slice is
	// stable while the jobs are filled (possibly concurrently).
	e.nextJob.Store(0)
	if len(e.views) > 1 && len(e.jobs) > 1 {
		var wg sync.WaitGroup
		for w := 0; w < len(e.views) && w < len(e.jobs); w++ {
			wg.Add(1)
			go func(view Worker) {
				defer wg.Done()
				e.fillJobs(view)
			}(e.views[w])
		}
		wg.Wait()
	} else {
		e.fillJobs(e.views[0])
	}
	// Checked here, on the caller's goroutine, so the panic can be
	// recovered like any other.
	for _, job := range e.jobs {
		ent := &e.cache.entries[job.idx]
		mustOrder(ent.key, ent.objs, ent.violation)
	}
	for i, g := range genomes {
		e.evals++
		ent := &e.cache.entries[e.entryIdx[i]]
		if ent.violation == 0 {
			e.validEvals++
		}
		out[i] = Individual{Genome: g, Objs: ent.objs, Violation: ent.violation}
	}
}

// hasNaN reports whether an objective vector or its violation holds a
// NaN, the one float value the ranking cannot order.
func hasNaN(objs []float64, violation float64) bool {
	if math.IsNaN(violation) {
		return true
	}
	for _, x := range objs {
		if math.IsNaN(x) {
			return true
		}
	}
	return false
}

// mustOrder panics when EvaluateInto returned a NaN objective or
// violation for genome. Infinity is a valid "worst" value; NaN breaks the
// problem contract (see Worker.EvaluateInto), and the engine refuses
// it where it enters rather than ranking it. The engine is unusable
// after the panic.
func mustOrder(genome []byte, objs []float64, violation float64) {
	if hasNaN(objs, violation) {
		panic(fmt.Sprintf("nsga2: EvaluateInto returned NaN for genome %v: objectives %v, violation %v",
			genome, objs, violation))
	}
}

// fillJobs evaluates batch jobs through one view until none are left.
// Each view pulls job indices from the shared atomic counter and keeps
// its own evaluation state for the whole batch; results land at their
// entry, so scheduling order cannot influence the outcome.
func (e *Engine) fillJobs(view Worker) {
	for {
		i := int(e.nextJob.Add(1)) - 1
		if i >= len(e.jobs) {
			return
		}
		job := e.jobs[i]
		ent := &e.cache.entries[job.idx]
		ent.violation = view.EvaluateInto(job.row, ent.key)
	}
}

// makeOffspring builds PopSize children by binary tournament,
// two-point crossover and mutation into the offspring slab. The
// genetic operators run serially (they consume the engine's PRNG);
// evaluation is batched.
func (e *Engine) makeOffspring() []Individual {
	e.rowRefs = e.rowRefs[:0]
	for n := 0; n < e.size; n += 2 {
		p1 := e.tournament()
		p2 := e.tournament()
		c1, c2 := e.offRow(n), e.offRow(n+1)
		copy(c1, p1.Genome)
		copy(c2, p2.Genome)
		if e.rng.Float64() < e.cfg.CrossoverProb {
			e.twoPointCrossover(c1, c2)
		}
		e.mutate(c1)
		e.mutate(c2)
		e.rowRefs = append(e.rowRefs, c1, c2)
	}
	e.evaluateBatch(e.rowRefs, e.offBuf)
	return e.offBuf[:e.size]
}

// tournament picks the better of two random individuals by
// (rank, crowding).
func (e *Engine) tournament() Individual {
	pop := e.pop
	a := pop[e.rng.Intn(len(pop))]
	b := pop[e.rng.Intn(len(pop))]
	if a.Rank != b.Rank {
		if a.Rank < b.Rank {
			return a
		}
		return b
	}
	if a.Crowding != b.Crowding {
		if a.Crowding > b.Crowding {
			return a
		}
		return b
	}
	if e.rng.Intn(2) == 0 {
		return a
	}
	return b
}

// twoPointCrossover exchanges the gene range [x,y] of the two
// chromosomes (the paper's operator).
func (e *Engine) twoPointCrossover(a, b []byte) {
	n := len(a)
	x, y := e.rng.Intn(n), e.rng.Intn(n)
	if x > y {
		x, y = y, x
	}
	for i := x; i <= y; i++ {
		a[i], b[i] = b[i], a[i]
	}
}

// mutate applies the paper's mutation operator in place: with
// probability MutationProb, invert one random gene.
func (e *Engine) mutate(g []byte) {
	if e.rng.Float64() < e.cfg.MutationProb {
		g[e.rng.Intn(len(g))] ^= 1
	}
}

// surviveInto performs the elitist (mu + lambda) selection over the
// merged population into the next-generation buffers, copies the
// survivor genomes into the next slab, and swaps the arena roles.
// Identical survivors, in identical order, to the reference survive.
func (e *Engine) surviveInto(m []Individual) []Individual {
	fronts := e.rankAndCrowd(m)
	dst := e.nextBuf
	n := 0
	for _, front := range fronts {
		if n+len(front) <= e.size {
			for _, i := range front {
				dst[n] = m[i]
				n++
			}
			continue
		}
		// Descending crowding distance, stably.
		rest := append(e.rest[:0], front...)
		slices.SortStableFunc(rest, func(a, b int) int {
			return cmp.Compare(m[b].Crowding, m[a].Crowding)
		})
		for _, i := range rest[:e.size-n] {
			dst[n] = m[i]
			n++
		}
		break
	}
	for k := 0; k < n; k++ {
		row := e.nextSlab[k*e.gl : (k+1)*e.gl : (k+1)*e.gl]
		copy(row, dst[k].Genome)
		dst[k].Genome = row
	}
	e.popBuf, e.nextBuf = e.nextBuf, e.popBuf
	e.curSlab, e.nextSlab = e.nextSlab, e.curSlab
	return dst[:n]
}

// ranker is the allocation-free non-dominated ranking and crowding
// pass, with scratch sized once by newRanker. The layout is
// struct-of-arrays: objCol holds one contiguous column per objective
// (all carved from objColBuf), and vfW packs each individual's
// violation/feasibility into one word — the IEEE-754 bits of the
// violation, so feasibility is `vfW[i]<<1 == 0` (violation == ±0) and
// the numeric value is a free bitcast back. The relation kernel, the
// lexicographic pre-sort, the duplicate-group hash and the crowding
// sweeps all walk whole columns instead of striding interleaved rows.
//
// Ranking runs over duplicate groups — individuals with bit-identical
// (violation, objectives) vectors: groupOf/gRep/gSize/gHash/gTable
// find the groups and gmStart/gMembers list each group's members. The
// second block is buildFrontsSorted's: group ids in
// dominance-compatible sorted order, per-front linked-list heads and
// per-group next links, the per-group unlock positions and final
// last-member positions used to reconstruct the reference front
// order, and the previous/current front group lists of the
// reconstruction sweep.
type ranker struct {
	nObj      int
	objCol    [][]float64
	objColBuf []float64
	vfW       []uint64
	groupOf   []int32
	gRep      []int32
	gSize     []int32
	gCur      []int32
	gHash     []uint64
	gTable    []int32
	gMask     uint64
	gmStart   []int32
	gMembers  []int32
	fronts    [][]int
	frontBuf  []int
	crowdKeys []crowdKey

	sGroups  []int32
	gFrontOf []int32
	gHead    []int32
	gNext    []int32
	gP       []int32
	gLastPos []int32
	gPrevF   []int32
	gCurF    []int32

	// relations counts the pair relations compared (see Stats).
	relations int64
}

// newRanker sizes the ranking scratch for populations of up to n
// individuals with m objectives. Every ranking pass is built here:
// the engine sizes one for its merged 2*PopSize population,
// MergeResults one for the concatenated island populations.
func newRanker(n, m int) ranker {
	// The group hash table stays at most half full at 2*n slots.
	gt := 1
	for gt < 2*n {
		gt *= 2
	}
	r := ranker{
		nObj:      m,
		objCol:    make([][]float64, m),
		objColBuf: make([]float64, n*m),
		vfW:       make([]uint64, n),
		groupOf:   make([]int32, n),
		gRep:      make([]int32, n),
		gSize:     make([]int32, n),
		gCur:      make([]int32, n),
		gHash:     make([]uint64, n),
		gTable:    make([]int32, gt),
		gMask:     uint64(gt - 1),
		gmStart:   make([]int32, n+1),
		gMembers:  make([]int32, n),
		fronts:    make([][]int, 0, n),
		frontBuf:  make([]int, 0, n),
		crowdKeys: make([]crowdKey, n),

		sGroups:  make([]int32, 0, n),
		gFrontOf: make([]int32, n),
		gHead:    make([]int32, n),
		gNext:    make([]int32, n),
		gP:       make([]int32, n),
		gLastPos: make([]int32, n),
		gPrevF:   make([]int32, 0, n),
		gCurF:    make([]int32, 0, n),
	}
	for k := range r.objCol {
		r.objCol[k] = r.objColBuf[k*n : (k+1)*n : (k+1)*n]
	}
	return r
}

// rankAndCrowd assigns ranks and crowding distances in place and
// returns the fronts (aliasing ranker scratch, valid until the next
// call). It produces bit-identical results to the reference
// fastNonDominatedSort + assignCrowding pair (kept in
// reference_test.go as the oracle), but ranks DUPLICATE GROUPS:
// individuals whose (violation, objectives) vectors are bit-identical
// relate identically to everyone else, so one representative relation
// per group pair replaces up to |a|*|b| individual relations. GA
// populations carry heavy duplication (every infeasible individual of
// one violation grade is one group). Group members always share a
// front, and buildFrontsSorted reconstructs the reference member
// order, so fronts, ranks and crowding are unchanged.
//
// The population must be NaN-free: the sort-based builder relies on
// every dominator sorting first, which a NaN breaks. The engine
// rejects NaN where values enter it (evaluateBatch for problem
// results, cacheEntry for checkpoints), so nothing it ranks carries
// one.
func (r *ranker) rankAndCrowd(m []Individual) [][]int {
	n, mo := len(m), r.nObj
	for i := 0; i < n; i++ {
		r.vfW[i] = math.Float64bits(m[i].Violation)
	}
	// Scatter the interleaved Individual.Objs into per-objective
	// columns (zero-padding short vectors, like the row copy used to).
	for k := 0; k < mo; k++ {
		col := r.objCol[k]
		for i := 0; i < n; i++ {
			var x float64
			if k < len(m[i].Objs) {
				x = m[i].Objs[k]
			}
			col[i] = x
		}
	}
	G := r.groupIndividuals(n)

	// Per-group member lists (counting sort; members ascend within a
	// group because individuals are scanned in index order).
	r.gmStart[0] = 0
	for g := 0; g < G; g++ {
		r.gmStart[g+1] = r.gmStart[g] + r.gSize[g]
		r.gCur[g] = r.gmStart[g]
	}
	for i := 0; i < n; i++ {
		g := r.groupOf[i]
		r.gMembers[r.gCur[g]] = int32(i)
		r.gCur[g]++
	}

	r.buildFrontsSorted(n, G)
	for rank, front := range r.fronts {
		for _, i := range front {
			m[i].Rank = rank
		}
		r.assignCrowdingScratch(m, front)
	}
	return r.fronts
}

// buildFrontsSorted is the ENS-style sort-based front builder. It
// replaces the all-pairs relation pass with a lexicographic pre-sort
// of the duplicate-group representatives — feasible groups ascending
// by objective vector, then infeasible groups ascending by violation —
// under which every dominator sorts strictly before everything it
// dominates (Deb dominance implies componentwise <= with one strict,
// hence lexicographic <; smaller violation sorts first; feasible
// always precedes infeasible). Groups are then inserted in sorted
// order: a group joins the first front none of whose already-inserted
// groups dominates it, which by transitivity equals 1 + the maximum
// front of its dominators — the reference front assignment. Infeasible
// groups need no comparisons at all: ascending violation runs map to
// consecutive fronts after every feasible front.
//
// Front membership alone does not fix the reference's member ORDER, so
// a reconstruction sweep rebuilds it per front: an individual enters
// front f+1 the moment the last member of its last dominator group in
// front f is processed, so sorting front f+1's individuals by (that
// dominator position, own index) reproduces the reference's
// zero-batch append order exactly. The position is found by scanning
// front f's groups in descending last-member position and stopping at
// the first dominator. Front 0 and every infeasible front unlock
// uniformly, i.e. ascend by index. The property tests pin all of
// this bit-for-bit against the reference ranker (reference_test.go).
func (r *ranker) buildFrontsSorted(n, G int) {
	sg := r.sGroups[:0]
	for g := 0; g < G; g++ {
		sg = append(sg, int32(g))
	}
	slices.SortFunc(sg, r.lexCompare)

	// Feasible prefix: sequential-search ENS insertion.
	numFronts := 0
	k := 0
	for ; k < len(sg); k++ {
		g := int(sg[k])
		rg := int(r.gRep[g])
		if !feasWord(r.vfW[rg]) {
			break
		}
		f := 0
		for ; f < numFronts; f++ {
			dominated := false
			for h := r.gHead[f]; h >= 0; h = r.gNext[h] {
				if r.relation(int(r.gRep[h]), rg) == 1 {
					dominated = true
					break
				}
			}
			if !dominated {
				break
			}
		}
		if f == numFronts {
			r.gHead[numFronts] = -1
			numFronts++
		}
		r.gFrontOf[g] = int32(f)
		r.gNext[g] = r.gHead[f]
		r.gHead[f] = int32(g)
	}
	nf := numFronts // number of feasible fronts

	// Infeasible suffix: one front per distinct violation value,
	// ascending, strictly after every feasible front.
	for prev := 0.0; k < len(sg); k++ {
		g := int(sg[k])
		v := math.Float64frombits(r.vfW[r.gRep[g]])
		if numFronts == nf || v > prev {
			r.gHead[numFronts] = -1
			numFronts++
		}
		prev = v
		f := numFronts - 1
		r.gFrontOf[g] = int32(f)
		r.gNext[g] = r.gHead[f]
		r.gHead[f] = int32(g)
	}

	// Reconstruction sweep: finalize each front's member order, then
	// stage its groups (descending last-member position) as the next
	// front's dominator scan order.
	fb := r.frontBuf[:0]
	r.fronts = r.fronts[:0]
	prevG := r.gPrevF[:0]
	for f := 0; f < numFronts; f++ {
		cur := r.gCurF[:0]
		for h := r.gHead[f]; h >= 0; h = r.gNext[h] {
			cur = append(cur, h)
		}
		if f == 0 || f >= nf {
			// Front 0 has no dominators; an infeasible front is
			// dominated by EVERY group of the previous front, so its
			// members all unlock at that front's final position.
			// Either way the order is ascending index.
			for _, g := range cur {
				r.gP[g] = 0
			}
		} else {
			for _, g := range cur {
				rg := int(r.gRep[g])
				var P int32
				for _, d := range prevG {
					if r.relation(int(r.gRep[d]), rg) == 1 {
						P = r.gLastPos[d]
						break
					}
				}
				r.gP[g] = P
			}
		}
		start := len(fb)
		for _, g := range cur {
			for _, j := range r.gMembers[r.gmStart[g]:r.gmStart[g+1]] {
				fb = append(fb, int(j))
			}
		}
		// Order the front's individuals by (unlock position, index):
		// the reference append order.
		seg := fb[start:len(fb):len(fb)]
		slices.SortFunc(seg, func(a, b int) int {
			if c := cmp.Compare(r.gP[r.groupOf[a]], r.gP[r.groupOf[b]]); c != 0 {
				return c
			}
			return cmp.Compare(a, b)
		})
		r.fronts = append(r.fronts, seg)
		if f+1 < nf {
			for pos, i := range seg {
				r.gLastPos[r.groupOf[i]] = int32(pos)
			}
			// Descending last-member position (distinct, so the order
			// is strict): the next front's dominator scan order.
			prevG = append(r.gPrevF[:0], cur...)
			slices.SortFunc(prevG, func(a, b int32) int {
				return cmp.Compare(r.gLastPos[b], r.gLastPos[a])
			})
		}
	}
}

// groupIndividuals partitions the first n scratch rows into duplicate
// groups — maximal sets with bit-identical (violation, objectives)
// vectors — numbered in first-seen order. It fills groupOf, gRep,
// gSize and gHash, and returns the group count. Bit-level equality is
// the grouping key: it implies identical comparison behavior in
// relation (the reverse direction, e.g. 0.0 vs -0.0, merely yields
// separate groups whose pair relation is 0 — correct either way).
func (r *ranker) groupIndividuals(n int) int {
	for i := range r.gTable {
		r.gTable[i] = 0
	}
	mo := r.nObj
	G := 0
	for i := 0; i < n; i++ {
		const offset64, prime64 = 14695981039346656037, 1099511628211
		h := uint64(offset64)
		h = (h ^ r.vfW[i]) * prime64
		for k := 0; k < mo; k++ {
			h = (h ^ math.Float64bits(r.objCol[k][i])) * prime64
		}
		h ^= h >> 29 // finalize: spread the low bits the probe uses
		for slot := h & r.gMask; ; slot = (slot + 1) & r.gMask {
			t := r.gTable[slot]
			if t == 0 {
				r.gRep[G] = int32(i)
				r.gSize[G] = 1
				r.gHash[G] = h
				r.groupOf[i] = int32(G)
				r.gTable[slot] = int32(G + 1)
				G++
				break
			}
			g := int(t - 1)
			if r.gHash[g] == h && r.sameVector(int(r.gRep[g]), i) {
				r.gSize[g]++
				r.groupOf[i] = int32(g)
				break
			}
		}
	}
	return G
}

// sameVector reports bit-identity of two scratch rows' (violation,
// objectives) vectors.
func (r *ranker) sameVector(a, b int) bool {
	if r.vfW[a] != r.vfW[b] {
		return false
	}
	for k := 0; k < r.nObj; k++ {
		col := r.objCol[k]
		if math.Float64bits(col[a]) != math.Float64bits(col[b]) {
			return false
		}
	}
	return true
}

// feasWord reports the feasibility packed into a violation word: the
// word is the violation's IEEE-754 bits, so violation == ±0 (the
// `v == 0` feasibility rule) means every bit but the sign is clear.
func feasWord(w uint64) bool { return w<<1 == 0 }

// relation decides one unordered pair under Deb's constraint
// dominance: 1 if i dominates j, -1 if j dominates i, 0 otherwise.
// Exactly equivalent to evaluating the reference dominates in both
// directions.
func (r *ranker) relation(i, j int) int {
	r.relations++
	wi, wj := r.vfW[i], r.vfW[j]
	fi, fj := feasWord(wi), feasWord(wj)
	if fi != fj {
		if fi {
			return 1
		}
		return -1
	}
	if !fi {
		vi, vj := math.Float64frombits(wi), math.Float64frombits(wj)
		switch {
		case vi < vj:
			return 1
		case vj < vi:
			return -1
		}
		return 0
	}
	mo := r.nObj
	// The common widths (the 2- and 3-objective sets) compare unrolled:
	// both better-than flags are folded over the whole vector with
	// short-circuit ORs instead of the flagged scan. The final decision
	// — both flags 0, one flag 1/-1 — is exactly what the reference
	// early-exit loop returns (it only returns 0 sooner, never a
	// different value).
	var iBetter, jBetter bool
	switch mo {
	case 2:
		c0, c1 := r.objCol[0], r.objCol[1]
		iBetter = c0[i] < c0[j] || c1[i] < c1[j]
		jBetter = c0[i] > c0[j] || c1[i] > c1[j]
	case 3:
		c0, c1, c2 := r.objCol[0], r.objCol[1], r.objCol[2]
		iBetter = c0[i] < c0[j] || c1[i] < c1[j] || c2[i] < c2[j]
		jBetter = c0[i] > c0[j] || c1[i] > c1[j] || c2[i] > c2[j]
	default:
		for k := 0; k < mo; k++ {
			col := r.objCol[k]
			switch {
			case col[i] < col[j]:
				if jBetter {
					return 0
				}
				iBetter = true
			case col[i] > col[j]:
				if iBetter {
					return 0
				}
				jBetter = true
			}
		}
	}
	switch {
	case iBetter && !jBetter:
		return 1
	case jBetter && !iBetter:
		return -1
	}
	return 0
}

// assignCrowdingScratch mirrors the reference assignCrowding on the
// engine's objective columns with preallocated scratch and an
// allocation-free sort. It sorts the front's (value, position) keys:
// on the NaN-free values the engine admits, a strict total order, so
// the unstable sort yields the reference sort.SliceStable's order.
// Breaking ties on the individual index instead would not, because
// front is not in index order. The comparator uses plain < and >,
// like the reference's less, not cmp.Compare: no NaN reaches ranking,
// and cmp.Compare's NaN checks cost more than the unstable sort saves
// over a stable one.
func (r *ranker) assignCrowdingScratch(m []Individual, front []int) {
	if len(front) == 0 {
		return
	}
	for _, i := range front {
		m[i].Crowding = 0
	}
	if len(front) <= 2 {
		for _, i := range front {
			m[i].Crowding = math.Inf(1)
		}
		return
	}
	keys := r.crowdKeys[:len(front)]
	last := len(keys) - 1
	for obj := 0; obj < r.nObj; obj++ {
		col := r.objCol[obj]
		for pos, i := range front {
			keys[pos] = crowdKey{col[i], pos}
		}
		slices.SortFunc(keys, func(a, b crowdKey) int {
			switch {
			case a.v < b.v:
				return -1
			case a.v > b.v:
				return 1
			}
			return a.pos - b.pos
		})
		spread := keys[last].v - keys[0].v
		m[front[keys[0].pos]].Crowding = math.Inf(1)
		m[front[keys[last].pos]].Crowding = math.Inf(1)
		if spread <= 0 || math.IsInf(spread, 0) || math.IsNaN(spread) {
			// Degenerate axis (all equal, or infeasible front at
			// +Inf): contributes nothing.
			continue
		}
		for k := 1; k < last; k++ {
			d := (keys[k+1].v - keys[k-1].v) / spread
			if c := &m[front[keys[k].pos]].Crowding; !math.IsInf(*c, 1) {
				*c += d
			}
		}
	}
}

// crowdKey is one front member's sort key in the crowding pass: its
// objective value and its position in the front.
type crowdKey struct {
	v   float64
	pos int
}

// lexCompare orders group ids so that any dominator sorts strictly
// before everything it dominates: feasible groups first, ascending by
// lexicographic objective vector, then infeasible groups ascending by
// violation; exact numeric ties fall back to first-seen group order,
// giving a deterministic total order. Correct only for NaN-free
// populations (see rankAndCrowd).
func (r *ranker) lexCompare(ga, gb int32) int {
	ra, rb := int(r.gRep[ga]), int(r.gRep[gb])
	wa, wb := r.vfW[ra], r.vfW[rb]
	fa, fb := feasWord(wa), feasWord(wb)
	if fa != fb {
		if fa {
			return -1
		}
		return 1
	}
	if !fa {
		if c := cmp.Compare(math.Float64frombits(wa), math.Float64frombits(wb)); c != 0 {
			return c
		}
		return cmp.Compare(ga, gb)
	}
	for k := 0; k < r.nObj; k++ {
		col := r.objCol[k]
		if c := cmp.Compare(col[ra], col[rb]); c != 0 {
			return c
		}
	}
	return cmp.Compare(ga, gb)
}

// Stats is a snapshot of the engine's instrumentation counters: how
// evaluations were served (dedup cache or the problem's kernel) and
// how many pairwise dominance relations the ranking compared.
type Stats struct {
	// Evaluations and CacheHits mirror the run counters: total genome
	// evaluations requested, and how many were served by the dedup
	// cache without touching the problem.
	Evaluations int64
	CacheHits   int64
	// RelationsCompared counts the Deb-dominance pair comparisons of
	// the front builder.
	RelationsCompared int64
	// Eval counts the problem's kernel runs.
	Eval EvalStats
}

// Stats returns the engine's instrumentation counters.
func (e *Engine) Stats() Stats {
	return Stats{
		Evaluations:       int64(e.evals),
		CacheHits:         e.cacheHits,
		RelationsCompared: e.relations,
		// Every evaluation the cache does not serve runs the
		// problem's kernel once.
		Eval: EvalStats{Full: int64(e.evals) - e.cacheHits},
	}
}

// Snapshot captures the engine's evolutionary state — the ranked
// population and the PRNG position — so Restore can rewind and replay
// from it bit-for-bit. The evaluation cache and its counters are NOT
// part of the snapshot: evaluation is deterministic, so a replayed
// generation reads identical results out of the cache, and the
// benchmark suite uses exactly that to measure a steady-state
// generation with every genome already cached.
type Snapshot struct {
	gen        int
	draws      uint64
	evals      int
	validEvals int
	genomes    []byte
	inds       []Individual
}

// Snapshot captures the current state. The copy is private to the
// snapshot; later Steps do not disturb it.
func (e *Engine) Snapshot() *Snapshot {
	s := &Snapshot{
		gen:        e.gen,
		draws:      e.src.n,
		evals:      e.evals,
		validEvals: e.validEvals,
		genomes:    make([]byte, len(e.pop)*e.gl),
		inds:       make([]Individual, len(e.pop)),
	}
	copy(s.inds, e.pop)
	for i := range e.pop {
		copy(s.genomes[i*e.gl:(i+1)*e.gl], e.pop[i].Genome)
		s.inds[i].Genome = nil
	}
	return s
}

// Restore rewinds the engine to a snapshot taken from it: the
// population (including ranks and crowding) is copied back into the
// arena and the PRNG is rebuilt at the recorded draw position, so the
// following Steps replay the original trajectory exactly. Restore
// allocates (the PRNG rebuild); Step afterwards does not.
func (e *Engine) Restore(s *Snapshot) {
	e.gen, e.evals, e.validEvals = s.gen, s.evals, s.validEvals
	e.rng, e.src = newCountedRNG(e.cfg.Seed)
	for i := uint64(0); i < s.draws; i++ {
		e.src.src.Int63()
	}
	e.src.n = s.draws
	n := len(s.inds)
	copy(e.popBuf[:n], s.inds)
	for i := 0; i < n; i++ {
		row := e.curRow(i)
		copy(row, s.genomes[i*e.gl:(i+1)*e.gl])
		e.popBuf[i].Genome = row
	}
	e.pop = e.popBuf[:n]
}
