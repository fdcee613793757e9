package nsga2

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
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
// sort (see the SoA scratch fields), index buffers for crowding and
// truncation, and the interned-key genome cache — so a steady-state
// Step performs zero heap allocations
// beyond the entries retained for newly discovered genotypes (and the
// problem's own allocations while evaluating them). Everything a Step
// hands out (OnGeneration populations, Population) aliases that
// arena; Result detaches what it returns.
//
// An Engine is not safe for concurrent use.
type Engine struct {
	p   Problem
	cfg Config
	rng *rand.Rand
	src *countingSource
	// views are the evaluation views, one per evaluation goroutine
	// (max(1, Workers) of them): the problem's NewWorker views when it
	// implements PerWorkerProblem, the problem itself otherwise.
	views []Problem

	gl   int // genome length
	nObj int
	size int // population size (even)
	gen  int

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

	// Batch-evaluation scratch. offMeta records, per offspring, its
	// mating parents; jobP1/jobP2 carry them per distinct new genome
	// into the problem's EvaluateInto.
	rowRefs  [][]byte
	jobs     []int
	entryIdx []int
	offMeta  []offMeta
	jobP1    [][]byte
	jobP2    [][]byte
	nextJob  atomic.Int64 // next unclaimed index into jobs

	// Rank/crowd scratch (sized for the merged 2*size population),
	// laid out struct-of-arrays: objCol holds one contiguous column
	// per objective (all carved from objColBuf), and vfW packs each
	// individual's violation/feasibility into one word — the IEEE-754
	// bits of the violation, so feasibility is `vfW[i]<<1 == 0`
	// (violation == ±0) and the numeric value is a free bitcast back.
	// The relation kernels, the lexicographic pre-sort, the duplicate-
	// group hash and the crowding sweeps all walk whole columns instead
	// of striding interleaved rows.
	// The pair-relation pass runs over duplicate groups — individuals
	// with bit-identical (violation, objectives) vectors — instead of
	// individuals: groupOf/gRep/gSize/gHash/gTable find the groups,
	// gDom holds each group's dominated groups, gmStart/gMembers list
	// each group's members, and zbuf batches individuals whose
	// domination count hits zero so fronts keep the reference order.
	objCol    [][]float64
	objColBuf []float64
	vfW       []uint64
	// relationBatch scratch: per-element better-than flags and the
	// relation output block of the pairwise builder.
	batchIB  []uint8
	batchJB  []uint8
	relOut   []int8
	domCount []int32
	groupOf  []int32
	gRep     []int32
	gSize    []int32
	gCur     []int32
	gHash    []uint64
	gTable   []int32
	gMask    uint64
	gDom     [][]int32
	gmStart  []int32
	gMembers []int32
	zbuf     []int
	fronts   [][]int
	frontBuf []int
	crowdIdx []int
	rest     []int
	oSort    objSorter
	cSort    crowdSorter

	// Sorted-ranking scratch (the ENS path; see buildFrontsSorted):
	// group ids in dominance-compatible sorted order, per-front
	// linked-list heads and per-group next links, the per-group unlock
	// positions and final last-member positions used to reconstruct
	// the reference front order, and the previous/current front group
	// lists of the reconstruction sweep. forcePairwise pins the
	// retained pair-relation path (the property-test oracle and the
	// NaN fallback) for tests and benchmarks.
	sGroups       []int32
	gFrontOf      []int32
	gHead         []int32
	gNext         []int32
	gP            []int32
	gLastPos      []int32
	gPrevF        []int32
	gCurF         []int32
	gSortLex      lexSorter
	gSortPos      posSorter
	fSort         frontSorter
	forcePairwise bool

	// store is the engine's chunked objective arena: cache entries'
	// objective and aux vectors are carved from it instead of being
	// boxed one allocation each (checkpoint rehydration, warm hits and
	// live evaluation all intern through it). Chunks are never
	// reallocated, so carved slices stay valid for the engine's
	// lifetime.
	store objStore

	// Instrumentation counters (see Stats).
	cacheHits int64
	warmHits  int64
	relations int64
}

// offMeta is one offspring's variation-pipeline record: the genomes
// of its copy source p1 and its mate p2, aliasing the current
// population slab (valid through the generation's evaluation).
type offMeta struct {
	p1, p2 []byte
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
	e.evaluateBatch(e.rowRefs, nil, e.popBuf)
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
	P, gl, m := cfg.PopSize, p.GenomeLen(), p.NumObjectives()
	e := &Engine{
		p:     p,
		cfg:   cfg,
		gl:    gl,
		nObj:  m,
		size:  P,
		cache: newGenomeCache(),

		popBuf:   make([]Individual, P),
		nextBuf:  make([]Individual, P),
		offBuf:   make([]Individual, P),
		merged:   make([]Individual, 0, 2*P),
		curSlab:  make([]byte, P*gl),
		nextSlab: make([]byte, P*gl),
		offSlab:  make([]byte, P*gl),

		rowRefs:  make([][]byte, 0, P),
		jobs:     make([]int, 0, P),
		entryIdx: make([]int, 0, P),
		offMeta:  make([]offMeta, 0, P),
		jobP1:    make([][]byte, 0, P),
		jobP2:    make([][]byte, 0, P),

		objCol:    make([][]float64, m),
		objColBuf: make([]float64, 2*P*m),
		vfW:       make([]uint64, 2*P),
		batchIB:   make([]uint8, 2*P),
		batchJB:   make([]uint8, 2*P),
		relOut:    make([]int8, 2*P),
		domCount:  make([]int32, 2*P),
		groupOf:   make([]int32, 2*P),
		gRep:      make([]int32, 2*P),
		gSize:     make([]int32, 2*P),
		gCur:      make([]int32, 2*P),
		gHash:     make([]uint64, 2*P),
		gDom:      make([][]int32, 2*P),
		gmStart:   make([]int32, 2*P+1),
		gMembers:  make([]int32, 2*P),
		zbuf:      make([]int, 0, 2*P),
		frontBuf:  make([]int, 0, 2*P),
		crowdIdx:  make([]int, 2*P),
		rest:      make([]int, 0, 2*P),
	}
	for k := 0; k < m; k++ {
		e.objCol[k] = e.objColBuf[k*2*P : (k+1)*2*P : (k+1)*2*P]
	}
	// The group hash table stays at most half full at 4*P slots.
	gt := 1
	for gt < 4*P {
		gt *= 2
	}
	e.gTable = make([]int32, gt)
	e.gMask = uint64(gt - 1)
	e.ensureSortScratch(2 * P)
	e.rng, e.src = newCountedRNG(cfg.Seed)
	e.views = make([]Problem, max(1, cfg.Workers))
	for w := range e.views {
		if pw, ok := p.(PerWorkerProblem); ok {
			e.views[w] = pw.NewWorker()
		} else {
			e.views[w] = p
		}
	}
	return e, nil
}

func (e *Engine) curRow(i int) []byte {
	return e.curSlab[i*e.gl : (i+1)*e.gl : (i+1)*e.gl]
}

func (e *Engine) offRow(i int) []byte {
	return e.offSlab[i*e.gl : (i+1)*e.gl : (i+1)*e.gl]
}

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
	if e.cfg.OnGeneration != nil {
		e.cfg.OnGeneration(e.gen, e.pop)
	}
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
	for i := range e.cache.entries {
		ent := &e.cache.entries[i]
		if ent.violation == 0 {
			res.DistinctValid++
		}
		if e.cfg.ArchiveAll {
			res.Archive = append(res.Archive, ArchiveEntry{Genome: ent.key, Objs: ent.objs, Violation: ent.violation})
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

// evaluateBatch resolves a generation's genomes through the dedup
// cache, evaluating the distinct new ones — in parallel when there is
// more than one view — and writes the individuals into out (one per
// genome, same order). meta, when non-nil, is the per-offspring
// variation record (same order as genomes), handed to EvaluateInto as
// the parent hints; Config.WarmLookup can short-circuit a miss
// entirely. Cache insertion order, counters and results are identical
// however the jobs are spread over the views.
func (e *Engine) evaluateBatch(genomes [][]byte, meta []offMeta, out []Individual) {
	e.jobs = e.jobs[:0]
	e.entryIdx = e.entryIdx[:0]
	e.jobP1 = e.jobP1[:0]
	e.jobP2 = e.jobP2[:0]
	for gi, g := range genomes {
		idx, ok := e.cache.lookup(g)
		if ok {
			e.cacheHits++
		} else {
			idx = e.cache.insert(g)
			if e.cfg.WarmLookup != nil {
				if objs, viol, warm := e.cfg.WarmLookup(g); warm {
					// Warm hit: the entry is resolved without any
					// evaluation work; counters and archive order are
					// untouched. The vector is interned into the
					// engine's arena, so the lookup may alias its own
					// storage instead of detaching a copy per hit.
					e.warmHits++
					ent := &e.cache.entries[idx]
					ent.objs, ent.violation = e.store.intern(objs), viol
					e.entryIdx = append(e.entryIdx, idx)
					continue
				}
			}
			// Arena row for the objective write-out: carved serially
			// here so the concurrent fill below never touches the store.
			e.cache.entries[idx].objs = e.store.alloc(e.nObj)
			e.jobs = append(e.jobs, idx)
			var p1, p2 []byte
			if meta != nil {
				p1, p2 = meta[gi].p1, meta[gi].p2
			}
			e.jobP1 = append(e.jobP1, p1)
			e.jobP2 = append(e.jobP2, p2)
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
			go func(view Problem) {
				defer wg.Done()
				e.fillJobs(view)
			}(e.views[w])
		}
		wg.Wait()
	} else {
		e.fillJobs(e.views[0])
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

// fillJobs evaluates batch jobs through one view until none are left.
// Each view pulls job indices from the shared atomic counter and keeps
// its own evaluation state for the whole batch; results land at their
// entry, so scheduling order cannot influence the outcome.
func (e *Engine) fillJobs(view Problem) {
	for {
		i := int(e.nextJob.Add(1)) - 1
		if i >= len(e.jobs) {
			return
		}
		ent := &e.cache.entries[e.jobs[i]]
		ent.violation = view.EvaluateInto(ent.objs, ent.key, e.jobP1[i], e.jobP2[i])
	}
}

// makeOffspring builds PopSize children by binary tournament,
// two-point crossover and mutation into the offspring slab, recording
// each offspring's mating parents for the evaluation hints. The
// genetic operators run serially (they consume the engine's PRNG);
// evaluation is batched.
func (e *Engine) makeOffspring() []Individual {
	e.rowRefs = e.rowRefs[:0]
	e.offMeta = e.offMeta[:0]
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
		e.offMeta = append(e.offMeta,
			offMeta{p1: p1.Genome, p2: p2.Genome},
			offMeta{p1: p2.Genome, p2: p1.Genome})
		e.rowRefs = append(e.rowRefs, c1, c2)
	}
	e.evaluateBatch(e.rowRefs, e.offMeta, e.offBuf)
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

// mutate applies the configured mutation operator in place.
func (e *Engine) mutate(g []byte) {
	if e.cfg.PerBitMutation > 0 {
		for i := range g {
			if e.rng.Float64() < e.cfg.PerBitMutation {
				g[i] ^= 1
			}
		}
		return
	}
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
		rest := append(e.rest[:0], front...)
		e.cSort.ind, e.cSort.idx = m, rest
		sort.Stable(&e.cSort)
		e.cSort.ind, e.cSort.idx = nil, nil
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

// rankAndCrowd assigns ranks and crowding distances in place and
// returns the fronts (aliasing engine scratch, valid until the next
// call). It produces bit-identical results to the reference
// fastNonDominatedSort + assignCrowding pair, but runs the pairwise
// dominance pass over DUPLICATE GROUPS: individuals whose (violation,
// objectives) vectors are bit-identical relate identically to
// everyone else, so one representative relation per group pair
// replaces up to |a|*|b| individual relations. GA populations carry
// heavy duplication (every infeasible individual of one violation
// grade is one group), which shrinks the O(n^2) term by the square of
// the duplication factor. Fronts, their member order, ranks and
// crowding are unchanged: group members share one domination count
// and one dominated set, so they enter the same front, and
// individuals whose count hits zero under one dominator are appended
// in ascending index order exactly like the reference's ascending
// dominated lists produce.
func (e *Engine) rankAndCrowd(m []Individual) [][]int {
	n, mo := len(m), e.nObj
	clean := true
	for i := 0; i < n; i++ {
		v := m[i].Violation
		e.vfW[i] = math.Float64bits(v)
		if v != v {
			clean = false
		}
	}
	// Scatter the interleaved Individual.Objs into per-objective
	// columns (zero-padding short vectors, like the row copy used to).
	for k := 0; k < mo; k++ {
		col := e.objCol[k]
		for i := 0; i < n; i++ {
			var x float64
			if k < len(m[i].Objs) {
				x = m[i].Objs[k]
			}
			col[i] = x
			if x != x {
				clean = false
			}
		}
	}
	G := e.groupIndividuals(n)

	// Per-group member lists (counting sort; members ascend within a
	// group because individuals are scanned in index order). Both
	// front builders consume them.
	e.gmStart[0] = 0
	for g := 0; g < G; g++ {
		e.gmStart[g+1] = e.gmStart[g] + e.gSize[g]
		e.gCur[g] = e.gmStart[g]
	}
	for i := 0; i < n; i++ {
		g := e.groupOf[i]
		e.gMembers[e.gCur[g]] = int32(i)
		e.gCur[g]++
	}

	// The ENS sort-based builder needs the lexicographic pre-sort's
	// "dominator sorts first" invariant, which NaN payloads break; the
	// pair-relation builder (also the property-test oracle) compares
	// NaN exactly like the reference, so it stays the fallback.
	if clean && !e.forcePairwise {
		e.buildFrontsSorted(n, G)
	} else {
		e.buildFrontsPairwise(n, G)
	}
	for rank, front := range e.fronts {
		for _, i := range front {
			m[i].Rank = rank
		}
		e.assignCrowdingScratch(m, front)
	}
	return e.fronts
}

// buildFrontsPairwise is the retained pair-relation front builder: an
// all-pairs relation pass over the group representatives followed by
// the classic domination-count peel. It is the oracle the sort-based
// builder is property-tested against and the fallback for populations
// carrying NaN objectives or violations.
func (e *Engine) buildFrontsPairwise(n, G int) {
	for i := 0; i < n; i++ {
		e.domCount[i] = 0
	}

	// Group-representative relation pass: one batched relation block
	// per representative against every later representative (gRep is
	// already the index block relationBatch wants).
	for g := 0; g < G; g++ {
		e.gDom[g] = e.gDom[g][:0]
	}
	for a := 0; a < G; a++ {
		js := e.gRep[a+1 : G]
		if len(js) == 0 {
			break
		}
		e.ensureBatchScratch(len(js))
		out := e.relOut[:len(js)]
		e.relationBatch(int(e.gRep[a]), js, out)
		for t, r := range out {
			switch r {
			case 1:
				e.gDom[a] = append(e.gDom[a], int32(a+1+t))
			case -1:
				e.gDom[a+1+t] = append(e.gDom[a+1+t], int32(a))
			}
		}
	}

	// Expanded per-individual domination counts.
	for a := 0; a < G; a++ {
		sz := e.gSize[a]
		for _, b := range e.gDom[a] {
			for _, j := range e.gMembers[e.gmStart[b]:e.gmStart[b+1]] {
				e.domCount[j] += sz
			}
		}
	}

	// Build the fronts as consecutive runs of one flat index buffer:
	// every individual lands in exactly one front, so frontBuf never
	// outgrows its n-capacity and the per-front slices stay valid.
	// Processing a front member decrements every individual its group
	// dominates; the batch whose count reaches zero under this member
	// is appended in ascending index order, which is exactly the order
	// the reference's ascending dominated[i] list yields.
	fb := e.frontBuf[:0]
	for i := 0; i < n; i++ {
		if e.domCount[i] == 0 {
			fb = append(fb, i)
		}
	}
	e.fronts = e.fronts[:0]
	for start := 0; start < len(fb); {
		end := len(fb)
		for _, i := range fb[start:end] {
			gd := e.gDom[e.groupOf[i]]
			if len(gd) == 0 {
				continue
			}
			z := e.zbuf[:0]
			for _, b := range gd {
				for _, j := range e.gMembers[e.gmStart[b]:e.gmStart[b+1]] {
					e.domCount[j]--
					if e.domCount[j] == 0 {
						z = append(z, int(j))
					}
				}
			}
			sort.Ints(z)
			fb = append(fb, z...)
		}
		e.fronts = append(e.fronts, fb[start:end:end])
		start = end
	}
}

// ensureSortScratch sizes the ENS path's scratch for populations up to
// n. NewEngine pre-sizes it for 2*PopSize; hand-built test engines hit
// the lazy growth instead.
func (e *Engine) ensureSortScratch(n int) {
	if cap(e.sGroups) >= n {
		return
	}
	e.sGroups = make([]int32, 0, n)
	e.gFrontOf = make([]int32, n)
	e.gHead = make([]int32, n)
	e.gNext = make([]int32, n)
	e.gP = make([]int32, n)
	e.gLastPos = make([]int32, n)
	e.gPrevF = make([]int32, 0, n)
	e.gCurF = make([]int32, 0, n)
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
// uniformly, i.e. ascend by index. The pair-relation oracle
// (buildFrontsPairwise) pins all of this bit-for-bit in the property
// tests.
func (e *Engine) buildFrontsSorted(n, G int) {
	e.ensureSortScratch(n)
	sg := e.sGroups[:0]
	for g := 0; g < G; g++ {
		sg = append(sg, int32(g))
	}
	e.gSortLex.e, e.gSortLex.ids = e, sg
	sort.Sort(&e.gSortLex)
	e.gSortLex.e, e.gSortLex.ids = nil, nil

	// Feasible prefix: sequential-search ENS insertion.
	numFronts := 0
	k := 0
	for ; k < len(sg); k++ {
		g := int(sg[k])
		rg := int(e.gRep[g])
		if !feasWord(e.vfW[rg]) {
			break
		}
		f := 0
		for ; f < numFronts; f++ {
			dominated := false
			for h := e.gHead[f]; h >= 0; h = e.gNext[h] {
				if e.relation(int(e.gRep[h]), rg) == 1 {
					dominated = true
					break
				}
			}
			if !dominated {
				break
			}
		}
		if f == numFronts {
			e.gHead[numFronts] = -1
			numFronts++
		}
		e.gFrontOf[g] = int32(f)
		e.gNext[g] = e.gHead[f]
		e.gHead[f] = int32(g)
	}
	nf := numFronts // number of feasible fronts

	// Infeasible suffix: one front per distinct violation value,
	// ascending, strictly after every feasible front.
	for prev := 0.0; k < len(sg); k++ {
		g := int(sg[k])
		v := math.Float64frombits(e.vfW[e.gRep[g]])
		if numFronts == nf || v > prev {
			e.gHead[numFronts] = -1
			numFronts++
		}
		prev = v
		f := numFronts - 1
		e.gFrontOf[g] = int32(f)
		e.gNext[g] = e.gHead[f]
		e.gHead[f] = int32(g)
	}

	// Reconstruction sweep: finalize each front's member order, then
	// stage its groups (descending last-member position) as the next
	// front's dominator scan order.
	fb := e.frontBuf[:0]
	e.fronts = e.fronts[:0]
	prevG := e.gPrevF[:0]
	for f := 0; f < numFronts; f++ {
		cur := e.gCurF[:0]
		for h := e.gHead[f]; h >= 0; h = e.gNext[h] {
			cur = append(cur, h)
		}
		if f == 0 || f >= nf {
			// Front 0 has no dominators; an infeasible front is
			// dominated by EVERY group of the previous front, so its
			// members all unlock at that front's final position.
			// Either way the order is ascending index.
			for _, g := range cur {
				e.gP[g] = 0
			}
		} else {
			for _, g := range cur {
				rg := int(e.gRep[g])
				var P int32
				for _, d := range prevG {
					if e.relation(int(e.gRep[d]), rg) == 1 {
						P = e.gLastPos[d]
						break
					}
				}
				e.gP[g] = P
			}
		}
		start := len(fb)
		for _, g := range cur {
			for _, j := range e.gMembers[e.gmStart[g]:e.gmStart[g+1]] {
				fb = append(fb, int(j))
			}
		}
		seg := fb[start:len(fb):len(fb)]
		e.fSort.e, e.fSort.idx = e, seg
		sort.Sort(&e.fSort)
		e.fSort.e, e.fSort.idx = nil, nil
		e.fronts = append(e.fronts, seg)
		if f+1 < nf {
			for pos, i := range seg {
				e.gLastPos[e.groupOf[i]] = int32(pos)
			}
			prevG = append(e.gPrevF[:0], cur...)
			e.gSortPos.e, e.gSortPos.ids = e, prevG
			sort.Sort(&e.gSortPos)
			e.gSortPos.e, e.gSortPos.ids = nil, nil
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
func (e *Engine) groupIndividuals(n int) int {
	for i := range e.gTable {
		e.gTable[i] = 0
	}
	mo := e.nObj
	G := 0
	for i := 0; i < n; i++ {
		const offset64, prime64 = 14695981039346656037, 1099511628211
		h := uint64(offset64)
		h = (h ^ e.vfW[i]) * prime64
		for k := 0; k < mo; k++ {
			h = (h ^ math.Float64bits(e.objCol[k][i])) * prime64
		}
		h ^= h >> 29 // finalize: spread the low bits the probe uses
		for slot := h & e.gMask; ; slot = (slot + 1) & e.gMask {
			t := e.gTable[slot]
			if t == 0 {
				e.gRep[G] = int32(i)
				e.gSize[G] = 1
				e.gHash[G] = h
				e.groupOf[i] = int32(G)
				e.gTable[slot] = int32(G + 1)
				G++
				break
			}
			g := int(t - 1)
			if e.gHash[g] == h && e.sameVector(int(e.gRep[g]), i) {
				e.gSize[g]++
				e.groupOf[i] = int32(g)
				break
			}
		}
	}
	return G
}

// sameVector reports bit-identity of two scratch rows' (violation,
// objectives) vectors.
func (e *Engine) sameVector(a, b int) bool {
	if e.vfW[a] != e.vfW[b] {
		return false
	}
	for k := 0; k < e.nObj; k++ {
		col := e.objCol[k]
		if math.Float64bits(col[a]) != math.Float64bits(col[b]) {
			return false
		}
	}
	return true
}

// feasWord reports the feasibility packed into a violation word: the
// word is the violation's IEEE-754 bits, so violation == ±0 (the
// `v == 0` feasibility rule) means every bit but the sign is clear. A
// NaN violation has payload bits set and correctly reads infeasible.
func feasWord(w uint64) bool { return w<<1 == 0 }

// relation decides one unordered pair under Deb's constraint
// dominance: 1 if i dominates j, -1 if j dominates i, 0 otherwise.
// Exactly equivalent to evaluating the reference dominates in both
// directions.
func (e *Engine) relation(i, j int) int {
	e.relations++
	wi, wj := e.vfW[i], e.vfW[j]
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
	mo := e.nObj
	// The common widths (the 2- and 3-objective sets) compare unrolled:
	// both better-than flags are folded over the whole vector with
	// short-circuit ORs instead of the flagged scan. The final decision
	// — both flags 0, one flag 1/-1 — is exactly what the reference
	// early-exit loop returns (it only returns 0 sooner, never a
	// different value), including under NaN, where every comparison is
	// false and both flags stay clear.
	var iBetter, jBetter bool
	switch mo {
	case 2:
		c0, c1 := e.objCol[0], e.objCol[1]
		iBetter = c0[i] < c0[j] || c1[i] < c1[j]
		jBetter = c0[i] > c0[j] || c1[i] > c1[j]
	case 3:
		c0, c1, c2 := e.objCol[0], e.objCol[1], e.objCol[2]
		iBetter = c0[i] < c0[j] || c1[i] < c1[j] || c2[i] < c2[j]
		jBetter = c0[i] > c0[j] || c1[i] > c1[j] || c2[i] > c2[j]
	case 4:
		c0, c1, c2, c3 := e.objCol[0], e.objCol[1], e.objCol[2], e.objCol[3]
		iBetter = c0[i] < c0[j] || c1[i] < c1[j] || c2[i] < c2[j] || c3[i] < c3[j]
		jBetter = c0[i] > c0[j] || c1[i] > c1[j] || c2[i] > c2[j] || c3[i] > c3[j]
	default:
		for k := 0; k < mo; k++ {
			col := e.objCol[k]
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

// ensureBatchScratch sizes the relationBatch flag and output buffers
// for blocks up to n. NewEngine pre-sizes them for 2*PopSize;
// hand-built test engines hit the lazy growth instead.
func (e *Engine) ensureBatchScratch(n int) {
	if len(e.batchIB) >= n {
		return
	}
	e.batchIB = make([]uint8, n)
	e.batchJB = make([]uint8, n)
	e.relOut = make([]int8, n)
}

// b2u8 converts a comparison result to a flag byte; the compiler turns
// it into a branch-free SETcc, keeping the column folds below tight.
func b2u8(b bool) uint8 {
	if b {
		return 1
	}
	return 0
}

// relationBatch computes relation(i, j) for a whole block of
// candidates j at once, writing one int8 per element of js into out
// (len(out) must be at least len(js)). Instead of finishing one pair
// before starting the next, it folds each objective COLUMN across the
// entire block — contiguous loads of col[js[t]] against one scalar
// col[i], with branch-free flag ORs the compiler can vectorize — and
// only then combines the flags with the packed violation words into
// the Deb verdicts. Per element the fold accumulates the same two
// better-than flags the scalar relation's unrolled OR folds produce
// (NaN included: every NaN comparison is false, so both flags stay
// clear), and the combine replays relation's feasibility/violation
// ladder exactly, so out[t] == relation(i, js[t]) bit-for-bit — the
// property tests pin this against the scalar kernel.
func (e *Engine) relationBatch(i int, js []int32, out []int8) {
	n := len(js)
	if n == 0 {
		return
	}
	e.relations += int64(n)
	e.ensureBatchScratch(n)
	iB, jB := e.batchIB[:n], e.batchJB[:n]
	for t := range iB {
		iB[t], jB[t] = 0, 0
	}
	for k := 0; k < e.nObj; k++ {
		col := e.objCol[k]
		a := col[i]
		for t, j := range js {
			b := col[j]
			iB[t] |= b2u8(a < b)
			jB[t] |= b2u8(a > b)
		}
	}
	wi := e.vfW[i]
	fi := feasWord(wi)
	vi := math.Float64frombits(wi)
	for t, j := range js {
		wj := e.vfW[j]
		fj := feasWord(wj)
		switch {
		case fi != fj:
			if fi {
				out[t] = 1
			} else {
				out[t] = -1
			}
		case !fi:
			vj := math.Float64frombits(wj)
			switch {
			case vi < vj:
				out[t] = 1
			case vj < vi:
				out[t] = -1
			default:
				out[t] = 0
			}
		default:
			out[t] = int8(iB[t]) - int8(jB[t])
		}
	}
}

// assignCrowdingScratch mirrors the reference assignCrowding on the
// engine's flat objective buffer with a preallocated index slice and
// an allocation-free stable sort.
func (e *Engine) assignCrowdingScratch(m []Individual, front []int) {
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
	mo := e.nObj
	idx := e.crowdIdx[:len(front)]
	for obj := 0; obj < mo; obj++ {
		col := e.objCol[obj]
		copy(idx, front)
		e.oSort.idx, e.oSort.col = idx, col
		sort.Stable(&e.oSort)
		e.oSort.idx, e.oSort.col = nil, nil
		lo := col[idx[0]]
		hi := col[idx[len(idx)-1]]
		spread := hi - lo
		m[idx[0]].Crowding = math.Inf(1)
		m[idx[len(idx)-1]].Crowding = math.Inf(1)
		if spread <= 0 || math.IsInf(spread, 0) || math.IsNaN(spread) {
			// Degenerate axis (all equal, or infeasible front at
			// +Inf): contributes nothing.
			continue
		}
		for k := 1; k < len(idx)-1; k++ {
			d := (col[idx[k+1]] - col[idx[k-1]]) / spread
			if !math.IsInf(m[idx[k]].Crowding, 1) {
				m[idx[k]].Crowding += d
			}
		}
	}
}

// objSorter stable-sorts an index slice by one objective column —
// contiguous keyed loads, no stride arithmetic. A stable sort's output
// is uniquely determined by the comparator, so sort.Stable here
// reproduces the reference sort.SliceStable exactly — without the
// reflection swapper's allocations.
type objSorter struct {
	idx []int
	col []float64
}

func (s *objSorter) Len() int { return len(s.idx) }
func (s *objSorter) Less(a, b int) bool {
	return s.col[s.idx[a]] < s.col[s.idx[b]]
}
func (s *objSorter) Swap(a, b int) { s.idx[a], s.idx[b] = s.idx[b], s.idx[a] }

// crowdSorter stable-sorts a front's index slice by descending
// crowding distance for the survival truncation.
type crowdSorter struct {
	ind []Individual
	idx []int
}

func (s *crowdSorter) Len() int { return len(s.idx) }
func (s *crowdSorter) Less(a, b int) bool {
	return s.ind[s.idx[a]].Crowding > s.ind[s.idx[b]].Crowding
}
func (s *crowdSorter) Swap(a, b int) { s.idx[a], s.idx[b] = s.idx[b], s.idx[a] }

// lexSorter orders group ids so that any dominator sorts strictly
// before everything it dominates: feasible groups first, ascending by
// lexicographic objective vector, then infeasible groups ascending by
// violation; exact numeric ties fall back to first-seen group order,
// giving a deterministic total order. Correct only for NaN-free
// populations (rankAndCrowd guards).
type lexSorter struct {
	e   *Engine
	ids []int32
}

func (s *lexSorter) Len() int { return len(s.ids) }
func (s *lexSorter) Less(a, b int) bool {
	e := s.e
	ga, gb := s.ids[a], s.ids[b]
	ra, rb := int(e.gRep[ga]), int(e.gRep[gb])
	wa, wb := e.vfW[ra], e.vfW[rb]
	fa, fb := feasWord(wa), feasWord(wb)
	if fa != fb {
		return fa
	}
	if !fa {
		va, vb := math.Float64frombits(wa), math.Float64frombits(wb)
		if va != vb {
			return va < vb
		}
		return ga < gb
	}
	for k := 0; k < e.nObj; k++ {
		col := e.objCol[k]
		if col[ra] != col[rb] {
			return col[ra] < col[rb]
		}
	}
	return ga < gb
}
func (s *lexSorter) Swap(a, b int) { s.ids[a], s.ids[b] = s.ids[b], s.ids[a] }

// posSorter orders a front's group ids by descending final
// last-member position, the scan order of the next front's unlock-
// position search. Positions are distinct, so the order is strict.
type posSorter struct {
	e   *Engine
	ids []int32
}

func (s *posSorter) Len() int { return len(s.ids) }
func (s *posSorter) Less(a, b int) bool {
	return s.e.gLastPos[s.ids[a]] > s.e.gLastPos[s.ids[b]]
}
func (s *posSorter) Swap(a, b int) { s.ids[a], s.ids[b] = s.ids[b], s.ids[a] }

// frontSorter orders one front's individuals by (unlock position,
// index): the previous-front position after which the individual's
// domination count reaches zero, then ascending index within the
// batch — the reference append order.
type frontSorter struct {
	e   *Engine
	idx []int
}

func (s *frontSorter) Len() int { return len(s.idx) }
func (s *frontSorter) Less(a, b int) bool {
	e := s.e
	ia, ib := s.idx[a], s.idx[b]
	pa, pb := e.gP[e.groupOf[ia]], e.gP[e.groupOf[ib]]
	if pa != pb {
		return pa < pb
	}
	return ia < ib
}
func (s *frontSorter) Swap(a, b int) { s.idx[a], s.idx[b] = s.idx[b], s.idx[a] }

// Stats is a snapshot of the engine's instrumentation counters: how
// evaluations were served (dedup cache, warm lookup, or the problem's
// kernels, split by path when the problem implements StatsProblem) and
// how many pairwise dominance relations the ranking compared. The
// counters observe the incremental paths' engagement; they are NOT
// part of the reproducibility contract — with Workers > 1 the
// kernel-path split depends on which view evaluated which genome.
type Stats struct {
	// Evaluations and CacheHits mirror the run counters: total genome
	// evaluations requested, and how many were served by the dedup
	// cache without touching the problem.
	Evaluations int64
	CacheHits   int64
	// WarmHits counts cache misses short-circuited by Config.WarmLookup.
	WarmHits int64
	// RelationsCompared counts Deb-dominance pair comparisons across
	// both front builders.
	RelationsCompared int64
	// Eval is the problem-side kernel-path split, zero-valued when the
	// problem does not implement StatsProblem.
	Eval EvalStats
}

// Stats returns the engine's instrumentation counters.
func (e *Engine) Stats() Stats {
	s := Stats{
		Evaluations:       int64(e.evals),
		CacheHits:         e.cacheHits,
		WarmHits:          e.warmHits,
		RelationsCompared: e.relations,
	}
	if sp, ok := e.p.(StatsProblem); ok {
		s.Eval = sp.EvalStats()
	}
	return s
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
