// Command wadate reproduces the evaluation section of "Performance
// and Energy Aware Wavelength Allocation on Ring-Based WDM 3D Optical
// NoC" (Luo et al., DATE 2017): it runs the NSGA-II wavelength
// allocation exploration on the paper's virtual application and
// renders each table and figure as text, optionally dumping CSV for
// external plotting.
//
// Usage:
//
//	wadate [flags]
//
//	-exp string       experiment: all, summary, table1, table2, fig6a,
//	                  fig6b, fig7, app, convergence, robustness,
//	                  sensitivity (default "all")
//	-nw string        comma-separated comb sizes (default "4,8,12")
//	-pop int          GA population size (default 400, the paper's)
//	-gens int         GA generations (default 300, the paper's)
//	-seed int         PRNG seed (default 42)
//	-seeds int        seed count for -exp robustness (default 5)
//	-workers int      parallel evaluation goroutines (results identical)
//	-quick            use the reduced smoke-test configuration
//	-csv string       write all fronts (and the NW=8 cloud) to this file
//
// A flag the chosen experiment does not read is rejected with exit
// status 2: table1, app and sensitivity print fixed results and take
// none of -nw, -pop, -gens, -seed, -workers, -seeds or -csv;
// convergence takes neither -workers nor -csv, robustness no -csv, and
// only robustness takes -seeds.
//
// Eval mode scores one chromosome and prints the canonical JSON
// response — the exact bytes the waserve daemon returns for the same
// request, which CI verifies with a literal diff:
//
//	-eval             evaluate a single chromosome instead of running
//	                  an experiment suite
//	-genome string    the chromosome, "1000/0001/..." (slashes and
//	                  spaces optional)
//	-backend string   optical fabric backend (default "ring")
//	-workload string  workload spec (default "paper")
//
// Eval mode takes exactly one comb size via -nw.
//
// Campaign mode fans a whole sweep of independent cells — the cross
// product of comb sizes, objective sets, workloads and replicate
// seeds — across a bounded pool of cell workers. Results and
// artifacts are bit-for-bit independent of the worker counts. Every
// cell's projected-front genomes are cross-run on the
// cycle-resolution simulator; the "sim viol" column (and the
// sim_checked/sim_violations JSON fields) must stay at zero
// violations:
//
//	-campaign         run a campaign instead of a single suite
//	-backends string  comma-separated optical fabric backends: ring,
//	                  crossbar (default "ring"). With more than one,
//	                  the campaign sweeps every cell per backend and
//	                  the artifacts gain a backend column, so one run
//	                  directly compares ring vs multi-layer crossbar
//	                  Pareto fronts. Unknown names are rejected up
//	                  front with exit status 2.
//	-cellworkers int  cells explored concurrently (default 1)
//	-reps int         replicate seeds per cell (default 1)
//	-objsets string   comma-separated objective sets: teb, te, tb
//	                  (default "teb")
//	-warmstart        seed every cell's GA with the heuristic
//	                  allocations
//	-workloads string comma-separated workloads: paper, chain<N>,
//	                  forkjoin<W>, fft<N>, gauss<N>, diamond<N>
//	                  (default "paper"). Specs above 16 tasks (e.g.
//	                  chain32, fft64, gauss8) get load-balanced
//	                  shared-core mappings, serialized per core.
//	-json string      write the campaign JSON artifact to this file
//	-csv string       write the campaign CSV table to this file
//	-stats            record per-cell engine instrumentation (kernel
//	                  path split, cache hits, dominance comparisons)
//	                  in the JSON artifact and print one
//	                  JSON line per cell (with the backend column
//	                  whenever a non-default backend is swept) plus an
//	                  aggregate line; the counters depend on worker
//	                  scheduling, so artifacts are no longer
//	                  byte-identical across runs with -stats
//	-islands int      split every cell's GA into N islands that
//	                  exchange their top genomes on a ring at fixed
//	                  generation boundaries; reproducible for a given
//	                  (seed, islands, interval, top-k). An island cell
//	                  runs whole in one process (one worker under
//	                  -distribute) and writes no mid-cell snapshots,
//	                  so an interrupted one re-runs from scratch
//	-migrate-every int  island migration period in generations
//	                  (default 25; needs -islands > 1)
//	-migrate-k int    emigrant genomes per island per migration
//	                  (default 3; needs -islands > 1)
//
// Distributed mode shards the same campaign across worker processes
// over a length-prefixed TCP protocol. The checkpoint formats double
// as the wire format: workers stream back the exact cell-N.json and
// cell-N.ckpt bytes an in-process run stores, so the
// coordinator's directory — and the JSON/CSV/summary artifacts
// rendered from it — are byte-identical to a single-process run's. A
// worker killed mid-cell loses only the tail since its last streamed
// snapshot: the coordinator reassigns the cell, resume bytes
// included, to the next free worker. Workers validate the campaign
// manifest byte-for-byte before accepting work; a mismatch (e.g.
// mixed binary versions) fails loudly on both ends:
//
//	-distribute addr:port  coordinate the campaign at this address
//	                       (implies -campaign, needs -checkpoint-dir;
//	                       parallelism is the number of workers)
//	-worker addr:port      run as a worker for that coordinator; all
//	                       configuration arrives over the wire.
//	                       -halt-after-checkpoints N makes the worker
//	                       crash (exit 3) after streaming N snapshots
//
// Long campaigns survive preemption with durable checkpoints: the
// campaign manifest, per-cell completion records and in-flight GA
// snapshots live in -checkpoint-dir (atomic tmp+rename writes), and a
// killed run resumes mid-cell with -resume. A resumed campaign's
// JSON/CSV artifacts are byte-identical to an uninterrupted run's —
// CI enforces this with the resume-equivalence job:
//
//	-checkpoint-dir dir    maintain durable campaign checkpoints in dir
//	-checkpoint-every int  generations between in-flight snapshots
//	                       (default 25)
//	-resume                continue the campaign recorded in
//	                       -checkpoint-dir (its manifest must match the
//	                       flags exactly; mismatches fail loudly)
//	-halt-after-checkpoints int
//	                       crash-test aid: exit the process (status 3,
//	                       no artifacts) after the Nth checkpoint write,
//	                       simulating preemption deterministically
//
// Flag combinations that cannot work — a checkpoint-dependent flag
// without -checkpoint-dir, or -resume against a directory holding no
// campaign manifest — are rejected up front with exit status 2,
// before any cell runs.
//
// Profiling flags apply in every mode, so hot-path regressions can be
// diagnosed straight from a campaign run without editing code:
//
//	-cpuprofile file  write a CPU profile of the run to file
//	-memprofile file  write an allocation (heap) profile taken at the
//	                  end of the run to file
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"slices"
	"time"

	"repro/internal/cliutil"
	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/expt"
	"repro/internal/graph"
	"repro/internal/serve"
)

// -quick's reduced smoke-test configuration.
const quickPop, quickGens, quickSeed = 80, 60, 42

func main() {
	var (
		exp     = flag.String("exp", "all", "experiment: all, summary, table1, table2, fig6a, fig6b, fig7, app, convergence, robustness, sensitivity")
		nws     = flag.String("nw", "4,8,12", "comma-separated wavelength counts")
		pop     = flag.Int("pop", 400, "GA population size")
		gens    = flag.Int("gens", 300, "GA generations")
		seed    = flag.Int64("seed", 42, "PRNG seed")
		quick   = flag.Bool("quick", false, "reduced smoke-test configuration")
		csv     = flag.String("csv", "", "write solution CSV to this file (with -campaign: the flat campaign table)")
		seeds   = flag.Int("seeds", 5, "seed count for -exp robustness")
		workers = flag.Int("workers", 0, "parallel evaluation goroutines (0 = serial; results identical)")

		evalMode = flag.Bool("eval", false, "evaluate a single chromosome and print the canonical JSON response")
		genome   = flag.String("genome", "", "chromosome for -eval, e.g. 1000/0001/0100 (slashes and spaces optional)")
		backend  = flag.String("backend", core.DefaultBackend, "optical fabric backend for -eval")
		workload = flag.String("workload", "paper", "workload spec for -eval: paper, chain<N>, forkjoin<W>, fft<N>, gauss<N>, diamond<N>")

		campaign    = flag.Bool("campaign", false, "run a campaign: the cross product of -backends, -nw, -objsets, -workloads and -reps")
		backends    = flag.String("backends", "ring", "comma-separated campaign optical fabric backends: ring, crossbar")
		cellworkers = flag.Int("cellworkers", 1, "campaign cells explored concurrently (results identical)")
		reps        = flag.Int("reps", 1, "campaign replicate seeds per cell")
		objsets     = flag.String("objsets", "teb", "comma-separated campaign objective sets: teb, te, tb")
		warmstart   = flag.Bool("warmstart", false, "seed every campaign cell's GA with the heuristic allocations")
		workloads   = flag.String("workloads", "paper", "comma-separated campaign workloads: paper, chain<N>, forkjoin<W>, fft<N>, gauss<N>, diamond<N> (>16-task specs share cores)")
		jsonPath    = flag.String("json", "", "write the campaign JSON artifact to this file")
		stats       = flag.Bool("stats", false, "record per-cell engine instrumentation in the campaign artifact and print an aggregate line (artifacts stop being byte-identical across runs)")

		checkpointDir   = flag.String("checkpoint-dir", "", "maintain durable campaign checkpoints in this directory")
		checkpointEvery = flag.Int("checkpoint-every", 0, "generations between in-flight cell snapshots (default 25 with -checkpoint-dir)")
		resume          = flag.Bool("resume", false, "resume the campaign recorded in -checkpoint-dir")
		haltAfter       = flag.Int("halt-after-checkpoints", 0, "crash-test aid: exit(3) after the Nth checkpoint write (simulated preemption); with -worker, crash after streaming N snapshots")

		distribute   = flag.String("distribute", "", "coordinate the campaign at this addr:port, sharding cells over connected -worker processes (implies -campaign, needs -checkpoint-dir)")
		workerAddr   = flag.String("worker", "", "run as a distributed campaign worker for the coordinator at this addr:port")
		islands      = flag.Int("islands", 0, "campaign island-model mode: split every cell's GA into N islands exchanging top genomes on a ring")
		migrateEvery = flag.Int("migrate-every", 0, "island migration period in generations (default 25; needs -islands > 1)")
		migrateK     = flag.Int("migrate-k", 0, "emigrant genomes per island per migration (default 3; needs -islands > 1)")

		cpuprofile = flag.String("cpuprofile", "", "write a CPU profile of the run to this file")
		memprofile = flag.String("memprofile", "", "write an end-of-run heap profile to this file")
	)
	flag.Parse()
	explicitly := map[string]bool{}
	flag.Visit(func(f *flag.Flag) { explicitly[f.Name] = true })

	// -quick supplies defaults only: explicitly passed -pop, -gens
	// and -seed win over it in both modes.
	if *quick {
		if !explicitly["pop"] {
			*pop = quickPop
		}
		if !explicitly["gens"] {
			*gens = quickGens
		}
		if !explicitly["seed"] {
			*seed = quickSeed
		}
	}

	// -distribute is campaign coordination; spelling out -campaign too
	// is redundant.
	*campaign = *campaign || *distribute != ""

	err := checkFlags(explicitly, modeFlags{
		exp: *exp, worker: *workerAddr, distribute: *distribute, checkpointDir: *checkpointDir,
		eval: *evalMode, campaign: *campaign, resume: *resume, haltAfter: *haltAfter,
	})
	var stopCPU func()
	if err == nil && *cpuprofile != "" {
		stopCPU, err = startCPUProfile(*cpuprofile)
	}
	if err == nil {
		switch {
		case *workerAddr != "":
			err = runWorker(*workerAddr, *haltAfter)
		case *evalMode:
			err = runEval(*genome, *backend, *workload, *nws)
		case *campaign:
			err = runCampaign(campaignOpts{
				nws: *nws, backends: *backends, pop: *pop, gens: *gens, seed: *seed,
				cellWorkers: *cellworkers, evalWorkers: *workers, reps: *reps,
				objsets: *objsets, workloads: *workloads,
				jsonPath: *jsonPath, csvPath: *csv, warmStart: *warmstart,
				checkpointDir: *checkpointDir, checkpointEvery: *checkpointEvery,
				resume: *resume, haltAfter: *haltAfter,
				stats: *stats, distribute: *distribute,
				islands: *islands, migrateEvery: *migrateEvery, migrateK: *migrateK,
			})
		default:
			err = run(*exp, *nws, *pop, *gens, *seed, *csv, *seeds, *workers)
		}
	}
	if stopCPU != nil {
		stopCPU()
	}
	if err == nil && *memprofile != "" {
		err = writeMemProfile(*memprofile)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "wadate: %v\n", err)
		if errors.Is(err, dist.ErrWorkerHalted) {
			os.Exit(3)
		}
		os.Exit(cliutil.ExitStatus(err))
	}
}

// runEval scores one chromosome through serve.EvaluateLocal — the
// daemon's own resolve/evaluate/render path — and prints the canonical
// response bytes. CI diffs this output against a live waserve's
// /v1/evaluate response to pin the byte-identity guarantee.
func runEval(genome, backend, workload, nws string) error {
	if genome == "" {
		return cliutil.Usagef("-eval needs -genome")
	}
	if _, err := cliutil.ParseBackends(backend); err != nil {
		return err
	}
	ns, err := cliutil.ParseNWs(nws)
	if err != nil {
		return err
	}
	if len(ns) != 1 {
		return cliutil.Usagef("-eval needs exactly one comb size in -nw, got %v", ns)
	}
	out, err := serve.EvaluateLocal(serve.EvaluateRequest{
		Workload: workload,
		Backend:  backend,
		NW:       ns[0],
		Genome:   genome,
	})
	if err != nil {
		return err
	}
	_, err = os.Stdout.Write(out)
	return err
}

// startCPUProfile begins CPU profiling into path; the returned stop
// function flushes and closes the file. Profiling wraps the run
// explicitly (not via defer) because main exits through os.Exit on
// errors.
func startCPUProfile(path string) (func(), error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, err
	}
	return func() {
		pprof.StopCPUProfile()
		f.Close()
		fmt.Fprintf(os.Stderr, "wadate: CPU profile written to %s\n", path)
	}, nil
}

// writeMemProfile records the post-run live heap (after a GC, so the
// profile shows retained memory rather than collectable garbage).
func writeMemProfile(path string) error {
	return writeArtifact(path, func(f *os.File) error {
		runtime.GC()
		if err := pprof.WriteHeapProfile(f); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "wadate: heap profile written to %s\n", path)
		return nil
	})
}

// campaignOpts carries the campaign-mode flag values.
type campaignOpts struct {
	nws, backends            string
	pop, gens                int
	seed                     int64
	cellWorkers, evalWorkers int
	reps                     int
	objsets, workloads       string
	jsonPath, csvPath        string
	warmStart                bool
	checkpointDir            string
	checkpointEvery          int
	resume                   bool
	haltAfter                int
	stats                    bool
	distribute               string
	islands                  int
	migrateEvery             int
	migrateK                 int
}

// runWorker joins the coordinator at addr and executes assigned
// cells, island cells included, until released. A simulated crash
// (-halt-after-checkpoints) returns dist.ErrWorkerHalted, which main
// turns into exit status 3, like the single-process preemption
// simulator.
func runWorker(addr string, haltAfter int) error {
	return dist.Run(dist.WorkerOptions{
		Addr:                 addr,
		HaltAfterCheckpoints: haltAfter,
		Log: func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, "wadate worker: "+format+"\n", args...)
		},
	})
}

// runCampaign drives the multi-cell sweep: deterministic cells,
// bounded fan-out, progress on stderr, artifacts on demand, durable
// checkpoints on request.
func runCampaign(o campaignOpts) error {
	cfg := expt.CampaignConfig{
		Pop:                  o.pop,
		Generations:          o.gens,
		Seed:                 o.seed,
		Replicates:           o.reps,
		CellWorkers:          o.cellWorkers,
		EvalWorkers:          o.evalWorkers,
		WarmStart:            o.warmStart,
		CheckpointDir:        o.checkpointDir,
		CheckpointEvery:      o.checkpointEvery,
		Resume:               o.resume,
		StopAfterCheckpoints: o.haltAfter,
		Stats:                o.stats,
		Islands:              o.islands,
		MigrationEvery:       o.migrateEvery,
		MigrationK:           o.migrateK,
	}
	var err error
	cfg.Backends, err = cliutil.ParseBackends(o.backends)
	if err != nil {
		return err
	}
	cfg.NWs, err = cliutil.ParseNWs(o.nws)
	if err != nil {
		return err
	}
	cfg.ObjectiveSets, err = cliutil.ParseObjectiveSets(o.objsets)
	if err != nil {
		return err
	}
	for _, spec := range cliutil.SplitList(o.workloads) {
		wl, err := expt.NamedWorkload(spec)
		if err != nil {
			return err
		}
		cfg.Workloads = append(cfg.Workloads, wl)
	}
	if len(cfg.Workloads) == 0 {
		return fmt.Errorf("no workloads in %q", o.workloads)
	}
	if o.distribute != "" {
		// Distribute the cells, then render summary and artifacts by
		// resuming over the completed checkpoint directory — every
		// cell restores from the records the workers streamed back,
		// so the output is byte-identical to a single-process run.
		if err := dist.Serve(dist.CoordinatorOptions{
			Addr:   o.distribute,
			Config: cfg,
			Log: func(format string, args ...any) {
				fmt.Fprintf(os.Stderr, "wadate coordinator: "+format+"\n", args...)
			},
			Ready: func(addr string) {
				fmt.Fprintf(os.Stderr, "wadate coordinator: accepting workers at %s\n", addr)
			},
		}); err != nil {
			return err
		}
		cfg.Resume = true
	}
	cfg.Progress = func(ev expt.CellEvent) {
		if ev.Done {
			status := "ok"
			switch {
			case ev.Err != nil:
				status = "FAILED: " + ev.Err.Error()
			case ev.Restored:
				status = "restored from checkpoint"
			}
			fmt.Fprintf(os.Stderr, "[%d/%d] %s: %s (%s)\n",
				ev.Completed, ev.Total, ev.Cell, status, ev.Elapsed.Round(time.Millisecond))
		} else {
			fmt.Fprintf(os.Stderr, "[%d/%d] %s: start\n", ev.Completed, ev.Total, ev.Cell)
		}
	}
	camp, err := expt.RunCampaign(cfg)
	if errors.Is(err, expt.ErrCampaignStopped) {
		// Simulated preemption: die like a killed process would — no
		// summary, no artifacts, nonzero status. The checkpoint
		// directory already holds everything a -resume needs.
		fmt.Fprintf(os.Stderr, "wadate: %v\n", err)
		os.Exit(3)
	}
	if camp == nil {
		return err
	}
	fmt.Print(expt.CampaignSummary(camp))
	if o.stats {
		printCampaignStats(camp)
	}
	if o.jsonPath != "" {
		if werr := writeArtifact(o.jsonPath, func(f *os.File) error { return expt.WriteCampaignJSON(f, camp) }); werr != nil {
			return werr
		}
		fmt.Fprintf(os.Stderr, "wadate: JSON artifact written to %s\n", o.jsonPath)
	}
	if o.csvPath != "" {
		if werr := writeArtifact(o.csvPath, func(f *os.File) error { return expt.WriteCampaignCSV(f, camp) }); werr != nil {
			return werr
		}
		fmt.Fprintf(os.Stderr, "wadate: CSV table written to %s\n", o.csvPath)
	}
	return err
}

// printCampaignStats prints one JSON line per cell (carrying the
// backend column whenever a non-default backend is swept, like every
// other artifact) and then sums the instrumentation into one
// campaign-level line: how the engine actually served its
// evaluations, and how much dominance work ranking did. Restored
// cells report the stats from their completion records, so the
// output is identical whether the campaign ran in-process or
// distributed.
func printCampaignStats(camp *expt.Campaign) {
	fmt.Println()
	if err := expt.WriteCampaignStats(os.Stdout, camp); err != nil {
		fmt.Fprintf(os.Stderr, "wadate: stats lines: %v\n", err)
	}
	var total expt.CellStats
	for i := range camp.Cells {
		s := camp.Cells[i].Stats()
		if s == nil {
			continue
		}
		total.Evaluations += s.Evaluations
		total.CacheHits += s.CacheHits
		total.FullEvals += s.FullEvals
		total.RelationsCompared += s.RelationsCompared
	}
	fmt.Printf("\nEngine stats: %d evaluations (%d cache hits, %d kernel runs); %d dominance relations compared\n",
		total.Evaluations, total.CacheHits, total.FullEvals, total.RelationsCompared)
}

func writeArtifact(path string, write func(*os.File) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func run(exp, nws string, pop, gens int, seed int64, csvPath string, seeds, workers int) error {
	switch exp {
	case "table1":
		fmt.Print(expt.Table1())
		return nil
	case "app":
		fmt.Println("Fig. 5: virtual application and design-time mapping")
		fmt.Print(graph.FormatString(graph.PaperApp(), graph.PaperMapping()))
		return nil
	case "sensitivity":
		out, err := expt.Sensitivity()
		if err != nil {
			return err
		}
		fmt.Print(out)
		return nil
	}

	cfg := expt.CampaignConfig{Pop: pop, Generations: gens, Seed: seed, EvalWorkers: workers}
	var err error
	cfg.NWs, err = cliutil.ParseNWs(nws)
	if err != nil {
		return err
	}
	switch exp {
	case "convergence":
		out, err := expt.ConvergenceReport(cfg, cfg.NWs[0])
		if err != nil {
			return err
		}
		fmt.Print(out)
		return nil
	case "robustness":
		out, err := expt.MultiSeedReport(cfg, seeds)
		if err != nil {
			return err
		}
		fmt.Print(out)
		return nil
	}
	if exp == "fig7" && !slices.Contains(cfg.NWs, 8) {
		return fmt.Errorf("fig7 needs NW=8 in -nw (have %v)", cfg.NWs)
	}
	suite, err := expt.Run(cfg)
	if err != nil {
		return err
	}
	switch exp {
	case "all":
		fmt.Print(expt.Table1())
		fmt.Println()
		fmt.Print(expt.Fig6a(suite))
		fmt.Println()
		fmt.Print(expt.Fig6b(suite))
		fmt.Println()
		fmt.Print(expt.Fig7(suite))
		fmt.Println()
		fmt.Print(expt.Table2(suite))
		fmt.Println()
		fmt.Print(expt.Summary(suite))
	case "summary":
		fmt.Print(expt.Summary(suite))
	case "table2":
		fmt.Print(expt.Table2(suite))
	case "fig6a":
		fmt.Print(expt.Fig6a(suite))
	case "fig6b":
		fmt.Print(expt.Fig6b(suite))
	case "fig7":
		fmt.Print(expt.Fig7(suite))
	default:
		return fmt.Errorf("unknown experiment %q", exp)
	}
	if csvPath != "" {
		if err := writeArtifact(csvPath, func(f *os.File) error { return expt.WriteSuiteCSV(f, suite) }); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "wadate: CSV written to %s\n", csvPath)
	}
	return nil
}
