// Command waserve is the allocation-as-a-service daemon: it serves
// the wavelength-allocation engine of "Performance and Energy Aware
// Wavelength Allocation on Ring-Based WDM 3D Optical NoC" (Luo et
// al., DATE 2017) over HTTP/JSON.
//
// Endpoints (all under one port):
//
//	POST /v1/evaluate   score one chromosome on a pooled evaluator
//	POST /v1/explain    full link-budget report for a valid chromosome
//	POST /v1/optimize   run (or resume, via the opaque session token)
//	                    an NSGA-II exploration
//	POST /v1/campaign   stream a campaign sweep as ndjson progress
//	                    events plus a final result line
//	GET  /healthz       liveness + draining state
//	GET  /v1/instances  the served (workload, backend, nw) set
//
// Usage:
//
//	waserve [flags]
//
//	-addr string       listen address (default "localhost:8337")
//	-backends string   comma-separated served backends (default all)
//	-workloads string  comma-separated served workloads (default "paper")
//	-nw string         comma-separated served comb sizes (default "4,8")
//	-queue-depth int   evaluations in flight; beyond it requests get
//	                   429 + Retry-After (default 1024)
//	-workers int       GA evaluation pool size (default GOMAXPROCS)
//	-no-batch          serve evaluations through one lock-guarded
//	                   evaluator instead of the evaluator pool (the
//	                   serial benchmark baseline)
//	-campaign-slots int  concurrent campaign sweeps (default 1)
//	-debug-addr string  if set, serve net/http/pprof on this second
//	                    address (e.g. "localhost:6060"); off by default
//	                    so the profiling surface never shares the
//	                    public port
//
// SIGINT/SIGTERM trigger a graceful shutdown: the daemon stops
// accepting connections, in-flight optimizations stop at the next
// generation boundary and flush their state into session tokens,
// in-flight evaluations finish, and the process exits 0.
//
// Request bodies are capped at 32 MiB (413 beyond it), and the server
// times out slow request headers, slow bodies and idle keep-alive
// connections (see the constants below).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/cliutil"
	"repro/internal/serve"
)

// Connection timeouts. There is no write timeout: an optimize or
// campaign response is written only after its run, which may take
// minutes.
const (
	readHeaderTimeout = 10 * time.Second
	// readTimeout covers the whole request, body included: room to
	// upload a 32 MiB session token, the request-body cap, at 0.6 MB/s.
	readTimeout = 60 * time.Second
	idleTimeout = 2 * time.Minute
)

func main() {
	var (
		addr          = flag.String("addr", "localhost:8337", "listen address")
		backends      = flag.String("backends", "", "comma-separated served optical fabric backends (default all)")
		workloads     = flag.String("workloads", "paper", "comma-separated served workloads: paper, chain<N>, forkjoin<W>, fft<N>, gauss<N>, diamond<N>")
		nws           = flag.String("nw", "4,8", "comma-separated served comb sizes")
		queueDepth    = flag.Int("queue-depth", serve.DefaultQueueDepth, "evaluations in flight (beyond it requests are shed with 429)")
		workers       = flag.Int("workers", 0, "GA evaluation pool size (0 = GOMAXPROCS)")
		noBatch       = flag.Bool("no-batch", false, "serve evaluations through one lock-guarded evaluator (serial benchmark baseline)")
		campaignSlots = flag.Int("campaign-slots", 1, "concurrent campaign sweeps")
		debugAddr     = flag.String("debug-addr", "", "serve net/http/pprof on this second address (empty = off)")
	)
	flag.Parse()
	logger := log.New(os.Stderr, "waserve: ", log.LstdFlags)
	if err := run(*addr, *backends, *workloads, *nws, *queueDepth,
		*workers, *noBatch, *campaignSlots, *debugAddr, logger); err != nil {
		fmt.Fprintf(os.Stderr, "waserve: %v\n", err)
		os.Exit(cliutil.ExitStatus(err))
	}
}

func run(addr, backends, workloads, nws string, queueDepth, workers int,
	noBatch bool, campaignSlots int, debugAddr string, logger *log.Logger) error {
	cfg := serve.Config{
		Workloads:     cliutil.SplitList(workloads),
		QueueDepth:    queueDepth,
		Workers:       workers,
		NoBatch:       noBatch,
		CampaignSlots: campaignSlots,
		Log:           logger,
	}
	var err error
	if backends != "" {
		if cfg.Backends, err = cliutil.ParseBackends(backends); err != nil {
			return err
		}
	}
	if cfg.NWs, err = cliutil.ParseNWs(nws); err != nil {
		return err
	}
	if len(cfg.Workloads) == 0 {
		return cliutil.Usagef("no workloads in %q", workloads)
	}

	s, err := serve.NewServer(cfg)
	if err != nil {
		return err
	}
	srv := &http.Server{
		Addr:              addr,
		Handler:           s.Handler(),
		ReadHeaderTimeout: readHeaderTimeout,
		ReadTimeout:       readTimeout,
		IdleTimeout:       idleTimeout,
	}

	// The pprof surface, when requested, gets its own listener and an
	// explicit mux: the public port never exposes the profiler, and
	// the debug port exposes nothing but it. Best-effort lifecycle —
	// it dies with the process.
	if debugAddr != "" {
		mux := http.NewServeMux()
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		go func() {
			logger.Printf("pprof on %s/debug/pprof/", debugAddr)
			if err := http.ListenAndServe(debugAddr, mux); err != nil {
				logger.Printf("pprof listener: %v", err)
			}
		}()
	}

	errc := make(chan error, 1)
	go func() {
		logger.Printf("serving on %s", addr)
		if err := srv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
			errc <- err
			return
		}
		errc <- nil
	}()

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, syscall.SIGINT, syscall.SIGTERM)
	select {
	case err := <-errc:
		// Listener died before any signal — a startup failure, not a
		// shutdown.
		s.Close()
		return err
	case sig := <-sigc:
		logger.Printf("received %v, draining", sig)
	}

	// Graceful shutdown: flip draining first so in-flight optimize
	// loops checkpoint at their next generation boundary, then stop
	// the listener and wait for handlers, in-flight evaluations
	// included (Shutdown), then close the server.
	s.BeginDrain()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		s.Close()
		return fmt.Errorf("shutdown: %w", err)
	}
	if err := <-errc; err != nil {
		s.Close()
		return err
	}
	s.Close()
	logger.Printf("drained, exiting")
	return nil
}
