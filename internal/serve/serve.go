// Package serve is the allocation-as-a-service layer: an HTTP daemon
// exposing the wavelength-allocation engine over JSON. It serves
// evaluations, link-budget explanations, resumable GA optimizations
// and streamed campaign sweeps against a fixed set of shared
// read-only instances built at startup.
//
// The serving discipline mirrors the repo's artifact discipline:
// every served number is produced by the same code path the CLI uses,
// and evaluate responses are byte-identical to `wadate -eval` output —
// CI diffs the two on every push.
package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"net/http"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/alloc"
	"repro/internal/core"
	"repro/internal/expt"
	"repro/internal/nsga2"
)

// Serving defaults. Optimize and campaign defaults match the quick
// suite (wadate -quick: pop 80, 60 generations, seed 42) so a bare
// request reproduces familiar numbers.
const (
	defaultWorkload   = "paper"
	defaultObjectives = "teb"
	defaultPop        = 80
	defaultGens       = 60
	defaultSeed       = 42

	// DefaultQueueDepth bounds the evaluations in flight; beyond it
	// the daemon sheds load with 429 + Retry-After.
	DefaultQueueDepth = 1024

	// maxBodyBytes caps every request body; a larger one is a 413.
	// The largest body is an optimize session token, which grows with
	// the generations run: on the paper workload at NW 8 the tests'
	// largest session (pop 40 × 12 generations) carries a 70 KB token,
	// the serving defaults (pop 80 × 60) 0.66 MB, and a paper-scale
	// run (pop 400 × 300) 14.6 MB at its last step.
	maxBodyBytes = 32 << 20

	// Request ceilings: an optimize or campaign request (or session
	// token) asking for more is a 400, like any other request that
	// does not resolve. They admit paper scale (pop 400 × 300
	// generations) and keep the largest session token those allow
	// — its archive grows with pop × generations — under
	// maxBodyBytes, so every session the daemon hands out can come
	// back.
	maxPop         = 400
	maxGenerations = 400
	maxReplicates  = 32
	// A campaign builds one fabric per (backend, workload, NW) before
	// any cell runs, and a fabric's genome rows, bank rows and NW²
	// crosstalk table grow with NW, so campaign requests are bounded
	// in comb size and in cells (the product of the axis lengths and
	// the replicates) too. The paper sweeps NW 4 to 16; paper scale at
	// maxReplicates over the two default comb sizes is 64 cells.
	maxNW    = 64
	maxCells = 256
)

// checkCeilings rejects run sizes over the serving ceilings: every
// run's pop and generations, and a campaign's replicates, comb sizes
// nws and cell count, which is the replicates times the length of nws
// and of each other axis (an empty axis counts as its one default
// entry).
func checkCeilings(pop, generations, replicates int, nws []int, axes ...int) error {
	switch {
	case pop > maxPop:
		return fmt.Errorf("pop %d exceeds the serving ceiling %d", pop, maxPop)
	case generations > maxGenerations:
		return fmt.Errorf("generations %d exceeds the serving ceiling %d", generations, maxGenerations)
	case replicates > maxReplicates:
		return fmt.Errorf("replicates %d exceeds the serving ceiling %d", replicates, maxReplicates)
	}
	for _, nw := range nws {
		if nw > maxNW {
			return fmt.Errorf("comb size %d exceeds the serving ceiling %d", nw, maxNW)
		}
	}
	// Each factor is at most the body size, and the product stops
	// growing once it passes maxCells, so it cannot overflow.
	cells := max(1, replicates) * max(1, len(nws))
	for _, n := range axes {
		cells *= max(1, n)
		if cells > maxCells {
			break
		}
	}
	if cells > maxCells {
		return fmt.Errorf("the campaign has more than %d cells, the serving ceiling", maxCells)
	}
	return nil
}

// Config describes the daemon: which instances to build and how
// many requests to admit.
type Config struct {
	// Backends, Workloads and NWs define the served instance set — the
	// cross product is built eagerly at startup so a bad combination
	// fails the boot, not a request. Defaults: all backends, the paper
	// workload, comb sizes 4 and 8.
	Backends  []string
	Workloads []string
	NWs       []int

	// QueueDepth bounds the evaluations in flight (zero =
	// DefaultQueueDepth). Workers sizes the GA evaluation pool
	// (default GOMAXPROCS).
	QueueDepth int
	Workers    int

	// NoBatch serves evaluations through one evaluator per instance
	// behind a mutex instead of the evaluator pool — the serial
	// baseline the serving benchmarks and the CI speedup gate compare
	// against.
	NoBatch bool

	// CampaignSlots bounds concurrent campaign sweeps (default 1);
	// further requests get 429.
	CampaignSlots int

	// Log receives request-level diagnostics (nil = silent).
	Log *log.Logger
}

// instKey identifies one served instance.
type instKey struct {
	backend  string
	workload string
	nw       int
}

// instance is one shared read-only evaluation context (whose
// Evaluate draws from its own evaluator pool) plus a single
// lock-guarded evaluator for the NoBatch baseline.
type instance struct {
	key instKey
	in  *alloc.Instance

	mu sync.Mutex
	ev *alloc.Evaluator
}

// evaluateSerial is the NoBatch path: the whole evaluation serializes
// on one evaluator.
func (inst *instance) evaluateSerial(g alloc.Genome, out *alloc.Eval) error {
	inst.mu.Lock()
	defer inst.mu.Unlock()
	if inst.ev == nil {
		ev, err := alloc.NewEvaluator(inst.in)
		if err != nil {
			return err
		}
		inst.ev = ev
	}
	inst.ev.EvaluateInto(out, g)
	out.Detach()
	return nil
}

// Server is the daemon state.
type Server struct {
	cfg       Config
	instances map[instKey]*instance
	order     []instKey
	evalSlots chan struct{}
	campaigns chan struct{}
	draining  atomic.Bool
	closed    atomic.Bool
	log       *log.Logger
}

// NewServer builds every served instance eagerly.
func NewServer(cfg Config) (*Server, error) {
	if len(cfg.Backends) == 0 {
		cfg.Backends = core.Backends()
	}
	if len(cfg.Workloads) == 0 {
		cfg.Workloads = []string{defaultWorkload}
	}
	if len(cfg.NWs) == 0 {
		cfg.NWs = []int{4, 8}
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = DefaultQueueDepth
	}
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	if cfg.CampaignSlots <= 0 {
		cfg.CampaignSlots = 1
	}
	logger := cfg.Log
	if logger == nil {
		logger = log.New(noopWriter{}, "", 0)
	}
	s := &Server{
		cfg:       cfg,
		instances: make(map[instKey]*instance),
		evalSlots: make(chan struct{}, cfg.QueueDepth),
		campaigns: make(chan struct{}, cfg.CampaignSlots),
		log:       logger,
	}
	for _, wl := range cfg.Workloads {
		w, err := expt.NamedWorkload(wl)
		if err != nil {
			return nil, err
		}
		for _, backend := range cfg.Backends {
			for _, nw := range cfg.NWs {
				in, err := core.NewSharedInstance(core.Config{NW: nw, Backend: backend, App: w.App, Mapping: w.Mapping})
				if err != nil {
					return nil, fmt.Errorf("serve: instance (%s, %s, NW=%d): %w", wl, backend, nw, err)
				}
				key := instKey{backend: backend, workload: wl, nw: nw}
				s.instances[key] = &instance{key: key, in: in}
				s.order = append(s.order, key)
			}
		}
	}
	sort.Slice(s.order, func(i, j int) bool {
		a, b := s.order[i], s.order[j]
		if a.workload != b.workload {
			return a.workload < b.workload
		}
		if a.backend != b.backend {
			return a.backend < b.backend
		}
		return a.nw < b.nw
	})
	return s, nil
}

type noopWriter struct{}

func (noopWriter) Write(p []byte) (int, error) { return len(p), nil }

// BeginDrain flips the daemon into shutdown mode: in-flight optimize
// loops stop at their next generation boundary and return session
// tokens (the checkpoint flush), and health reports draining so load
// balancers stop routing here. Evaluate and explain keep answering
// until Close.
func (s *Server) BeginDrain() { s.draining.Store(true) }

// Close stops evaluation: evaluate and explain requests that arrive
// afterwards answer 503. Call after http.Server.Shutdown has returned;
// Shutdown already waited for the in-flight handlers, and so for every
// in-flight evaluation.
func (s *Server) Close() { s.closed.Store(true) }

// Handler builds the route table.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", s.handleHealth)
	mux.HandleFunc("GET /v1/instances", s.handleInstances)
	mux.HandleFunc("POST /v1/evaluate", s.handleEvaluate)
	mux.HandleFunc("POST /v1/explain", s.handleExplain)
	mux.HandleFunc("POST /v1/optimize", s.handleOptimize)
	mux.HandleFunc("POST /v1/campaign", s.handleCampaign)
	return mux
}

// decodeRequest parses one JSON request body strictly: unknown fields
// and anything after the first JSON value are 400s, so client typos
// and concatenated bodies fail loudly instead of silently defaulting.
// A body over maxBodyBytes is a 413.
func decodeRequest(w http.ResponseWriter, r *http.Request, v any) bool {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	dec.DisallowUnknownFields()
	err := dec.Decode(v)
	if err == nil {
		if _, terr := dec.Token(); terr != io.EOF {
			err = errors.New("unexpected data after the JSON body")
		}
	}
	var tooLarge *http.MaxBytesError
	switch {
	case errors.As(err, &tooLarge):
		writeJSON(w, http.StatusRequestEntityTooLarge, ErrorResponse{
			Error: fmt.Sprintf("request body exceeds %d bytes", tooLarge.Limit),
		})
		return false
	case err != nil:
		writeJSON(w, http.StatusBadRequest, ErrorResponse{Error: "bad request: " + err.Error()})
		return false
	}
	return true
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	status := "ok"
	if s.draining.Load() {
		status = "draining"
	}
	writeJSON(w, http.StatusOK, map[string]any{"status": status, "instances": len(s.instances)})
}

// instanceInfo is one row of the served-instance listing.
type instanceInfo struct {
	Workload string `json:"workload"`
	Backend  string `json:"backend"`
	NW       int    `json:"nw"`
}

func (s *Server) handleInstances(w http.ResponseWriter, r *http.Request) {
	out := make([]instanceInfo, 0, len(s.order))
	for _, k := range s.order {
		out = append(out, instanceInfo{Workload: k.workload, Backend: k.backend, NW: k.nw})
	}
	writeJSON(w, http.StatusOK, map[string]any{"instances": out})
}

// resolveEvaluate applies the evaluate defaults. Shared with
// EvaluateLocal so the CLI and the daemon resolve requests
// identically — a precondition of the byte-identity guarantee.
func resolveEvaluate(req *EvaluateRequest) error {
	if req.Workload == "" {
		req.Workload = defaultWorkload
	}
	if req.Backend == "" {
		req.Backend = core.DefaultBackend
	}
	if req.NW <= 0 {
		return fmt.Errorf("nw must be positive, got %d", req.NW)
	}
	if req.Genome == "" {
		return fmt.Errorf("genome is required")
	}
	return nil
}

// lookup finds the served instance for a request, or formats the 404
// body listing what IS served.
func (s *Server) lookup(workload, backend string, nw int) (*instance, *ErrorResponse) {
	inst, ok := s.instances[instKey{backend: backend, workload: workload, nw: nw}]
	if ok {
		return inst, nil
	}
	served := make([]string, 0, len(s.order))
	for _, k := range s.order {
		served = append(served, fmt.Sprintf("(%s, %s, nw=%d)", k.workload, k.backend, k.nw))
	}
	return nil, &ErrorResponse{Error: fmt.Sprintf("instance (%s, %s, nw=%d) is not served; serving: %v",
		workload, backend, nw, served)}
}

// evaluateInput decodes and resolves an evaluate or explain body,
// finds its served instance and parses its genome, answering the
// client's error itself when any step fails.
func (s *Server) evaluateInput(w http.ResponseWriter, r *http.Request) (EvaluateRequest, *instance, alloc.Genome, bool) {
	var req EvaluateRequest
	if !decodeRequest(w, r, &req) {
		return req, nil, alloc.Genome{}, false
	}
	if err := resolveEvaluate(&req); err != nil {
		writeJSON(w, http.StatusBadRequest, ErrorResponse{Error: err.Error()})
		return req, nil, alloc.Genome{}, false
	}
	inst, nf := s.lookup(req.Workload, req.Backend, req.NW)
	if nf != nil {
		writeJSON(w, http.StatusNotFound, *nf)
		return req, nil, alloc.Genome{}, false
	}
	g, err := alloc.ParseGenome(req.Genome, inst.in.Edges(), req.NW)
	if err != nil {
		writeJSON(w, http.StatusBadRequest, ErrorResponse{Error: err.Error()})
		return req, nil, alloc.Genome{}, false
	}
	return req, inst, g, true
}

// admit is the admission control of every evaluation, evaluate and
// explain alike: 503 once Close has run, and a slot per evaluation in
// flight otherwise. A full semaphore sheds the request at once; a slot
// frees within microseconds, so the hint is the smallest the body can
// say, and the header's resolution is whole seconds. On true the
// caller holds a slot and must release it with <-s.evalSlots.
func (s *Server) admit(w http.ResponseWriter) bool {
	if s.closed.Load() {
		writeJSON(w, http.StatusServiceUnavailable, ErrorResponse{Error: "serve: server is shutting down"})
		return false
	}
	select {
	case s.evalSlots <- struct{}{}:
		return true
	default:
		w.Header().Set("Retry-After", "1")
		writeJSON(w, http.StatusTooManyRequests, ErrorResponse{
			Error: "serve: too many evaluations in flight", RetryAfterMS: 1,
		})
		return false
	}
}

func (s *Server) handleEvaluate(w http.ResponseWriter, r *http.Request) {
	req, inst, g, ok := s.evaluateInput(w, r)
	if !ok || !s.admit(w) {
		return
	}
	var out alloc.Eval
	var err error
	if s.cfg.NoBatch {
		err = inst.evaluateSerial(g, &out)
	} else {
		out = inst.in.Evaluate(g)
	}
	<-s.evalSlots
	if err != nil {
		writeJSON(w, http.StatusInternalServerError, ErrorResponse{Error: err.Error()})
		return
	}
	writeJSON(w, http.StatusOK, buildEvaluateResponse(req.Workload, req.Backend, req.NW, g, &out))
}

func (s *Server) handleExplain(w http.ResponseWriter, r *http.Request) {
	req, inst, g, ok := s.evaluateInput(w, r)
	if !ok || !s.admit(w) {
		return
	}
	out := inst.in.Evaluate(g)
	var exp *alloc.Explanation
	if out.Valid {
		exp = inst.in.Explain(g, out)
	}
	<-s.evalSlots
	if !out.Valid {
		// Unlike evaluate, explain has nothing to say about an invalid
		// chromosome: 422 with the evaluator's failure reason.
		writeJSON(w, http.StatusUnprocessableEntity, ErrorResponse{
			Error:  "cannot explain invalid chromosome",
			Reason: out.Reason(),
		})
		return
	}
	writeJSON(w, http.StatusOK, ExplainResponse{
		Evaluate: buildEvaluateResponse(req.Workload, req.Backend, req.NW, g, &out),
		Report:   exp.String(),
	})
}

// EvaluateLocal is the CLI's entry point: resolve, build, evaluate and
// render one request exactly as the daemon would, returning the
// canonical response bytes. `wadate -eval` prints these bytes; the CI
// serve-smoke job diffs them against the daemon's response.
func EvaluateLocal(req EvaluateRequest) ([]byte, error) {
	if err := resolveEvaluate(&req); err != nil {
		return nil, err
	}
	wl, err := expt.NamedWorkload(req.Workload)
	if err != nil {
		return nil, err
	}
	in, err := core.NewSharedInstance(core.Config{NW: req.NW, Backend: req.Backend, App: wl.App, Mapping: wl.Mapping})
	if err != nil {
		return nil, err
	}
	g, err := alloc.ParseGenome(req.Genome, in.Edges(), req.NW)
	if err != nil {
		return nil, err
	}
	out := in.Evaluate(g)
	return encodeJSON(buildEvaluateResponse(req.Workload, req.Backend, req.NW, g, &out))
}

// resolveOptimize applies the optimize defaults to a fresh request and
// returns the session parameter block.
func resolveOptimize(req OptimizeRequest) (sessionMeta, error) {
	meta := sessionMeta{
		Workload:    req.Workload,
		Backend:     req.Backend,
		NW:          req.NW,
		Objectives:  req.Objectives,
		Pop:         req.Pop,
		Generations: req.Generations,
		Seed:        req.Seed,
		WarmStart:   req.WarmStart,
	}
	if meta.Workload == "" {
		meta.Workload = defaultWorkload
	}
	if meta.Backend == "" {
		meta.Backend = core.DefaultBackend
	}
	if meta.NW <= 0 {
		return meta, fmt.Errorf("nw must be positive, got %d", meta.NW)
	}
	if meta.Objectives == "" {
		meta.Objectives = defaultObjectives
	}
	if meta.Pop <= 0 {
		meta.Pop = defaultPop
	}
	if meta.Generations <= 0 {
		meta.Generations = defaultGens
	}
	if meta.Seed == 0 {
		meta.Seed = defaultSeed
	}
	return meta, checkCeilings(meta.Pop, meta.Generations, 0, nil)
}

// optimizeJob is an optimize request resolved up to the GA run:
// the request, its session parameters (from the token or the defaults),
// the token's checkpoint (nil for a fresh run), the served instance
// and the objective set.
type optimizeJob struct {
	req        OptimizeRequest
	meta       sessionMeta
	checkpoint []byte
	inst       *instance
	objs       core.ObjectiveSet
}

// resolveOptimizeJob decodes an optimize body and resolves it,
// answering the client's error itself when any step fails. It starts
// no GA run.
func (s *Server) resolveOptimizeJob(w http.ResponseWriter, r *http.Request) (optimizeJob, bool) {
	var job optimizeJob
	if !decodeRequest(w, r, &job.req) {
		return job, false
	}
	var err error
	if job.req.Session != "" {
		job.meta, job.checkpoint, err = decodeSession(job.req.Session)
		if err == nil {
			// The token's integrity check is a CRC, not a signature:
			// hold its run size to the same ceilings as a fresh request.
			err = checkCeilings(job.meta.Pop, job.meta.Generations, 0, nil)
		}
	} else {
		job.meta, err = resolveOptimize(job.req)
	}
	if err != nil {
		writeJSON(w, http.StatusBadRequest, ErrorResponse{Error: err.Error()})
		return job, false
	}
	inst, nf := s.lookup(job.meta.Workload, job.meta.Backend, job.meta.NW)
	if nf != nil {
		writeJSON(w, http.StatusNotFound, *nf)
		return job, false
	}
	job.inst = inst
	if job.objs, err = core.ParseObjectiveSet(job.meta.Objectives); err != nil {
		writeJSON(w, http.StatusBadRequest, ErrorResponse{Error: err.Error()})
		return job, false
	}
	return job, true
}

func (s *Server) handleOptimize(w http.ResponseWriter, r *http.Request) {
	job, ok := s.resolveOptimizeJob(w, r)
	if !ok {
		return
	}
	p, err := core.New(core.Config{
		NW:         job.meta.NW,
		Instance:   job.inst.in,
		Objectives: job.objs,
		WarmStart:  job.meta.WarmStart,
		GA: nsga2.Config{
			PopSize:     job.meta.Pop,
			Generations: job.meta.Generations,
			Seed:        job.meta.Seed,
			Workers:     s.cfg.Workers,
		},
	})
	if err != nil {
		writeJSON(w, http.StatusBadRequest, ErrorResponse{Error: err.Error()})
		return
	}
	var ex *core.Explorer
	if job.checkpoint != nil {
		// The checkpoint header pins geometry, population and seed, so
		// a token replayed against a mismatched session fails loudly
		// here instead of silently computing something else.
		ex, err = p.ResumeExplorer(bytes.NewReader(job.checkpoint))
	} else {
		ex, err = p.NewExplorer()
	}
	if err != nil {
		writeJSON(w, http.StatusBadRequest, ErrorResponse{Error: err.Error()})
		return
	}

	// The step loop: advance one generation at a time so a draining
	// daemon can stop at the next boundary and flush the state into a
	// session token instead of discarding minutes of work.
	stepped := 0
	drained := false
	for !ex.Done() {
		if s.draining.Load() {
			drained = true
			break
		}
		if job.req.StepGenerations > 0 && stepped >= job.req.StepGenerations {
			break
		}
		ex.Step()
		stepped++
	}

	resp := OptimizeResponse{
		Workload:    job.meta.Workload,
		Backend:     job.meta.Backend,
		NW:          job.meta.NW,
		Objectives:  job.meta.Objectives,
		Pop:         job.meta.Pop,
		Generations: job.meta.Generations,
		Seed:        job.meta.Seed,
		Generation:  ex.Generation(),
		Done:        ex.Done(),
		Draining:    drained,
	}
	if ex.Done() {
		res, err := ex.Finish()
		if err != nil {
			writeJSON(w, http.StatusInternalServerError, ErrorResponse{Error: err.Error()})
			return
		}
		resp.Result = optimizeResult(res)
		writeJSON(w, http.StatusOK, resp)
		return
	}
	var buf bytes.Buffer
	if err := ex.WriteCheckpoint(&buf); err != nil {
		writeJSON(w, http.StatusInternalServerError, ErrorResponse{Error: err.Error()})
		return
	}
	token, err := encodeSession(job.meta, buf.Bytes())
	if err != nil {
		writeJSON(w, http.StatusInternalServerError, ErrorResponse{Error: err.Error()})
		return
	}
	resp.Session = token
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleCampaign(w http.ResponseWriter, r *http.Request) {
	var req CampaignRequest
	if !decodeRequest(w, r, &req) {
		return
	}
	select {
	case s.campaigns <- struct{}{}:
		defer func() { <-s.campaigns }()
	default:
		w.Header().Set("Retry-After", "5")
		writeJSON(w, http.StatusTooManyRequests, ErrorResponse{
			Error: "all campaign slots busy", RetryAfterMS: 5000,
		})
		return
	}
	cfg, err := s.campaignConfig(req)
	if err != nil {
		writeJSON(w, http.StatusBadRequest, ErrorResponse{Error: err.Error()})
		return
	}

	// From here the response is a chunked ndjson stream: progress
	// events as they happen, then one final result (or error) line.
	// CampaignConfig.Progress delivers events serially and RunCampaign
	// blocks this handler, so the writes below never interleave.
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	writeLine := func(b []byte) {
		w.Write(b)
		w.Write([]byte{'\n'})
		if flusher != nil {
			flusher.Flush()
		}
	}
	cfg.Progress = func(ev expt.CellEvent) {
		line, err := expt.CellEventJSON(ev)
		if err != nil {
			s.log.Printf("campaign event encode: %v", err)
			return
		}
		writeLine(line)
	}
	c, err := expt.RunCampaign(cfg)
	if err != nil {
		line, _ := json.Marshal(map[string]string{"type": "error", "error": err.Error()})
		writeLine(line)
		return
	}
	var artifact bytes.Buffer
	if err := expt.WriteCampaignJSON(&artifact, c); err != nil {
		line, _ := json.Marshal(map[string]string{"type": "error", "error": err.Error()})
		writeLine(line)
		return
	}
	var compact bytes.Buffer
	if err := json.Compact(&compact, artifact.Bytes()); err != nil {
		line, _ := json.Marshal(map[string]string{"type": "error", "error": err.Error()})
		writeLine(line)
		return
	}
	final, err := json.Marshal(struct {
		Type     string          `json:"type"`
		Campaign json.RawMessage `json:"campaign"`
	}{Type: "result", Campaign: compact.Bytes()})
	if err != nil {
		line, _ := json.Marshal(map[string]string{"type": "error", "error": err.Error()})
		writeLine(line)
		return
	}
	writeLine(final)
}

// campaignConfig maps a campaign request onto expt.CampaignConfig with
// the quick-suite defaults. Campaign sweeps build their own instances
// (the cross product requested, not the served set) — they are batch
// work that happens to arrive over HTTP.
func (s *Server) campaignConfig(req CampaignRequest) (expt.CampaignConfig, error) {
	cfg := expt.CampaignConfig{
		Backends:    req.Backends,
		NWs:         req.NWs,
		Replicates:  req.Replicates,
		Pop:         req.Pop,
		Generations: req.Generations,
		Seed:        req.Seed,
		WarmStart:   req.WarmStart,
		CellWorkers: req.CellWorkers,
		EvalWorkers: s.cfg.Workers,
	}
	if len(cfg.NWs) == 0 {
		cfg.NWs = []int{4, 8}
	}
	if cfg.Pop <= 0 {
		cfg.Pop = defaultPop
	}
	if cfg.Generations <= 0 {
		cfg.Generations = defaultGens
	}
	if cfg.Seed == 0 {
		cfg.Seed = defaultSeed
	}
	objNames := req.Objectives
	if len(objNames) == 0 {
		objNames = []string{defaultObjectives}
	}
	wlNames := req.Workloads
	if len(wlNames) == 0 {
		wlNames = []string{defaultWorkload}
	}
	if err := checkCeilings(cfg.Pop, cfg.Generations, cfg.Replicates, cfg.NWs,
		len(cfg.Backends), len(objNames), len(wlNames)); err != nil {
		return cfg, err
	}
	known := make(map[string]bool)
	for _, b := range core.Backends() {
		known[b] = true
	}
	for _, b := range cfg.Backends {
		if !known[b] {
			return cfg, fmt.Errorf("unknown backend %q", b)
		}
	}
	for _, name := range objNames {
		os, err := core.ParseObjectiveSet(name)
		if err != nil {
			return cfg, err
		}
		cfg.ObjectiveSets = append(cfg.ObjectiveSets, os)
	}
	for _, name := range wlNames {
		wl, err := expt.NamedWorkload(name)
		if err != nil {
			return cfg, err
		}
		cfg.Workloads = append(cfg.Workloads, wl)
	}
	return cfg, nil
}
