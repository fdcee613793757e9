package serve

import (
	"encoding/json"
	"net/http"

	"repro/internal/alloc"
	"repro/internal/core"
)

// This file defines the serving API's wire types and their canonical
// rendering. The rendering is shared verbatim with the wadate CLI's
// -eval mode: the daemon and the CLI marshal the same structs through
// the same encoder, so a served evaluate response is byte-identical to
// the CLI's output for the same genome — the CI serve-smoke job
// enforces that with a literal diff.

// EvaluateRequest names an instance (workload, comb size, backend)
// and a chromosome in the paper's notation.
type EvaluateRequest struct {
	// Workload is a workload spec (expt.NamedWorkload); default
	// "paper".
	Workload string `json:"workload,omitempty"`
	// Backend names the optical fabric; default "ring".
	Backend string `json:"backend,omitempty"`
	// NW is the comb size (required).
	NW int `json:"nw"`
	// Genome is the chromosome in the paper's "1000/0001/..." form
	// (slashes and spaces optional).
	Genome string `json:"genome"`
}

// MetricsJSON is the figure-of-merit block of a valid evaluation.
type MetricsJSON struct {
	MakespanCycles float64 `json:"makespan_cycles"`
	TimeKCC        float64 `json:"time_kcc"`
	BitEnergyFJ    float64 `json:"bit_energy_fj"`
	MeanBER        float64 `json:"mean_ber"`
	Log10MeanBER   float64 `json:"log10_mean_ber"`
	WorstBER       float64 `json:"worst_ber"`
	Counts         []int   `json:"counts"`
}

// EvaluateResponse is the canonical rendering of one evaluation.
// Invalid chromosomes are not transport errors: they return 200 with
// Valid false, the graded violation and the evaluator's
// lazily-formatted failure reason; Metrics is nil (the objectives are
// infinite, which JSON cannot carry).
type EvaluateResponse struct {
	Workload string `json:"workload"`
	Backend  string `json:"backend"`
	NW       int    `json:"nw"`
	// Genome echoes the chromosome in canonical slash form.
	Genome    string       `json:"genome"`
	Valid     bool         `json:"valid"`
	Violation float64      `json:"violation"`
	Reason    string       `json:"reason,omitempty"`
	Metrics   *MetricsJSON `json:"metrics,omitempty"`
}

// ExplainResponse expands a valid evaluation into the full link
// budget.
type ExplainResponse struct {
	Evaluate EvaluateResponse `json:"evaluate"`
	// Report is the engineering view: the rendered link-budget text
	// (alloc.Explanation.String).
	Report string `json:"report"`
}

// OptimizeRequest starts or resumes an exploration. A fresh run names
// its parameters; a resumed one carries the previous response's
// opaque Session token (which embeds the parameters and the v2
// checkpoint bytes), plus at most StepGenerations of new work.
type OptimizeRequest struct {
	Workload string `json:"workload,omitempty"`
	Backend  string `json:"backend,omitempty"`
	NW       int    `json:"nw,omitempty"`
	// Objectives is the short objective-set name: teb, te or tb
	// (default teb).
	Objectives string `json:"objectives,omitempty"`
	// Pop, Generations and Seed tune the GA (defaults 80/60/42, the
	// quick-suite configuration).
	Pop         int   `json:"pop,omitempty"`
	Generations int   `json:"generations,omitempty"`
	Seed        int64 `json:"seed,omitempty"`
	// WarmStart seeds the GA with the heuristic allocations.
	WarmStart bool `json:"warmstart,omitempty"`
	// Session resumes the exploration a previous response returned.
	// When set, the parameter fields above are ignored — the token
	// carries them.
	Session string `json:"session,omitempty"`
	// StepGenerations caps how many generations this request advances
	// (0 = run to completion). A capped run that is not done returns
	// a new Session token instead of a result.
	StepGenerations int `json:"step_generations,omitempty"`
}

// SolutionJSON is one valid allocation with its metric triple.
type SolutionJSON struct {
	Genome      string  `json:"genome"`
	Counts      []int   `json:"counts"`
	TimeKCC     float64 `json:"time_kcc"`
	BitEnergyFJ float64 `json:"bit_energy_fj"`
	MeanBER     float64 `json:"mean_ber"`
}

// OptimizeResult is a completed exploration's outcome.
type OptimizeResult struct {
	// Front is the final population's feasible first front.
	Front []SolutionJSON `json:"front"`
	// FrontTimeEnergy and FrontTimeBER are the global 2D Pareto
	// projections over every valid genome evaluated (Figs. 6(a), 6(b)).
	FrontTimeEnergy []SolutionJSON `json:"front_time_energy"`
	FrontTimeBER    []SolutionJSON `json:"front_time_ber"`
	// Evaluation counters (the paper's Table II bookkeeping).
	Evaluations      int `json:"evaluations"`
	ValidEvaluations int `json:"valid_evaluations"`
	DistinctValid    int `json:"distinct_valid"`
}

// OptimizeResponse reports an exploration's progress. Done runs carry
// Result; interrupted ones (StepGenerations cap, or the daemon
// draining for shutdown) carry a Session token that resumes
// bit-identically.
type OptimizeResponse struct {
	Workload    string `json:"workload"`
	Backend     string `json:"backend"`
	NW          int    `json:"nw"`
	Objectives  string `json:"objectives"`
	Pop         int    `json:"pop"`
	Generations int    `json:"generations"`
	Seed        int64  `json:"seed"`
	// Generation counts completed generations so far.
	Generation int  `json:"generation"`
	Done       bool `json:"done"`
	// Draining marks a run cut short by graceful shutdown: the state
	// was checkpointed into Session, resume against the next daemon.
	Draining bool            `json:"draining,omitempty"`
	Session  string          `json:"session,omitempty"`
	Result   *OptimizeResult `json:"result,omitempty"`
}

// CampaignRequest is the serving form of a campaign sweep: the cross
// product of backends, comb sizes, objective sets, workloads and
// replicates (see expt.CampaignConfig). The response is a chunked
// application/x-ndjson stream: one cell_start/cell_done line per
// progress event (the expt event stream), then a final line of type
// "result" embedding the campaign JSON artifact.
type CampaignRequest struct {
	Backends    []string `json:"backends,omitempty"`
	NWs         []int    `json:"nws,omitempty"`
	Objectives  []string `json:"objectives,omitempty"`
	Workloads   []string `json:"workloads,omitempty"`
	Replicates  int      `json:"replicates,omitempty"`
	Pop         int      `json:"pop,omitempty"`
	Generations int      `json:"generations,omitempty"`
	Seed        int64    `json:"seed,omitempty"`
	WarmStart   bool     `json:"warmstart,omitempty"`
	// CellWorkers bounds the cells in flight (default 1; results are
	// identical regardless).
	CellWorkers int `json:"cell_workers,omitempty"`
}

// ErrorResponse is the structured per-request error report. Reason
// carries the evaluator's lazily-formatted failure reason when the
// error wraps an invalid chromosome (e.g. /v1/explain on a
// conflicting allocation).
type ErrorResponse struct {
	Error  string `json:"error"`
	Reason string `json:"reason,omitempty"`
	// RetryAfterMS accompanies 429 responses (queue full, campaign
	// slot busy), mirroring the Retry-After header.
	RetryAfterMS int `json:"retry_after_ms,omitempty"`
}

// encodeJSON renders v in the canonical serving form: compact
// encoding/json output plus one trailing newline. Every response —
// served or printed by the CLI's -eval mode — goes through this one
// function, which is what makes the byte-identity check meaningful.
func encodeJSON(v any) ([]byte, error) {
	b, err := json.Marshal(v)
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

// writeJSON sends one canonical JSON document with the given status.
func writeJSON(w http.ResponseWriter, status int, v any) {
	b, err := encodeJSON(v)
	if err != nil {
		http.Error(w, `{"error":"response encoding failed"}`, http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	w.Write(b)
}

// buildEvaluateResponse assembles the canonical response for one
// evaluation outcome.
func buildEvaluateResponse(workload, backend string, nw int, g alloc.Genome, out *alloc.Eval) EvaluateResponse {
	resp := EvaluateResponse{
		Workload:  workload,
		Backend:   backend,
		NW:        nw,
		Genome:    g.String(),
		Valid:     out.Valid,
		Violation: out.Violation,
	}
	if !out.Valid {
		resp.Reason = out.Reason()
		return resp
	}
	resp.Metrics = &MetricsJSON{
		MakespanCycles: out.MakespanCycles,
		TimeKCC:        out.TimeKCC(),
		BitEnergyFJ:    out.BitEnergyFJ,
		MeanBER:        out.MeanBER,
		Log10MeanBER:   out.Log10MeanBER(),
		WorstBER:       out.WorstBER,
		Counts:         out.Counts,
	}
	return resp
}

// solutionJSON projects one core.Solution onto the wire form.
func solutionJSON(s core.Solution) SolutionJSON {
	return SolutionJSON{
		Genome:      s.Genome.String(),
		Counts:      s.Counts,
		TimeKCC:     s.TimeKCC,
		BitEnergyFJ: s.BitEnergyFJ,
		MeanBER:     s.MeanBER,
	}
}

// optimizeResult projects a finished exploration onto the wire form.
func optimizeResult(res *core.Result) *OptimizeResult {
	out := &OptimizeResult{
		Front:            make([]SolutionJSON, 0, len(res.Front)),
		FrontTimeEnergy:  make([]SolutionJSON, 0, len(res.FrontTimeEnergy)),
		FrontTimeBER:     make([]SolutionJSON, 0, len(res.FrontTimeBER)),
		Evaluations:      res.Evaluations,
		ValidEvaluations: res.ValidEvaluations,
		DistinctValid:    res.DistinctValid,
	}
	for _, s := range res.Front {
		out.Front = append(out.Front, solutionJSON(s))
	}
	for _, s := range res.FrontTimeEnergy {
		out.FrontTimeEnergy = append(out.FrontTimeEnergy, solutionJSON(s))
	}
	for _, s := range res.FrontTimeBER {
		out.FrontTimeBER = append(out.FrontTimeBER, solutionJSON(s))
	}
	return out
}
