package main

import (
	"time"

	"repro/internal/nsga2"
)

// layers are the trace's layers, outermost first. A traced operation
// attributes its wall time to them; whatever no layer claims is the
// entry point's own time (self_pct). A layer an operation does not pass
// through reports 0 %.
//
//	transport    HTTP client, loopback and server plumbing: the round
//	             trip minus the handler's in-process time
//	handler      the serving handler minus the kernel calls it makes
//	             (request decode, batching queue, response encode)
//	build        problem and instance construction (core.New,
//	             core.NewSharedInstance)
//	init         the initial population (core.Problem.NewExplorer)
//	generations  NSGA-II generations (core.Explorer.Step): variation,
//	             evaluation, ranking, survival
//	evaluate     a served evaluation's kernel call
//	assembly     result assembly (core.Explorer.Finish)
//	sim          the simulator cross-check of campaign fronts
//	render       campaign JSON and CSV artifacts
var layers = []string{
	"transport", "handler", "build", "init", "generations", "evaluate",
	"assembly", "sim", "render",
}

// tracer records outside-in spans: time spent in each layer's calls,
// per-layer work counts, and time spent replaying work off the
// operation's clock.
type tracer struct {
	busy     map[string]time.Duration
	counts   map[string]int64
	offClock time.Duration
}

func newTracer() *tracer {
	return &tracer{busy: map[string]time.Duration{}, counts: map[string]int64{}}
}

// time runs f and charges its duration to layer. A nil tracer just
// runs f.
func (t *tracer) time(layer string, f func()) {
	if t == nil {
		f()
		return
	}
	t0 := time.Now()
	f()
	t.busy[layer] += time.Since(t0)
}

// add charges a duration measured elsewhere to layer.
func (t *tracer) add(layer string, d time.Duration) { t.busy[layer] += d }

// replay runs f off the operation's clock: the served workloads re-run
// a request's work in process to split the round trip into layers.
func (t *tracer) replay(f func()) {
	t0 := time.Now()
	f()
	t.offClock += time.Since(t0)
}

// takeOffClock returns and clears the off-clock time of the last
// operation.
func (t *tracer) takeOffClock() time.Duration {
	d := t.offClock
	t.offClock = 0
	return d
}

func (t *tracer) count(name string, n int64) {
	if t != nil {
		t.counts[name] += n
	}
}

// engine adds one exploration's engine counters.
func (t *tracer) engine(s nsga2.Stats) {
	delta := s.Eval.GeneDelta + s.Eval.NearDelta + s.Eval.CrossDelta
	t.count("kernel_calls", s.Eval.Full+delta)
	t.count("delta_calls", delta)
	t.count("cache_hits", s.CacheHits)
	t.count("relations", s.RelationsCompared)
}

// report fills the per-layer metrics: shares of the traced operations'
// wall time per layer, work counts per operation, the traced median
// latency and the kernel probe.
func (t *tracer) report(m map[string]metric, lat []float64, kernelUS float64) {
	var total float64
	for _, l := range lat {
		total += l
	}
	m["traced_op_ms"] = metric{median(lat), "ms"}
	m["kernel_us"] = metric{kernelUS, "us"}
	covered := 0.0
	for _, l := range layers {
		pct := 100 * float64(t.busy[l]) / float64(time.Millisecond) / total
		m[l+"_pct"] = metric{pct, "%"}
		covered += pct
	}
	m["self_pct"] = metric{100 - covered, "%"}
	ops := float64(len(lat))
	for _, c := range []string{"kernel_calls", "cache_hits", "relations", "http_requests", "sim_runs"} {
		m[c] = metric{float64(t.counts[c]) / ops, "count"}
	}
	deltaPct := 0.0
	if k := t.counts["kernel_calls"]; k > 0 {
		deltaPct = 100 * float64(t.counts["delta_calls"]) / float64(k)
	}
	m["delta_calls_pct"] = metric{deltaPct, "%"}
}
