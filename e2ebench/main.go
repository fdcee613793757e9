// Command e2ebench measures the repository's whole-unit entry points
// end to end:
//
//	campaign  the CI equivalence jobs' campaign grid with the simulator
//	          cross-check and the JSON/CSV artifacts (wadate -campaign):
//	          NSGA-II engine, evaluation kernel, simulator, assembly
//	evaluate  a burst of 256 POST /v1/evaluate calls from 8 concurrent
//	          clients against an in-process waserve daemon: HTTP,
//	          batching front, kernel, response encoding
//
// Usage, from the repository root (run.sh builds it first):
//
//	e2ebench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// Inputs derive from --seed only. The program repeats the workload's
// operation until --seconds have passed, checks every output, and
// times the workload's set-up in batches between operations (setup_s).
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. With --trace 0 the metrics
// are the end-to-end ones; with --trace 1 every operation is decomposed
// into the calls its entry point makes, each timed from here (outside
// in), and the metrics are the per-layer ledger.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"hash/fnv"
	"os"
	"runtime"
	"sort"
	"time"

	"repro/internal/alloc"
)

// workload is one benchmarked entry point.
type workload interface {
	// setup performs the program's own set-up for the workload once and
	// releases it again; the harness times it.
	setup() error
	// start derives the inputs from the seed and prepares the measured
	// state. It is not timed.
	start(seed int64) error
	// op runs one whole-unit operation. tr is nil unless tracing; a
	// traced operation does the same work through the calls its entry
	// point makes and records where the time went.
	op(tr *tracer) error
	// check verifies the last operation's output, off the clock.
	check() error
	// digest identifies the last operation's output, for comparing runs
	// by hand (printed to standard error).
	digest() string
	// probes lists genomes the operations evaluated, with the instance
	// each belongs to, for the kernel probe of the trace.
	probes() []probe
	stop()
}

type probe struct {
	in *alloc.Instance
	g  alloc.Genome
}

// workloads maps each name to its constructor and the GOMAXPROCS it runs
// at. One P for the serial campaign: on a two-vCPU VM shared with
// other tenants, a second P made it ~40 % slower and widened the
// spread between runs. Two for evaluate, whose batching front spreads
// each coalesced batch over a GOMAXPROCS-sized worker pool; there a
// second P also narrowed the spread between runs (IQR/median 0.014 vs
// 0.050 over five seeds, same VM).
var workloads = map[string]struct {
	make  func() workload
	procs int
}{
	"campaign": {func() workload { return &campaign{} }, 1},
	"evaluate": {func() workload { return &evaluate{} }, 2},
}

// Set-up is timed in setupBatches batches of equal size, each at
// least setupBatchTime long, spread evenly over the measurement window
// between operations; setup_s is the median batch's mean. A single
// set-up takes microseconds to a millisecond, too little to time one
// at a time. On the shared two-vCPU VM the benchmark was built on,
// compute-bound code runs up to twice as slow in stretches of seconds
// to minutes (a dependent multiply chain swung 1.1 to 2.3 ms while a
// cache-resident pointer chase moved 15 %; process CPU time tracked
// wall time), so the batches sample the whole window, as the
// operations do, rather than one moment of it.
const (
	setupBatches   = 100
	setupBatchTime = 10 * time.Millisecond
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload: campaign or evaluate")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Float64("seconds", 10, "measurement time in seconds")
	trace := flag.Int("trace", 0, "1 = report the per-layer trace instead of the end-to-end metrics")
	flag.Parse()
	wl, ok := workloads[*name]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "e2ebench: usage: --workload campaign|evaluate --seed N --seconds S --trace 0|1\n")
		os.Exit(2)
	}
	runtime.GOMAXPROCS(wl.procs)
	rep, err := run(wl.make(), *name, *seed, time.Duration(*seconds*float64(time.Second)), *trace == 1)
	if err != nil {
		fmt.Fprintf(os.Stderr, "e2ebench: %s: %v\n", *name, err)
		os.Exit(1)
	}
	out, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintf(os.Stderr, "e2ebench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}

func run(w workload, name string, seed int64, window time.Duration, tracing bool) (*report, error) {
	if err := w.start(seed); err != nil {
		return nil, fmt.Errorf("start: %w", err)
	}
	defer w.stop()

	var tr *tracer
	if tracing {
		tr = newTracer()
	}
	st, err := newSetupTimer(w)
	if err != nil {
		return nil, err
	}
	rep := &report{Correct: true, Metrics: map[string]metric{}}
	var lat []float64
	runtime.GC()
	begin := time.Now()
	for rep.Attempted == 0 || time.Since(begin) < window {
		rep.Attempted++
		t0 := time.Now()
		err := w.op(tr)
		d := time.Since(t0)
		if tr != nil {
			d -= tr.takeOffClock()
		}
		if err == nil {
			err = w.check()
		}
		if err == nil {
			lat = append(lat, float64(d)/float64(time.Millisecond))
		} else {
			rep.Failed++
			rep.Correct = false
			fmt.Fprintf(os.Stderr, "e2ebench: %s: operation %d: %v\n", name, rep.Attempted, err)
		}
		due := int(setupBatches * time.Since(begin) / window)
		for len(st.batches) < min(due, setupBatches) {
			if err := st.batch(); err != nil {
				return nil, err
			}
		}
	}
	if len(lat) == 0 {
		return rep, nil
	}
	for len(st.batches) < setupBatches {
		if err := st.batch(); err != nil {
			return nil, err
		}
	}
	sorted := append([]float64(nil), lat...)
	sort.Float64s(sorted)
	fmt.Fprintf(os.Stderr, "e2ebench: %s seed %d: %d operations, min %.3f median %.3f max %.3f ms, output %s\n",
		name, seed, len(lat), sorted[0], median(lat), sorted[len(sorted)-1], w.digest())
	if !tracing {
		rep.Metrics["op_ms"] = metric{median(lat), "ms"}
		rep.Metrics["setup_s"] = metric{median(st.batches), "s"}
		return rep, nil
	}
	kernel, err := kernelProbe(w.probes())
	if err != nil {
		return nil, err
	}
	tr.report(rep.Metrics, lat, kernel)
	return rep, nil
}

// setupTimer times the workload's set-up in batches.
type setupTimer struct {
	w       workload
	per     int
	batches []float64
}

// newSetupTimer sizes the batches: the first set-up pays for cold
// code, the second is timed.
func newSetupTimer(w workload) (*setupTimer, error) {
	if err := w.setup(); err != nil {
		return nil, fmt.Errorf("setup: %w", err)
	}
	t0 := time.Now()
	if err := w.setup(); err != nil {
		return nil, fmt.Errorf("setup: %w", err)
	}
	return &setupTimer{w: w, per: 1 + int(setupBatchTime/time.Since(t0))}, nil
}

// batch times one batch and records its mean in seconds.
func (s *setupTimer) batch() error {
	runtime.GC()
	t0 := time.Now()
	for i := 0; i < s.per; i++ {
		if err := s.w.setup(); err != nil {
			return fmt.Errorf("setup: %w", err)
		}
	}
	s.batches = append(s.batches, time.Since(t0).Seconds()/float64(s.per))
	return nil
}

// kernelProbe times the full evaluation kernel on the genomes the
// operations evaluated: the per-call cost of the layer every entry
// point bottoms out in. It returns the median call in microseconds.
func kernelProbe(ps []probe) (float64, error) {
	if len(ps) == 0 {
		return 0, fmt.Errorf("kernel probe: no genomes")
	}
	const maxGenomes, reps = 64, 16
	if len(ps) > maxGenomes {
		step := len(ps) / maxGenomes
		thin := make([]probe, 0, maxGenomes)
		for i := 0; i < len(ps) && len(thin) < maxGenomes; i += step {
			thin = append(thin, ps[i])
		}
		ps = thin
	}
	evs := map[*alloc.Instance]*alloc.Evaluator{}
	var out alloc.Eval
	var times []float64
	for _, p := range ps {
		ev, ok := evs[p.in]
		if !ok {
			var err error
			if ev, err = alloc.NewEvaluator(p.in); err != nil {
				return 0, err
			}
			evs[p.in] = ev
		}
		ev.EvaluateInto(&out, p.g) // warm the evaluator's scratch
		for r := 0; r < reps; r++ {
			t0 := time.Now()
			ev.EvaluateInto(&out, p.g)
			times = append(times, float64(time.Since(t0))/float64(time.Microsecond))
		}
		if !out.Valid {
			return 0, fmt.Errorf("kernel probe: genome %s is invalid: %s", p.g, out.Reason())
		}
	}
	return median(times), nil
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// digestOf is a short stable fingerprint of an output.
func digestOf(parts ...[]byte) string {
	h := fnv.New64a()
	for _, p := range parts {
		h.Write(p)
	}
	return fmt.Sprintf("%016x", h.Sum64())
}
