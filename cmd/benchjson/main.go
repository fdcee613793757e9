// Command benchjson converts `go test -bench` output on stdin into a
// machine-readable JSON document on stdout, so CI can archive the
// benchmark trajectory (BENCH_*.json artifacts) instead of scraping
// logs.
//
// Usage:
//
//	go test -run '^$' -bench . -benchmem | benchjson [flags] > BENCH.json
//
//	-sha string                  git commit SHA to record in the
//	                             environment map (default: $GITHUB_SHA,
//	                             then `git rev-parse HEAD`, else omitted)
//	-require-zero-allocs regexp  benchmarks whose base name matches must
//	                             report 0 allocs/op; the JSON is still
//	                             written, then the command exits 1 on any
//	                             violation (or if nothing matched, which
//	                             catches renamed benchmarks silently
//	                             skipping the gate)
//	-zero-allocs-exempt regexp   benchmarks whose base name matches are
//	                             excluded from -require-zero-allocs even
//	                             when the require pattern matches them —
//	                             for suites (e.g. the HTTP serving
//	                             benchmarks) where allocation-free
//	                             operation is not a goal. Matching
//	                             nothing is an error, like the other
//	                             pattern flags
//	-compare file                baseline BENCH_*.json to gate ns/op
//	                             regressions against (e.g. the committed
//	                             BENCH_PR3.json)
//	-regress-gate regexp         benchmarks whose base name matches are
//	                             held to the regression budget; required
//	                             with -compare, and matching nothing (or
//	                             a benchmark absent from the baseline) is
//	                             itself a failure
//	-max-regress fraction        allowed ns/op growth over the baseline
//	                             before the gate fails (default 0.15)
//	-require-faster pairs        comma-separated FAST<SLOW benchmark
//	                             base-name pairs: FAST's minimum ns/op
//	                             must be strictly below SLOW's in this
//	                             run. A machine-independent ratio gate —
//	                             e.g. the delta kernel must beat the
//	                             full kernel wherever the suite runs
//	-require-speedup triples     comma-separated FAST<SLOW@FACTOR
//	                             triples: SLOW's minimum ns/op must be
//	                             at least FACTOR times FAST's in this
//	                             run — the quantified version of
//	                             -require-faster, e.g. the 2-worker
//	                             campaign must beat the 1-worker one by
//	                             1.7x on a multi-core host
//
// Each benchmark line becomes one record with the iteration count and
// a metrics map keyed by unit ("ns/op", "B/op", "allocs/op", plus any
// custom b.ReportMetric units such as "hypervolume"). The goos/goarch/
// pkg/cpu header lines land in the environment map, alongside the git
// SHA, so a BENCH_*.json is attributable to the commit it measured.
// The map also records the core count: num_cpu is runtime.NumCPU() of
// the host running benchjson (in CI, the one that ran the
// benchmarks), and gomaxprocs lists the distinct -N suffixes of the
// benchmark names read, comma-separated (go test omits the suffix at
// GOMAXPROCS 1).
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"regexp"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"strings"
)

type record struct {
	Name       string             `json:"name"`
	Iterations int64              `json:"iterations"`
	Metrics    map[string]float64 `json:"metrics"`
}

type document struct {
	Schema      string            `json:"schema"`
	Environment map[string]string `json:"environment,omitempty"`
	Benchmarks  []record          `json:"benchmarks"`
}

func main() {
	var (
		sha            = flag.String("sha", "", "git commit SHA to record (default: $GITHUB_SHA, then git rev-parse HEAD)")
		requireZero    = flag.String("require-zero-allocs", "", "regexp of benchmark base names that must report 0 allocs/op")
		zeroExempt     = flag.String("zero-allocs-exempt", "", "regexp of benchmark base names excluded from -require-zero-allocs")
		compareFile    = flag.String("compare", "", "baseline BENCH_*.json to gate ns/op regressions against")
		regressGate    = flag.String("regress-gate", "", "regexp of benchmark base names held to the regression budget (required with -compare)")
		maxRegress     = flag.Float64("max-regress", 0.15, "allowed fractional ns/op growth over the -compare baseline")
		requireFaster  = flag.String("require-faster", "", "comma-separated FAST<SLOW benchmark base-name pairs; FAST's min ns/op must be strictly below SLOW's")
		requireSpeedup = flag.String("require-speedup", "", "comma-separated FAST<SLOW@FACTOR triples; SLOW's min ns/op must be at least FACTOR times FAST's")
	)
	flag.Parse()

	doc, err := parse(bufio.NewScanner(os.Stdin))
	if err != nil {
		fatal(err)
	}
	if s := resolveSHA(*sha); s != "" {
		doc.Environment["git_sha"] = s
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(doc); err != nil {
		fatal(err)
	}
	// Gates run after writing, so the artifact exists even on failure.
	if *requireZero != "" {
		if err := checkZeroAllocs(doc, *requireZero, *zeroExempt); err != nil {
			fatal(err)
		}
	} else if *zeroExempt != "" {
		fatal(fmt.Errorf("-zero-allocs-exempt needs -require-zero-allocs"))
	}
	if *compareFile != "" {
		base, err := loadBaseline(*compareFile)
		if err != nil {
			fatal(err)
		}
		if err := checkRegression(doc, base, *regressGate, *maxRegress); err != nil {
			fatal(err)
		}
	} else if *regressGate != "" {
		fatal(fmt.Errorf("-regress-gate needs -compare"))
	}
	if *requireFaster != "" {
		if err := checkFaster(doc, *requireFaster); err != nil {
			fatal(err)
		}
	}
	if *requireSpeedup != "" {
		if err := checkSpeedup(doc, *requireSpeedup); err != nil {
			fatal(err)
		}
	}
}

// checkSpeedup enforces the quantified relative-speed gate: for every
// FAST<SLOW@FACTOR triple, SLOW's minimum ns/op must be at least
// FACTOR times FAST's in this run. Like -require-faster, both sides
// come from one run on one machine, so absolute speed cancels out;
// the factor pins the shape of the scaling curve (e.g. 2 workers at
// least 1.7x faster than 1).
func checkSpeedup(doc *document, spec string) error {
	ns := minNSByName(doc)
	var violations []string
	for _, triple := range strings.Split(spec, ",") {
		pair, factorStr, ok := strings.Cut(triple, "@")
		if !ok {
			return fmt.Errorf("bad -require-speedup triple %q (want FAST<SLOW@FACTOR)", triple)
		}
		factor, err := strconv.ParseFloat(strings.TrimSpace(factorStr), 64)
		if err != nil || factor <= 1 {
			return fmt.Errorf("bad -require-speedup factor %q (want a number > 1)", factorStr)
		}
		fast, slow, ok := strings.Cut(pair, "<")
		if !ok {
			return fmt.Errorf("bad -require-speedup triple %q (want FAST<SLOW@FACTOR)", triple)
		}
		fast, slow = strings.TrimSpace(fast), strings.TrimSpace(slow)
		fv, okF := ns[fast]
		sv, okS := ns[slow]
		switch {
		case !okF:
			violations = append(violations, fmt.Sprintf("%s: no ns/op in this run — renamed or not run?", fast))
		case !okS:
			violations = append(violations, fmt.Sprintf("%s: no ns/op in this run — renamed or not run?", slow))
		case sv < factor*fv:
			violations = append(violations, fmt.Sprintf("%s: %.1f ns/op is only %.2fx %s's %.1f, want >= %.2fx", slow, sv, sv/fv, fast, fv, factor))
		default:
			fmt.Fprintf(os.Stderr, "benchjson: %s %.1f ns/op is %.2fx %s's %.1f (>= %.2fx) as required\n", slow, sv, sv/fv, fast, fv, factor)
		}
	}
	if len(violations) > 0 {
		return fmt.Errorf("speedup gate violated:\n  %s", strings.Join(violations, "\n  "))
	}
	return nil
}

// checkFaster enforces the relative-speed gate: for every FAST<SLOW
// pair, FAST's minimum ns/op in this run must be strictly below
// SLOW's. Both benchmarks compare within one run on one machine, so
// the gate holds wherever the suite executes — unlike an absolute
// baseline comparison, machine speed cancels out.
func checkFaster(doc *document, spec string) error {
	ns := minNSByName(doc)
	var violations []string
	for _, pair := range strings.Split(spec, ",") {
		fast, slow, ok := strings.Cut(pair, "<")
		if !ok {
			return fmt.Errorf("bad -require-faster pair %q (want FAST<SLOW)", pair)
		}
		fast, slow = strings.TrimSpace(fast), strings.TrimSpace(slow)
		fv, okF := ns[fast]
		sv, okS := ns[slow]
		switch {
		case !okF:
			violations = append(violations, fmt.Sprintf("%s: no ns/op in this run — renamed or not run?", fast))
		case !okS:
			violations = append(violations, fmt.Sprintf("%s: no ns/op in this run — renamed or not run?", slow))
		case fv >= sv:
			violations = append(violations, fmt.Sprintf("%s: %.1f ns/op is not below %s's %.1f", fast, fv, slow, sv))
		default:
			fmt.Fprintf(os.Stderr, "benchjson: %s %.1f ns/op < %s %.1f (%.2fx) as required\n", fast, fv, slow, sv, sv/fv)
		}
	}
	if len(violations) > 0 {
		return fmt.Errorf("relative-speed gate violated:\n  %s", strings.Join(violations, "\n  "))
	}
	return nil
}

// loadBaseline reads a previously emitted benchjson document.
func loadBaseline(path string) (*document, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("baseline: %w", err)
	}
	var doc document
	if err := json.Unmarshal(raw, &doc); err != nil {
		return nil, fmt.Errorf("baseline %s: %w", path, err)
	}
	if doc.Schema != "benchjson/v1" {
		return nil, fmt.Errorf("baseline %s: schema %q, want benchjson/v1", path, doc.Schema)
	}
	return &doc, nil
}

// checkRegression enforces the performance budget: every benchmark
// whose base name matches the gate pattern must report ns/op no more
// than (1+maxRegress) times the baseline's. Matching nothing, or a
// gated benchmark missing from either side, fails too — a renamed
// benchmark must not silently drop out of the gate.
//
// When a document holds several samples of one benchmark (go test
// -count=N), the MINIMUM ns/op represents it on both sides: the
// minimum is the least-noise estimate of a deterministic kernel's
// cost, so scheduler interference on a shared CI runner widens the
// samples upward without tripping the gate, while a genuine
// regression lifts the floor itself.
func checkRegression(cur, base *document, pattern string, maxRegress float64) error {
	if pattern == "" {
		return fmt.Errorf("-compare needs -regress-gate (the benchmarks held to the budget)")
	}
	if maxRegress < 0 {
		return fmt.Errorf("-max-regress must be >= 0, got %v", maxRegress)
	}
	re, err := regexp.Compile(pattern)
	if err != nil {
		return fmt.Errorf("bad -regress-gate pattern: %v", err)
	}
	baseNS := minNSByName(base)
	curNS := minNSByName(cur)
	// Gate over the UNION of gated names from both documents: a
	// benchmark present only in the baseline (deleted or renamed since)
	// must fail just like one missing from the baseline.
	nameSet := map[string]bool{}
	for name := range curNS {
		if re.MatchString(name) {
			nameSet[name] = true
		}
	}
	for name := range baseNS {
		if re.MatchString(name) {
			nameSet[name] = true
		}
	}
	names := make([]string, 0, len(nameSet))
	for name := range nameSet {
		names = append(names, name)
	}
	sort.Strings(names)
	var violations []string
	for _, name := range names {
		ns, inCur := curNS[name]
		if !inCur {
			violations = append(violations, fmt.Sprintf("%s: in baseline but not in this run — renamed, or dropped from the bench pattern?", name))
			continue
		}
		ref, ok := baseNS[name]
		switch {
		case !ok:
			violations = append(violations, fmt.Sprintf("%s: not in baseline — renamed, or the baseline predates it?", name))
		case ref <= 0:
			violations = append(violations, fmt.Sprintf("%s: baseline ns/op %v is not positive", name, ref))
		case ns > ref*(1+maxRegress):
			violations = append(violations, fmt.Sprintf("%s: %.1f ns/op vs baseline %.1f (%+.1f%%, budget %+.0f%%)",
				name, ns, ref, (ns/ref-1)*100, maxRegress*100))
		default:
			fmt.Fprintf(os.Stderr, "benchjson: %s: %.1f ns/op vs baseline %.1f (%+.1f%%) within budget\n",
				name, ns, ref, (ns/ref-1)*100)
		}
	}
	if len(names) == 0 {
		return fmt.Errorf("regression gate %q matched no benchmark — renamed or not run?", pattern)
	}
	if len(violations) > 0 {
		return fmt.Errorf("performance budget violated:\n  %s", strings.Join(violations, "\n  "))
	}
	fmt.Fprintf(os.Stderr, "benchjson: regression gate passed for %d benchmark(s)\n", len(names))
	return nil
}

// minNSByName folds a document's records to the minimum ns/op per
// benchmark base name. Records without an ns/op metric are skipped.
func minNSByName(doc *document) map[string]float64 {
	out := map[string]float64{}
	for _, rec := range doc.Benchmarks {
		ns, ok := rec.Metrics["ns/op"]
		if !ok {
			continue
		}
		name := baseName(rec.Name)
		if cur, ok := out[name]; !ok || ns < cur {
			out[name] = ns
		}
	}
	return out
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
	os.Exit(1)
}

// resolveSHA picks the recorded commit: the explicit flag, the CI
// environment, or the local git checkout; empty when none resolve.
func resolveSHA(flagSHA string) string {
	if flagSHA != "" {
		return flagSHA
	}
	if s := os.Getenv("GITHUB_SHA"); s != "" {
		return s
	}
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return ""
	}
	return strings.TrimSpace(string(out))
}

// checkZeroAllocs enforces the allocation budget: every benchmark
// whose base name (the "-8" GOMAXPROCS suffix stripped) matches the
// pattern — and does not match the exemption pattern — must carry an
// allocs/op metric equal to zero. An exemption that matches nothing
// fails like the other pattern flags: a renamed benchmark must not
// leave a stale exemption behind.
func checkZeroAllocs(doc *document, pattern, exempt string) error {
	re, err := regexp.Compile(pattern)
	if err != nil {
		return fmt.Errorf("bad -require-zero-allocs pattern: %v", err)
	}
	var exemptRE *regexp.Regexp
	if exempt != "" {
		if exemptRE, err = regexp.Compile(exempt); err != nil {
			return fmt.Errorf("bad -zero-allocs-exempt pattern: %v", err)
		}
	}
	matched, exempted := 0, 0
	var violations []string
	for _, rec := range doc.Benchmarks {
		if !re.MatchString(baseName(rec.Name)) {
			continue
		}
		if exemptRE != nil && exemptRE.MatchString(baseName(rec.Name)) {
			exempted++
			continue
		}
		matched++
		allocs, ok := rec.Metrics["allocs/op"]
		switch {
		case !ok:
			violations = append(violations, fmt.Sprintf("%s: no allocs/op metric (run with -benchmem)", rec.Name))
		case allocs != 0:
			violations = append(violations, fmt.Sprintf("%s: %v allocs/op, want 0", rec.Name, allocs))
		}
	}
	if matched == 0 {
		return fmt.Errorf("zero-alloc gate %q matched no benchmark — renamed or not run?", pattern)
	}
	if exemptRE != nil && exempted == 0 {
		return fmt.Errorf("zero-alloc exemption %q matched no gated benchmark — renamed or not run?", exempt)
	}
	if len(violations) > 0 {
		return fmt.Errorf("allocation budget violated:\n  %s", strings.Join(violations, "\n  "))
	}
	fmt.Fprintf(os.Stderr, "benchjson: zero-alloc gate passed for %d benchmark(s), %d exempted\n", matched, exempted)
	return nil
}

// baseName strips the -GOMAXPROCS suffix go test appends to
// benchmark names ("BenchmarkGeneration-8" -> "BenchmarkGeneration").
func baseName(name string) string {
	base, _ := splitProcs(name)
	return base
}

// splitProcs splits a benchmark name into its base name and the
// GOMAXPROCS it ran at: the -N suffix, or 1 when there is none.
func splitProcs(name string) (string, int) {
	i := strings.LastIndexByte(name, '-')
	if i < 0 {
		return name, 1
	}
	procs, err := strconv.Atoi(name[i+1:])
	if err != nil {
		return name, 1
	}
	return name[:i], procs
}

func parse(sc *bufio.Scanner) (*document, error) {
	sc.Buffer(make([]byte, 0, 1024*1024), 1024*1024)
	doc := &document{Schema: "benchjson/v1", Environment: map[string]string{
		"num_cpu": strconv.Itoa(runtime.NumCPU()),
	}}
	var procs []int
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		switch {
		case strings.HasPrefix(line, "goos:"), strings.HasPrefix(line, "goarch:"),
			strings.HasPrefix(line, "pkg:"), strings.HasPrefix(line, "cpu:"):
			if k, v, ok := strings.Cut(line, ":"); ok {
				doc.Environment[k] = strings.TrimSpace(v)
			}
		case strings.HasPrefix(line, "Benchmark"):
			rec, ok := parseBench(line)
			if ok {
				doc.Benchmarks = append(doc.Benchmarks, rec)
				_, p := splitProcs(rec.Name)
				if !slices.Contains(procs, p) {
					procs = append(procs, p)
				}
			}
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(doc.Benchmarks) == 0 {
		return nil, fmt.Errorf("no benchmark lines on stdin")
	}
	slices.Sort(procs)
	list := make([]string, len(procs))
	for i, p := range procs {
		list[i] = strconv.Itoa(p)
	}
	doc.Environment["gomaxprocs"] = strings.Join(list, ",")
	return doc, nil
}

// parseBench reads "BenchmarkX-8  100  12.3 ns/op  0 B/op  1 allocs/op
// 4.5 custom" lines: a name, an iteration count, then value/unit
// pairs.
func parseBench(line string) (record, bool) {
	fields := strings.Fields(line)
	if len(fields) < 4 || len(fields)%2 != 0 {
		return record{}, false
	}
	iters, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return record{}, false
	}
	rec := record{Name: fields[0], Iterations: iters, Metrics: map[string]float64{}}
	for i := 2; i+1 < len(fields); i += 2 {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			return record{}, false
		}
		rec.Metrics[fields[i+1]] = v
	}
	return rec, true
}
