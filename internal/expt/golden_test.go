package expt

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
)

// The files under testdata/golden/ were rendered by an earlier build
// and are committed, so these tests pin the artifact bytes across
// changes, not only between two code paths of one build. A change that
// alters a rendered byte on purpose regenerates the affected file in
// the same commit and says why.
//
// campaign.json, campaign.csv and campaign_stats.ndjson are the
// CI/benchmark campaign grid, regenerated with
//
//	go run ./cmd/wadate -campaign -backends ring,crossbar -nw 4,8 -pop 24 -gens 10 -seed 1 \
//	    -json internal/expt/testdata/golden/campaign.json -csv internal/expt/testdata/golden/campaign.csv
//	go run ./cmd/wadate -campaign -backends ring,crossbar -nw 4,8 -pop 24 -gens 10 -seed 1 -stats |
//	    grep '^{"cell"' > internal/expt/testdata/golden/campaign_stats.ndjson
//
// campaign_workloads.json and campaign_workloads.csv pin the same grid
// on two generated workloads with shared-core mappings, so self edges,
// long pipelines and gauss7's fan-in crosstalk reach the kernel,
// regenerated with
//
//	go run ./cmd/wadate -campaign -backends ring,crossbar -nw 4,8 -workloads chain64,gauss7 -pop 24 -gens 10 -seed 1 \
//	    -json internal/expt/testdata/golden/campaign_workloads.json -csv internal/expt/testdata/golden/campaign_workloads.csv
//
// campaign_islands.json, campaign_islands.csv and
// campaign_islands_stats.ndjson pin the island model on two campaigns,
// each file the first campaign's rendering followed by the second's:
// the golden grid split into 2 islands, and gauss7 at NW 8 split into
// 3 islands of a 25-member population (9, 8, 8) with warm-start seeds
// on island 0, both migrating 2 genomes every 4 generations;
// regenerated with
//
//	W='go run ./cmd/wadate -campaign -backends ring,crossbar -gens 10 -seed 1 -migrate-every 4 -migrate-k 2'
//	A='-nw 4,8 -pop 24 -islands 2'
//	B='-nw 8 -workloads gauss7 -pop 25 -islands 3 -warmstart'
//	$W $A -json a.json -csv a.csv && $W $B -json b.json -csv b.csv
//	cat a.json b.json > internal/expt/testdata/golden/campaign_islands.json
//	cat a.csv b.csv > internal/expt/testdata/golden/campaign_islands.csv
//	($W $A -stats && $W $B -stats) | grep '^{"cell"' > internal/expt/testdata/golden/campaign_islands_stats.ndjson
//
// The suite_*, robustness_*, convergence_*, sensitivity and table2
// files are the paper-suite experiments, regenerated with
//
//	go run ./cmd/wadate -exp all -quick > internal/expt/testdata/golden/suite_all_quick.txt
//	go run ./cmd/wadate -exp all -quick -csv internal/expt/testdata/golden/suite_all_quick.csv
//	go run ./cmd/wadate -exp robustness -quick -seeds 3 > internal/expt/testdata/golden/robustness_quick_seeds3.txt
//	go run ./cmd/wadate -exp convergence -quick -nw 8 > internal/expt/testdata/golden/convergence_quick_nw8.txt
//	go run ./cmd/wadate -exp sensitivity > internal/expt/testdata/golden/sensitivity.txt
//	go run ./cmd/wadate -exp table2 > internal/expt/testdata/golden/table2.txt
//
// TestSuiteGoldens renders all but table2.txt through the package
// API; table2.txt is the paper-scale run (pop 400 x 300 generations),
// which CI diffs against the built binary's output instead.
//
// The edge_* files render synthetic campaigns whose values sit on the
// formatting edges (negative zero, denormals, the 1e-6/1e21 notation
// switch, HTML-significant bytes, CSV quoting triggers); they are the
// concatenated renderings the tests below build.

const goldenDir = "testdata/golden"

// checkGolden diffs got against the committed file byte for byte.
func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	diffBytes(t, name, got, readGolden(t, name))
}

func readGolden(t *testing.T, name string) []byte {
	t.Helper()
	want, err := os.ReadFile(filepath.Join(goldenDir, name))
	if err != nil {
		t.Fatalf("read golden: %v", err)
	}
	return want
}

func diffBytes(t *testing.T, label string, got, want []byte) {
	t.Helper()
	if bytes.Equal(got, want) {
		return
	}
	n := min(len(got), len(want))
	at := n
	for i := 0; i < n; i++ {
		if got[i] != want[i] {
			at = i
			break
		}
	}
	lo := max(at-40, 0)
	t.Fatalf("%s: first divergence at byte %d of %d (want %d)\n got: %q\nwant: %q",
		label, at, len(got), len(want), got[lo:min(at+40, len(got))], want[lo:min(at+40, len(want))])
}

// goldenGridConfig is the campaign `wadate -campaign -backends
// ring,crossbar -nw 4,8 -pop 24 -gens 10 -seed 1` runs: the grid the
// CI equivalence jobs and the end-to-end benchmark drive.
func goldenGridConfig(t *testing.T) CampaignConfig {
	t.Helper()
	paper, err := NamedWorkload("paper")
	if err != nil {
		t.Fatal(err)
	}
	return CampaignConfig{
		Backends:      []string{"ring", "crossbar"},
		NWs:           []int{4, 8},
		ObjectiveSets: []core.ObjectiveSet{core.TimeEnergyBER},
		Workloads:     []Workload{paper},
		Replicates:    1,
		Pop:           24,
		Generations:   10,
		Seed:          1,
	}
}

func TestCampaignGolden(t *testing.T) {
	cfg := goldenGridConfig(t)
	c, err := RunCampaign(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var js, cs bytes.Buffer
	if err := WriteCampaignJSON(&js, c); err != nil {
		t.Fatal(err)
	}
	if err := WriteCampaignCSV(&cs, c); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "campaign.json", js.Bytes())
	checkGolden(t, "campaign.csv", cs.Bytes())

	cfg.Stats = true
	if c, err = RunCampaign(cfg); err != nil {
		t.Fatal(err)
	}
	var st bytes.Buffer
	if err := WriteCampaignStats(&st, c); err != nil {
		t.Fatal(err)
	}
	// Serial evaluation makes every stats byte reproducible; the
	// kernel runs must account for every evaluation the cache did not
	// serve.
	for i := range c.Cells {
		s := c.Cells[i].Stats()
		if s.FullEvals != s.Evaluations-s.CacheHits {
			t.Errorf("cell %d: %d kernel runs, want evaluations-cache_hits = %d",
				i, s.FullEvals, s.Evaluations-s.CacheHits)
		}
	}
	checkGolden(t, "campaign_stats.ndjson", st.Bytes())
}

// TestCampaignWorkloadsGolden pins the golden grid on generated
// workloads whose shared-core mappings carry self edges.
func TestCampaignWorkloadsGolden(t *testing.T) {
	cfg := goldenGridConfig(t)
	cfg.Workloads = nil
	for _, spec := range []string{"chain64", "gauss7"} {
		w, err := NamedWorkload(spec)
		if err != nil {
			t.Fatal(err)
		}
		self := 0
		for _, e := range w.App.Edges {
			if w.Mapping[e.Src] == w.Mapping[e.Dst] {
				self++
			}
		}
		if w.Mapping.Injective() || self == 0 {
			t.Fatalf("%s must share cores and have a self edge", spec)
		}
		cfg.Workloads = append(cfg.Workloads, w)
	}
	c, err := RunCampaign(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var js, cs bytes.Buffer
	if err := WriteCampaignJSON(&js, c); err != nil {
		t.Fatal(err)
	}
	if err := WriteCampaignCSV(&cs, c); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "campaign_workloads.json", js.Bytes())
	checkGolden(t, "campaign_workloads.csv", cs.Bytes())
}

// TestCampaignIslandsGolden pins island-model cells: migration rounds
// that do not divide the run (10 generations every 4), an uneven
// population split and island 0's warm-start seeds.
func TestCampaignIslandsGolden(t *testing.T) {
	grid := goldenGridConfig(t)
	grid.Islands, grid.MigrationEvery, grid.MigrationK = 2, 4, 2
	gauss := grid
	w, err := NamedWorkload("gauss7")
	if err != nil {
		t.Fatal(err)
	}
	gauss.Workloads, gauss.NWs, gauss.Pop = []Workload{w}, []int{8}, 25
	gauss.Islands, gauss.WarmStart = 3, true

	run := func(stats bool) []*Campaign {
		var cs []*Campaign
		for _, cfg := range []CampaignConfig{grid, gauss} {
			cfg.Stats = stats
			c, err := RunCampaign(cfg)
			if err != nil {
				t.Fatal(err)
			}
			cs = append(cs, c)
		}
		return cs
	}
	cs := run(false)
	checkGolden(t, "campaign_islands.json", renderAll(t, WriteCampaignJSON, cs...))
	checkGolden(t, "campaign_islands.csv", renderAll(t, WriteCampaignCSV, cs...))
	checkGolden(t, "campaign_islands_stats.ndjson", renderAll(t, WriteCampaignStats, run(true)...))
}

func fptr(v float64) *float64 { return &v }

// edgeFloats are the values most likely to expose a float formatting
// change.
var edgeFloats = []float64{
	0, math.Copysign(0, -1), 1, -1, 42, 1e6,
	1e-6, 9.999999e-7, 1e-7, 1e21, 9.99999e20,
	1e-300, 5e-324, math.MaxFloat64, math.SmallestNonzeroFloat64,
	0.1, 2.718281828459045, 1.2345678901234567e-15, 123456.789,
}

// edgeStrings exercise escaping: HTML-significant bytes, controls,
// quotes, backslashes, multibyte runes and CSV quoting triggers.
var edgeStrings = []string{
	"", "plain", "a<b&c>d", `quo"te`, `back\slash`,
	"tab\there", "new\nline", "ctrl\x01", "\b\f",
	"uniécode", "sep arate", "com,ma", " lead", "cr\rhere", `\.`,
}

// edgeArtifact builds a cellArtifact stressing every omitempty branch
// and the edge floats.
func edgeArtifact(variant int) cellArtifact {
	a := cellArtifact{
		HasResult:         true,
		Evaluations:       4800,
		ValidEvaluations:  3213,
		DistinctEvaluated: 2101,
		DistinctValid:     1444,
		SimChecked:        10,
		SimViolations:     1,
		SimBracketMisses:  2,
		BestTimeKCC:       fptr(edgeFloats[variant%len(edgeFloats)]),
		MinEnergyFJ:       fptr(edgeFloats[(variant+7)%len(edgeFloats)]),
		FrontTimeEnergy: []solutionRec{
			{TimeKCC: 42, BitEnergyFJ: 1e-6, MeanBER: 1e-300, Counts: []int{1, 2, 3, 4}, Genome: "1000/0100"},
			{TimeKCC: math.Copysign(0, -1), BitEnergyFJ: 9.999999e-7, MeanBER: 5e-324, Counts: []int{}, Genome: ""},
		},
		FrontTimeBER: []solutionRec{
			{TimeKCC: 1e21, BitEnergyFJ: 9.99999e20, MeanBER: 2.5e-13, Counts: nil, Genome: edgeStrings[variant%len(edgeStrings)]},
		},
		Stats: &CellStats{Evaluations: 4800, CacheHits: 1200, FullEvals: 3600,
			RelationsCompared: 1 << 40},
	}
	switch variant % 4 {
	case 1:
		a.Error = "engine exploded: " + edgeStrings[variant%len(edgeStrings)]
		a.HasResult = false
		a.BestTimeKCC = nil
		a.MinEnergyFJ = nil
		a.FrontTimeEnergy = nil
		a.FrontTimeBER = nil
		a.Stats = nil
	case 2:
		a.FrontTimeBER = []solutionRec{}
		a.Stats = nil
	case 3:
		a.BestTimeKCC = nil
	}
	return a
}

// edgeCampaign is a completed campaign whose cells carry the edge
// artifacts, restored the way a resumed campaign replays completion
// records, so the artifact writers render them unchanged.
func edgeCampaign(multi bool) *Campaign {
	cfg := CampaignConfig{
		NWs:           []int{2, 4, 8},
		ObjectiveSets: []core.ObjectiveSet{core.TimeEnergyBER, core.TimeEnergy},
		Workloads: []Workload{{Name: "paper"}, {Name: "hot<spot> & co"},
			{Name: "work,load"}, {Name: ` lead"q`}},
		Replicates:  3,
		Pop:         80,
		Generations: 60,
		Seed:        42,
		WarmStart:   multi,
	}
	if multi {
		cfg.Backends = []string{"ring", "crossbar"}
	}
	c := &Campaign{Cfg: cfg}
	for i := 0; i < 8; i++ {
		a := edgeArtifact(i)
		cell := Cell{
			Index:      i,
			Backend:    "ring",
			NW:         2 << (i % 3),
			Objectives: cfg.ObjectiveSets[i%2],
			Workload:   cfg.Workloads[i%4].Name,
			Replicate:  i % 3,
			Seed:       int64(i)*7777777 - 3,
		}
		if multi && i%2 == 1 {
			cell.Backend = "crossbar"
		}
		c.Cells = append(c.Cells, CellResult{Cell: cell, restored: &a})
	}
	return c
}

// renderAll concatenates one writer's output over several campaigns.
func renderAll(t *testing.T, write func(io.Writer, *Campaign) error, cs ...*Campaign) []byte {
	t.Helper()
	var buf bytes.Buffer
	for _, c := range cs {
		if err := write(&buf, c); err != nil {
			t.Fatal(err)
		}
	}
	return buf.Bytes()
}

// TestCampaignDocGolden pins the JSON artifact over the edge
// campaigns: ring-only (no backend column), multi-backend, and an
// empty campaign (a nil cell list renders as null).
func TestCampaignDocGolden(t *testing.T) {
	got := renderAll(t, WriteCampaignJSON, edgeCampaign(false), edgeCampaign(true), &Campaign{})
	checkGolden(t, "edge_campaign.json", got)
}

// TestCampaignCSVGolden pins the CSV table over the same campaigns:
// header, quoting and the %.6f/%.6e/%.4f number formats.
func TestCampaignCSVGolden(t *testing.T) {
	got := renderAll(t, WriteCampaignCSV, edgeCampaign(false), edgeCampaign(true), &Campaign{})
	checkGolden(t, "edge_campaign.csv", got)
}

// TestStatsLineGolden pins the -stats lines; cells without stats are
// skipped.
func TestStatsLineGolden(t *testing.T) {
	got := renderAll(t, WriteCampaignStats, edgeCampaign(false), edgeCampaign(true))
	checkGolden(t, "edge_stats.ndjson", got)
}

// TestCellDoneDocGolden pins the completion records checkpoints and
// distributed workers persist.
func TestCellDoneDocGolden(t *testing.T) {
	var got []byte
	for i := 0; i < 6; i++ {
		cell := Cell{Index: i, Backend: "ring", NW: 8, Objectives: core.TimeEnergyBER,
			Workload: edgeStrings[i%len(edgeStrings)], Replicate: i, Seed: 987654321}
		b, err := encodeCellDone(cell, edgeArtifact(i))
		if err != nil {
			t.Fatalf("variant %d: %v", i, err)
		}
		got = append(got, b...)
	}
	checkGolden(t, "edge_cell_done.json", got)
}

// TestEncodeCellDoneNonFinite pins the failure mode: a completion
// record carrying a non-finite float produces encoding/json's error,
// not corrupt bytes.
func TestEncodeCellDoneNonFinite(t *testing.T) {
	art := edgeArtifact(0)
	art.BestTimeKCC = fptr(math.NaN())
	_, err := encodeCellDone(Cell{Index: 0, Backend: "ring", NW: 8, Workload: "paper"}, art)
	if err == nil {
		t.Fatal("expected an encoding error for NaN best_time_kcc")
	}
	var ue *json.UnsupportedValueError
	if !errors.As(err, &ue) {
		t.Fatalf("want *json.UnsupportedValueError, got %T: %v", err, err)
	}
}

// TestCellEventGolden pins the ndjson progress events /v1/campaign
// streams.
func TestCellEventGolden(t *testing.T) {
	cell := Cell{Index: 5, Backend: "crossbar", NW: 8, Objectives: core.TimeEnergyBER,
		Workload: "hot<spot>", Replicate: 1, Seed: 123456789}
	events := []CellEvent{
		{Cell: cell, Completed: 0, Total: 12},
		{Cell: cell, Done: true, Completed: 1, Total: 12, Elapsed: 1234567 * time.Microsecond},
		{Cell: cell, Done: true, Completed: 2, Total: 12, Err: errors.New(`cell failed: "conflict" <here>`), Elapsed: time.Millisecond / 4},
		{Cell: cell, Restored: true, Completed: 3, Total: 12},
		{Cell: Cell{Index: 0, Workload: "paper"}, Done: true, Completed: 4, Total: 12},
	}
	var got []byte
	for i, ev := range events {
		b, err := CellEventJSON(ev)
		if err != nil {
			t.Fatalf("event %d: %v", i, err)
		}
		got = append(append(got, b...), '\n')
	}
	checkGolden(t, "edge_events.ndjson", got)
}

// TestCampaignDocGoldenRandom renders 200 seeded random campaigns and
// pins each rendering by a truncated SHA-256, one line per campaign,
// so a divergence names the first campaign that moved.
func TestCampaignDocGoldenRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(1007))
	rf := func() float64 {
		switch rng.Intn(4) {
		case 0:
			return edgeFloats[rng.Intn(len(edgeFloats))]
		case 1:
			return float64(rng.Intn(1000)) // integer-valued float
		case 2:
			return rng.NormFloat64() * math.Pow(10, float64(rng.Intn(40)-20))
		default:
			return rng.Float64()
		}
	}
	var lines strings.Builder
	for iter := 0; iter < 200; iter++ {
		c := &Campaign{Cfg: CampaignConfig{
			NWs:         []int{2, 4},
			Workloads:   []Workload{{Name: edgeStrings[rng.Intn(len(edgeStrings))]}},
			Replicates:  rng.Intn(4),
			Pop:         rng.Intn(200),
			Generations: rng.Intn(100),
			Seed:        rng.Int63() - rng.Int63(),
			WarmStart:   rng.Intn(2) == 0,
		}}
		n := rng.Intn(3)
		for i := 0; i < n; i++ {
			a := cellArtifact{HasResult: true, Evaluations: rng.Intn(5000)}
			if rng.Intn(2) == 0 {
				a.BestTimeKCC = fptr(rf())
			}
			if rng.Intn(2) == 0 {
				a.MinEnergyFJ = fptr(rf())
			}
			for j := rng.Intn(3); j > 0; j-- {
				a.FrontTimeEnergy = append(a.FrontTimeEnergy, solutionRec{
					TimeKCC: rf(), BitEnergyFJ: rf(), MeanBER: rf(),
					Counts: []int{rng.Intn(8), rng.Intn(8)}, Genome: "10/01",
				})
			}
			cell := Cell{Index: i, Backend: "ring", NW: 4, Objectives: core.TimeEnergyBER,
				Workload: c.Cfg.Workloads[0].Name, Replicate: i, Seed: rng.Int63()}
			c.Cells = append(c.Cells, CellResult{Cell: cell, restored: &a})
		}
		var buf bytes.Buffer
		if err := WriteCampaignJSON(&buf, c); err != nil {
			t.Fatalf("iter %d: %v", iter, err)
		}
		sum := sha256.Sum256(buf.Bytes())
		fmt.Fprintf(&lines, "%d %s\n", iter, hex.EncodeToString(sum[:8]))
	}
	checkGolden(t, "random_campaigns.sha256", []byte(lines.String()))
}

// quickSuiteConfig is what `wadate -quick` runs: pop 80 x 60
// generations, seed 42, the default comb sizes 4, 8 and 12.
var quickSuiteConfig = CampaignConfig{NWs: []int{4, 8, 12}, Pop: 80, Generations: 60, Seed: 42}

// TestSuiteGoldens pins the paper-suite experiments' bytes: `-exp all`
// is the concatenation wadate prints, each artifact followed by a
// blank line except the last.
func TestSuiteGoldens(t *testing.T) {
	s, err := Run(quickSuiteConfig)
	if err != nil {
		t.Fatal(err)
	}
	all := strings.Join([]string{Table1(), Fig6a(s), Fig6b(s), Fig7(s), Table2(s), Summary(s)}, "\n")
	checkGolden(t, "suite_all_quick.txt", []byte(all))
	var csvOut bytes.Buffer
	if err := WriteSuiteCSV(&csvOut, s); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "suite_all_quick.csv", csvOut.Bytes())

	rob, err := MultiSeedReport(quickSuiteConfig, 3)
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "robustness_quick_seeds3.txt", []byte(rob))

	conv, err := ConvergenceReport(quickSuiteConfig, 8)
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "convergence_quick_nw8.txt", []byte(conv))

	sens, err := Sensitivity()
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "sensitivity.txt", []byte(sens))
}
