package expt

import (
	"bytes"
	"encoding/csv"
	"strconv"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
)

func quickCampaignConfig(cellWorkers int) CampaignConfig {
	return CampaignConfig{
		NWs:           []int{4, 8},
		ObjectiveSets: []core.ObjectiveSet{core.TimeEnergyBER, core.TimeEnergy},
		Replicates:    2,
		Pop:           20,
		Generations:   8,
		Seed:          7,
		CellWorkers:   cellWorkers,
	}
}

func TestCampaignCellEnumeration(t *testing.T) {
	cells := quickCampaignConfig(1).Cells()
	if len(cells) != 2*2*2 {
		t.Fatalf("enumerated %d cells, want 8", len(cells))
	}
	seeds := make(map[int64]Cell, len(cells))
	for i, c := range cells {
		if c.Index != i {
			t.Errorf("cell %d carries index %d", i, c.Index)
		}
		if prev, dup := seeds[c.Seed]; dup {
			t.Errorf("cells %v and %v share seed %d", prev, c, c.Seed)
		}
		seeds[c.Seed] = c
	}
	// Identity-derived seeds: the same cell must get the same seed in
	// a differently-shaped campaign.
	other := quickCampaignConfig(1)
	other.NWs = []int{8}
	other.ObjectiveSets = []core.ObjectiveSet{core.TimeEnergy}
	for _, oc := range other.Cells() {
		want := cellSeed(7, oc.Backend, oc.NW, oc.Objectives, oc.Workload, oc.Replicate)
		if oc.Seed != want {
			t.Errorf("cell %v seed %d, want identity-derived %d", oc, oc.Seed, want)
		}
	}
}

// TestCampaignParallelBitIdenticalToSerial is the campaign-level
// determinism guarantee: the JSON and CSV artifacts are byte-equal
// for any cell worker count.
func TestCampaignParallelBitIdenticalToSerial(t *testing.T) {
	artifacts := func(workers int) (string, string) {
		camp, err := RunCampaign(quickCampaignConfig(workers))
		if err != nil {
			t.Fatal(err)
		}
		var j, c bytes.Buffer
		if err := WriteCampaignJSON(&j, camp); err != nil {
			t.Fatal(err)
		}
		if err := WriteCampaignCSV(&c, camp); err != nil {
			t.Fatal(err)
		}
		return j.String(), c.String()
	}
	serialJSON, serialCSV := artifacts(1)
	parallelJSON, parallelCSV := artifacts(4)
	if serialJSON != parallelJSON {
		t.Error("campaign JSON artifact differs between serial and parallel runs")
	}
	if serialCSV != parallelCSV {
		t.Error("campaign CSV artifact differs between serial and parallel runs")
	}
	if !strings.Contains(serialJSON, "wadate-campaign/v1") {
		t.Error("JSON artifact missing schema marker")
	}
}

func TestCampaignProgressEvents(t *testing.T) {
	var mu sync.Mutex
	var started, done, lastCompleted int
	cfg := quickCampaignConfig(3)
	cfg.Progress = func(ev CellEvent) {
		mu.Lock()
		defer mu.Unlock()
		if ev.Total != 8 {
			t.Errorf("event total %d, want 8", ev.Total)
		}
		if ev.Completed < lastCompleted {
			t.Errorf("completed count went backwards: %d after %d", ev.Completed, lastCompleted)
		}
		lastCompleted = ev.Completed
		if ev.Done {
			done++
			if ev.Completed != done {
				t.Errorf("done event %d carries completed %d", done, ev.Completed)
			}
			if ev.Err != nil {
				t.Errorf("cell %v failed: %v", ev.Cell, ev.Err)
			}
			if ev.Elapsed < 0 {
				t.Error("negative elapsed")
			}
		} else {
			started++
		}
	}
	camp, err := RunCampaign(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if started != 8 || done != 8 {
		t.Fatalf("saw %d starts and %d completions, want 8/8", started, done)
	}
	if camp.Failed() != 0 {
		t.Fatalf("%d cells failed", camp.Failed())
	}
	for _, cr := range camp.Cells {
		if cr.Result == nil || len(cr.Result.Valid) == 0 {
			t.Fatalf("cell %v produced no valid solutions", cr.Cell)
		}
	}
}

func TestCampaignCSVParses(t *testing.T) {
	camp, err := RunCampaign(quickCampaignConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteCampaignCSV(&buf, camp); err != nil {
		t.Fatal(err)
	}
	rows, err := csv.NewReader(&buf).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) < 2 {
		t.Fatal("campaign CSV has no data rows")
	}
	if len(rows[0]) != 13 {
		t.Fatalf("campaign CSV header has %d columns, want 13", len(rows[0]))
	}
	out := CampaignSummary(camp)
	for _, want := range []string{"Campaign: 8 cells", "paper", "time+energy", "best t (k-cc)"} {
		if !strings.Contains(out, want) {
			t.Errorf("summary missing %q:\n%s", want, out)
		}
	}
}

func TestNamedWorkloads(t *testing.T) {
	for _, spec := range []string{"paper", "chain6", "forkjoin4", "fft4", "gauss4", "diamond3"} {
		wl, err := NamedWorkload(spec)
		if err != nil {
			t.Errorf("%s: %v", spec, err)
			continue
		}
		if wl.Name != spec {
			t.Errorf("%s: name %q", spec, wl.Name)
		}
		if spec == "paper" {
			if wl.App != nil || wl.Mapping != nil {
				t.Error("paper workload must use the built-in app")
			}
			continue
		}
		if wl.App == nil || wl.Mapping == nil {
			t.Errorf("%s: missing app or mapping", spec)
			continue
		}
		if err := wl.Mapping.Validate(wl.App, PlatformCores); err != nil {
			t.Errorf("%s: %v", spec, err)
		}
		// Determinism: the same spec resolves to the same workload.
		again, err := NamedWorkload(spec)
		if err != nil {
			t.Fatal(err)
		}
		if len(again.App.Edges) != len(wl.App.Edges) || again.Mapping[0] != wl.Mapping[0] {
			t.Errorf("%s: workload not deterministic", spec)
		}
		for ei := range wl.App.Edges {
			if wl.App.Edges[ei].VolumeBits != again.App.Edges[ei].VolumeBits {
				t.Errorf("%s: edge volumes not deterministic", spec)
				break
			}
		}
	}
	for _, bad := range []string{"", "paper2x", "fft", "fft0", "mesh4", "chain0"} {
		if _, err := NamedWorkload(bad); err == nil {
			t.Errorf("%q: want error", bad)
		}
	}
	// Out-of-range sizes fail with an actionable message, not a raw
	// internal error.
	if _, err := NamedWorkload("chain0"); err == nil ||
		!strings.Contains(err.Error(), "size must be >= 1") ||
		!strings.Contains(err.Error(), "shared-core") {
		t.Errorf("chain0 error = %v, want the size/shared-core message", err)
	}
}

// TestNamedWorkloadSizeCeiling pins the bound on generated specs: the
// largest admitted size builds, one more fails before any graph is
// generated, and so does a size whose graph could not be allocated.
func TestNamedWorkloadSizeCeiling(t *testing.T) {
	if _, err := NamedWorkload("chain" + strconv.Itoa(maxWorkloadSize)); err != nil {
		t.Errorf("chain%d: %v", maxWorkloadSize, err)
	}
	for _, spec := range []string{"diamond" + strconv.Itoa(maxWorkloadSize+1), "chain999999999999"} {
		if _, err := NamedWorkload(spec); err == nil || !strings.Contains(err.Error(), "size must be <=") {
			t.Errorf("%s: error %v, want the size ceiling", spec, err)
		}
	}
}

// TestNamedWorkloadsBeyondPlatform pins the tentpole: specs larger
// than the 16-core platform resolve through load-balanced shared-core
// mappings instead of failing.
func TestNamedWorkloadsBeyondPlatform(t *testing.T) {
	for _, spec := range []string{"chain32", "chain64", "fft64", "gauss8", "diamond6"} {
		wl, err := NamedWorkload(spec)
		if err != nil {
			t.Errorf("%s: %v", spec, err)
			continue
		}
		n := wl.App.NumTasks()
		if n <= PlatformCores {
			t.Errorf("%s: only %d tasks, expected a >%d-task workload", spec, n, PlatformCores)
		}
		if err := wl.Mapping.Validate(wl.App, PlatformCores); err != nil {
			t.Errorf("%s: %v", spec, err)
		}
		if wl.Mapping.Injective() {
			t.Errorf("%s: %d tasks on %d cores cannot be injective", spec, n, PlatformCores)
		}
		// Load-balanced: no core idles while another is overloaded by
		// more than one task.
		loads := make([]int, PlatformCores)
		for _, c := range wl.Mapping {
			loads[c]++
		}
		min, max := loads[0], loads[0]
		for _, l := range loads[1:] {
			if l < min {
				min = l
			}
			if l > max {
				max = l
			}
		}
		if max-min > 1 {
			t.Errorf("%s: core loads spread %d..%d, want load-balanced", spec, min, max)
		}
		// Determinism, as for the small specs.
		again, err := NamedWorkload(spec)
		if err != nil {
			t.Fatal(err)
		}
		for i := range wl.Mapping {
			if wl.Mapping[i] != again.Mapping[i] {
				t.Errorf("%s: mapping not deterministic", spec)
				break
			}
		}
	}
}

// TestCampaignSharedCoreDeterminism is the shared-core arm of the
// campaign determinism guarantee: a workload larger than the 16-core
// platform produces byte-identical artifacts for any worker counts,
// and its projected-front genomes pass the simulator cross-check with
// zero violations. CI runs this under -race.
func TestCampaignSharedCoreDeterminism(t *testing.T) {
	wl, err := NamedWorkload("chain20")
	if err != nil {
		t.Fatal(err)
	}
	if wl.Mapping.Injective() {
		t.Fatal("chain20 must need a shared-core mapping")
	}
	artifacts := func(cellWorkers, evalWorkers int) string {
		camp, err := RunCampaign(CampaignConfig{
			NWs:           []int{4, 8},
			ObjectiveSets: []core.ObjectiveSet{core.TimeEnergy},
			Workloads:     []Workload{wl},
			Pop:           16,
			Generations:   6,
			Seed:          5,
			CellWorkers:   cellWorkers,
			EvalWorkers:   evalWorkers,
		})
		if err != nil {
			t.Fatal(err)
		}
		for _, cr := range camp.Cells {
			if cr.SimChecked == 0 {
				t.Fatalf("cell %v: no genomes cross-checked on the simulator", cr.Cell)
			}
			if cr.SimViolations != 0 {
				t.Fatalf("cell %v: %d simulator violations", cr.Cell, cr.SimViolations)
			}
			if cr.SimBracketMisses != 0 {
				t.Fatalf("cell %v: %d makespan bracket misses", cr.Cell, cr.SimBracketMisses)
			}
		}
		var j bytes.Buffer
		if err := WriteCampaignJSON(&j, camp); err != nil {
			t.Fatal(err)
		}
		return j.String()
	}
	serial := artifacts(1, 0)
	parallel := artifacts(2, 2)
	if serial != parallel {
		t.Error("shared-core campaign artifact differs between serial and parallel runs")
	}
	if !strings.Contains(serial, `"sim_violations": 0`) {
		t.Error("JSON artifact missing the sim cross-check fields")
	}
}

// TestCampaignGeneratedWorkloadCell runs one small non-paper cell end
// to end.
func TestCampaignGeneratedWorkloadCell(t *testing.T) {
	wl, err := NamedWorkload("chain5")
	if err != nil {
		t.Fatal(err)
	}
	camp, err := RunCampaign(CampaignConfig{
		NWs:           []int{4},
		ObjectiveSets: []core.ObjectiveSet{core.TimeEnergy},
		Workloads:     []Workload{wl},
		Pop:           16,
		Generations:   6,
		Seed:          3,
	})
	if err != nil {
		t.Fatal(err)
	}
	res := camp.Cells[0].Result
	if res == nil || len(res.Valid) == 0 {
		t.Fatal("chain workload cell found no valid allocations")
	}
}

func TestCampaignRejectsBadWorkloadLists(t *testing.T) {
	cfg := quickCampaignConfig(1)
	cfg.Workloads = []Workload{{Name: "dup"}, {Name: "dup"}}
	if _, err := RunCampaign(cfg); err == nil {
		t.Error("duplicate workload names must fail")
	}
	cfg.Workloads = []Workload{{}}
	if _, err := RunCampaign(cfg); err == nil {
		t.Error("empty workload name must fail")
	}
}

func TestCampaignRejectsDuplicateAxes(t *testing.T) {
	cfg := quickCampaignConfig(1)
	cfg.NWs = []int{8, 8}
	if _, err := RunCampaign(cfg); err == nil {
		t.Error("duplicate comb sizes must fail")
	}
	cfg = quickCampaignConfig(1)
	cfg.ObjectiveSets = []core.ObjectiveSet{core.TimeEnergy, core.TimeEnergy}
	if _, err := RunCampaign(cfg); err == nil {
		t.Error("duplicate objective sets must fail")
	}
}

// TestCampaignCSVHeaderAlwaysPresent pins the artifact contract: even
// a campaign with no successful cells yields a well-formed table.
func TestCampaignCSVHeaderAlwaysPresent(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteCampaignCSV(&buf, &Campaign{}); err != nil {
		t.Fatal(err)
	}
	rows, err := csv.NewReader(&buf).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 || rows[0][0] != "cell" {
		t.Fatalf("empty campaign CSV = %q, want header-only table", buf.String())
	}
}
