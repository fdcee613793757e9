package expt

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"sync"
	"testing"
)

func ckptCampaignConfig() CampaignConfig {
	return CampaignConfig{
		NWs:         []int{4, 8},
		Pop:         24,
		Generations: 10,
		Seed:        5,
	}
}

func campaignArtifacts(t *testing.T, c *Campaign) (jsonBytes, csvBytes []byte) {
	t.Helper()
	var jb, cb bytes.Buffer
	if err := WriteCampaignJSON(&jb, c); err != nil {
		t.Fatal(err)
	}
	if err := WriteCampaignCSV(&cb, c); err != nil {
		t.Fatal(err)
	}
	return jb.Bytes(), cb.Bytes()
}

// TestCampaignCheckpointResumeByteIdentical is the acceptance pin of
// the tentpole: a campaign stopped mid-cell (after its 4th checkpoint
// write — one cell completed, the next interrupted inside its GA) and
// resumed in a fresh RunCampaign produces JSON and CSV artifacts
// byte-identical to an uninterrupted run of the same configuration.
func TestCampaignCheckpointResumeByteIdentical(t *testing.T) {
	ref, err := RunCampaign(ckptCampaignConfig())
	if err != nil {
		t.Fatal(err)
	}
	refJSON, refCSV := campaignArtifacts(t, ref)

	dir := t.TempDir()
	interrupted := ckptCampaignConfig()
	interrupted.CheckpointDir = dir
	interrupted.CheckpointEvery = 3
	// Cell 0 snapshots at generations 3, 6 and 9 then completes; the
	// 4th write is cell 1's generation-3 snapshot, so the stop lands
	// mid-cell 1.
	interrupted.StopAfterCheckpoints = 4
	camp, err := RunCampaign(interrupted)
	if !errors.Is(err, ErrCampaignStopped) {
		t.Fatalf("interrupted campaign returned %v, want ErrCampaignStopped", err)
	}
	if camp == nil {
		t.Fatal("interrupted campaign returned no partial state")
	}
	if _, err := os.Stat(filepath.Join(dir, "cell-0.json")); err != nil {
		t.Fatalf("cell 0 completion record missing after stop: %v", err)
	}
	if _, err := os.Stat(filepath.Join(dir, "cell-1.ckpt")); err != nil {
		t.Fatalf("cell 1 in-flight snapshot missing after stop: %v", err)
	}

	resumeCfg := ckptCampaignConfig()
	resumeCfg.CheckpointDir = dir
	resumeCfg.CheckpointEvery = 3
	resumeCfg.Resume = true
	var mu sync.Mutex
	restored := map[int]bool{}
	resumeCfg.Progress = func(ev CellEvent) {
		if ev.Restored {
			mu.Lock()
			restored[ev.Cell.Index] = true
			mu.Unlock()
		}
	}
	resumed, err := RunCampaign(resumeCfg)
	if err != nil {
		t.Fatal(err)
	}
	if !restored[0] {
		t.Error("cell 0 was re-explored instead of restored from its completion record")
	}
	if restored[1] {
		t.Error("cell 1 reported restored; it should have resumed its GA mid-cell")
	}
	resJSON, resCSV := campaignArtifacts(t, resumed)
	if !bytes.Equal(refJSON, resJSON) {
		t.Errorf("resumed JSON artifact differs from uninterrupted run (%d vs %d bytes)", len(resJSON), len(refJSON))
	}
	if !bytes.Equal(refCSV, resCSV) {
		t.Errorf("resumed CSV artifact differs from uninterrupted run (%d vs %d bytes)", len(resCSV), len(refCSV))
	}
	if _, err := os.Stat(filepath.Join(dir, "cell-1.ckpt")); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("cell 1 in-flight snapshot not cleaned up after completion: %v", err)
	}

	// A second resume of the fully completed campaign restores every
	// cell and still renders the same bytes.
	again, err := RunCampaign(resumeCfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := range again.Cells {
		if !again.Cells[i].Restored() {
			t.Errorf("fully completed campaign re-explored cell %d", i)
		}
	}
	agJSON, agCSV := campaignArtifacts(t, again)
	if !bytes.Equal(refJSON, agJSON) || !bytes.Equal(refCSV, agCSV) {
		t.Error("fully restored campaign artifacts differ from uninterrupted run")
	}
}

// TestCampaignCheckpointConfigGuards pins the fail-loud rules around
// the checkpoint directory: no silent reuse, no mismatched resume, no
// resume without a directory.
func TestCampaignCheckpointConfigGuards(t *testing.T) {
	t.Run("resume-needs-dir", func(t *testing.T) {
		cfg := ckptCampaignConfig()
		cfg.Resume = true
		if _, err := RunCampaign(cfg); err == nil {
			t.Fatal("Resume without CheckpointDir accepted")
		}
	})
	t.Run("stop-needs-dir", func(t *testing.T) {
		cfg := ckptCampaignConfig()
		cfg.StopAfterCheckpoints = 1
		if _, err := RunCampaign(cfg); err == nil {
			t.Fatal("StopAfterCheckpoints without CheckpointDir accepted")
		}
	})

	dir := t.TempDir()
	cfg := ckptCampaignConfig()
	cfg.Generations = 4
	cfg.CheckpointDir = dir
	if _, err := RunCampaign(cfg); err != nil {
		t.Fatal(err)
	}

	t.Run("no-silent-reuse", func(t *testing.T) {
		if _, err := RunCampaign(cfg); err == nil {
			t.Fatal("re-initializing an existing checkpoint dir without Resume accepted")
		}
	})
	t.Run("mismatched-resume", func(t *testing.T) {
		bad := cfg
		bad.Seed = 6
		bad.Resume = true
		if _, err := RunCampaign(bad); err == nil {
			t.Fatal("resume with a different campaign seed accepted")
		}
	})
	t.Run("matching-resume", func(t *testing.T) {
		ok := cfg
		ok.Resume = true
		if _, err := RunCampaign(ok); err != nil {
			t.Fatalf("matching resume rejected: %v", err)
		}
	})
}

// TestCampaignResumeRejectsCorruptCellCheckpoint pins mid-cell
// robustness: a damaged in-flight snapshot fails that cell loudly
// instead of silently diverging or panicking.
func TestCampaignResumeRejectsCorruptCellCheckpoint(t *testing.T) {
	dir := t.TempDir()
	cfg := ckptCampaignConfig()
	cfg.NWs = []int{4}
	cfg.CheckpointDir = dir
	cfg.CheckpointEvery = 3
	cfg.StopAfterCheckpoints = 1
	if _, err := RunCampaign(cfg); !errors.Is(err, ErrCampaignStopped) {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "cell-0.ckpt")
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/2] ^= 0x01
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	res := cfg
	res.StopAfterCheckpoints = 0
	res.Resume = true
	camp, err := RunCampaign(res)
	if err == nil {
		t.Fatal("campaign with a corrupt cell checkpoint reported success")
	}
	if camp == nil || camp.Cells[0].Err == nil {
		t.Fatal("corrupt checkpoint did not surface as the cell's error")
	}
}

// TestScheduleOrderInflightFirst pins the resume scheduling rule: a
// cell with an in-flight snapshot (and no completion record) is
// scheduled before untouched cells; completed cells keep their
// enumeration position among the rest.
func TestScheduleOrderInflightFirst(t *testing.T) {
	cfg := ckptCampaignConfig().withDefaults()
	cfg.CheckpointDir = t.TempDir()
	cfg.NWs = []int{4, 8, 12}
	cells := cfg.Cells()
	dir, err := OpenCampaignDir(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Cell 2 is in-flight (snapshot, no completion record); cell 0 is
	// completed (record present — its stale snapshot must not promote
	// it, mirroring a kill between StoreDone and the ckpt removal).
	for _, p := range []string{dir.ckptPath(cells[2]), dir.ckptPath(cells[0]), dir.donePath(cells[0])} {
		if err := os.WriteFile(p, []byte("x"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	got := dir.scheduleOrder()
	want := []int{2, 0, 1}
	for i, w := range want {
		if got[i] != w {
			t.Fatalf("scheduleOrder = %v, want %v", got, want)
		}
	}
}

// TestCampaignResumeRunsInflightCellFirst drives the rule end to end:
// after a mid-cell kill (cell 0 completed, cell 1 interrupted), the
// resumed campaign's first event concerns the interrupted cell — its
// sunk generations complete before any untouched cell starts — and
// the artifacts stay byte-identical to an uninterrupted run.
func TestCampaignResumeRunsInflightCellFirst(t *testing.T) {
	ref, err := RunCampaign(ckptCampaignConfig())
	if err != nil {
		t.Fatal(err)
	}
	refJSON, _ := campaignArtifacts(t, ref)

	dir := t.TempDir()
	interrupted := ckptCampaignConfig()
	interrupted.CheckpointDir = dir
	interrupted.CheckpointEvery = 3
	interrupted.StopAfterCheckpoints = 4 // cell 0 completes, cell 1 dies mid-GA
	if _, err := RunCampaign(interrupted); !errors.Is(err, ErrCampaignStopped) {
		t.Fatalf("interrupted campaign returned %v, want ErrCampaignStopped", err)
	}

	resumed := ckptCampaignConfig()
	resumed.CheckpointDir = dir
	resumed.CheckpointEvery = 3
	resumed.Resume = true
	var first *CellEvent
	resumed.Progress = func(ev CellEvent) {
		if first == nil {
			e := ev
			first = &e
		}
	}
	camp, err := RunCampaign(resumed)
	if err != nil {
		t.Fatal(err)
	}
	if first == nil {
		t.Fatal("no progress events delivered")
	}
	if first.Cell.Index != 1 || first.Restored {
		t.Fatalf("first resumed event is cell %d (restored=%v), want the in-flight cell 1 scheduled first",
			first.Cell.Index, first.Restored)
	}
	gotJSON, _ := campaignArtifacts(t, camp)
	if !bytes.Equal(refJSON, gotJSON) {
		t.Fatal("reordered resume changed the JSON artifact")
	}
}

// TestCampaignStatsRecorded pins the opt-in instrumentation: with
// Stats on, every successful cell carries a consistent counter block
// that lands in the JSON artifact, restored cells replay the block
// from their completion records, and a resume that disagrees on the
// Stats setting is refused (restored and fresh cells would otherwise
// disagree on artifact fields).
func TestCampaignStatsRecorded(t *testing.T) {
	cfg := ckptCampaignConfig()
	cfg.Stats = true
	cfg.CheckpointDir = t.TempDir()
	camp, err := RunCampaign(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := range camp.Cells {
		s := camp.Cells[i].Stats()
		if s == nil {
			t.Fatalf("cell %d: no stats recorded", i)
		}
		if s.Evaluations <= 0 || s.FullEvals <= 0 || s.RelationsCompared <= 0 {
			t.Fatalf("cell %d: implausible stats %+v", i, *s)
		}
		if s.FullEvals != s.Evaluations-s.CacheHits {
			t.Fatalf("cell %d: %d kernel runs, engine served %d evaluations (%d cache)",
				i, s.FullEvals, s.Evaluations, s.CacheHits)
		}
	}
	gotJSON, _ := campaignArtifacts(t, camp)
	if !bytes.Contains(gotJSON, []byte(`"full_evals"`)) {
		t.Fatal("stats block missing from JSON artifact")
	}

	resumeCfg := cfg
	resumeCfg.Resume = true
	resumed, err := RunCampaign(resumeCfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := range resumed.Cells {
		if !resumed.Cells[i].Restored() {
			t.Fatalf("cell %d: expected restore from completion record", i)
		}
		got, want := resumed.Cells[i].Stats(), camp.Cells[i].Stats()
		if got == nil || *got != *want {
			t.Fatalf("cell %d: restored stats %+v, want %+v", i, got, want)
		}
	}

	off := cfg
	off.Stats = false
	off.Resume = true
	if _, err := RunCampaign(off); err == nil {
		t.Fatal("resume with a different Stats setting must be refused")
	}
}

// TestResumeDirectoryWithRetainedSnapshots pins compatibility with
// checkpoint directories written by the retired cross-replicate warm
// cache and the retired delta kernel: every completed cell there has
// both a cell-N.json record whose stats carry "warm_hits",
// "gene_delta_evals", "near_delta_evals" and "cross_delta_evals" keys
// and a stale cell-N.ckpt holding the cell's final engine snapshot. A
// resume must restore every cell from its record, ignoring all of
// them, and render artifacts byte-identical to a fresh run's.
func TestResumeDirectoryWithRetainedSnapshots(t *testing.T) {
	cfg := ckptCampaignConfig()
	cfg.Replicates = 2
	cfg.Stats = true
	ref, err := RunCampaign(cfg)
	if err != nil {
		t.Fatal(err)
	}
	refJSON, refCSV := campaignArtifacts(t, ref)

	old := cfg
	old.CheckpointDir = t.TempDir()
	if _, err := RunCampaign(old); err != nil {
		t.Fatal(err)
	}
	full := old.withDefaults()
	cacheHits := regexp.MustCompile(`(?m)^( *)"cache_hits": [0-9]+,\n`)
	fullEvals := regexp.MustCompile(`(?m)^( *)"full_evals": [0-9]+,\n`)
	for _, cell := range full.Cells() {
		done := filepath.Join(old.CheckpointDir, fmt.Sprintf("cell-%d.json", cell.Index))
		raw, err := os.ReadFile(done)
		if err != nil {
			t.Fatal(err)
		}
		withWarm := cacheHits.ReplaceAll(raw, []byte("$0$1\"warm_hits\": 3,\n"))
		if bytes.Equal(withWarm, raw) {
			t.Fatalf("cell %d: record has no stats block to extend", cell.Index)
		}
		withCross := fullEvals.ReplaceAll(withWarm,
			[]byte("$0$1\"gene_delta_evals\": 7,\n$1\"near_delta_evals\": 6,\n$1\"cross_delta_evals\": 5,\n"))
		if bytes.Equal(withCross, withWarm) {
			t.Fatalf("cell %d: record has no kernel-path split to extend", cell.Index)
		}
		if err := os.WriteFile(done, withCross, 0o644); err != nil {
			t.Fatal(err)
		}
		// The final snapshot the warm cache retained: the cell's
		// engine checkpoint after its last generation.
		wl, err := NamedWorkload(cell.Workload)
		if err != nil {
			t.Fatal(err)
		}
		in, err := BuildCellInstance(cell, wl)
		if err != nil {
			t.Fatal(err)
		}
		p, err := cellProblem(full, cell, in)
		if err != nil {
			t.Fatal(err)
		}
		x, err := p.NewExplorer()
		if err != nil {
			t.Fatal(err)
		}
		for !x.Done() {
			x.Step()
		}
		ckpt, err := encodeCellCkpt(cell, x)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(old.CheckpointDir, fmt.Sprintf("cell-%d.ckpt", cell.Index)), ckpt, 0o644); err != nil {
			t.Fatal(err)
		}
	}

	old.Resume = true
	camp, err := RunCampaign(old)
	if err != nil {
		t.Fatal(err)
	}
	for i := range camp.Cells {
		if !camp.Cells[i].Restored() {
			t.Fatalf("cell %d: ran again instead of restoring from its completion record", i)
		}
	}
	gotJSON, gotCSV := campaignArtifacts(t, camp)
	if !bytes.Equal(refJSON, gotJSON) {
		t.Fatal("resume over retained snapshots changed the JSON artifact")
	}
	if !bytes.Equal(refCSV, gotCSV) {
		t.Fatal("resume over retained snapshots changed the CSV artifact")
	}
}
