package expt

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"sync"

	"repro/internal/core"
)

// This file implements the campaign checkpoint manager: the durable
// state that lets a killed campaign resume where it stopped — mid-
// cell, not just at cell granularity. The on-disk layout of a
// checkpoint directory is
//
//	manifest.json   campaign identity: config axes, the deterministic
//	                cell enumeration and the identity-derived seeds.
//	                Written once at campaign start, immutable after;
//	                resume validates it against the current config and
//	                fails loudly on any mismatch.
//	cell-<N>.json   completed cell N's artifact view (fronts with
//	                genomes, counters, sim cross-check). Its presence
//	                IS the completion record — no manifest rewrite,
//	                so completion commits with one atomic rename.
//	cell-<N>.ckpt   in-flight cell N's engine checkpoint (a small
//	                cell header followed by the nsga2 checkpoint
//	                stream), rewritten every CheckpointEvery
//	                generations and removed when the cell completes.
//
// Every file is written to <name>.tmp, fsynced and renamed into
// place, so a kill at any instant leaves either the previous or the
// next consistent state — never a torn file. Artifacts of a resumed
// campaign are byte-identical to an uninterrupted run's: the engine
// checkpoint replays the GA bit-for-bit, and completed cells are
// re-rendered from artifact views whose floats round-trip exactly
// through JSON.

// ErrCampaignStopped reports that a campaign was stopped on purpose
// after StopAfterCheckpoints checkpoint writes — the preemption
// crash-test aid behind the CI resume-equivalence job.
var ErrCampaignStopped = errors.New("expt: campaign stopped after requested checkpoint count (crash test)")

const (
	// manifestSchema v2 added the backend dimension to the campaign
	// identity (manifest Backends list and per-cell Backend fields,
	// both always populated). v1 directories predate the dimension and
	// cannot prove which fabric produced them, so resume rejects them
	// fail-loud instead of assuming "ring".
	manifestSchema = "wadate-checkpoint/v2"
	cellDoneSchema = "wadate-cell/v2"

	// DefaultCheckpointEvery is the in-flight snapshot cadence (in
	// generations) used when CheckpointDir is set but CheckpointEvery
	// is not.
	DefaultCheckpointEvery = 25
)

// cellCkptMagic and cellCkptVersion head every cell-<N>.ckpt file,
// in front of the embedded nsga2 checkpoint (which carries its own
// magic, version, genome geometry and seed):
//
//	magic   [6]byte "WACELL"
//	version uint16
//	index   uint32  cell index in the campaign enumeration
//	nw      uint32  comb size of the cell
var cellCkptMagic = [6]byte{'W', 'A', 'C', 'E', 'L', 'L'}

const cellCkptVersion = 1

// manifestJSON is the campaign identity record. Every field
// influences results; a resume whose configuration disagrees on any
// of them would silently compute different numbers, so the manager
// refuses it instead.
type manifestJSON struct {
	Schema string `json:"schema"`
	// Backends is always populated (["ring"] for a default campaign):
	// unlike the byte-stable JSON/CSV artifacts, the manifest is an
	// identity record, and an explicit backend list is what lets
	// resume refuse a directory produced by a different fabric sweep.
	Backends      []string `json:"backends"`
	NWs           []int    `json:"nws"`
	ObjectiveSets []string `json:"objective_sets"`
	Workloads     []string `json:"workloads"`
	Replicates    int      `json:"replicates"`
	Pop           int      `json:"pop"`
	Generations   int      `json:"generations"`
	Seed          int64    `json:"seed"`
	WarmStart     bool     `json:"warm_start"`
	// Stats is part of the identity because it changes the artifact
	// bytes: a campaign completed without instrumentation cannot be
	// resumed into one that expects stats on every restored cell.
	Stats bool `json:"stats,omitempty"`
	// The island-model parameters change every cell's trajectory, so
	// they join the identity; single-engine campaigns omit them and
	// keep their historical manifest bytes.
	Islands        int            `json:"islands,omitempty"`
	MigrationEvery int            `json:"migration_every,omitempty"`
	MigrationK     int            `json:"migration_k,omitempty"`
	Cells          []manifestCell `json:"cells"`
}

type manifestCell struct {
	Index      int    `json:"index"`
	Backend    string `json:"backend"`
	NW         int    `json:"nw"`
	Objectives string `json:"objectives"`
	Workload   string `json:"workload"`
	Replicate  int    `json:"replicate"`
	Seed       int64  `json:"seed"`
}

// cellDoneJSON is a completed cell's durable record: identity (to
// catch files shuffled between directories) plus the artifact view
// the campaign writers consume.
type cellDoneJSON struct {
	Schema string       `json:"schema"`
	Cell   manifestCell `json:"cell"`
	cellArtifact
}

// checkpointManager owns a campaign's checkpoint directory.
type checkpointManager struct {
	dir   string
	every int

	// crashAfter > 0 stops the campaign after that many checkpoint
	// writes; mu guards the write counter across cell workers.
	crashAfter int
	mu         sync.Mutex
	written    int
	stopped    bool
}

func buildManifest(cfg CampaignConfig, cells []Cell) manifestJSON {
	m := manifestJSON{
		Schema:      manifestSchema,
		Backends:    cfg.Backends,
		NWs:         cfg.NWs,
		Replicates:  cfg.Replicates,
		Pop:         cfg.Pop,
		Generations: cfg.Generations,
		Seed:        cfg.Seed,
		WarmStart:   cfg.WarmStart,
		Stats:       cfg.Stats,
	}
	if cfg.Islands > 1 {
		m.Islands = cfg.Islands
		m.MigrationEvery = cfg.MigrationEvery
		m.MigrationK = cfg.MigrationK
	}
	for _, os := range cfg.ObjectiveSets {
		m.ObjectiveSets = append(m.ObjectiveSets, os.String())
	}
	for _, wl := range cfg.Workloads {
		m.Workloads = append(m.Workloads, wl.Name)
	}
	for _, c := range cells {
		m.Cells = append(m.Cells, manifestCellOf(c))
	}
	return m
}

func manifestCellOf(c Cell) manifestCell {
	return manifestCell{
		Index:      c.Index,
		Backend:    c.Backend,
		NW:         c.NW,
		Objectives: c.Objectives.String(),
		Workload:   c.Workload,
		Replicate:  c.Replicate,
		Seed:       c.Seed,
	}
}

// newCheckpointManager initializes (or, with resume, validates) the
// checkpoint directory for a campaign. cfg must already have its
// defaults applied.
func newCheckpointManager(cfg CampaignConfig, cells []Cell) (*checkpointManager, error) {
	m := &checkpointManager{
		dir:        cfg.CheckpointDir,
		every:      cfg.CheckpointEvery,
		crashAfter: cfg.StopAfterCheckpoints,
	}
	if err := os.MkdirAll(m.dir, 0o755); err != nil {
		return nil, fmt.Errorf("expt: checkpoint dir: %w", err)
	}
	want := buildManifest(cfg, cells)
	path := filepath.Join(m.dir, "manifest.json")
	raw, err := os.ReadFile(path)
	switch {
	case cfg.Resume:
		if err != nil {
			return nil, fmt.Errorf("expt: resume: cannot read campaign manifest: %w", err)
		}
		var have manifestJSON
		if err := json.Unmarshal(raw, &have); err != nil {
			return nil, fmt.Errorf("expt: resume: corrupt campaign manifest %s: %w", path, err)
		}
		if have.Schema != manifestSchema {
			return nil, fmt.Errorf("expt: resume: manifest schema %q, this build reads %q", have.Schema, manifestSchema)
		}
		if !reflect.DeepEqual(have, want) {
			return nil, fmt.Errorf("expt: resume: checkpoint directory %s was written by a different campaign configuration (axes, seeds, pop, generations or warm start differ) — resuming would silently change results", m.dir)
		}
	case err == nil:
		return nil, fmt.Errorf("expt: checkpoint dir %s already holds a campaign manifest: pass Resume to continue it, or use a fresh directory", m.dir)
	case !errors.Is(err, os.ErrNotExist):
		return nil, fmt.Errorf("expt: checkpoint dir: %w", err)
	default:
		if err := atomicWriteFile(path, func(w io.Writer) error { return writeIndentedJSON(w, want) }); err != nil {
			return nil, fmt.Errorf("expt: write campaign manifest: %w", err)
		}
	}
	return m, nil
}

func (m *checkpointManager) donePath(c Cell) string {
	return filepath.Join(m.dir, fmt.Sprintf("cell-%d.json", c.Index))
}

func (m *checkpointManager) ckptPath(c Cell) string {
	return filepath.Join(m.dir, fmt.Sprintf("cell-%d.ckpt", c.Index))
}

// loadDone returns the completed-cell record of c, if one exists.
func (m *checkpointManager) loadDone(c Cell) (*cellArtifact, bool, error) {
	raw, err := os.ReadFile(m.donePath(c))
	if errors.Is(err, os.ErrNotExist) {
		return nil, false, nil
	}
	if err != nil {
		return nil, false, fmt.Errorf("expt: resume cell %d: %w", c.Index, err)
	}
	art, err := decodeCellDone(c, raw)
	if err != nil {
		return nil, false, fmt.Errorf("expt: resume: %w", err)
	}
	return art, true, nil
}

// writeDone atomically records c's completion and drops its in-flight
// snapshot. A kill between the two operations leaves both files; the
// completion record wins on resume. The record bytes come from
// encodeCellDone — the same encoder a distributed worker streams
// records through, so both paths write identical files.
func (m *checkpointManager) writeDone(c Cell, art cellArtifact) error {
	raw, err := encodeCellDone(c, art)
	if err != nil {
		return fmt.Errorf("expt: record cell %d completion: %w", c.Index, err)
	}
	if err := atomicWriteFile(m.donePath(c), func(w io.Writer) error {
		_, err := w.Write(raw)
		return err
	}); err != nil {
		return fmt.Errorf("expt: record cell %d completion: %w", c.Index, err)
	}
	os.Remove(m.ckptPath(c)) // best effort; superseded either way
	return nil
}

// scheduleOrder returns the cell indices in resume-scheduling order:
// in-flight cells (an engine snapshot exists but no completion
// record) first, then everything else, each group in enumeration
// order. In-flight cells carry the most sunk cost — finishing them
// first converts partial GA work into durable completion records
// before any fresh cell starts.
func (m *checkpointManager) scheduleOrder(cells []Cell) []int {
	order := make([]int, 0, len(cells))
	var rest []int
	for i, c := range cells {
		_, ckptErr := os.Stat(m.ckptPath(c))
		_, doneErr := os.Stat(m.donePath(c))
		if ckptErr == nil && doneErr != nil {
			order = append(order, i)
		} else {
			rest = append(rest, i)
		}
	}
	return append(order, rest...)
}

// loadCellCheckpoint returns the embedded engine checkpoint of c's
// in-flight snapshot, if one exists.
func (m *checkpointManager) loadCellCheckpoint(c Cell) ([]byte, bool, error) {
	raw, err := os.ReadFile(m.ckptPath(c))
	if errors.Is(err, os.ErrNotExist) {
		return nil, false, nil
	}
	if err != nil {
		return nil, false, fmt.Errorf("expt: resume cell %d: %w", c.Index, err)
	}
	payload, err := decodeCellCkpt(c, raw)
	if err != nil {
		return nil, false, fmt.Errorf("expt: resume: %w", err)
	}
	return payload, true, nil
}

// writeCellCheckpoint atomically snapshots an in-flight cell and
// accounts the write toward the crash-test stop. The snapshot bytes
// come from encodeCellCkpt — the same encoder a distributed worker
// streams snapshots through.
func (m *checkpointManager) writeCellCheckpoint(c Cell, x *core.Explorer) error {
	raw, err := encodeCellCkpt(c, x)
	if err != nil {
		return fmt.Errorf("expt: checkpoint cell %d: %w", c.Index, err)
	}
	if err := atomicWriteFile(m.ckptPath(c), func(w io.Writer) error {
		_, err := w.Write(raw)
		return err
	}); err != nil {
		return fmt.Errorf("expt: checkpoint cell %d: %w", c.Index, err)
	}
	m.mu.Lock()
	m.written++
	if m.crashAfter > 0 && m.written >= m.crashAfter {
		m.stopped = true
	}
	m.mu.Unlock()
	return nil
}

// stopRequested reports whether the crash-test stop has tripped.
func (m *checkpointManager) stopRequested() bool {
	if m == nil {
		return false
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.stopped
}

// atomicWriteFile writes via tmp+fsync+rename, so the destination
// path only ever holds a complete file.
func atomicWriteFile(path string, write func(io.Writer) error) error {
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return err
	}
	// The rename is only durable once the directory entry itself is
	// flushed: sync the parent, or a machine-level stop (the exact
	// event checkpoints exist for) could roll the directory back to a
	// state without the file despite the data blocks being on disk.
	d, err := os.Open(filepath.Dir(path))
	if err != nil {
		return err
	}
	if err := d.Sync(); err != nil {
		d.Close()
		return err
	}
	return d.Close()
}
