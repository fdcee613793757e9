package expt

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"slices"

	"repro/internal/core"
)

// This file implements the campaign checkpoint directory
// (CampaignDir): the durable state that lets a killed campaign resume
// where it stopped — mid-cell, not just at cell granularity. The
// on-disk layout of a checkpoint directory is
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
// of them would silently compute different numbers, so
// OpenCampaignDir refuses it instead.
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

// CampaignDir owns a campaign's checkpoint directory: the manifest,
// plus one load and one store per cell file kind. Loads and stores
// both validate the file against the cell's identity, and stores
// write atomically. RunCampaign and the distributed coordinator
// (internal/dist) both go through it, so a directory obeys the same
// rules however its cells ran.
type CampaignDir struct {
	dir   string
	cells []Cell
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

// DecodeManifest rebuilds the campaign configuration a manifest
// records, the inverse of buildManifest for its result-determining
// fields: objective sets by their String names, workloads by name
// through NamedWorkload (the name is the generator spec, so the task
// graph and mapping come out identical). Settings outside the
// identity, such as CheckpointEvery and EvalWorkers, stay zero. A
// distributed worker builds its campaign from the coordinator's
// manifest this way, then re-renders it with ManifestBytes to prove
// that nothing was lost.
func DecodeManifest(raw []byte) (CampaignConfig, error) {
	var m manifestJSON
	if err := json.Unmarshal(raw, &m); err != nil {
		return CampaignConfig{}, fmt.Errorf("expt: corrupt campaign manifest: %w", err)
	}
	if m.Schema != manifestSchema {
		return CampaignConfig{}, fmt.Errorf("expt: manifest schema %q, this build reads %q", m.Schema, manifestSchema)
	}
	cfg := CampaignConfig{
		Backends:       m.Backends,
		NWs:            m.NWs,
		Replicates:     m.Replicates,
		Pop:            m.Pop,
		Generations:    m.Generations,
		Seed:           m.Seed,
		WarmStart:      m.WarmStart,
		Stats:          m.Stats,
		Islands:        m.Islands,
		MigrationEvery: m.MigrationEvery,
		MigrationK:     m.MigrationK,
	}
	for _, name := range m.ObjectiveSets {
		i := slices.IndexFunc(objectiveSets, func(os core.ObjectiveSet) bool { return os.String() == name })
		if i < 0 {
			return CampaignConfig{}, fmt.Errorf("expt: manifest names unknown objective set %q", name)
		}
		cfg.ObjectiveSets = append(cfg.ObjectiveSets, objectiveSets[i])
	}
	for _, name := range m.Workloads {
		wl, err := NamedWorkload(name)
		if err != nil {
			return CampaignConfig{}, fmt.Errorf("expt: manifest workload %q: %w", name, err)
		}
		cfg.Workloads = append(cfg.Workloads, wl)
	}
	return cfg, nil
}

// objectiveSets lists the objective sets a manifest can name.
var objectiveSets = []core.ObjectiveSet{core.TimeEnergyBER, core.TimeEnergy, core.TimeBER}

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

// OpenCampaignDir initializes (or, with cfg.Resume, validates) the
// campaign checkpoint directory at cfg.CheckpointDir.
func OpenCampaignDir(cfg CampaignConfig) (*CampaignDir, error) {
	cfg = cfg.withDefaults()
	if cfg.CheckpointDir == "" {
		return nil, fmt.Errorf("expt: OpenCampaignDir needs CheckpointDir")
	}
	d := &CampaignDir{dir: cfg.CheckpointDir, cells: cfg.Cells()}
	if err := os.MkdirAll(d.dir, 0o755); err != nil {
		return nil, fmt.Errorf("expt: checkpoint dir: %w", err)
	}
	want := buildManifest(cfg, d.cells)
	path := filepath.Join(d.dir, "manifest.json")
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
			return nil, fmt.Errorf("expt: resume: checkpoint directory %s was written by a different campaign configuration (axes, seeds, pop, generations or warm start differ) — resuming would silently change results", d.dir)
		}
	case err == nil:
		return nil, fmt.Errorf("expt: checkpoint dir %s already holds a campaign manifest: pass Resume to continue it, or use a fresh directory", d.dir)
	case !errors.Is(err, os.ErrNotExist):
		return nil, fmt.Errorf("expt: checkpoint dir: %w", err)
	default:
		if err := atomicWriteFile(path, func(w io.Writer) error { return writeIndentedJSON(w, want) }); err != nil {
			return nil, fmt.Errorf("expt: write campaign manifest: %w", err)
		}
	}
	return d, nil
}

// Cells returns the campaign's deterministic cell enumeration.
func (d *CampaignDir) Cells() []Cell { return d.cells }

func (d *CampaignDir) donePath(c Cell) string {
	return filepath.Join(d.dir, fmt.Sprintf("cell-%d.json", c.Index))
}

func (d *CampaignDir) ckptPath(c Cell) string {
	return filepath.Join(d.dir, fmt.Sprintf("cell-%d.ckpt", c.Index))
}

// LoadDone restores cell c from its completion record, if one exists.
func (d *CampaignDir) LoadDone(c Cell) (CellResult, bool, error) {
	raw, err := d.read(c, d.donePath(c))
	if raw == nil || err != nil {
		return CellResult{}, false, err
	}
	art, err := decodeCellDone(c, raw)
	if err != nil {
		return CellResult{}, false, fmt.Errorf("expt: resume: %w", err)
	}
	return CellResult{Cell: c, restored: art,
		SimChecked: art.SimChecked, SimViolations: art.SimViolations, SimBracketMisses: art.SimBracketMisses}, true, nil
}

// StoreDone records c's completion (raw is an encodeCellDone record)
// and drops its in-flight snapshot. A kill between the two operations
// leaves both files; the completion record wins on resume.
func (d *CampaignDir) StoreDone(c Cell, raw []byte) error {
	if _, err := decodeCellDone(c, raw); err != nil {
		return err
	}
	if err := d.write(d.donePath(c), raw); err != nil {
		return fmt.Errorf("expt: record cell %d completion: %w", c.Index, err)
	}
	os.Remove(d.ckptPath(c)) // best effort; superseded either way
	return nil
}

// LoadCkpt returns c's in-flight snapshot file verbatim, nil when
// there is none.
func (d *CampaignDir) LoadCkpt(c Cell) ([]byte, error) {
	raw, err := d.read(c, d.ckptPath(c))
	if raw == nil || err != nil {
		return nil, err
	}
	if _, err := decodeCellCkpt(c, raw); err != nil {
		return nil, fmt.Errorf("expt: resume: %w", err)
	}
	return raw, nil
}

// StoreCkpt stores an in-flight snapshot file of c (raw is an
// encodeCellCkpt file).
func (d *CampaignDir) StoreCkpt(c Cell, raw []byte) error {
	if _, err := decodeCellCkpt(c, raw); err != nil {
		return err
	}
	if err := d.write(d.ckptPath(c), raw); err != nil {
		return fmt.Errorf("expt: checkpoint cell %d: %w", c.Index, err)
	}
	return nil
}

// read returns the file's contents, nil when it does not exist.
func (d *CampaignDir) read(c Cell, path string) ([]byte, error) {
	raw, err := os.ReadFile(path)
	if errors.Is(err, os.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("expt: resume cell %d: %w", c.Index, err)
	}
	return raw, nil
}

func (d *CampaignDir) write(path string, raw []byte) error {
	return atomicWriteFile(path, func(w io.Writer) error {
		_, err := w.Write(raw)
		return err
	})
}

// scheduleOrder returns the cell indices in resume-scheduling order:
// in-flight cells (an engine snapshot exists but no completion
// record) first, then everything else, each group in enumeration
// order. In-flight cells carry the most sunk cost — finishing them
// first converts partial GA work into durable completion records
// before any fresh cell starts.
func (d *CampaignDir) scheduleOrder() []int {
	order := make([]int, 0, len(d.cells))
	var rest []int
	for i, c := range d.cells {
		_, ckptErr := os.Stat(d.ckptPath(c))
		_, doneErr := os.Stat(d.donePath(c))
		if ckptErr == nil && doneErr != nil {
			order = append(order, i)
		} else {
			rest = append(rest, i)
		}
	}
	return append(order, rest...)
}

// encodeCellCkpt renders a cell's in-flight snapshot file: the
// WACELL header followed by the engine checkpoint stream.
func encodeCellCkpt(c Cell, x *core.Explorer) ([]byte, error) {
	var buf bytes.Buffer
	var hdr [16]byte
	off := copy(hdr[:], cellCkptMagic[:])
	binary.LittleEndian.PutUint16(hdr[off:], cellCkptVersion)
	binary.LittleEndian.PutUint32(hdr[off+2:], uint32(c.Index))
	binary.LittleEndian.PutUint32(hdr[off+6:], uint32(c.NW))
	buf.Write(hdr[:off+10])
	if err := x.WriteCheckpoint(&buf); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// decodeCellCkpt validates a cell snapshot file's header against the
// cell identity and returns the embedded engine checkpoint stream.
func decodeCellCkpt(c Cell, raw []byte) ([]byte, error) {
	hdrLen := len(cellCkptMagic) + 2 + 4 + 4
	if len(raw) < hdrLen || !bytes.Equal(raw[:len(cellCkptMagic)], cellCkptMagic[:]) {
		return nil, fmt.Errorf("expt: cell %d: not a cell checkpoint", c.Index)
	}
	off := len(cellCkptMagic)
	if v := binary.LittleEndian.Uint16(raw[off:]); v != cellCkptVersion {
		return nil, fmt.Errorf("expt: cell %d: cell checkpoint version %d, this build reads %d", c.Index, v, cellCkptVersion)
	}
	off += 2
	if idx := binary.LittleEndian.Uint32(raw[off:]); int(idx) != c.Index {
		return nil, fmt.Errorf("expt: cell %d: checkpoint belongs to cell %d", c.Index, idx)
	}
	off += 4
	if nw := binary.LittleEndian.Uint32(raw[off:]); int(nw) != c.NW {
		return nil, fmt.Errorf("expt: cell %d: checkpoint comb size %d, cell wants %d", c.Index, nw, c.NW)
	}
	off += 4
	return raw[off:], nil
}

// encodeCellDone renders a cell's completion record, the
// cell-<N>.json file.
func encodeCellDone(c Cell, art cellArtifact) ([]byte, error) {
	done := cellDoneJSON{Schema: cellDoneSchema, Cell: manifestCellOf(c), cellArtifact: art}
	var buf bytes.Buffer
	if err := writeIndentedJSON(&buf, done); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// decodeCellDone validates a completion record's schema and identity
// against the cell and returns its artifact view.
func decodeCellDone(c Cell, raw []byte) (*cellArtifact, error) {
	var done cellDoneJSON
	if err := json.Unmarshal(raw, &done); err != nil {
		return nil, fmt.Errorf("expt: cell %d: corrupt completion record: %w", c.Index, err)
	}
	if done.Schema != cellDoneSchema {
		return nil, fmt.Errorf("expt: cell %d: completion schema %q, this build reads %q", c.Index, done.Schema, cellDoneSchema)
	}
	if done.Cell != manifestCellOf(c) {
		return nil, fmt.Errorf("expt: cell %d: completion record identifies %+v, campaign expects %+v", c.Index, done.Cell, manifestCellOf(c))
	}
	return &done.cellArtifact, nil
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
