package expt

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"time"

	"repro/internal/alloc"
	"repro/internal/core"
)

// This file is the campaign's remote-execution seam: the exported
// operations a distributed coordinator/worker pair (internal/dist)
// composes into a multi-process campaign. The checkpoint formats
// double as the wire formats — a worker streams back the exact
// cell-<N>.ckpt and cell-<N>.json bytes the in-process checkpoint
// manager writes, the coordinator stores them verbatim, and the
// campaign's artifact directory comes out byte-identical to a
// single-process run's. Everything here is a thin recombination of
// the in-process pieces (runCell, the checkpoint manager, the island
// driver), so there is no second execution path to diverge.

// encodeCellCkpt renders a cell's in-flight snapshot file: the
// WACELL header followed by the engine checkpoint stream — the exact
// bytes writeCellCheckpoint persists.
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

// encodeCellDone renders a cell's completion record — the exact
// bytes writeDone persists as cell-<N>.json.
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

// ManifestBytes renders the campaign's identity record: the exact
// bytes the checkpoint manager writes to manifest.json. A
// distributed worker renders its own view from the configuration it
// received over the wire and byte-compares against the
// coordinator's, so any divergence — axes, seeds, schema version,
// even encoding — is caught before a single cell runs.
func ManifestBytes(cfg CampaignConfig) ([]byte, error) {
	cfg = cfg.withDefaults()
	var buf bytes.Buffer
	if err := writeIndentedJSON(&buf, buildManifest(cfg, cfg.Cells())); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// BuildCellInstance builds the shared evaluation instance of one
// cell's (backend, workload, NW) triple — what RunCampaign prebuilds
// per triple, exposed for worker processes that receive cells one at
// a time.
func BuildCellInstance(cell Cell, wl Workload) (*alloc.Instance, error) {
	return core.NewSharedInstance(core.Config{NW: cell.NW, Backend: cell.Backend, App: wl.App, Mapping: wl.Mapping})
}

// ExecuteCell runs one campaign cell to completion in this process
// and returns its completion-record bytes (the cell-<N>.json
// contents). resume, when non-nil, is a cell snapshot file (the
// cell-<N>.ckpt contents) to continue from; emit, when non-nil, is
// called with a fresh snapshot file every cfg.CheckpointEvery
// generations — the durability stream a distributed worker forwards
// to its coordinator. The execution is identical to the in-process
// runCell: same problem construction, same step loop, same sim
// cross-check, same record encoding.
func ExecuteCell(cfg CampaignConfig, cell Cell, in *alloc.Instance, resume []byte, emit func(ckpt []byte) error) ([]byte, error) {
	cfg = cfg.withDefaults()
	t0 := time.Now()
	if cfg.Islands > 1 {
		cr := runIslandCell(cfg, in, cell, nil, t0)
		if cr.Err != nil {
			return nil, cr.Err
		}
		return encodeCellDone(cell, cr.artifact())
	}
	p, err := cellProblem(cfg, cell, in)
	if err != nil {
		return nil, err
	}
	var x *core.Explorer
	if resume != nil {
		payload, err := decodeCellCkpt(cell, resume)
		if err != nil {
			return nil, err
		}
		if x, err = p.ResumeExplorer(bytes.NewReader(payload)); err != nil {
			return nil, fmt.Errorf("expt: resume cell %d: %w", cell.Index, err)
		}
	} else {
		if x, err = p.NewExplorer(); err != nil {
			return nil, err
		}
	}
	for !x.Done() {
		x.Step()
		if emit != nil && cfg.CheckpointEvery > 0 && !x.Done() && x.Generation()%cfg.CheckpointEvery == 0 {
			ck, err := encodeCellCkpt(cell, x)
			if err != nil {
				return nil, err
			}
			if err := emit(ck); err != nil {
				return nil, err
			}
		}
	}
	res, err := x.Finish()
	cr := CellResult{Cell: cell, Result: res, Err: err}
	if cfg.Stats && err == nil {
		cr.stats = cellStatsOf(x.Stats())
	}
	if err == nil && res != nil {
		cr.SimChecked, cr.SimViolations, cr.SimBracketMisses, cr.Err = simCheck(p.Instance(), res)
	}
	if cr.Err != nil {
		return nil, cr.Err
	}
	return encodeCellDone(cell, cr.artifact())
}

// RunCellSegment executes one island segment of a cell — the unit of
// work a distributed island-model run ships to workers. The segment
// is a pure function of (campaign configuration, cell, segment), so
// any worker computes the same bytes.
func RunCellSegment(cfg CampaignConfig, cell Cell, in *alloc.Instance, seg core.IslandSegment) (core.IslandSegmentResult, error) {
	cfg = cfg.withDefaults()
	p, err := cellProblem(cfg, cell, in)
	if err != nil {
		return core.IslandSegmentResult{}, err
	}
	return p.RunIslandSegment(seg)
}

// DriveIslandCell runs one island-model cell through an arbitrary
// round runner (nil = local serial execution) and returns its
// completion-record bytes. The distributed coordinator passes a
// runner that ships each round's segments to workers; because
// segments communicate only through checkpoint bytes, the record
// comes out identical to a local run's.
func DriveIslandCell(cfg CampaignConfig, cell Cell, in *alloc.Instance, runner core.RoundRunner) ([]byte, error) {
	cfg = cfg.withDefaults()
	if cfg.Islands <= 1 {
		return nil, fmt.Errorf("expt: cell %d: DriveIslandCell needs Islands > 1", cell.Index)
	}
	p, err := cellProblem(cfg, cell, in)
	if err != nil {
		return nil, err
	}
	res, stats, err := p.RunIslands(cfg.islandSpec(), runner)
	cr := CellResult{Cell: cell, Result: res, Err: err}
	if cfg.Stats && err == nil {
		cr.stats = cellStatsOf(stats)
	}
	if err == nil && res != nil {
		cr.SimChecked, cr.SimViolations, cr.SimBracketMisses, cr.Err = simCheck(p.Instance(), res)
	}
	if cr.Err != nil {
		return nil, cr.Err
	}
	return encodeCellDone(cell, cr.artifact())
}

// CampaignDir is a coordinator's handle on a campaign checkpoint
// directory: the same manifest handling, identity validation and
// atomic write discipline as the in-process checkpoint manager, plus
// verbatim put/get of the raw record bytes workers stream back.
type CampaignDir struct {
	mgr   *checkpointManager
	cells []Cell
}

// OpenCampaignDir initializes (or, with cfg.Resume, validates) a
// campaign checkpoint directory. cfg.CheckpointDir is required.
func OpenCampaignDir(cfg CampaignConfig) (*CampaignDir, error) {
	cfg = cfg.withDefaults()
	if cfg.CheckpointDir == "" {
		return nil, fmt.Errorf("expt: OpenCampaignDir needs CheckpointDir")
	}
	cells := cfg.Cells()
	mgr, err := newCheckpointManager(cfg, cells)
	if err != nil {
		return nil, err
	}
	return &CampaignDir{mgr: mgr, cells: cells}, nil
}

// Cells returns the campaign's deterministic cell enumeration.
func (d *CampaignDir) Cells() []Cell { return d.cells }

// HasDone reports whether cell c already has a valid completion
// record (validating schema and identity, like a resume would).
func (d *CampaignDir) HasDone(c Cell) (bool, error) {
	_, ok, err := d.mgr.loadDone(c)
	return ok, err
}

// LoadCkptRaw returns cell c's in-flight snapshot file verbatim, if
// one exists — the resume payload for reassigning an interrupted
// cell to a (possibly different) worker.
func (d *CampaignDir) LoadCkptRaw(c Cell) ([]byte, bool, error) {
	raw, err := readFileIfExists(d.mgr.ckptPath(c))
	if err != nil || raw == nil {
		return nil, false, err
	}
	if _, err := decodeCellCkpt(c, raw); err != nil {
		return nil, false, err
	}
	return raw, true, nil
}

// PutCkptRaw durably stores a snapshot file streamed back by a
// worker, verbatim, after validating its header against the cell
// identity.
func (d *CampaignDir) PutCkptRaw(c Cell, raw []byte) error {
	if _, err := decodeCellCkpt(c, raw); err != nil {
		return err
	}
	if err := atomicWriteFile(d.mgr.ckptPath(c), func(w io.Writer) error {
		_, err := w.Write(raw)
		return err
	}); err != nil {
		return fmt.Errorf("expt: checkpoint cell %d: %w", c.Index, err)
	}
	return nil
}

// PutDoneRaw durably stores a completion record streamed back by a
// worker, verbatim, after validating its schema and identity, and
// drops the cell's in-flight snapshot — the same commit sequence as
// the in-process writeDone.
func (d *CampaignDir) PutDoneRaw(c Cell, raw []byte) error {
	if _, err := decodeCellDone(c, raw); err != nil {
		return err
	}
	if err := atomicWriteFile(d.mgr.donePath(c), func(w io.Writer) error {
		_, err := w.Write(raw)
		return err
	}); err != nil {
		return fmt.Errorf("expt: record cell %d completion: %w", c.Index, err)
	}
	os.Remove(d.mgr.ckptPath(c)) // best effort; superseded either way
	return nil
}

// readFileIfExists returns the file's contents, nil when it does not
// exist.
func readFileIfExists(path string) ([]byte, error) {
	raw, err := os.ReadFile(path)
	if errors.Is(err, os.ErrNotExist) {
		return nil, nil
	}
	return raw, err
}
