package expt

import (
	"bytes"

	"repro/internal/alloc"
	"repro/internal/core"
)

// This file is the campaign's remote-execution seam: the exported
// operations a distributed coordinator/worker pair (internal/dist)
// composes into a multi-process campaign. A worker runs a whole cell
// through ExecuteCell, which is the in-process executor (executeCell)
// plus the completion-record encoder, and streams back the same
// cell-<N>.ckpt and cell-<N>.json bytes RunCampaign would store. The
// coordinator stores them verbatim through the same CampaignDir, and
// drives island cells through ExecuteCell with a round runner that
// ships each round's segments (RunCellSegment) to workers. So a
// distributed campaign's directory comes out byte-identical to a
// single-process run's.

// ManifestBytes renders the campaign's identity record: the exact
// bytes OpenCampaignDir writes to manifest.json. A distributed worker
// decodes the coordinator's manifest (DecodeManifest), renders its own
// view of the result and byte-compares the two, so any divergence —
// axes, seeds, schema version, even encoding — is caught before a
// single cell runs.
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

// ExecuteCell runs one campaign cell to completion through the
// campaign's executor and returns its completion-record bytes (the
// cell-<N>.json contents). resume, when non-nil, is a cell snapshot
// file (the cell-<N>.ckpt contents) to continue from; emit, when
// non-nil, is called with a fresh snapshot file every
// cfg.CheckpointEvery generations. Island cells run their rounds
// through runner (nil runs them locally) and ignore resume and emit.
func ExecuteCell(cfg CampaignConfig, cell Cell, in *alloc.Instance, resume []byte, emit func(ckpt []byte) error, runner core.RoundRunner) ([]byte, error) {
	cr := executeCell(cfg.withDefaults(), cell, in, resume, emit, runner)
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
	p, err := cellProblem(cfg.withDefaults(), cell, in)
	if err != nil {
		return core.IslandSegmentResult{}, err
	}
	return p.RunIslandSegment(seg)
}
