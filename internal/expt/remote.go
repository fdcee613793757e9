package expt

import (
	"bytes"

	"repro/internal/alloc"
	"repro/internal/core"
)

// This file is the campaign's remote-execution seam: the exported
// operations a distributed coordinator/worker pair (internal/dist)
// composes into a multi-process campaign. A worker runs a whole cell,
// island cells included, through ExecuteCell, which is the in-process
// executor (executeCell) plus the completion-record encoder, and
// streams back the same cell-<N>.ckpt and cell-<N>.json bytes
// RunCampaign would store. The coordinator stores them verbatim
// through the same CampaignDir, so a distributed campaign's directory
// comes out byte-identical to a single-process run's.

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
// cfg.CheckpointEvery generations. Island cells ignore resume and
// emit and run from scratch.
func ExecuteCell(cfg CampaignConfig, cell Cell, in *alloc.Instance, resume []byte, emit func(ckpt []byte) error) ([]byte, error) {
	cr := executeCell(cfg.withDefaults(), cell, in, resume, emit)
	if cr.Err != nil {
		return nil, cr.Err
	}
	return encodeCellDone(cell, cr.artifact())
}
