package expt

import (
	"encoding/json"
	"time"
)

// This file is the campaign event tap: the JSON wire form of the
// CellEvent stream CampaignConfig.Progress delivers. The waserve
// /v1/campaign endpoint streams these lines to its clients; keeping
// the rendering here means the daemon, the CLI and any future consumer
// agree on one schema for campaign telemetry.

// cellEventJSON is the wire form of one progress notification. Unlike
// the campaign artifacts, the stream is telemetry: elapsed_ms is wall
// time and therefore not byte-stable across runs, so it is confined to
// events and never enters an artifact.
type cellEventJSON struct {
	// Type is "cell_start" or "cell_done".
	Type       string `json:"type"`
	Cell       int    `json:"cell"`
	Backend    string `json:"backend"`
	Workload   string `json:"workload"`
	Objectives string `json:"objectives"`
	NW         int    `json:"nw"`
	Replicate  int    `json:"replicate"`
	Seed       int64  `json:"seed"`
	// Completed counts finished cells at the time of the event; Total
	// is the campaign size.
	Completed int `json:"completed"`
	Total     int `json:"total"`
	// Restored marks a cell replayed from a checkpoint record.
	Restored bool `json:"restored,omitempty"`
	// Error carries a failed cell's message (done events only).
	Error string `json:"error,omitempty"`
	// ElapsedMS is the cell's wall time (done events only).
	ElapsedMS float64 `json:"elapsed_ms,omitempty"`
}

// CellEventJSON renders one CellEvent as a single JSON line (no
// trailing newline) for streaming consumers.
func CellEventJSON(ev CellEvent) ([]byte, error) {
	ej := cellEventJSON{
		Type:       "cell_start",
		Cell:       ev.Cell.Index,
		Backend:    ev.Cell.Backend,
		Workload:   ev.Cell.Workload,
		Objectives: ev.Cell.Objectives.String(),
		NW:         ev.Cell.NW,
		Replicate:  ev.Cell.Replicate,
		Seed:       ev.Cell.Seed,
		Completed:  ev.Completed,
		Total:      ev.Total,
		Restored:   ev.Restored,
	}
	if ev.Done {
		ej.Type = "cell_done"
		ej.ElapsedMS = float64(ev.Elapsed) / float64(time.Millisecond)
		if ev.Err != nil {
			ej.Error = ev.Err.Error()
		}
	}
	return json.Marshal(ej)
}
