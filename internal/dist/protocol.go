// Package dist implements distributed campaign execution: a
// coordinator that enumerates campaign cells and hands them to
// worker processes over a length-prefixed TCP protocol, and the
// worker loop that executes them with the ordinary evaluator stack.
//
// The campaign checkpoint formats double as the wire formats. The
// session opens with the coordinator's manifest.json bytes, the one
// encoding of the campaign identity: the worker decodes its campaign
// from them (expt.DecodeManifest) and proves it by rendering the same
// bytes back. A worker streams back the exact cell-<N>.ckpt /
// cell-<N>.json bytes an in-process run stores, the coordinator stores
// them verbatim in its checkpoint directory, and the artifact
// directory comes out byte-identical to a single-process run's. A
// worker that dies mid-cell loses nothing but the tail since its
// last streamed snapshot: the coordinator holds the cell's lease,
// detects the broken connection, and reassigns the cell — resume
// bytes included — to the next free worker. An island cell runs whole
// on one worker and streams no snapshots, so a reassigned island cell
// re-runs from scratch, as it does on an in-process resume.
//
// The protocol carries no authentication and no encryption: it is
// meant for trusted hosts (a lab cluster, one multi-core machine),
// not the open internet.
package dist

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
)

// Frame layout, little-endian:
//
//	u32 length   of everything after this field
//	u8  type     one of the msg* constants
//	u32 metaLen  length of the JSON metadata
//	... meta     JSON, message-type specific
//	... blob     opaque payload (checkpoint bytes, records, manifest)
//
// Every exchange is synchronous per connection: the coordinator
// sends one assignment and reads frames until the cell resolves, so
// there is no interleaving to disambiguate.
//
// The type values are part of the wire: a worker and a coordinator of
// different builds still pass the handshake when their manifests
// agree, so a value is never renumbered or reused.
const (
	// msgConfig (coordinator → worker) opens a session: blob is the
	// coordinator's manifest rendering, the campaign identity the
	// worker decodes its configuration from; meta is sessionMeta, the
	// settings outside that identity.
	msgConfig = 1
	// msgReady (worker → coordinator) accepts the session: blob is
	// the worker's own manifest rendering, which the coordinator
	// byte-compares against its own — identity is checked in both
	// directions before any work is assigned.
	msgReady = 2
	// msgReject (worker → coordinator) refuses the session: meta
	// carries the reason. Sent when the coordinator's manifest does
	// not decode or does not re-render to the same bytes.
	msgReject = 3
	// msgCell (coordinator → worker) assigns one whole cell, island
	// cells included: meta is cellMeta, blob the cell's resume
	// snapshot (empty = fresh).
	msgCell = 4
	// msgCkpt (worker → coordinator) streams an in-flight snapshot
	// of the running cell: blob is a complete cell-<N>.ckpt file.
	msgCkpt = 5
	// msgDone (worker → coordinator) completes a cell: blob is the
	// complete cell-<N>.json record.
	msgDone = 6
	// msgFail (worker → coordinator) reports a deterministic cell
	// failure: meta carries the error.
	msgFail = 7
	// 8 and 9 are retired: they carried island segments and their
	// results when the coordinator fanned one cell's islands out to
	// several workers. Either side now answers them as an unexpected
	// frame type.
	//
	// msgShutdown (coordinator → worker) ends the session cleanly.
	msgShutdown = 10
)

// maxFrame bounds a frame so a corrupt or hostile peer cannot make
// the reader buffer unbounded data (readFrame's buffer follows the
// bytes received, so the length prefix alone reserves nothing).
// Engine checkpoints of paper-scale cells are a few hundred
// kilobytes; a gigabyte is far beyond anything legitimate.
const maxFrame = 1 << 30

// cellMeta addresses a cell (and, for failures, carries the error).
type cellMeta struct {
	Index int    `json:"index"`
	Error string `json:"error,omitempty"`
}

// sessionMeta carries the campaign settings a worker needs that are
// not part of the campaign identity, so the manifest does not record
// them: the snapshot cadence and the per-cell evaluation pool.
type sessionMeta struct {
	CheckpointEvery int `json:"checkpoint_every,omitempty"`
	EvalWorkers     int `json:"eval_workers,omitempty"`
}

// writeFrame writes one protocol frame. meta nil means empty
// metadata.
func writeFrame(w io.Writer, typ byte, meta any, blob []byte) error {
	var metaRaw []byte
	if meta != nil {
		var err error
		if metaRaw, err = json.Marshal(meta); err != nil {
			return fmt.Errorf("dist: encode frame meta: %w", err)
		}
	}
	total := 1 + 4 + len(metaRaw) + len(blob)
	if total > maxFrame {
		return fmt.Errorf("dist: frame of %d bytes exceeds the %d-byte limit", total, maxFrame)
	}
	hdr := make([]byte, 4+1+4)
	binary.LittleEndian.PutUint32(hdr[0:], uint32(total))
	hdr[4] = typ
	binary.LittleEndian.PutUint32(hdr[5:], uint32(len(metaRaw)))
	for _, part := range [][]byte{hdr, metaRaw, blob} {
		if _, err := w.Write(part); err != nil {
			return err
		}
	}
	return nil
}

// readFrame reads one protocol frame. The payload buffer grows with
// the bytes actually received, not with the declared length, so a
// length prefix alone cannot make the reader reserve memory.
func readFrame(r io.Reader) (typ byte, meta, blob []byte, err error) {
	var lenBuf [4]byte
	if _, err = io.ReadFull(r, lenBuf[:]); err != nil {
		return 0, nil, nil, err
	}
	total := binary.LittleEndian.Uint32(lenBuf[:])
	if total < 5 || total > maxFrame {
		return 0, nil, nil, fmt.Errorf("dist: implausible frame length %d", total)
	}
	payload, err := io.ReadAll(io.LimitReader(r, int64(total)))
	if err == nil && len(payload) < int(total) {
		err = io.ErrUnexpectedEOF
	}
	if err != nil {
		return 0, nil, nil, fmt.Errorf("dist: truncated frame: %w", err)
	}
	typ = payload[0]
	metaLen := binary.LittleEndian.Uint32(payload[1:5])
	if int(metaLen) > len(payload)-5 {
		return 0, nil, nil, fmt.Errorf("dist: frame metadata length %d exceeds payload", metaLen)
	}
	meta = payload[5 : 5+metaLen]
	blob = payload[5+metaLen:]
	if len(blob) == 0 {
		blob = nil
	}
	return typ, meta, blob, nil
}

// isConnLost normalizes the read errors a vanished peer produces.
func isConnLost(err error) bool {
	return errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF)
}

// parseMeta decodes frame metadata; empty input is the zero value.
func parseMeta(raw []byte, v any) error {
	if len(raw) == 0 {
		return nil
	}
	return json.Unmarshal(raw, v)
}
