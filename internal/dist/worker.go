package dist

import (
	"bytes"
	"errors"
	"fmt"
	"net"
	"time"

	"repro/internal/alloc"
	"repro/internal/expt"
)

// ErrWorkerHalted is returned by Worker.Run when the configured
// HaltAfterCheckpoints budget is exhausted: the worker drops its
// connection mid-cell without a farewell, exactly like a crash. The
// deterministic worker-kill behind the distributed-equivalence CI
// job.
var ErrWorkerHalted = errors.New("dist: worker halted after checkpoint budget (simulated crash)")

// WorkerOptions configures Run.
type WorkerOptions struct {
	// Addr is the coordinator's TCP address.
	Addr string
	// HaltAfterCheckpoints > 0 makes the worker die abruptly after
	// streaming that many snapshot frames (Run returns
	// ErrWorkerHalted).
	HaltAfterCheckpoints int
	// Log, when non-nil, receives human-oriented progress lines.
	Log func(format string, args ...any)
}

// worker executes jobs for one coordinator session.
type worker struct {
	opts  WorkerOptions
	cfg   expt.CampaignConfig
	cells []expt.Cell

	// instances caches the shared evaluation instance per
	// (backend, workload, NW) triple — cells arrive one at a time but
	// share triples, and instance construction dominates short cells.
	instances map[string]*alloc.Instance

	ckptsSent int
}

// Run connects to the coordinator, validates the campaign identity,
// and executes assigned cells until the coordinator shuts the session
// down. It returns nil on a clean shutdown, ErrManifestMismatch when
// the identities disagree, ErrWorkerHalted when a simulated crash was
// requested, and an error for any frame type a worker does not take
// (the retired segment types included).
func Run(opts WorkerOptions) error {
	conn, err := dialRetry(opts.Addr)
	if err != nil {
		return err
	}
	defer conn.Close()
	w := &worker{opts: opts, instances: make(map[string]*alloc.Instance)}

	typ, meta, manifest, err := readFrame(conn)
	if err != nil {
		return fmt.Errorf("dist: handshake with %s: %w", opts.Addr, err)
	}
	if typ != msgConfig {
		return fmt.Errorf("dist: coordinator opened with frame type %d, want config", typ)
	}
	var session sessionMeta
	if err := parseMeta(meta, &session); err != nil {
		return fmt.Errorf("dist: corrupt session settings: %w", err)
	}
	w.cfg, err = expt.DecodeManifest(manifest)
	var local []byte
	if err == nil {
		local, err = expt.ManifestBytes(w.cfg)
	}
	if err == nil && !bytes.Equal(local, manifest) {
		err = errors.New("this build renders a different manifest for the decoded configuration")
	}
	if err != nil {
		writeFrame(conn, msgReject, cellMeta{Error: err.Error()}, nil)
		return fmt.Errorf("%w: %v", ErrManifestMismatch, err)
	}
	w.cfg.CheckpointEvery, w.cfg.EvalWorkers = session.CheckpointEvery, session.EvalWorkers
	w.cells = w.cfg.Cells()
	if err := writeFrame(conn, msgReady, nil, local); err != nil {
		return err
	}
	w.logf("joined coordinator %s (%d campaign cells)", opts.Addr, len(w.cells))

	for {
		typ, meta, blob, err := readFrame(conn)
		if err != nil {
			if isConnLost(err) {
				// Coordinator gone without a shutdown frame — it
				// crashed or was killed; nothing left to do here.
				return fmt.Errorf("dist: coordinator %s vanished: %w", opts.Addr, err)
			}
			return err
		}
		switch typ {
		case msgShutdown:
			w.logf("coordinator released this worker")
			return nil
		case msgCell:
			if err := w.runCell(conn, meta, blob); err != nil {
				return err
			}
		default:
			return fmt.Errorf("dist: unexpected frame type %d from coordinator", typ)
		}
	}
}

func (w *worker) logf(format string, args ...any) {
	if w.opts.Log != nil {
		w.opts.Log(format, args...)
	}
}

func (w *worker) cellAt(meta []byte) (expt.Cell, error) {
	var m cellMeta
	if err := parseMeta(meta, &m); err != nil {
		return expt.Cell{}, fmt.Errorf("dist: corrupt assignment: %w", err)
	}
	if m.Index < 0 || m.Index >= len(w.cells) {
		return expt.Cell{}, fmt.Errorf("dist: assigned cell %d of a %d-cell campaign", m.Index, len(w.cells))
	}
	return w.cells[m.Index], nil
}

func (w *worker) instance(cell expt.Cell) (*alloc.Instance, error) {
	key := fmt.Sprintf("%s|%s|%d", cell.Backend, cell.Workload, cell.NW)
	if in, ok := w.instances[key]; ok {
		return in, nil
	}
	wl, err := expt.NamedWorkload(cell.Workload)
	if err != nil {
		return nil, err
	}
	in, err := expt.BuildCellInstance(cell, wl)
	if err != nil {
		return nil, err
	}
	w.instances[key] = in
	return in, nil
}

// runCell executes one whole cell, streaming snapshot frames as the
// engine crosses checkpoint boundaries. A deterministic evaluation
// failure is reported with msgFail and the session continues; a
// send failure (coordinator gone) or a simulated crash ends Run.
func (w *worker) runCell(conn net.Conn, meta, resume []byte) error {
	cell, err := w.cellAt(meta)
	if err != nil {
		return err
	}
	in, err := w.instance(cell)
	if err != nil {
		return w.reportFail(conn, cell, err)
	}
	if resume != nil {
		w.logf("cell %d: resuming (%d snapshot bytes)", cell.Index, len(resume))
	} else {
		w.logf("cell %d: running", cell.Index)
	}
	emit := func(ck []byte) error {
		if err := writeFrame(conn, msgCkpt, nil, ck); err != nil {
			return err
		}
		w.ckptsSent++
		if w.opts.HaltAfterCheckpoints > 0 && w.ckptsSent >= w.opts.HaltAfterCheckpoints {
			return ErrWorkerHalted
		}
		return nil
	}
	done, err := expt.ExecuteCell(w.cfg, cell, in, resume, emit)
	if err != nil {
		if errors.Is(err, ErrWorkerHalted) {
			// Simulated crash: sever the connection with the lease
			// held, no farewell frame.
			conn.Close()
			return ErrWorkerHalted
		}
		return w.reportFail(conn, cell, err)
	}
	w.logf("cell %d: done", cell.Index)
	return writeFrame(conn, msgDone, nil, done)
}

// reportFail forwards a deterministic failure and keeps the session
// alive for further assignments.
func (w *worker) reportFail(conn net.Conn, cell expt.Cell, cause error) error {
	w.logf("cell %d: failed: %v", cell.Index, cause)
	return writeFrame(conn, msgFail, cellMeta{Index: cell.Index, Error: cause.Error()}, nil)
}

// dialAttempts bounds dialRetry's connection attempts.
const dialAttempts = 30

// dialRetry connects with exponential backoff from 100ms capped at 2s:
// workers routinely start before their coordinator's listener is up.
func dialRetry(addr string) (net.Conn, error) {
	backoff := 100 * time.Millisecond
	var lastErr error
	for i := 0; i < dialAttempts; i++ {
		conn, err := net.Dial("tcp", addr)
		if err == nil {
			return conn, nil
		}
		lastErr = err
		time.Sleep(backoff)
		if backoff *= 2; backoff > 2*time.Second {
			backoff = 2 * time.Second
		}
	}
	return nil, fmt.Errorf("dist: dial %s: %w", addr, lastErr)
}
