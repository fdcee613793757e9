package dist

import (
	"bytes"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"repro/internal/expt"
)

// maxLeaseAttempts bounds how many times one job is reassigned after
// worker deaths before the coordinator declares it failed. Five
// consecutive crashes on the same cell is a deterministic problem,
// not bad luck.
const maxLeaseAttempts = 5

// ErrManifestMismatch is the fail-loud rejection of a worker whose
// reconstructed campaign manifest disagrees with the coordinator's.
var ErrManifestMismatch = errors.New("dist: campaign manifest mismatch between coordinator and worker")

// CoordinatorOptions configures Serve.
type CoordinatorOptions struct {
	// Addr is the TCP listen address, e.g. "127.0.0.1:9733".
	Addr string
	// Config is the campaign. CheckpointDir is required — the
	// directory is the durable ground truth workers stream their
	// bytes into. Progress, CellWorkers and StopAfterCheckpoints are
	// not supported in distributed mode.
	Config expt.CampaignConfig
	// Log, when non-nil, receives human-oriented progress lines.
	Log func(format string, args ...any)
	// Ready, when non-nil, is called with the bound listen address
	// once the coordinator accepts connections — the actual port when
	// Addr asked for an ephemeral one.
	Ready func(addr string)
}

// job is one cell a worker can hold a lease on.
type job struct {
	cell   expt.Cell
	resume []byte // latest snapshot bytes

	attempts int
	result   chan jobResult // buffered 1; exactly one send
}

type jobResult struct {
	done []byte // completion record
	err  error
}

type coordinator struct {
	opts     CoordinatorOptions
	cfg      expt.CampaignConfig
	dir      *expt.CampaignDir
	manifest []byte
	session  sessionMeta

	mu    sync.Mutex
	cond  *sync.Cond
	queue []*job
	done  bool  // no more assignments; handlers shut workers down
	fatal error // first protocol-level failure (e.g. manifest mismatch)
}

// Serve runs the campaign at opts.Config by distributing its cells
// to workers that connect to opts.Addr. It returns when every cell
// has either completed (its artifacts durably in CheckpointDir) or
// failed terminally. Serve does not render the campaign's JSON/CSV
// artifacts itself: run RunCampaign over the same directory with
// Resume set afterwards — every cell restores from its record, so
// the artifacts are byte-identical to a single-process run's.
func Serve(opts CoordinatorOptions) error {
	cfg := opts.Config
	if cfg.CheckpointDir == "" {
		return fmt.Errorf("dist: distributed campaigns need CheckpointDir (it is the durable ground truth)")
	}
	if cfg.Progress != nil || cfg.StopAfterCheckpoints > 0 {
		return fmt.Errorf("dist: Progress and StopAfterCheckpoints are not supported in distributed mode")
	}
	if cfg.CheckpointEvery <= 0 {
		// Workers hold no CheckpointDir, so they cannot default the
		// snapshot cadence themselves: ship the in-process default.
		cfg.CheckpointEvery = expt.DefaultCheckpointEvery
	}
	dir, err := expt.OpenCampaignDir(cfg)
	if err != nil {
		return err
	}
	manifest, err := expt.ManifestBytes(cfg)
	if err != nil {
		return err
	}
	c := &coordinator{opts: opts, cfg: cfg, dir: dir, manifest: manifest,
		session: sessionMeta{CheckpointEvery: cfg.CheckpointEvery, EvalWorkers: cfg.EvalWorkers}}
	c.cond = sync.NewCond(&c.mu)

	ln, err := net.Listen("tcp", opts.Addr)
	if err != nil {
		return fmt.Errorf("dist: listen %s: %w", opts.Addr, err)
	}
	if opts.Ready != nil {
		opts.Ready(ln.Addr().String())
	}
	var conns sync.WaitGroup
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return // listener closed: campaign over
			}
			conns.Add(1)
			go func() {
				defer conns.Done()
				c.handleConn(conn)
			}()
		}
	}()

	cells := dir.Cells()
	errs := make([]error, len(cells))
	var wg sync.WaitGroup
	for i, cell := range cells {
		_, restored, err := dir.LoadDone(cell)
		if err != nil {
			errs[i] = err
			continue
		}
		if restored {
			c.logf("cell %d/%d: restored", cell.Index+1, len(cells))
			continue
		}
		wg.Add(1)
		go func(i int, cell expt.Cell) {
			defer wg.Done()
			errs[i] = c.runCell(cell, len(cells))
		}(i, cell)
	}
	wg.Wait()

	c.mu.Lock()
	c.done = true
	fatal := c.fatal
	c.cond.Broadcast()
	c.mu.Unlock()
	ln.Close()
	conns.Wait()

	if fatal != nil {
		return fatal
	}
	var failed int
	var first error
	for _, err := range errs {
		if err != nil {
			failed++
			if first == nil {
				first = err
			}
		}
	}
	if failed > 0 {
		return fmt.Errorf("dist: %d of %d cells failed, first: %w", failed, len(cells), first)
	}
	return nil
}

func (c *coordinator) logf(format string, args ...any) {
	if c.opts.Log != nil {
		c.opts.Log(format, args...)
	}
}

// runCell drives one cell to durable completion as a single leased
// job. An island cell streams no snapshots, so a reassigned lease
// re-runs it from scratch.
func (c *coordinator) runCell(cell expt.Cell, total int) error {
	c.logf("cell %d/%d: dispatching", cell.Index+1, total)
	resume, err := c.dir.LoadCkpt(cell)
	if err != nil {
		return err
	}
	if resume != nil {
		c.logf("cell %d/%d: resuming from snapshot", cell.Index+1, total)
	}
	done, err := c.dispatch(&job{cell: cell, resume: resume})
	if err != nil {
		c.logf("cell %d/%d: FAILED: %v", cell.Index+1, total, err)
		return err
	}
	if err := c.dir.StoreDone(cell, done); err != nil {
		return err
	}
	c.logf("cell %d/%d: done", cell.Index+1, total)
	return nil
}

// dispatch enqueues the job and blocks until a worker resolves it,
// reassigning it (with its latest resume bytes) every time a holder
// dies, up to maxLeaseAttempts.
func (c *coordinator) dispatch(j *job) ([]byte, error) {
	j.result = make(chan jobResult, 1)
	if err := c.enqueue(j); err != nil {
		return nil, err
	}
	r := <-j.result
	return r.done, r.err
}

func (c *coordinator) enqueue(j *job) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.fatal != nil {
		return c.fatal
	}
	if c.done {
		return fmt.Errorf("dist: campaign already finished")
	}
	c.queue = append(c.queue, j)
	c.cond.Signal()
	return nil
}

// requeue puts a job whose holder died back at the head of the queue
// so reassignment beats fresh work. Exhausted leases fail the job.
func (c *coordinator) requeue(j *job, cause error) {
	j.attempts++
	if j.attempts >= maxLeaseAttempts {
		j.result <- jobResult{err: fmt.Errorf("dist: cell %d: lease abandoned %d times, last: %w", j.cell.Index, j.attempts, cause)}
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.fatal != nil {
		j.result <- jobResult{err: c.fatal}
		return
	}
	c.queue = append([]*job{j}, c.queue...)
	c.cond.Signal()
}

// pop blocks until a job is available or the campaign is over.
func (c *coordinator) pop() *job {
	c.mu.Lock()
	defer c.mu.Unlock()
	for len(c.queue) == 0 && !c.done {
		c.cond.Wait()
	}
	if len(c.queue) == 0 {
		return nil
	}
	j := c.queue[0]
	c.queue = c.queue[1:]
	return j
}

// fail records the first protocol-level failure and wakes everyone:
// queued jobs resolve with the error, handlers shut their workers
// down. Fail-loud — a worker that disagrees about the campaign
// identity means the deployment is wrong, not that cell.
func (c *coordinator) fail(err error) {
	c.mu.Lock()
	if c.fatal == nil {
		c.fatal = err
	}
	queued := c.queue
	c.queue = nil
	c.cond.Broadcast()
	c.mu.Unlock()
	for _, j := range queued {
		j.result <- jobResult{err: err}
	}
}

// handleConn speaks the protocol with one worker: handshake, then a
// strict assign → stream → resolve loop until the campaign is done.
func (c *coordinator) handleConn(conn net.Conn) {
	defer conn.Close()
	if tc, ok := conn.(*net.TCPConn); ok {
		// Detect dead peers without bounding how long a cell may
		// compute between frames.
		tc.SetKeepAlive(true)
		tc.SetKeepAlivePeriod(30 * time.Second)
	}
	if err := writeFrame(conn, msgConfig, c.session, c.manifest); err != nil {
		return
	}
	typ, meta, blob, err := readFrame(conn)
	if err != nil {
		return // worker vanished before handshake: nothing leased
	}
	switch typ {
	case msgReady:
		if !bytes.Equal(blob, c.manifest) {
			writeFrame(conn, msgShutdown, nil, nil)
			c.fail(fmt.Errorf("%w (worker %s echoed a different manifest)", ErrManifestMismatch, conn.RemoteAddr()))
			return
		}
	case msgReject:
		var m cellMeta
		parseMeta(meta, &m)
		c.fail(fmt.Errorf("%w (worker %s: %s)", ErrManifestMismatch, conn.RemoteAddr(), m.Error))
		return
	default:
		c.fail(fmt.Errorf("dist: worker %s opened with frame type %d", conn.RemoteAddr(), typ))
		return
	}
	c.logf("worker %s joined", conn.RemoteAddr())

	for {
		j := c.pop()
		if j == nil {
			writeFrame(conn, msgShutdown, nil, nil)
			return
		}
		if err := c.runLease(conn, j); err != nil {
			c.requeue(j, err)
			return // connection is unusable after a mid-job error
		}
	}
}

// runLease assigns one job to the connected worker and consumes
// frames until it resolves. A returned error means the worker died
// holding the lease (the caller requeues); a resolved job — success
// or deterministic failure — returns nil.
func (c *coordinator) runLease(conn net.Conn, j *job) error {
	if err := writeFrame(conn, msgCell, cellMeta{Index: j.cell.Index}, j.resume); err != nil {
		return err
	}
	for {
		typ, meta, blob, err := readFrame(conn)
		if err != nil {
			return fmt.Errorf("dist: worker %s lost mid-cell: %w", conn.RemoteAddr(), err)
		}
		switch typ {
		case msgCkpt:
			// Persist the snapshot (durability) and retain it as the
			// job's resume point (lease reassignment).
			if err := c.dir.StoreCkpt(j.cell, blob); err != nil {
				j.result <- jobResult{err: err}
				return nil
			}
			j.resume = blob
		case msgDone:
			j.result <- jobResult{done: blob}
			return nil
		case msgFail:
			var m cellMeta
			parseMeta(meta, &m)
			j.result <- jobResult{err: fmt.Errorf("dist: cell %d failed on worker %s: %s", j.cell.Index, conn.RemoteAddr(), m.Error)}
			return nil
		default:
			return fmt.Errorf("dist: worker %s sent unexpected frame type %d mid-cell", conn.RemoteAddr(), typ)
		}
	}
}
