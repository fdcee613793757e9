package dist

import (
	"bytes"
	"errors"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/expt"
)

// distCampaignConfig is a small two-cell campaign (two replicates of
// one (ring, NW=4, paper) combination) with frequent snapshots.
func distCampaignConfig() expt.CampaignConfig {
	return expt.CampaignConfig{
		NWs:             []int{4},
		Replicates:      2,
		Pop:             12,
		Generations:     6,
		Seed:            3,
		CheckpointEvery: 2,
	}
}

// readTree returns every file in dir keyed by name.
func readTree(t *testing.T, dir string) map[string][]byte {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[string][]byte, len(entries))
	for _, e := range entries {
		raw, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		out[e.Name()] = raw
	}
	return out
}

func sameTree(t *testing.T, want, got map[string][]byte, label string) {
	t.Helper()
	if len(want) != len(got) {
		t.Errorf("%s: %d files, want %d", label, len(got), len(want))
	}
	for name, w := range want {
		g, ok := got[name]
		if !ok {
			t.Errorf("%s: missing %s", label, name)
			continue
		}
		if !bytes.Equal(w, g) {
			t.Errorf("%s: %s differs (%d vs %d bytes)", label, name, len(g), len(w))
		}
	}
	for name := range got {
		if _, ok := want[name]; !ok {
			t.Errorf("%s: unexpected file %s", label, name)
		}
	}
}

// startCoordinator runs Serve for cfg in the background and returns
// its listen address and the channel its result arrives on.
func startCoordinator(t *testing.T, cfg expt.CampaignConfig) (string, <-chan error) {
	t.Helper()
	addrCh := make(chan string, 1)
	serveCh := make(chan error, 1)
	go func() {
		serveCh <- Serve(CoordinatorOptions{
			Addr:   "127.0.0.1:0",
			Config: cfg,
			Log:    t.Logf,
			Ready:  func(addr string) { addrCh <- addr },
		})
	}()
	return <-addrCh, serveCh
}

// serveAndWork runs a coordinator for cfg plus n workers in-process
// and returns the coordinator error and each worker's error.
func serveAndWork(t *testing.T, cfg expt.CampaignConfig, workers []WorkerOptions) (error, []error) {
	t.Helper()
	addr, serveCh := startCoordinator(t, cfg)
	errs := make([]error, len(workers))
	var wg sync.WaitGroup
	for i := range workers {
		w := workers[i]
		w.Addr = addr
		wg.Add(1)
		go func(i int, w WorkerOptions) {
			defer wg.Done()
			errs[i] = Run(w)
		}(i, w)
	}
	err := <-serveCh
	wg.Wait()
	return err, errs
}

// TestDistributedMatchesSingleProcess is the tentpole's acceptance
// pin: a campaign distributed over two workers leaves a checkpoint
// directory byte-identical to a single-process run's, and the
// artifacts rendered from it (via a resuming RunCampaign) match the
// single-process artifacts byte-for-byte.
func TestDistributedMatchesSingleProcess(t *testing.T) {
	refDir := t.TempDir()
	refCfg := distCampaignConfig()
	refCfg.CheckpointDir = refDir
	ref, err := expt.RunCampaign(refCfg)
	if err != nil {
		t.Fatal(err)
	}

	distDir := t.TempDir()
	distCfg := distCampaignConfig()
	distCfg.CheckpointDir = distDir
	serveErr, workerErrs := serveAndWork(t, distCfg, make([]WorkerOptions, 2))
	if serveErr != nil {
		t.Fatalf("coordinator: %v", serveErr)
	}
	for i, err := range workerErrs {
		if err != nil {
			t.Fatalf("worker %d: %v", i, err)
		}
	}
	sameTree(t, readTree(t, refDir), readTree(t, distDir), "checkpoint dir")

	// The artifact path: a resuming run over the distributed
	// directory restores every cell and renders the same bytes as the
	// single-process campaign.
	resumeCfg := distCampaignConfig()
	resumeCfg.CheckpointDir = distDir
	resumeCfg.Resume = true
	resumed, err := expt.RunCampaign(resumeCfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := range resumed.Cells {
		if !resumed.Cells[i].Restored() {
			t.Errorf("cell %d re-explored instead of restored from the distributed record", i)
		}
	}
	var refJSON, resJSON, refCSV, resCSV bytes.Buffer
	if err := expt.WriteCampaignJSON(&refJSON, ref); err != nil {
		t.Fatal(err)
	}
	if err := expt.WriteCampaignJSON(&resJSON, resumed); err != nil {
		t.Fatal(err)
	}
	if err := expt.WriteCampaignCSV(&refCSV, ref); err != nil {
		t.Fatal(err)
	}
	if err := expt.WriteCampaignCSV(&resCSV, resumed); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(refJSON.Bytes(), resJSON.Bytes()) {
		t.Error("JSON artifact from the distributed run differs from the single-process run")
	}
	if !bytes.Equal(refCSV.Bytes(), resCSV.Bytes()) {
		t.Error("CSV artifact from the distributed run differs from the single-process run")
	}
}

// TestWorkerCrashLeaseReassigned: a worker that dies mid-cell (after
// streaming two snapshots) loses its lease; the surviving worker
// resumes the cell from the last streamed snapshot and the final
// directory still matches a single-process run byte-for-byte.
func TestWorkerCrashLeaseReassigned(t *testing.T) {
	single := func() expt.CampaignConfig {
		return expt.CampaignConfig{
			NWs:             []int{4},
			Pop:             12,
			Generations:     8,
			Seed:            7,
			CheckpointEvery: 2,
		}
	}
	refDir := t.TempDir()
	refCfg := single()
	refCfg.CheckpointDir = refDir
	if _, err := expt.RunCampaign(refCfg); err != nil {
		t.Fatal(err)
	}

	distDir := t.TempDir()
	distCfg := single()
	distCfg.CheckpointDir = distDir
	addrCh := make(chan string, 1)
	serveCh := make(chan error, 1)
	go func() {
		serveCh <- Serve(CoordinatorOptions{
			Addr:   "127.0.0.1:0",
			Config: distCfg,
			Log:    t.Logf,
			Ready:  func(addr string) { addrCh <- addr },
		})
	}()
	addr := <-addrCh

	// The doomed worker runs alone first, so it necessarily holds the
	// cell's lease when it crashes (after streaming two snapshots).
	if err := Run(WorkerOptions{Addr: addr, HaltAfterCheckpoints: 2, Log: t.Logf}); !errors.Is(err, ErrWorkerHalted) {
		t.Fatalf("doomed worker returned %v, want ErrWorkerHalted", err)
	}
	// The crash severs the socket right after sending; give the
	// coordinator a moment to drain and persist the streamed frames.
	snapPath := filepath.Join(distDir, "cell-0.ckpt")
	deadline := time.Now().Add(5 * time.Second)
	for {
		if _, err := os.Stat(snapPath); err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("no streamed snapshot on the coordinator after the crash")
		}
		time.Sleep(5 * time.Millisecond)
	}

	// A fresh worker picks up the reassigned lease mid-cell.
	var mu sync.Mutex
	var resumed bool
	err := Run(WorkerOptions{Addr: addr, Log: func(format string, args ...any) {
		t.Logf(format, args...)
		if strings.HasPrefix(format, "cell %d: resuming") {
			mu.Lock()
			resumed = true
			mu.Unlock()
		}
	}})
	if err != nil {
		t.Fatalf("replacement worker: %v", err)
	}
	if !resumed {
		t.Error("replacement worker did not resume from the streamed snapshot")
	}
	if err := <-serveCh; err != nil {
		t.Fatalf("coordinator: %v", err)
	}
	sameTree(t, readTree(t, refDir), readTree(t, distDir), "post-crash checkpoint dir")
}

// TestDistributedIslandsMatchSingleProcess: an island-model campaign
// whose cells are shipped whole to workers produces the same
// completion records as the in-process island run.
func TestDistributedIslandsMatchSingleProcess(t *testing.T) {
	island := func() expt.CampaignConfig {
		return expt.CampaignConfig{
			NWs:            []int{4},
			Pop:            12,
			Generations:    6,
			Seed:           5,
			Islands:        2,
			MigrationEvery: 2,
			MigrationK:     2,
		}
	}
	refDir := t.TempDir()
	refCfg := island()
	refCfg.CheckpointDir = refDir
	if _, err := expt.RunCampaign(refCfg); err != nil {
		t.Fatal(err)
	}

	distDir := t.TempDir()
	distCfg := island()
	distCfg.CheckpointDir = distDir
	serveErr, workerErrs := serveAndWork(t, distCfg, make([]WorkerOptions, 2))
	if serveErr != nil {
		t.Fatalf("coordinator: %v", serveErr)
	}
	for i, err := range workerErrs {
		if err != nil {
			t.Fatalf("worker %d: %v", i, err)
		}
	}
	sameTree(t, readTree(t, refDir), readTree(t, distDir), "island checkpoint dir")
}

// TestIslandCellLeaseReassigned: a worker that dies holding an island
// cell's lease leaves no snapshot behind, so the next worker re-runs
// the cell from scratch and the directory still matches a
// single-process run.
func TestIslandCellLeaseReassigned(t *testing.T) {
	island := func(dir string) expt.CampaignConfig {
		return expt.CampaignConfig{
			NWs:            []int{4},
			Pop:            12,
			Generations:    6,
			Seed:           5,
			Islands:        2,
			MigrationEvery: 2,
			MigrationK:     2,
			CheckpointDir:  dir,
		}
	}
	refDir := t.TempDir()
	if _, err := expt.RunCampaign(island(refDir)); err != nil {
		t.Fatal(err)
	}

	distDir := t.TempDir()
	addr, serveCh := startCoordinator(t, island(distDir))
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	typ, _, manifest, err := readFrame(conn)
	if err != nil || typ != msgConfig {
		t.Fatalf("handshake: type %d err %v", typ, err)
	}
	if err := writeFrame(conn, msgReady, nil, manifest); err != nil {
		t.Fatal(err)
	}
	if typ, _, blob, err := readFrame(conn); err != nil || typ != msgCell || blob != nil {
		t.Fatalf("assignment: type %d, %d resume bytes, err %v; want a fresh cell", typ, len(blob), err)
	}
	conn.Close() // die holding the lease

	if err := Run(WorkerOptions{Addr: addr, Log: t.Logf}); err != nil {
		t.Fatalf("replacement worker: %v", err)
	}
	if err := <-serveCh; err != nil {
		t.Fatalf("coordinator: %v", err)
	}
	sameTree(t, readTree(t, refDir), readTree(t, distDir), "reassigned island checkpoint dir")
}

// TestWorkerRefusesRetiredSegmentFrame: a coordinator that still
// assigns island segments (frame type 8) gets a worker that fails
// with an unexpected-frame error rather than one that exits cleanly.
func TestWorkerRefusesRetiredSegmentFrame(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	coordErr := make(chan error, 1)
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			coordErr <- err
			return
		}
		defer conn.Close()
		manifest, err := expt.ManifestBytes(distCampaignConfig())
		if err != nil {
			coordErr <- err
			return
		}
		if err := writeFrame(conn, msgConfig, sessionMeta{}, manifest); err != nil {
			coordErr <- err
			return
		}
		if typ, _, _, err := readFrame(conn); err != nil || typ != msgReady {
			coordErr <- fmt.Errorf("handshake: type %d err %v", typ, err)
			return
		}
		coordErr <- writeFrame(conn, 8, cellMeta{Index: 0}, []byte("{}"))
		readFrame(conn) // hold the connection until the worker leaves
	}()
	err = Run(WorkerOptions{Addr: ln.Addr().String()})
	if err == nil || !strings.Contains(err.Error(), "unexpected frame type 8") {
		t.Fatalf("worker returned %v, want an unexpected frame type 8 error", err)
	}
	if err := <-coordErr; err != nil {
		t.Fatalf("fake coordinator: %v", err)
	}
}

// TestManifestMismatchFailLoud pins both rejection directions: a
// peer whose manifest disagrees is refused before any work moves.
func TestManifestMismatchFailLoud(t *testing.T) {
	t.Run("coordinator-rejects-worker", func(t *testing.T) {
		cfg := distCampaignConfig()
		cfg.CheckpointDir = t.TempDir()
		addrCh := make(chan string, 1)
		serveCh := make(chan error, 1)
		go func() {
			serveCh <- Serve(CoordinatorOptions{
				Addr: "127.0.0.1:0", Config: cfg,
				Ready: func(addr string) { addrCh <- addr },
			})
		}()
		conn, err := net.Dial("tcp", <-addrCh)
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		typ, _, manifest, err := readFrame(conn)
		if err != nil || typ != msgConfig {
			t.Fatalf("handshake: type %d err %v", typ, err)
		}
		// Echo a tampered manifest: one byte off is enough.
		manifest[len(manifest)/2] ^= 0x01
		if err := writeFrame(conn, msgReady, nil, manifest); err != nil {
			t.Fatal(err)
		}
		if err := <-serveCh; !errors.Is(err, ErrManifestMismatch) {
			t.Fatalf("coordinator returned %v, want ErrManifestMismatch", err)
		}
	})

	t.Run("worker-rejects-coordinator", func(t *testing.T) {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer ln.Close()
		rejectCh := make(chan error, 1)
		go func() {
			conn, err := ln.Accept()
			if err != nil {
				rejectCh <- err
				return
			}
			defer conn.Close()
			cfg := distCampaignConfig()
			manifest, err := expt.ManifestBytes(cfg)
			if err != nil {
				rejectCh <- err
				return
			}
			manifest[len(manifest)/2] ^= 0x01 // coordinator lies about identity
			if err := writeFrame(conn, msgConfig, sessionMeta{}, manifest); err != nil {
				rejectCh <- err
				return
			}
			typ, _, _, err := readFrame(conn)
			if err != nil {
				rejectCh <- err
				return
			}
			if typ != msgReject {
				rejectCh <- errors.New("worker did not reject the session")
				return
			}
			rejectCh <- nil
		}()
		err = Run(WorkerOptions{Addr: ln.Addr().String()})
		if !errors.Is(err, ErrManifestMismatch) {
			t.Fatalf("worker returned %v, want ErrManifestMismatch", err)
		}
		if err := <-rejectCh; err != nil {
			t.Fatalf("fake coordinator: %v", err)
		}
	})
}

// TestWorkerSnapshotsAtDefaultCadence: with CheckpointEvery unset, a
// worker still streams snapshots at the in-process default cadence,
// so a crash after the first snapshot halts the worker mid-cell, the
// replacement resumes, and the directory matches a single-process run
// of the same configuration.
func TestWorkerSnapshotsAtDefaultCadence(t *testing.T) {
	single := func(dir string) expt.CampaignConfig {
		return expt.CampaignConfig{
			NWs:           []int{4},
			Pop:           12,
			Generations:   expt.DefaultCheckpointEvery + 5,
			Seed:          7,
			CheckpointDir: dir,
		}
	}
	refDir := t.TempDir()
	if _, err := expt.RunCampaign(single(refDir)); err != nil {
		t.Fatal(err)
	}

	distDir := t.TempDir()
	addr, serveCh := startCoordinator(t, single(distDir))
	if err := Run(WorkerOptions{Addr: addr, HaltAfterCheckpoints: 1, Log: t.Logf}); !errors.Is(err, ErrWorkerHalted) {
		t.Fatalf("doomed worker returned %v, want ErrWorkerHalted", err)
	}
	if err := Run(WorkerOptions{Addr: addr, Log: t.Logf}); err != nil {
		t.Fatalf("replacement worker: %v", err)
	}
	if err := <-serveCh; err != nil {
		t.Fatalf("coordinator: %v", err)
	}
	sameTree(t, readTree(t, refDir), readTree(t, distDir), "default-cadence checkpoint dir")
}

// TestDistributedStatsMatchSingleProcess: with Stats on and serial
// evaluation, the completion records a distributed run stores carry
// the same instrumentation blocks as the single-process run's, for
// plain cells and for island cells.
func TestDistributedStatsMatchSingleProcess(t *testing.T) {
	for _, tc := range []struct {
		name    string
		islands int
	}{{"plain", 0}, {"island", 2}} {
		t.Run(tc.name, func(t *testing.T) {
			config := func(dir string) expt.CampaignConfig {
				cfg := distCampaignConfig()
				cfg.Stats = true
				cfg.CheckpointDir = dir
				if tc.islands > 1 {
					cfg.CheckpointEvery = 0
					cfg.Islands, cfg.MigrationEvery, cfg.MigrationK = tc.islands, 2, 2
				}
				return cfg
			}
			refDir := t.TempDir()
			if _, err := expt.RunCampaign(config(refDir)); err != nil {
				t.Fatal(err)
			}
			distDir := t.TempDir()
			serveErr, workerErrs := serveAndWork(t, config(distDir), make([]WorkerOptions, 2))
			if serveErr != nil {
				t.Fatalf("coordinator: %v", serveErr)
			}
			for i, err := range workerErrs {
				if err != nil {
					t.Fatalf("worker %d: %v", i, err)
				}
			}
			got := readTree(t, distDir)
			if !bytes.Contains(got["cell-0.json"], []byte(`"relations_compared"`)) {
				t.Fatal("distributed completion record carries no stats block")
			}
			sameTree(t, readTree(t, refDir), got, "stats checkpoint dir")
		})
	}
}
