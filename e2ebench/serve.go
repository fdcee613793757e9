package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/alloc"
	"repro/internal/core"
	"repro/internal/serve"
)

// daemon is an in-process waserve: the serving layer with its default
// configuration (both fabrics, the paper workload, NW 4 and 8) behind
// a real HTTP server on a loopback port.
type daemon struct {
	s      *serve.Server
	h      http.Handler
	srv    *http.Server
	url    string
	served chan error
	client *http.Client
}

// bootDaemon starts the daemon and waits until /healthz answers: the
// set-up a waserve user waits for before the first request. The client
// keeps up to clients idle keep-alive connections.
func bootDaemon(clients int) (*daemon, error) {
	s, err := serve.NewServer(serve.Config{})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		s.Close()
		return nil, err
	}
	h := s.Handler()
	d := &daemon{
		s:      s,
		h:      h,
		srv:    &http.Server{Handler: h},
		url:    "http://" + ln.Addr().String(),
		served: make(chan error, 1),
		client: &http.Client{Transport: &http.Transport{MaxIdleConns: clients, MaxIdleConnsPerHost: clients}},
	}
	go func() { d.served <- d.srv.Serve(ln) }()
	resp, err := d.client.Get(d.url + "/healthz")
	if err == nil {
		_, err = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if err == nil && resp.StatusCode != http.StatusOK {
			err = fmt.Errorf("healthz: %s", resp.Status)
		}
	}
	if err != nil {
		d.close()
		return nil, err
	}
	return d, nil
}

// close drains the daemon the way waserve does on SIGTERM and waits for
// its server goroutine.
func (d *daemon) close() {
	d.client.CloseIdleConnections()
	d.s.BeginDrain()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	d.srv.Shutdown(ctx)
	if err := <-d.served; err != nil && !errors.Is(err, http.ErrServerClosed) {
		fmt.Fprintf(os.Stderr, "e2ebench: daemon: %v\n", err)
	}
	d.s.Close()
}

// post sends one request and returns the response body; anything but
// 200 is an error.
func (d *daemon) post(path string, body []byte) ([]byte, error) {
	resp, err := d.client.Post(d.url+path, "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("%s: %s: %s", path, resp.Status, out)
	}
	return out, nil
}

// inProcess runs one request through the daemon's handler without the
// network and returns the body and the handler's time.
func (d *daemon) inProcess(path string, body []byte) ([]byte, time.Duration) {
	rec := httptest.NewRecorder()
	req := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body))
	t0 := time.Now()
	d.h.ServeHTTP(rec, req)
	return rec.Body.Bytes(), time.Since(t0)
}

// setupDaemon is the daemon's own set-up: the served instances, their
// evaluator pools and the batching front, then the route table up to a
// first /healthz answer. It runs in process, leaving the socket calls
// of bootDaemon out: their cost is the kernel's, and its spread on a
// shared machine would swamp the daemon's.
func setupDaemon() error {
	s, err := serve.NewServer(serve.Config{})
	if err != nil {
		return err
	}
	defer s.Close()
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/healthz", nil))
	if rec.Code != http.StatusOK {
		return fmt.Errorf("healthz: %d %s", rec.Code, rec.Body)
	}
	return nil
}

// The evaluate workload's shape is the repository's served-latency
// benchmark (BenchmarkServeEvaluateP50P99 at 8 clients): 256 distinct
// RandomFit chromosomes, one wavelength per edge, for the paper
// workload on the ring at NW 8, posted by 8 concurrent keep-alive
// clients so the batching front coalesces them.
const (
	evaluateNW      = 8
	evaluateBodies  = 256
	evaluateClients = 8
)

// evaluate measures one burst of served /v1/evaluate calls: every
// request body once, spread over evaluateClients concurrent clients.
// Each response must equal, byte for byte, what serve.EvaluateLocal
// (the `wadate -eval` path) renders for it.
type evaluate struct {
	d      *daemon
	in     *alloc.Instance
	gs     []alloc.Genome
	bodies [][]byte
	want   [][]byte
	last   [][]byte
	valid  []probe
	ev     *alloc.Evaluator
}

func (w *evaluate) setup() error { return setupDaemon() }

func (w *evaluate) start(seed int64) error {
	in, err := core.NewSharedInstance(core.Config{NW: evaluateNW, Backend: core.DefaultBackend})
	if err != nil {
		return err
	}
	w.in = in
	if w.ev, err = alloc.NewEvaluator(in); err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(seed))
	counts := alloc.UniformCounts(in.Edges(), 1)
	seen := map[string]bool{}
	var out alloc.Eval
	for tries := 0; len(w.gs) < evaluateBodies; tries++ {
		if tries > 50*evaluateBodies {
			return fmt.Errorf("only %d distinct chromosomes", len(w.gs))
		}
		g, err := alloc.Assign(in, counts, alloc.RandomFit, rng)
		if err != nil || seen[g.String()] {
			continue
		}
		seen[g.String()] = true
		req := serve.EvaluateRequest{Workload: "paper", Backend: core.DefaultBackend, NW: evaluateNW, Genome: g.String()}
		body, err := json.Marshal(req)
		if err != nil {
			return err
		}
		want, err := serve.EvaluateLocal(req)
		if err != nil {
			return err
		}
		w.gs = append(w.gs, g)
		w.bodies = append(w.bodies, body)
		w.want = append(w.want, want)
		if w.ev.EvaluateInto(&out, g); out.Valid {
			w.valid = append(w.valid, probe{in, g})
		}
	}
	w.last = make([][]byte, len(w.bodies))
	d, err := bootDaemon(evaluateClients)
	if err != nil {
		return err
	}
	w.d = d
	// One untimed burst warms connections and evaluator pools.
	if err := w.burst(func(i int) ([]byte, error) { return w.d.post("/v1/evaluate", w.bodies[i]) }); err != nil {
		return err
	}
	return w.check()
}

// burst sends every body once from evaluateClients concurrent clients
// through send and records each response in w.last.
func (w *evaluate) burst(send func(i int) ([]byte, error)) error {
	var next atomic.Int64
	var wg sync.WaitGroup
	errs := make([]error, evaluateClients)
	for c := 0; c < evaluateClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(w.bodies) {
					return
				}
				if w.last[i], errs[c] = send(i); errs[c] != nil {
					return
				}
			}
		}(c)
	}
	wg.Wait()
	return errors.Join(errs...)
}

func (w *evaluate) check() error {
	for i := range w.want {
		if !bytes.Equal(w.last[i], w.want[i]) {
			return fmt.Errorf("served evaluate differs from the CLI rendering:\n%s\nwant\n%s", w.last[i], w.want[i])
		}
	}
	return nil
}

// op sends one burst over HTTP. Traced, the same burst then runs off
// the clock twice more: through the handler in process (no network),
// and as bare kernel calls; the differences split the round into
// transport, handler (decode, batching front, encode) and kernel.
func (w *evaluate) op(tr *tracer) error {
	t0 := time.Now()
	if err := w.burst(func(i int) ([]byte, error) { return w.d.post("/v1/evaluate", w.bodies[i]) }); err != nil {
		return err
	}
	if tr == nil {
		return nil
	}
	rt := time.Since(t0)
	tr.count("http_requests", int64(len(w.bodies)))
	tr.count("kernel_calls", int64(len(w.bodies)))
	var err error
	tr.replay(func() {
		t1 := time.Now()
		err = w.burst(func(i int) ([]byte, error) {
			body, _ := w.d.inProcess("/v1/evaluate", w.bodies[i])
			return body, nil
		})
		h := time.Since(t1)
		if err == nil {
			if err = w.check(); err != nil {
				err = fmt.Errorf("in process: %w", err)
			}
		}
		var out alloc.Eval
		t2 := time.Now()
		for _, g := range w.gs {
			w.ev.EvaluateInto(&out, g)
		}
		k := time.Since(t2)
		tr.add("transport", rt-h)
		tr.add("handler", h-k)
		tr.add("evaluate", k)
	})
	return err
}

func (w *evaluate) digest() string  { return digestOf(w.last...) }
func (w *evaluate) probes() []probe { return w.valid }
func (w *evaluate) stop() {
	if w.d != nil {
		w.d.close()
	}
}
