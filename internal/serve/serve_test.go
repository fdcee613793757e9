package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"repro/internal/alloc"
	"repro/internal/core"
)

// newTestServer boots a daemon over httptest. The returned cleanup
// stops both.
func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s, err := NewServer(cfg)
	if err != nil {
		t.Fatalf("NewServer: %v", err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	return s, ts
}

// post sends one JSON request and returns status and body. A []byte
// or io.Reader request is sent verbatim.
func post(t *testing.T, url string, req any) (int, []byte) {
	t.Helper()
	var body io.Reader
	switch r := req.(type) {
	case io.Reader:
		body = r
	case []byte:
		body = bytes.NewReader(r)
	default:
		b, err := json.Marshal(req)
		if err != nil {
			t.Fatalf("marshal request: %v", err)
		}
		body = bytes.NewReader(b)
	}
	resp, err := http.Post(url, "application/json", body)
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read response: %v", err)
	}
	return resp.StatusCode, b
}

// repeatByte is an endless reader of one byte.
type repeatByte byte

func (b repeatByte) Read(p []byte) (int, error) {
	for i := range p {
		p[i] = byte(b)
	}
	return len(p), nil
}

// oversizeBody streams a JSON body one string value past
// maxBodyBytes: prefix, maxBodyBytes filler bytes, then `"}`. It is
// generated on the fly, so the client never holds it in memory.
func oversizeBody(prefix string) io.Reader {
	return io.MultiReader(strings.NewReader(prefix),
		io.LimitReader(repeatByte('A'), maxBodyBytes), strings.NewReader(`"}`))
}

// testGenomes builds a deterministic mix of valid heuristic
// allocations and an invalid all-on-one-channel chromosome for the
// paper workload at NW=8.
func testGenomes(t testing.TB) []string {
	t.Helper()
	in, err := core.NewSharedInstance(core.Config{NW: 8, Backend: "ring"})
	if err != nil {
		t.Fatalf("instance: %v", err)
	}
	countSets := [][]int{
		{1, 1, 1, 1, 1, 1},
		{2, 1, 1, 1, 1, 1},
		{1, 2, 1, 2, 1, 1},
		{2, 2, 2, 2, 2, 2},
		{1, 1, 3, 1, 1, 2},
	}
	var out []string
	for _, counts := range countSets {
		g, err := alloc.Assign(in, counts, alloc.LeastUsed, nil)
		if err != nil {
			t.Fatalf("assign %v: %v", counts, err)
		}
		out = append(out, g.String())
	}
	// Every communication on channel 0: maximally conflicting, so the
	// mix exercises the invalid path too.
	out = append(out, strings.Repeat("10000000/", in.Edges()-1)+"10000000")
	return out
}

func TestEvaluateMatchesEvaluateLocal(t *testing.T) {
	_, ts := newTestServer(t, Config{NWs: []int{8}})
	for _, backend := range core.Backends() {
		for _, genome := range testGenomes(t) {
			req := EvaluateRequest{Backend: backend, NW: 8, Genome: genome}
			want, err := EvaluateLocal(req)
			if err != nil {
				t.Fatalf("EvaluateLocal(%s, %s): %v", backend, genome, err)
			}
			code, got := post(t, ts.URL+"/v1/evaluate", req)
			if code != http.StatusOK {
				t.Fatalf("evaluate(%s, %s) status %d: %s", backend, genome, code, got)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("served response differs from CLI bytes for (%s, %s):\nserved: %s\ncli:    %s",
					backend, genome, got, want)
			}
		}
	}
}

// TestConcurrentEvaluateBitIdentical drives the pooled evaluate path
// from one lone request and from many goroutines, and checks every
// response against the serial reference bytes — concurrency must be
// invisible in the results. Run with -race in CI.
func TestConcurrentEvaluateBitIdentical(t *testing.T) {
	_, ts := newTestServer(t, Config{Backends: []string{"ring"}, NWs: []int{8}, Workers: 4})
	genomes := testGenomes(t)
	want := make(map[string][]byte, len(genomes))
	for _, g := range genomes {
		b, err := EvaluateLocal(EvaluateRequest{NW: 8, Genome: g})
		if err != nil {
			t.Fatalf("EvaluateLocal(%s): %v", g, err)
		}
		want[g] = b
	}
	for _, tc := range []struct {
		name               string
		clients, perClient int
	}{
		{"lone", 1, 1},
		{"burst", 8, 25},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var wg sync.WaitGroup
			errs := make(chan error, tc.clients)
			for c := 0; c < tc.clients; c++ {
				wg.Add(1)
				go func(c int) {
					defer wg.Done()
					for i := 0; i < tc.perClient; i++ {
						g := genomes[(c+i)%len(genomes)]
						body, _ := json.Marshal(EvaluateRequest{NW: 8, Genome: g})
						resp, err := http.Post(ts.URL+"/v1/evaluate", "application/json", bytes.NewReader(body))
						if err != nil {
							errs <- err
							return
						}
						b, err := io.ReadAll(resp.Body)
						resp.Body.Close()
						if err != nil {
							errs <- err
							return
						}
						if resp.StatusCode != http.StatusOK {
							errs <- fmt.Errorf("status %d: %s", resp.StatusCode, b)
							return
						}
						if !bytes.Equal(b, want[g]) {
							errs <- fmt.Errorf("served response differs for %s:\ngot:  %s\nwant: %s", g, b, want[g])
							return
						}
					}
				}(c)
			}
			wg.Wait()
			close(errs)
			for err := range errs {
				t.Fatal(err)
			}
		})
	}
}

// TestNoBatchMatchesBatched pins the two serving modes to each other:
// the lock-serialized baseline and the evaluator pool must produce the
// same bytes.
func TestNoBatchMatchesBatched(t *testing.T) {
	_, pooled := newTestServer(t, Config{Backends: []string{"ring"}, NWs: []int{8}})
	_, serial := newTestServer(t, Config{Backends: []string{"ring"}, NWs: []int{8}, NoBatch: true})
	for _, g := range testGenomes(t) {
		req := EvaluateRequest{NW: 8, Genome: g}
		_, a := post(t, pooled.URL+"/v1/evaluate", req)
		_, b := post(t, serial.URL+"/v1/evaluate", req)
		if !bytes.Equal(a, b) {
			t.Fatalf("pooled and no-batch responses differ for %s:\npooled:   %s\nno-batch: %s", g, a, b)
		}
	}
}

// TestQueueFullBackpressure holds every admission slot itself and
// checks the daemon sheds an evaluation or an explanation with 429 +
// Retry-After instead of queueing it, then serves the same request
// once the slots are free.
func TestQueueFullBackpressure(t *testing.T) {
	s, ts := newTestServer(t, Config{Backends: []string{"ring"}, NWs: []int{8}, QueueDepth: 2})
	req := EvaluateRequest{NW: 8, Genome: testGenomes(t)[0]}
	want, err := EvaluateLocal(req)
	if err != nil {
		t.Fatalf("EvaluateLocal: %v", err)
	}
	body, _ := json.Marshal(req)

	for _, route := range []string{"/v1/evaluate", "/v1/explain"} {
		for i := 0; i < cap(s.evalSlots); i++ {
			s.evalSlots <- struct{}{}
		}
		resp, err := http.Post(ts.URL+route, "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatalf("POST %s: %v", route, err)
		}
		shed, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusTooManyRequests {
			t.Fatalf("%s: full semaphore returned %d, want 429: %s", route, resp.StatusCode, shed)
		}
		if resp.Header.Get("Retry-After") == "" {
			t.Fatalf("%s: 429 without Retry-After header", route)
		}
		var er ErrorResponse
		if err := json.Unmarshal(shed, &er); err != nil || er.RetryAfterMS <= 0 {
			t.Fatalf("%s: 429 body %s should carry retry_after_ms", route, shed)
		}

		for i := 0; i < cap(s.evalSlots); i++ {
			<-s.evalSlots
		}
		code, got := post(t, ts.URL+route, body)
		if code != http.StatusOK {
			t.Fatalf("%s after the slots freed: status %d: %s", route, code, got)
		}
		if route == "/v1/evaluate" && !bytes.Equal(got, want) {
			t.Fatalf("after the slots freed: response differs from CLI bytes:\nserved: %s\ncli:    %s", got, want)
		}
	}
	if n := len(s.evalSlots); n != 0 {
		t.Fatalf("%d admission slots still held after the requests returned", n)
	}
}

// TestEvaluateAfterClose: once Close has run, evaluate and explain
// answer 503.
func TestEvaluateAfterClose(t *testing.T) {
	s, ts := newTestServer(t, Config{Backends: []string{"ring"}, NWs: []int{8}})
	s.Close()
	for _, route := range []string{"/v1/evaluate", "/v1/explain"} {
		code, body := post(t, ts.URL+route, EvaluateRequest{NW: 8, Genome: testGenomes(t)[0]})
		if code != http.StatusServiceUnavailable {
			t.Fatalf("%s after Close: status %d, want 503: %s", route, code, body)
		}
		var er ErrorResponse
		if err := json.Unmarshal(body, &er); err != nil || er.Error == "" {
			t.Fatalf("%s: 503 body %s is not a structured error", route, body)
		}
	}
}

// TestOptimizeSessionRoundTrip pins the checkpoint-as-session-token
// lifecycle: run once monolithically, then again in small steps
// through opaque tokens; the final responses must be byte-identical.
func TestOptimizeSessionRoundTrip(t *testing.T) {
	_, ts := newTestServer(t, Config{Backends: []string{"ring"}, NWs: []int{8}, Workers: 2})
	full := OptimizeRequest{NW: 8, Pop: 40, Generations: 12, Seed: 7}
	code, want := post(t, ts.URL+"/v1/optimize", full)
	if code != http.StatusOK {
		t.Fatalf("monolithic optimize status %d: %s", code, want)
	}

	step := full
	step.StepGenerations = 5
	code, body := post(t, ts.URL+"/v1/optimize", step)
	if code != http.StatusOK {
		t.Fatalf("stepped optimize status %d: %s", code, body)
	}
	var got []byte
	for hops := 0; ; hops++ {
		if hops > 10 {
			t.Fatalf("optimize did not converge in 10 hops")
		}
		var resp OptimizeResponse
		if err := json.Unmarshal(body, &resp); err != nil {
			t.Fatalf("unmarshal optimize response: %v", err)
		}
		if resp.Done {
			got = body
			break
		}
		if resp.Session == "" {
			t.Fatalf("undone response without session token: %s", body)
		}
		code, body = post(t, ts.URL+"/v1/optimize", OptimizeRequest{Session: resp.Session, StepGenerations: 5})
		if code != http.StatusOK {
			t.Fatalf("resume status %d: %s", code, body)
		}
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("stepped+resumed final response differs from monolithic run:\nstepped:    %s\nmonolithic: %s", got, want)
	}
}

func TestOptimizeTamperedToken(t *testing.T) {
	_, ts := newTestServer(t, Config{Backends: []string{"ring"}, NWs: []int{8}})
	code, body := post(t, ts.URL+"/v1/optimize", OptimizeRequest{NW: 8, Pop: 30, Generations: 8, StepGenerations: 2})
	if code != http.StatusOK {
		t.Fatalf("optimize status %d: %s", code, body)
	}
	var resp OptimizeResponse
	if err := json.Unmarshal(body, &resp); err != nil || resp.Session == "" {
		t.Fatalf("no session token in %s", body)
	}
	tok := resp.Session
	for name, bad := range map[string]string{
		"appended":  tok + "AAAA",
		"flipped":   tok[:len(tok)/2] + flip(tok[len(tok)/2]) + tok[len(tok)/2+1:],
		"truncated": tok[:len(tok)-8],
		"garbage":   "not-a-token",
	} {
		code, body := post(t, ts.URL+"/v1/optimize", OptimizeRequest{Session: bad})
		if code != http.StatusBadRequest {
			t.Fatalf("%s token: status %d, want 400: %s", name, code, body)
		}
	}
	// A token past the body cap is refused before it is decoded.
	code, body = post(t, ts.URL+"/v1/optimize", oversizeBody(`{"session":"`))
	var er ErrorResponse
	if code != http.StatusRequestEntityTooLarge || json.Unmarshal(body, &er) != nil || er.Error == "" {
		t.Fatalf("oversize token: status %d, want 413 with a structured error: %.200s", code, body)
	}
}

// flip returns a different base64url character.
func flip(c byte) string {
	if c == 'A' {
		return "B"
	}
	return "A"
}

// TestRunSizeCeilings pins the serving ceilings: a run size over a
// cap is refused with the 400 every unresolvable request gets, on
// optimize, on a forged session token and on campaign (comb size and
// cell count included, both refused before any campaign instance is
// built), while paper scale and a campaign at the ceilings still
// resolve.
func TestRunSizeCeilings(t *testing.T) {
	_, ts := newTestServer(t, Config{Backends: []string{"ring"}, NWs: []int{8}})
	forged, err := encodeSession(sessionMeta{Workload: "paper", Backend: "ring", NW: 8, Objectives: "teb",
		Pop: maxPop + 2, Generations: 10, Seed: 1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name, path string
		req        any
	}{
		{"optimize nw", "/v1/optimize", OptimizeRequest{NW: 0}},
		{"optimize pop", "/v1/optimize", OptimizeRequest{NW: 8, Pop: maxPop + 2}},
		{"optimize generations", "/v1/optimize", OptimizeRequest{NW: 8, Generations: maxGenerations + 1}},
		{"session pop", "/v1/optimize", OptimizeRequest{Session: forged}},
		{"campaign pop", "/v1/campaign", CampaignRequest{NWs: []int{4}, Pop: maxPop + 2}},
		{"campaign generations", "/v1/campaign", CampaignRequest{NWs: []int{4}, Generations: maxGenerations + 1}},
		{"campaign replicates", "/v1/campaign", CampaignRequest{NWs: []int{4}, Replicates: maxReplicates + 1}},
		{"campaign nw", "/v1/campaign", CampaignRequest{NWs: []int{4, maxNW + 1}}},
		{"campaign cells", "/v1/campaign", CampaignRequest{Backends: []string{"ring", "crossbar"},
			NWs: []int{4, 8}, Objectives: []string{"teb", "te", "tb"}, Replicates: maxReplicates}},
	}
	for _, tc := range cases {
		code, body := post(t, ts.URL+tc.path, tc.req)
		var er ErrorResponse
		if code != http.StatusBadRequest || json.Unmarshal(body, &er) != nil || er.Error == "" {
			t.Errorf("%s: status %d, want 400 with a structured error: %.200s", tc.name, code, body)
		}
	}
	if _, err := resolveOptimize(OptimizeRequest{NW: 8, Pop: 400, Generations: 300}); err != nil {
		t.Errorf("paper-scale optimize refused: %v", err)
	}
	s := &Server{}
	if _, err := s.campaignConfig(CampaignRequest{Pop: 400, Generations: 300, Replicates: maxReplicates}); err != nil {
		t.Errorf("paper-scale campaign refused: %v", err)
	}
	if _, err := s.campaignConfig(CampaignRequest{Backends: []string{"ring", "crossbar"}, NWs: []int{8, maxNW},
		Objectives: []string{"teb", "te"}, Replicates: maxReplicates}); err != nil {
		t.Errorf("campaign at the comb-size and cell ceilings refused: %v", err)
	}
}

// TestOptimizeDraining: after BeginDrain an optimize request must
// checkpoint immediately instead of exploring, and the token must
// resume on a healthy server.
func TestOptimizeDraining(t *testing.T) {
	s, ts := newTestServer(t, Config{Backends: []string{"ring"}, NWs: []int{8}})
	s.BeginDrain()
	code, body := post(t, ts.URL+"/v1/optimize", OptimizeRequest{NW: 8, Pop: 30, Generations: 8})
	if code != http.StatusOK {
		t.Fatalf("draining optimize status %d: %s", code, body)
	}
	var resp OptimizeResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if !resp.Draining || resp.Done || resp.Session == "" || resp.Generation != 0 {
		t.Fatalf("draining response should checkpoint at generation 0 with a token: %s", body)
	}

	_, healthy := newTestServer(t, Config{Backends: []string{"ring"}, NWs: []int{8}})
	code, resumed := post(t, healthy.URL+"/v1/optimize", OptimizeRequest{Session: resp.Session})
	if code != http.StatusOK {
		t.Fatalf("resume on healthy server: status %d: %s", code, resumed)
	}
	code, direct := post(t, healthy.URL+"/v1/optimize", OptimizeRequest{NW: 8, Pop: 30, Generations: 8})
	if code != http.StatusOK {
		t.Fatalf("direct run: status %d", code)
	}
	if !bytes.Equal(resumed, direct) {
		t.Fatalf("drained-then-resumed run differs from direct run:\nresumed: %s\ndirect:  %s", resumed, direct)
	}
}

func TestEvaluateErrors(t *testing.T) {
	_, ts := newTestServer(t, Config{Backends: []string{"ring"}, NWs: []int{8}})
	g := testGenomes(t)[0]
	cases := []struct {
		name string
		req  any
		code int
	}{
		{"missing nw", EvaluateRequest{Genome: g}, http.StatusBadRequest},
		{"missing genome", EvaluateRequest{NW: 8}, http.StatusBadRequest},
		{"bad genome", EvaluateRequest{NW: 8, Genome: "zzz"}, http.StatusBadRequest},
		{"unserved nw", EvaluateRequest{NW: 5, Genome: g}, http.StatusNotFound},
		{"unserved backend", EvaluateRequest{Backend: "crossbar", NW: 8, Genome: g}, http.StatusNotFound},
		{"unknown field", map[string]any{"nw": 8, "genom": g}, http.StatusBadRequest},
		{"trailing garbage", []byte(`{"nw":8,"genome":"` + g + `"}garbage`), http.StatusBadRequest},
		{"two objects", []byte(`{"nw":8,"genome":"` + g + `"}{"nw":8,"genome":"` + g + `"}`), http.StatusBadRequest},
		{"oversize body", oversizeBody(`{"nw":8,"genome":"`), http.StatusRequestEntityTooLarge},
	}
	for _, tc := range cases {
		code, body := post(t, ts.URL+"/v1/evaluate", tc.req)
		if code != tc.code {
			t.Errorf("%s: status %d, want %d: %s", tc.name, code, tc.code, body)
		}
		var er ErrorResponse
		if err := json.Unmarshal(body, &er); err != nil || er.Error == "" {
			t.Errorf("%s: body %s is not a structured error", tc.name, body)
		}
	}
	// Trailing whitespace is not data: a newline-terminated body is
	// still one request.
	if code, body := post(t, ts.URL+"/v1/evaluate", []byte(`{"nw":8,"genome":"`+g+`"}`+"\n")); code != http.StatusOK {
		t.Errorf("newline-terminated body: status %d, want 200: %s", code, body)
	}
}

// TestExplainInvalid: explain on a conflicting chromosome is 422 and
// surfaces the evaluator's lazily-formatted failure reason.
func TestExplainInvalid(t *testing.T) {
	_, ts := newTestServer(t, Config{Backends: []string{"ring"}, NWs: []int{8}})
	genomes := testGenomes(t)
	invalid := genomes[len(genomes)-1]
	code, body := post(t, ts.URL+"/v1/explain", EvaluateRequest{NW: 8, Genome: invalid})
	if code != http.StatusUnprocessableEntity {
		t.Fatalf("explain(invalid) status %d, want 422: %s", code, body)
	}
	var er ErrorResponse
	if err := json.Unmarshal(body, &er); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if !strings.Contains(er.Reason, "share wavelength") {
		t.Fatalf("422 should carry the failure reason, got %q", er.Reason)
	}

	code, body = post(t, ts.URL+"/v1/explain", EvaluateRequest{NW: 8, Genome: genomes[0]})
	if code != http.StatusOK {
		t.Fatalf("explain(valid) status %d: %s", code, body)
	}
	var ex ExplainResponse
	if err := json.Unmarshal(body, &ex); err != nil || ex.Report == "" || !ex.Evaluate.Valid {
		t.Fatalf("explain(valid) response incomplete: %s", body)
	}
}

func TestCampaignStream(t *testing.T) {
	_, ts := newTestServer(t, Config{Backends: []string{"ring"}, NWs: []int{8}})
	code, body := post(t, ts.URL+"/v1/campaign", CampaignRequest{NWs: []int{4}, Pop: 30, Generations: 4})
	if code != http.StatusOK {
		t.Fatalf("campaign status %d: %s", code, body)
	}
	lines := strings.Split(strings.TrimSpace(string(body)), "\n")
	if len(lines) < 3 {
		t.Fatalf("campaign stream too short: %q", body)
	}
	var first, last map[string]any
	if err := json.Unmarshal([]byte(lines[0]), &first); err != nil || first["type"] != "cell_start" {
		t.Fatalf("first stream line should be cell_start: %s", lines[0])
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil || last["type"] != "result" {
		t.Fatalf("last stream line should be the result: %s", lines[len(lines)-1])
	}
	if _, ok := last["campaign"].(map[string]any); !ok {
		t.Fatalf("result line should embed the campaign artifact: %s", lines[len(lines)-1])
	}
}

func TestTokenCodec(t *testing.T) {
	meta := sessionMeta{Workload: "paper", Backend: "ring", NW: 8, Objectives: "teb",
		Pop: 80, Generations: 60, Seed: 42, WarmStart: true}
	checkpoint := []byte("pretend checkpoint bytes \x00\x01\x02")
	tok, err := encodeSession(meta, checkpoint)
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	gotMeta, gotCk, err := decodeSession(tok)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if gotMeta != meta {
		t.Fatalf("meta round trip: got %+v, want %+v", gotMeta, meta)
	}
	if !bytes.Equal(gotCk, checkpoint) {
		t.Fatalf("checkpoint round trip: got %q", gotCk)
	}
	for _, bad := range []string{"", "!!!", tok[:len(tok)-2], tok + "zz"} {
		if _, _, err := decodeSession(bad); err == nil {
			t.Fatalf("decodeSession(%q) should fail", bad)
		}
	}
}

func TestHealthAndInstances(t *testing.T) {
	s, ts := newTestServer(t, Config{Backends: []string{"ring"}, Workloads: []string{"paper"}, NWs: []int{4, 8}})
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var health map[string]any
	json.NewDecoder(resp.Body).Decode(&health)
	resp.Body.Close()
	if health["status"] != "ok" {
		t.Fatalf("health = %v", health)
	}
	s.BeginDrain()
	resp, err = http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	json.NewDecoder(resp.Body).Decode(&health)
	resp.Body.Close()
	if health["status"] != "draining" {
		t.Fatalf("health after BeginDrain = %v", health)
	}

	resp, err = http.Get(ts.URL + "/v1/instances")
	if err != nil {
		t.Fatal(err)
	}
	var inst struct {
		Instances []instanceInfo `json:"instances"`
	}
	json.NewDecoder(resp.Body).Decode(&inst)
	resp.Body.Close()
	want := []instanceInfo{
		{Workload: "paper", Backend: "ring", NW: 4},
		{Workload: "paper", Backend: "ring", NW: 8},
	}
	if len(inst.Instances) != len(want) {
		t.Fatalf("instances = %+v, want %+v", inst.Instances, want)
	}
	for i := range want {
		if inst.Instances[i] != want[i] {
			t.Fatalf("instances[%d] = %+v, want %+v", i, inst.Instances[i], want[i])
		}
	}
}
