package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"testing"
)

// FuzzServeRequest posts arbitrary bodies to /v1/evaluate and
// /v1/explain, the endpoints that bound a client's input without a GA
// run behind it. Whatever the body, the daemon must not panic and must
// not answer with a 5xx: every failure a client can cause is a 4xx.
// The handler runs in-process, so a panic fails the target instead of
// being recovered by net/http.
func FuzzServeRequest(f *testing.F) {
	for _, g := range testGenomes(f) {
		body := `{"nw":8,"genome":"` + g + `"}`
		f.Add(false, []byte(body))
		f.Add(true, []byte(body))
		f.Add(true, []byte(`{"backend":"crossbar","nw":8,"genome":"`+g+`"}`))
		f.Add(false, []byte(body[:len(body)/2]))
		f.Add(true, []byte(body+body))
	}
	g := testGenomes(f)[0]
	for _, body := range []string{
		`{"nw":8,"genome":"` + g + `","extra":1}`,
		`{"nw":8,"genom":"` + g + `"}`,
		`{"nw":-1,"genome":"` + g + `"}`,
		`{"nw":0,"genome":"` + g + `"}`,
		`{"nw":4096,"genome":"` + g + `"}`,
		`{"nw":1e400,"genome":"` + g + `"}`,
		`{"nw":8,"genome":"` + g + `/10000000"}`,
		`{"nw":8,"genome":"1"}`,
		`{"nw":8,"workload":"nope","genome":"` + g + `"}`,
		`[]`, `null`, ``,
	} {
		f.Add(false, []byte(body))
		f.Add(true, []byte(body))
	}
	s, err := NewServer(Config{NWs: []int{8}})
	if err != nil {
		f.Fatal(err)
	}
	h := s.Handler()
	f.Fuzz(func(t *testing.T, explain bool, body []byte) {
		route := "/v1/evaluate"
		if explain {
			route = "/v1/explain"
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, route, bytes.NewReader(body)))
		if rec.Code >= 500 {
			t.Fatalf("%s %q: status %d: %s", route, body, rec.Code, rec.Body.Bytes())
		}
	})
}

// FuzzServeRunRequest resolves arbitrary /v1/optimize and /v1/campaign
// bodies as far as the daemon does before a GA runs: an optimize body
// through decodeRequest, the session token or the request defaults,
// the run-size ceilings, the instance lookup and the objective set
// (resolveOptimizeJob); a campaign body through decodeRequest and
// campaignConfig. No input may panic, a refused input must be a 4xx,
// and an accepted one must resolve within the serving ceilings. The
// target never calls the handlers past resolution, so no input starts
// a GA run.
func FuzzServeRunRequest(f *testing.F) {
	s, err := NewServer(Config{NWs: []int{8}})
	if err != nil {
		f.Fatal(err)
	}
	// A genuine session token: one stepped generation of a small run.
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/optimize",
		strings.NewReader(`{"nw":8,"pop":8,"generations":3,"seed":1,"step_generations":1}`)))
	var stepped OptimizeResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &stepped); err != nil || stepped.Session == "" {
		f.Fatalf("no session token from a stepped optimize: %d %s", rec.Code, rec.Body.Bytes())
	}
	tok := stepped.Session
	forged, err := encodeSession(sessionMeta{Workload: "paper", Backend: "crossbar", NW: 8, Objectives: "tb",
		Pop: maxPop + 2, Generations: 10, Seed: 1}, nil)
	if err != nil {
		f.Fatal(err)
	}
	for _, body := range []string{
		`{"nw":8}`,
		`{"nw":8,"pop":24,"generations":10,"seed":5,"step_generations":4}`,
		`{"backend":"crossbar","nw":8,"objectives":"te","warmstart":true}`,
		`{"nw":8,"objectives":"xyz"}`,
		`{"nw":4}`,
		`{"nw":-3,"pop":-1,"generations":-1}`,
		`{"nw":8,"pop":401}`,
		`{"nw":8,"generations":1e400}`,
		`{"workload":"chain64","nw":8}`,
		`{"session":"` + tok + `"}`,
		`{"session":"` + tok + `","step_generations":1}`,
		`{"session":"` + tok[:len(tok)/2] + `"}`,
		`{"session":"` + tok + `A"}`,
		`{"session":"` + forged + `"}`,
		`{"session":"!!"}`,
		`[]`, `null`, ``,
	} {
		f.Add(false, []byte(body))
	}
	for _, body := range []string{
		`{}`,
		`{"backends":["ring","crossbar"],"nws":[4,8],"pop":24,"generations":10,"seed":1}`,
		`{"workloads":["paper","chain64","gauss7"],"objectives":["teb","te","tb"],"replicates":2}`,
		`{"workloads":["chain999999999999"]}`,
		`{"workloads":["diamond257"]}`,
		`{"workloads":["mesh4"]}`,
		`{"backends":["torus"]}`,
		`{"objectives":["nope"]}`,
		`{"nws":[8,8]}`,
		`{"pop":401,"generations":401,"replicates":33}`,
		`{"nws":[100000000]}`,
		`{"nws":[64,65]}`,
		`{"backends":["ring","crossbar"],"nws":[4,8],"objectives":["teb","te","tb"],"replicates":32}`,
		`{"workloads":[` + manyWorkloads + `]}`,
		`{"cell_workers":-1,"warmstart":true}`,
		`{"extra":1}`,
		`[]`, `null`, ``,
	} {
		f.Add(true, []byte(body))
	}
	f.Fuzz(func(t *testing.T, campaign bool, body []byte) {
		rec := httptest.NewRecorder()
		if campaign {
			req := httptest.NewRequest(http.MethodPost, "/v1/campaign", bytes.NewReader(body))
			var creq CampaignRequest
			if !decodeRequest(rec, req, &creq) {
				requireClientError(t, rec, body)
				return
			}
			cfg, err := s.campaignConfig(creq)
			if err != nil {
				return // the handler answers 400
			}
			cells := max(1, cfg.Replicates) * len(cfg.NWs) * max(1, len(cfg.Backends)) *
				len(cfg.ObjectiveSets) * len(cfg.Workloads)
			if cfg.Pop < 1 || cfg.Pop > maxPop || cfg.Generations < 1 || cfg.Generations > maxGenerations ||
				cfg.Replicates > maxReplicates || len(cfg.ObjectiveSets) == 0 || len(cfg.Workloads) == 0 ||
				slices.Max(cfg.NWs) > maxNW || cells > maxCells {
				t.Fatalf("%q resolved outside the ceilings: %+v", body, cfg)
			}
			return
		}
		req := httptest.NewRequest(http.MethodPost, "/v1/optimize", bytes.NewReader(body))
		job, ok := s.resolveOptimizeJob(rec, req)
		if !ok {
			requireClientError(t, rec, body)
			return
		}
		if rec.Body.Len() != 0 {
			t.Fatalf("%q: resolved but answered %d: %s", body, rec.Code, rec.Body.Bytes())
		}
		if job.inst == nil || job.inst.in.Channels() != job.meta.NW ||
			job.meta.Pop > maxPop || job.meta.Generations > maxGenerations {
			t.Fatalf("%q resolved outside the served set or the ceilings: %+v", body, job.meta)
		}
	})
}

// manyWorkloads lists more distinct generated workloads than a
// campaign may have cells.
var manyWorkloads = func() string {
	names := []string{`"fft4"`}
	for n := 1; n <= maxCells; n++ {
		names = append(names, fmt.Sprintf(`"chain%d"`, n))
	}
	return strings.Join(names, ",")
}()

// requireClientError fails unless the recorded answer is a 4xx.
func requireClientError(t *testing.T, rec *httptest.ResponseRecorder, body []byte) {
	t.Helper()
	if rec.Code < 400 || rec.Code >= 500 {
		t.Fatalf("%q: status %d, want a 4xx: %s", body, rec.Code, rec.Body.Bytes())
	}
}
