package serve

import (
	"bytes"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"testing"
)

// Golden diff for the serving wire format: every response shape,
// rendered through encodeJSON, against a committed file. The
// serve-smoke CI job diffs daemon output against the CLI literally,
// so any drift here would surface as a user-facing incompatibility —
// these tests catch it at unit scope first.

func negZero() float64 { return math.Copysign(0, -1) }

func serveFixtures() []any {
	metrics := &MetricsJSON{
		MakespanCycles: 123456, // integer-valued float
		TimeKCC:        0.123456789,
		BitEnergyFJ:    9.999999e-7,
		MeanBER:        1e-300,
		Log10MeanBER:   -300,
		WorstBER:       5e-324,
		Counts:         []int{1, 2, 3, 4},
	}
	sols := []SolutionJSON{
		{Genome: "1000/0100", Counts: []int{1, 2}, TimeKCC: 42, BitEnergyFJ: 1e21, MeanBER: 2.5e-13},
		{Genome: "", Counts: []int{}, TimeKCC: negZero(), BitEnergyFJ: 1e-6, MeanBER: 9.99999e20},
	}
	return []any{
		EvaluateResponse{Workload: "paper", Backend: "ring", NW: 8,
			Genome: "1000/0100", Valid: true, Violation: 0, Metrics: metrics},
		EvaluateResponse{Workload: "hot<spot>", Backend: "crossbar", NW: 16,
			Genome: `g"1`, Valid: false, Violation: 2.5, Reason: "conflict on <waveguide> & comb"},
		&EvaluateResponse{Workload: "paper", Backend: "ring", NW: 8,
			Genome: "1000", Valid: false, Violation: negZero()},
		ExplainResponse{
			Evaluate: EvaluateResponse{Workload: "paper", Backend: "ring", NW: 8,
				Genome: "1000/0100", Valid: true, Metrics: metrics},
			Report: "link budget:\n  λ0 → node 3\t<ok>\n",
		},
		OptimizeResponse{Workload: "paper", Backend: "ring", NW: 8, Objectives: "teb",
			Pop: 80, Generations: 60, Seed: 42, Generation: 60, Done: true,
			Result: &OptimizeResult{Front: sols, FrontTimeEnergy: sols[:1], FrontTimeBER: []SolutionJSON{},
				Evaluations: 4800, ValidEvaluations: 3200, DistinctValid: 1500}},
		OptimizeResponse{Workload: "paper", Backend: "crossbar", NW: 8, Objectives: "te",
			Pop: 24, Generations: 10, Seed: 5, Generation: 4, Done: false,
			Draining: true, Session: "opaque/token+base64=="},
		&OptimizeResponse{Workload: "paper", Backend: "ring", NW: 4, Objectives: "tb",
			Pop: 24, Generations: 10, Seed: -7, Generation: 10, Done: true,
			Result: &OptimizeResult{}},
		ErrorResponse{Error: "instance (paper, ring, nw=8) is not served; serving: []"},
		ErrorResponse{Error: "queue full", RetryAfterMS: 250},
		&ErrorResponse{Error: "invalid chromosome", Reason: `conflict: "λ3" <shared>`},
		ErrorResponse{Error: "line\u2028and\u2029paragraph separators", Reason: "invalid \xff\xfe utf-8 \xe2\x28\xa1"},
	}
}

// TestEncodeJSONGolden diffs every fixture's canonical rendering
// against testdata/encode_golden.ndjson, rendered by an earlier build
// and committed, so the served format is pinned across changes. A
// change that alters a served byte on purpose regenerates the file in
// the same commit and says why.
func TestEncodeJSONGolden(t *testing.T) {
	var got []byte
	for i, v := range serveFixtures() {
		b, err := encodeJSON(v)
		if err != nil {
			t.Fatalf("fixture %d: %v", i, err)
		}
		got = append(got, b...)
	}
	want, err := os.ReadFile("testdata/encode_golden.ndjson")
	if err != nil {
		t.Fatal(err)
	}
	gotLines, wantLines := bytes.SplitAfter(got, []byte("\n")), bytes.SplitAfter(want, []byte("\n"))
	for i := range max(len(gotLines), len(wantLines)) {
		var g, w []byte
		if i < len(gotLines) {
			g = gotLines[i]
		}
		if i < len(wantLines) {
			w = wantLines[i]
		}
		if !bytes.Equal(g, w) {
			t.Errorf("line %d:\n got: %q\nwant: %q", i+1, g, w)
		}
	}
}

// TestEncodeJSONFallback pins the error path: a non-finite float
// makes encodeJSON fail instead of emitting corrupt bytes, and
// writeJSON answers 500 with a fixed error body.
func TestEncodeJSONFallback(t *testing.T) {
	bad := EvaluateResponse{Workload: "paper", Violation: math.NaN()}
	if _, err := encodeJSON(bad); err == nil {
		t.Fatal("encodeJSON swallowed a NaN violation")
	}
	inf := OptimizeResponse{Result: &OptimizeResult{Front: []SolutionJSON{{TimeKCC: math.Inf(1)}}}}
	if _, err := encodeJSON(inf); err == nil {
		t.Fatal("encodeJSON swallowed an infinite objective")
	}
	rec := httptest.NewRecorder()
	writeJSON(rec, http.StatusOK, bad)
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("writeJSON on a NaN document: status %d, want 500", rec.Code)
	}
}
