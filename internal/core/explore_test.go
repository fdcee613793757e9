package core

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"math"
	"reflect"
	"testing"

	"repro/internal/nsga2"
)

func quickCfg(seed int64) Config {
	return Config{NW: 8, GA: nsga2.Config{PopSize: 40, Generations: 24, Seed: seed}}
}

func resultsIdentical(t *testing.T, a, b *Result, label string) {
	t.Helper()
	if a.Evaluations != b.Evaluations || a.ValidEvaluations != b.ValidEvaluations ||
		a.DistinctEvaluated != b.DistinctEvaluated || a.DistinctValid != b.DistinctValid {
		t.Fatalf("%s: counters diverge: %d/%d/%d/%d vs %d/%d/%d/%d", label,
			a.Evaluations, a.ValidEvaluations, a.DistinctEvaluated, a.DistinctValid,
			b.Evaluations, b.ValidEvaluations, b.DistinctEvaluated, b.DistinctValid)
	}
	for _, fronts := range []struct {
		name string
		a, b []Solution
	}{
		{"Front", a.Front, b.Front},
		{"Valid", a.Valid, b.Valid},
		{"FrontTimeEnergy", a.FrontTimeEnergy, b.FrontTimeEnergy},
		{"FrontTimeBER", a.FrontTimeBER, b.FrontTimeBER},
	} {
		if len(fronts.a) != len(fronts.b) {
			t.Fatalf("%s: %s sizes %d vs %d", label, fronts.name, len(fronts.a), len(fronts.b))
		}
		for i := range fronts.a {
			sa, sb := fronts.a[i], fronts.b[i]
			if sa.Genome.String() != sb.Genome.String() ||
				!reflect.DeepEqual(sa.Counts, sb.Counts) || sa.Metrics != sb.Metrics {
				t.Fatalf("%s: %s[%d] diverges:\n%v %v\n%v %v",
					label, fronts.name, i, sa.Genome, sa.Metrics, sb.Genome, sb.Metrics)
			}
		}
	}
}

// TestExplorerMatchesOptimize pins the stepped API to the monolithic
// one: driving an Explorer to completion assembles the identical
// Result.
func TestExplorerMatchesOptimize(t *testing.T) {
	pa, err := New(quickCfg(7))
	if err != nil {
		t.Fatal(err)
	}
	ra, err := pa.Optimize()
	if err != nil {
		t.Fatal(err)
	}
	pb, err := New(quickCfg(7))
	if err != nil {
		t.Fatal(err)
	}
	x, err := pb.NewExplorer()
	if err != nil {
		t.Fatal(err)
	}
	for !x.Done() {
		x.Step()
	}
	rb, err := x.Finish()
	if err != nil {
		t.Fatal(err)
	}
	resultsIdentical(t, ra, rb, "explorer vs optimize")
}

// TestExplorerFinishEarlyFails pins the misuse guard.
func TestExplorerFinishEarlyFails(t *testing.T) {
	p, err := New(quickCfg(7))
	if err != nil {
		t.Fatal(err)
	}
	x, err := p.NewExplorer()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := x.Finish(); err == nil {
		t.Fatal("Finish before completion must fail")
	}
}

// TestResumeExplorerIdenticalResult is the cross-process contract: a
// run checkpointed mid-exploration and resumed on a FRESH problem (a
// fresh instance — everything a new process would rebuild) finishes
// with a Result bit-identical to the uninterrupted run, including the
// checkpointed metric triples behind every front solution.
func TestResumeExplorerIdenticalResult(t *testing.T) {
	ref, err := New(quickCfg(11))
	if err != nil {
		t.Fatal(err)
	}
	refRes, err := ref.Optimize()
	if err != nil {
		t.Fatal(err)
	}

	live, err := New(quickCfg(11))
	if err != nil {
		t.Fatal(err)
	}
	x, err := live.NewExplorer()
	if err != nil {
		t.Fatal(err)
	}
	for x.Generation() < 9 {
		x.Step()
	}
	var ckpt bytes.Buffer
	if err := x.WriteCheckpoint(&ckpt); err != nil {
		t.Fatal(err)
	}

	fresh, err := New(quickCfg(11))
	if err != nil {
		t.Fatal(err)
	}
	resumed, err := fresh.ResumeExplorer(&ckpt)
	if err != nil {
		t.Fatal(err)
	}
	if resumed.Generation() != 9 {
		t.Fatalf("resumed at generation %d, want 9", resumed.Generation())
	}
	for !resumed.Done() {
		resumed.Step()
	}
	res, err := resumed.Finish()
	if err != nil {
		t.Fatal(err)
	}
	resultsIdentical(t, refRes, res, "resumed vs uninterrupted")
}

// TestResumeExplorerRejectsMismatchedProblem pins the fail-loud
// geometry check at the core level: a checkpoint taken at one comb
// size cannot resume a problem at another.
func TestResumeExplorerRejectsMismatchedProblem(t *testing.T) {
	p, err := New(quickCfg(3))
	if err != nil {
		t.Fatal(err)
	}
	x, err := p.NewExplorer()
	if err != nil {
		t.Fatal(err)
	}
	x.Step()
	var ckpt bytes.Buffer
	if err := x.WriteCheckpoint(&ckpt); err != nil {
		t.Fatal(err)
	}
	other, err := New(Config{NW: 4, GA: nsga2.Config{PopSize: 40, Generations: 24, Seed: 3}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := other.ResumeExplorer(&ckpt); err == nil {
		t.Fatal("checkpoint for NW=8 resumed an NW=4 problem")
	}
}

// checkpointAt steps a fresh explorer for cfg to generation gen and
// returns its checkpoint bytes.
func checkpointAt(t *testing.T, cfg Config, gen int) []byte {
	t.Helper()
	p, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	x, err := p.NewExplorer()
	if err != nil {
		t.Fatal(err)
	}
	for x.Generation() < gen {
		x.Step()
	}
	var buf bytes.Buffer
	if err := x.WriteCheckpoint(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestCheckpointIdenticalAcrossWorkers pins the parallel aux path: the
// metric triples the worker views write next to the objectives make a
// mid-run checkpoint byte-identical for any worker count.
func TestCheckpointIdenticalAcrossWorkers(t *testing.T) {
	cfg := quickCfg(13)
	cfg.GA.Workers = 1
	serial := checkpointAt(t, cfg, 9)
	cfg.GA.Workers = 3
	if !bytes.Equal(serial, checkpointAt(t, cfg, 9)) {
		t.Fatal("checkpoint written with 3 workers differs from the 1-worker one")
	}
}

// TestResumeNaNTripleEvaluatesOnce pins the fallback for a feasible
// cache entry without a metric triple, which only a hand-built
// checkpoint holds: the checkpoint below has every feasible entry's
// aux values set to NaN, and the resumed run still assembles the
// uninterrupted run's Result.
func TestResumeNaNTripleEvaluatesOnce(t *testing.T) {
	ref, err := New(quickCfg(11))
	if err != nil {
		t.Fatal(err)
	}
	refRes, err := ref.Optimize()
	if err != nil {
		t.Fatal(err)
	}

	raw := checkpointAt(t, quickCfg(11), 9)
	le := binary.LittleEndian
	// v2 layout: a 68-byte header (genomeLen at 8, numObjs at 12,
	// auxDim at 16, popLen at 64), popLen x (genome, rank u32,
	// crowding f64), the u64 cache length, then per entry the key,
	// the objectives, the violation and the aux values.
	gl, nObj, auxDim := int(le.Uint32(raw[8:])), int(le.Uint32(raw[12:])), int(le.Uint32(raw[16:]))
	if auxDim != metricsAuxLen {
		t.Fatalf("checkpoint aux dimension %d, want %d", auxDim, metricsAuxLen)
	}
	off := 68 + int(le.Uint32(raw[64:]))*(gl+12)
	entries := int(le.Uint64(raw[off:]))
	off += 8
	cleared := 0
	for i := 0; i < entries; i++ {
		off += gl + 8*nObj
		feasible := math.Float64frombits(le.Uint64(raw[off:])) == 0
		off += 8
		for k := 0; k < auxDim; k++ {
			if feasible {
				le.PutUint64(raw[off:], math.Float64bits(math.NaN()))
			}
			off += 8
		}
		if feasible {
			cleared++
		}
	}
	if off != len(raw)-4 || cleared == 0 {
		t.Fatalf("walked to byte %d of %d, cleared %d feasible entries", off, len(raw)-4, cleared)
	}
	le.PutUint32(raw[off:], crc32.ChecksumIEEE(raw[:off]))

	p, err := New(quickCfg(11))
	if err != nil {
		t.Fatal(err)
	}
	x, err := p.ResumeExplorer(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	for !x.Done() {
		x.Step()
	}
	res, err := x.Finish()
	if err != nil {
		t.Fatal(err)
	}
	resultsIdentical(t, refRes, res, "NaN-triple resume vs uninterrupted")
}
