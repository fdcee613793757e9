package nsga2

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"strings"
	"testing"
)

// ckptProblem is a deterministic problem with a feasibility
// constraint, so checkpoints carry both finite and +Inf objective
// vectors and nonzero violations.
func ckptProblem(n int) funcProblem {
	return funcProblem{n: n, m: 2, eval: func(g []byte) ([]float64, float64) {
		ones := countOnes(g)
		if ones == 0 {
			return []float64{math.Inf(1), math.Inf(1)}, 1
		}
		h := n / 2
		return []float64{float64(countOnes(g[:h])), float64(h - countOnes(g[h:]))}, 0
	}}
}

// auxProblem gives a funcProblem aux values: fill writes a genome's
// n aux values after its objectives.
type auxProblem struct {
	funcProblem
	n    int
	fill func(genome []byte, aux []float64)
}

func (p auxProblem) AuxLen() int       { return p.n }
func (p auxProblem) NewWorker() Worker { return p }
func (p auxProblem) EvaluateInto(dst []float64, g []byte) float64 {
	violation := p.funcProblem.EvaluateInto(dst, g)
	p.fill(g, dst[p.m:p.m+p.n])
	return violation
}

// onesAux is an aux fill: the genome's one count, then its length
// negated.
func onesAux(genome []byte, aux []float64) {
	aux[0] = float64(countOnes(genome))
	aux[1] = -float64(len(genome))
}

func popsEqual(t *testing.T, a, b []Individual, label string) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("%s: population sizes %d vs %d", label, len(a), len(b))
	}
	for i := range a {
		if !bytes.Equal(a[i].Genome, b[i].Genome) {
			t.Fatalf("%s: individual %d genomes differ", label, i)
		}
		if a[i].Rank != b[i].Rank || a[i].Violation != b[i].Violation {
			t.Fatalf("%s: individual %d rank/violation differ: %+v vs %+v", label, i, a[i], b[i])
		}
		if a[i].Crowding != b[i].Crowding && !(math.IsInf(a[i].Crowding, 1) && math.IsInf(b[i].Crowding, 1)) {
			t.Fatalf("%s: individual %d crowding %v vs %v", label, i, a[i].Crowding, b[i].Crowding)
		}
		for k := range a[i].Objs {
			if a[i].Objs[k] != b[i].Objs[k] && !(math.IsInf(a[i].Objs[k], 1) && math.IsInf(b[i].Objs[k], 1)) {
				t.Fatalf("%s: individual %d objective %d: %v vs %v", label, i, k, a[i].Objs[k], b[i].Objs[k])
			}
		}
	}
}

// TestCheckpointResumeReplaysExactly is the tentpole contract: an
// engine checkpointed mid-run and resumed into a FRESH engine (the
// cross-process shape — nothing shared but the problem definition)
// retraces the interrupted run bit for bit, population by population,
// through to an identical Result.
func TestCheckpointResumeReplaysExactly(t *testing.T) {
	p := ckptProblem(16)
	cfg := Config{PopSize: 24, Generations: 20, Seed: 99, ArchiveAll: true}

	ref, err := NewEngine(p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	live, err := NewEngine(p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for g := 0; g < 7; g++ {
		ref.Step()
		live.Step()
	}
	var buf bytes.Buffer
	if err := live.WriteCheckpoint(&buf); err != nil {
		t.Fatal(err)
	}
	ckptBytes := append([]byte(nil), buf.Bytes()...)

	resumed, err := ResumeEngine(p, cfg, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if resumed.Generation() != 7 {
		t.Fatalf("resumed at generation %d, want 7", resumed.Generation())
	}
	popsEqual(t, ref.Population(), resumed.Population(), "restored population")
	for g := 7; g < 20; g++ {
		ref.Step()
		resumed.Step()
		popsEqual(t, ref.Population(), resumed.Population(), "generation")
	}
	refRes, resRes := ref.Result(), resumed.Result()
	if refRes.Evaluations != resRes.Evaluations ||
		refRes.ValidEvaluations != resRes.ValidEvaluations ||
		refRes.DistinctEvaluated != resRes.DistinctEvaluated ||
		refRes.DistinctValid != resRes.DistinctValid {
		t.Fatalf("counters diverge: %+v vs %+v", refRes, resRes)
	}
	if len(refRes.Archive) != len(resRes.Archive) {
		t.Fatalf("archive sizes %d vs %d", len(refRes.Archive), len(resRes.Archive))
	}
	for i := range refRes.Archive {
		if !bytes.Equal(refRes.Archive[i].Genome, resRes.Archive[i].Genome) {
			t.Fatalf("archive order diverges at %d", i)
		}
	}

	// Byte-stability: re-checkpointing the same state (a second fresh
	// resume from the original bytes) encodes identically.
	again, err := ResumeEngine(p, cfg, bytes.NewReader(ckptBytes))
	if err != nil {
		t.Fatal(err)
	}
	var buf2 bytes.Buffer
	if err := again.WriteCheckpoint(&buf2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(ckptBytes, buf2.Bytes()) {
		t.Fatal("checkpoint encoding is not byte-stable across a resume round-trip")
	}
}

// TestCheckpointRejectsMismatch pins the fail-loud contract: wrong
// magic, unsupported version, mismatched geometry or seed, truncation
// and bit damage are all errors (never a silently diverging engine).
func TestCheckpointRejectsMismatch(t *testing.T) {
	p := ckptProblem(16)
	cfg := Config{PopSize: 12, Generations: 8, Seed: 3}
	e, err := NewEngine(p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	e.Step()
	var buf bytes.Buffer
	if err := e.WriteCheckpoint(&buf); err != nil {
		t.Fatal(err)
	}
	good := buf.Bytes()

	resume := func(raw []byte, p Problem, cfg Config) error {
		_, err := ResumeEngine(p, cfg, bytes.NewReader(raw))
		return err
	}
	if err := resume(good, p, cfg); err != nil {
		t.Fatalf("pristine checkpoint rejected: %v", err)
	}

	t.Run("magic", func(t *testing.T) {
		bad := append([]byte(nil), good...)
		bad[0] ^= 0xff
		if resume(bad, p, cfg) == nil {
			t.Fatal("bad magic accepted")
		}
	})
	t.Run("version", func(t *testing.T) {
		bad := append([]byte(nil), good...)
		bad[6] ^= 0xff // version little-endian low byte
		if resume(bad, p, cfg) == nil {
			t.Fatal("unknown version accepted")
		}
	})
	t.Run("genome-length", func(t *testing.T) {
		if resume(good, ckptProblem(18), cfg) == nil {
			t.Fatal("genome-length mismatch accepted")
		}
	})
	t.Run("popsize", func(t *testing.T) {
		c := cfg
		c.PopSize = 20
		if resume(good, p, c) == nil {
			t.Fatal("population-size mismatch accepted")
		}
	})
	t.Run("seed", func(t *testing.T) {
		c := cfg
		c.Seed = 4
		if resume(good, p, c) == nil {
			t.Fatal("seed mismatch accepted")
		}
	})
	t.Run("truncated", func(t *testing.T) {
		for _, cut := range []int{0, 5, 20, len(good) / 2, len(good) - 1} {
			if resume(good[:cut], p, cfg) == nil {
				t.Fatalf("truncation at %d accepted", cut)
			}
		}
	})
	t.Run("bitflip", func(t *testing.T) {
		// Flip one payload byte: the CRC (or a structural check) must
		// catch it. Probe several offsets across the file.
		for _, off := range []int{30, 60, len(good) / 2, len(good) - 5} {
			bad := append([]byte(nil), good...)
			bad[off] ^= 0x01
			if resume(bad, p, cfg) == nil {
				t.Fatalf("bit flip at %d accepted", off)
			}
		}
	})
}

// encodeV1Checkpoint renders engine-shaped state in the retired v1
// layout (no auxDim header field, no per-entry aux payload), with a
// correct CRC — the version-skew probe needs a stream that is wrong
// ONLY in its version.
func encodeV1Checkpoint(e *Engine) []byte {
	var buf bytes.Buffer
	cw := &crcWriter{w: &buf}
	cw.bytes(checkpointMagic[:])
	cw.u16(1)
	cw.u32(uint32(e.gl))
	cw.u32(uint32(e.nObj))
	cw.u32(uint32(e.size))
	cw.u64(uint64(e.cfg.Seed))
	cw.u64(uint64(e.gen))
	cw.u64(e.src.n)
	cw.u64(uint64(e.evals))
	cw.u64(uint64(e.validEvals))
	cw.u32(uint32(len(e.pop)))
	for i := range e.pop {
		cw.bytes(e.pop[i].Genome)
		cw.u32(uint32(e.pop[i].Rank))
		cw.f64(e.pop[i].Crowding)
	}
	cw.u64(uint64(len(e.cache.entries)))
	for i := range e.cache.entries {
		ent := &e.cache.entries[i]
		cw.bytes(ent.key)
		for _, o := range ent.objs {
			cw.f64(o)
		}
		cw.f64(ent.violation)
	}
	cw.u32(cw.crc)
	return buf.Bytes()
}

// TestCheckpointVersionSkew pins the cross-version contract: a PR
// 5-era (v1) checkpoint fed to the current decoder must produce a
// descriptive unsupported-version error — no panic, no silent parse
// of the shifted layout — through ResumeEngine.
func TestCheckpointVersionSkew(t *testing.T) {
	p := ckptProblem(16)
	cfg := Config{PopSize: 12, Generations: 8, Seed: 3}
	e, err := NewEngine(p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	e.Step()
	old := encodeV1Checkpoint(e)

	_, err = ResumeEngine(p, cfg, bytes.NewReader(old))
	if err == nil {
		t.Fatal("ResumeEngine accepted a v1 checkpoint")
	}
	if want := "format version 1, this build reads 2"; !bytes.Contains([]byte(err.Error()), []byte(want)) {
		t.Fatalf("ResumeEngine error %q does not describe the version skew (want substring %q)", err, want)
	}
}

// TestCheckpointAuxRoundTrip pins the v2 aux payload: the problem's
// aux values land on every archive entry, come back bit-exactly
// through a resumed engine's archive, and re-encode byte-identically
// without the problem's help; an aux-dimension mismatch between file
// and problem fails loudly.
func TestCheckpointAuxRoundTrip(t *testing.T) {
	p := auxProblem{ckptProblem(12), 2, onesAux}
	cfg := Config{PopSize: 12, Generations: 6, Seed: 7, ArchiveAll: true}
	e, err := NewEngine(p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	e.Step()
	var buf bytes.Buffer
	if err := e.WriteCheckpoint(&buf); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()

	// The resumed engine's problem writes different aux values, so the
	// payload it reports and re-encodes can only come from the file.
	other := p
	other.fill = func(genome []byte, aux []float64) { aux[0], aux[1] = 1, 1 }
	resumed, err := ResumeEngine(other, cfg, bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	wantAux := func(label string, archive []ArchiveEntry) {
		t.Helper()
		for i, ent := range archive {
			if len(ent.Aux) != 2 || ent.Aux[0] != float64(countOnes(ent.Genome)) || ent.Aux[1] != -float64(len(ent.Genome)) {
				t.Fatalf("%s entry %d aux = %v, not the written payload", label, i, ent.Aux)
			}
		}
	}
	archive := resumed.Result().Archive
	wantAux("resumed", archive)
	if n := len(e.Result().Archive); len(archive) == 0 || len(archive) != n {
		t.Fatalf("resumed archive has %d entries, the written engine had %d", len(archive), n)
	}
	wantAux("merged", MergeResults(e.Result(), resumed.Result()).Archive)
	var buf2 bytes.Buffer
	if err := resumed.WriteCheckpoint(&buf2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(raw, buf2.Bytes()) {
		t.Fatal("aux payload does not re-encode byte-identically across a resume")
	}

	// Dimension mismatch: same file, a problem without aux values.
	if _, err := ResumeEngine(p.funcProblem, cfg, bytes.NewReader(raw)); err == nil {
		t.Fatal("aux-dimension mismatch accepted")
	}
}

// TestResumeAllocsPerEntry pins the rehydration-cost contract: the
// marginal price of one more archive entry is about one heap
// allocation (the interned genome key) for ResumeEngine — objective
// and aux vectors are carved from a chunked arena, not boxed per
// genotype. The bound is
// measured as a marginal rate between a small and a large checkpoint,
// so the fixed engine-construction cost cancels out.
func TestResumeAllocsPerEntry(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation measurement")
	}
	p := auxProblem{ckptProblem(16), 3, func(genome []byte, aux []float64) {
		aux[0] = float64(countOnes(genome))
		aux[1] = 2
		aux[2] = 3
	}}
	mk := func(gens int) ([]byte, int, Config) {
		cfg := Config{PopSize: 32, Generations: gens, Seed: 17, ArchiveAll: true}
		e, err := NewEngine(p, cfg)
		if err != nil {
			t.Fatal(err)
		}
		for g := 0; g < gens; g++ {
			e.Step()
		}
		var buf bytes.Buffer
		if err := e.WriteCheckpoint(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes(), len(e.Result().Archive), cfg
	}
	smallRaw, smallN, smallCfg := mk(2)
	largeRaw, largeN, largeCfg := mk(40)
	extra := largeN - smallN
	if extra < 100 {
		t.Fatalf("archives too close for a marginal measurement: %d vs %d entries", smallN, largeN)
	}

	resume := func(raw []byte, cfg Config) {
		if _, err := ResumeEngine(p, cfg, bytes.NewReader(raw)); err != nil {
			t.Fatal(err)
		}
	}
	small := testing.AllocsPerRun(5, func() { resume(smallRaw, smallCfg) })
	large := testing.AllocsPerRun(5, func() { resume(largeRaw, largeCfg) })
	perEntry := (large - small) / float64(extra)
	if perEntry > 2.0 {
		t.Errorf("ResumeEngine: %.2f allocs per marginal archive entry (%d extra entries, %.0f -> %.0f allocs), want <= 2.0",
			perEntry, extra, small, large)
	}
}

// nanCheckpoint writes a valid aux-free checkpoint, sets the first
// objective of cache entry 3 to NaN and recomputes the CRC, so only
// the NaN boundary stands between the bytes and a resume. It returns
// the bytes and the poisoned entry's index.
func nanCheckpoint(tb testing.TB) ([]byte, int) {
	tb.Helper()
	e, err := NewEngine(ckptProblem(8), Config{PopSize: 8, Seed: 11})
	if err != nil {
		tb.Fatal(err)
	}
	e.Step()
	var buf bytes.Buffer
	if err := e.WriteCheckpoint(&buf); err != nil {
		tb.Fatal(err)
	}
	raw := buf.Bytes()
	// The v2 cache section follows the 68-byte header and the
	// popLen x (genomeLen + 4 + 8)-byte population; past its 8-byte
	// length each entry is the key, the objectives and the violation.
	const entry = 3
	off := 68 + len(e.pop)*(e.gl+12) + 8 + entry*(e.gl+8*e.nObj+8) + e.gl
	binary.LittleEndian.PutUint64(raw[off:], math.Float64bits(math.NaN()))
	body := len(raw) - 4
	binary.LittleEndian.PutUint32(raw[body:], crc32.ChecksumIEEE(raw[:body]))
	return raw, entry
}

// TestCheckpointRejectsNaN pins the checkpoint side of the NaN
// boundary: a CRC-consistent checkpoint with a NaN cache objective is
// an error naming the entry.
func TestCheckpointRejectsNaN(t *testing.T) {
	raw, entry := nanCheckpoint(t)
	want := fmt.Sprintf("cache entry %d of ", entry)
	_, err := ResumeEngine(ckptProblem(8), Config{PopSize: 8, Seed: 11}, bytes.NewReader(raw))
	if err == nil || !strings.Contains(err.Error(), want) || !strings.Contains(err.Error(), "NaN") {
		t.Errorf("ResumeEngine: err = %v, want a NaN error naming %q", err, want)
	}
}

// TestCheckpointNaNAuxResumes pins that NaN stays legal in the aux
// payload, where it means "unknown": a problem that writes NaN aux
// for every entry still checkpoints, and the file decodes, resumes
// and re-encodes byte-identically.
func TestCheckpointNaNAuxResumes(t *testing.T) {
	p := auxProblem{ckptProblem(8), 2, func(genome []byte, aux []float64) {
		aux[0], aux[1] = math.NaN(), math.NaN()
	}}
	cfg := Config{PopSize: 8, Seed: 11, ArchiveAll: true}
	e, err := NewEngine(p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	e.Step()
	var buf bytes.Buffer
	if err := e.WriteCheckpoint(&buf); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	resumed, err := ResumeEngine(p, cfg, bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	archive := resumed.Result().Archive
	for i, ent := range archive {
		if len(ent.Aux) != 2 || !math.IsNaN(ent.Aux[0]) || !math.IsNaN(ent.Aux[1]) {
			t.Fatalf("entry %d aux = %v, want NaN payloads", i, ent.Aux)
		}
	}
	if len(archive) == 0 {
		t.Fatal("resumed archive is empty")
	}
	var again bytes.Buffer
	if err := resumed.WriteCheckpoint(&again); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(raw, again.Bytes()) {
		t.Fatal("NaN aux payload does not re-encode byte-identically across a resume")
	}
}

// FuzzSnapshotDecode fuzzes the checkpoint decoder: arbitrary bytes
// must either resume cleanly or fail with an error — never panic and
// never hang. Seeded with a valid checkpoint and structured
// corruptions of it.
func FuzzSnapshotDecode(f *testing.F) {
	p := ckptProblem(8)
	cfg := Config{PopSize: 8, Generations: 4, Seed: 11}
	e, err := NewEngine(p, cfg)
	if err != nil {
		f.Fatal(err)
	}
	e.Step()
	var buf bytes.Buffer
	if err := e.WriteCheckpoint(&buf); err != nil {
		f.Fatal(err)
	}
	good := buf.Bytes()
	f.Add(good)
	f.Add(good[:len(good)/2])
	f.Add([]byte{})
	f.Add([]byte("WACKPT"))
	huge := append([]byte(nil), good...)
	// Claim implausible counters (v2 header: validEvals at 56..63) to
	// probe the plausibility bounds.
	for i := 0; i < 8 && len(huge) > 64+i; i++ {
		huge[56+i] = 0xff
	}
	f.Add(huge)
	// Claim an enormous cache length to probe allocation bombs: the
	// v2 cache header sits after the 68-byte file header and the
	// popLen x (genomeLen + 4 + 8)-byte population section.
	bomb := append([]byte(nil), good...)
	cacheOff := 68 + e.size*(e.gl+12)
	for i := 0; i < 8 && len(bomb) > cacheOff+8+i; i++ {
		bomb[cacheOff+i] = 0xff
	}
	f.Add(bomb)
	// The retired v1 layout (version field says 1, no auxDim, no aux
	// payload) must be rejected on its version, never misparsed.
	eV1, err := NewEngine(p, cfg)
	if err != nil {
		f.Fatal(err)
	}
	eV1.Step()
	f.Add(encodeV1Checkpoint(eV1))
	// An aux-bearing v2 stream seeds the aux-section decode paths,
	// with both known and NaN ("unknown") aux values.
	pAux := auxProblem{p, 3, func(genome []byte, aux []float64) {
		aux[0], aux[1], aux[2] = float64(countOnes(genome)), math.NaN(), math.NaN()
	}}
	eAux, err := NewEngine(pAux, cfg)
	if err != nil {
		f.Fatal(err)
	}
	eAux.Step()
	var bufAux bytes.Buffer
	if err := eAux.WriteCheckpoint(&bufAux); err != nil {
		f.Fatal(err)
	}
	f.Add(bufAux.Bytes())
	// A CRC-consistent checkpoint with a NaN cache objective must be
	// refused at decode time, never ranked.
	nan, _ := nanCheckpoint(f)
	f.Add(nan)

	f.Fuzz(func(t *testing.T, raw []byte) {
		// Both the aux-free and the aux-bearing problems must survive
		// arbitrary input: resume cleanly or error, never panic, never
		// hang.
		for _, q := range []Problem{p, pAux} {
			eng, err := ResumeEngine(q, cfg, bytes.NewReader(raw))
			if err != nil {
				continue
			}
			// A decodable checkpoint must yield a steppable engine.
			eng.Step()
		}
	})
}

// TestArenaSizedFromRunBound pins the arenas' sizing: a fresh pop
// P x G run carves every value row, in insertion order, from one chunk
// of at most P·(G+1)·(nObj+aux) floats — the most distinct genomes the
// run can evaluate — and every interned key from one chunk of at most
// P·(G+1)·genomeLen bytes. A checkpoint holding more entries than
// a resuming configuration's bound still decodes, into further chunks,
// and re-encodes byte-identically.
func TestArenaSizedFromRunBound(t *testing.T) {
	p := auxProblem{ckptProblem(16), 2, onesAux}
	const P, G = 12, 6
	cfg := Config{PopSize: P, Generations: G, Seed: 5, ArchiveAll: true}
	e, err := NewEngine(p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for e.Generation() < G {
		e.Step()
	}
	row := e.nObj + e.auxLen
	chunk := e.store.cur[:cap(e.store.cur)]
	if bound := P * (G + 1) * row; len(chunk) > bound {
		t.Fatalf("arena chunk holds %d floats, the run's bound is %d", len(chunk), bound)
	}
	entries := e.cache.entries
	if len(entries) < 2*P {
		t.Fatalf("only %d distinct genomes: too few to exercise the arena", len(entries))
	}
	keys := e.cache.keys.cur[:cap(e.cache.keys.cur)]
	if bound := P * (G + 1) * e.gl; len(keys) > bound {
		t.Fatalf("key chunk holds %d bytes, the run's bound is %d", len(keys), bound)
	}
	for i := range entries {
		if &entries[i].objs[0] != &chunk[i*row] || &entries[i].aux[0] != &chunk[i*row+e.nObj] {
			t.Fatalf("entry %d's row is not carved at row %d of the run's one chunk", i, i)
		}
		if &entries[i].key[0] != &keys[i*e.gl] {
			t.Fatalf("entry %d's key is not carved at key %d of the run's one key chunk", i, i)
		}
	}

	var buf bytes.Buffer
	if err := e.WriteCheckpoint(&buf); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	short := cfg
	short.Generations = 1
	resumed, err := ResumeEngine(p, short, bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	if n, bound := len(resumed.cache.entries), P*(short.Generations+1); n <= bound {
		t.Fatalf("checkpoint holds %d entries, not past the resuming bound %d", n, bound)
	}
	var buf2 bytes.Buffer
	if err := resumed.WriteCheckpoint(&buf2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(raw, buf2.Bytes()) {
		t.Fatal("checkpoint past the arena bound does not re-encode byte-identically")
	}
}
