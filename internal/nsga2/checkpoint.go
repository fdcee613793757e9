package nsga2

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
)

// Checkpoint format — the durable, byte-stable serialization of an
// engine's full evolutionary state: the Snapshot (ranked population,
// PRNG draw position, evaluation counters) plus the interned-key
// genome cache, whose entries slice doubles as the insertion-order
// archive. Everything is fixed-width little-endian, so the same state
// always encodes to the same bytes:
//
//	magic      [6]byte  "WACKPT"
//	version    uint16   (checkpointVersion)
//	genomeLen  uint32   genes per chromosome (edges x channels)
//	numObjs    uint32   objective vector dimension
//	auxDim     uint32   auxiliary payload dimension (Problem.AuxLen)
//	popSize    uint32   configured population size
//	seed       int64    engine PRNG seed
//	gen        uint64   completed generations
//	draws      uint64   PRNG state advances (replay position)
//	evals      uint64   evaluation requests
//	validEvals uint64   feasible evaluation requests
//	popLen     uint32   individuals that follow
//	popLen x { genome [genomeLen]byte, rank uint32, crowding f64 }
//	cacheLen   uint64   distinct evaluated genotypes that follow
//	cacheLen x { key [genomeLen]byte, objs [numObjs]f64, violation f64, aux [auxDim]f64 }
//	crc        uint32   IEEE CRC-32 of every preceding byte
//
// Version history: v1 (through PR 5) had no auxDim field and no
// per-entry aux payload; v2 added both so problems can persist
// evaluation-derived side state (core's metric triple) next to each
// genotype, so a resumed engine carries it without re-evaluating. The
// decoder rejects any version it does not read — there is no silent
// cross-version parse.
//
// Individuals carry no objective vectors of their own: every
// population genome is by construction present in the cache, so the
// decoder rehydrates Objs and Violation from the restored entries,
// exactly as the live engine aliases them. Floats travel as their
// IEEE-754 bit patterns (math.Float64bits), so +Inf objectives of
// infeasible genotypes and crowding boundary values round-trip
// bit-exactly. The decoder fails loudly — wrong magic, unsupported
// version, geometry, aux-dimension or seed mismatch, truncation,
// duplicate or unknown genomes, a NaN objective or violation, CRC
// damage — and never panics on corrupt input (fuzzed by
// FuzzSnapshotDecode).
const checkpointVersion = 2

var checkpointMagic = [6]byte{'W', 'A', 'C', 'K', 'P', 'T'}

// WriteCheckpoint serializes the engine's state in the checkpoint
// format. Call it between Steps (never concurrently with one); the
// engine is not modified. A later ResumeEngine on the written bytes
// — in this process or a fresh one — continues the run bit-for-bit:
// populations, PRNG draws, counters, archive order and Result are
// identical to the uninterrupted run's.
func (e *Engine) WriteCheckpoint(w io.Writer) error {
	bw := bufio.NewWriter(w)
	cw := &crcWriter{w: bw}
	cw.bytes(checkpointMagic[:])
	cw.u16(checkpointVersion)
	cw.u32(uint32(e.gl))
	cw.u32(uint32(e.nObj))
	cw.u32(uint32(e.auxLen))
	cw.u32(uint32(e.size))
	cw.u64(uint64(e.cfg.Seed))
	cw.u64(uint64(e.gen))
	cw.u64(e.src.n)
	cw.u64(uint64(e.evals))
	cw.u64(uint64(e.validEvals))
	cw.u32(uint32(len(e.pop)))
	for i := range e.pop {
		ind := &e.pop[i]
		cw.bytes(ind.Genome)
		cw.u32(uint32(ind.Rank))
		cw.f64(ind.Crowding)
	}
	cw.u64(uint64(len(e.cache.entries)))
	for i := range e.cache.entries {
		ent := &e.cache.entries[i]
		if len(ent.objs) != e.nObj {
			return fmt.Errorf("nsga2: checkpoint: cache entry %d has %d objectives, want %d (pending evaluation?)",
				i, len(ent.objs), e.nObj)
		}
		cw.bytes(ent.key)
		for _, o := range ent.objs {
			cw.f64(o)
		}
		cw.f64(ent.violation)
		for _, v := range ent.aux {
			cw.f64(v)
		}
	}
	// The CRC itself is written outside the checksummed stream.
	sum := cw.crc
	cw.u32(sum)
	if cw.err != nil {
		return fmt.Errorf("nsga2: write checkpoint: %w", cw.err)
	}
	return bw.Flush()
}

// ResumeEngine rebuilds an engine from a checkpoint written by
// WriteCheckpoint: it sizes a fresh arena for (p, cfg) — without
// evaluating an initial population — and loads the population, the
// PRNG position, the counters and the evaluation cache from r. The
// problem and configuration must match the checkpointed run (the
// header pins genome length, objective count, population size and
// seed; a mismatch is an error, not a silent divergence). Subsequent
// Steps replay the interrupted run exactly.
func ResumeEngine(p Problem, cfg Config, r io.Reader) (*Engine, error) {
	e, err := newEngineArena(p, cfg)
	if err != nil {
		return nil, err
	}
	if err := e.readCheckpoint(r); err != nil {
		return nil, err
	}
	return e, nil
}

// readCheckpoint parses and validates a checkpoint stream into the
// (freshly built) engine. Any error leaves the engine unusable.
func (e *Engine) readCheckpoint(r io.Reader) error {
	cr := &crcReader{r: bufio.NewReader(r)}
	var magic [6]byte
	cr.bytes(magic[:])
	if cr.err == nil && magic != checkpointMagic {
		return fmt.Errorf("nsga2: checkpoint: bad magic %q (not a checkpoint file?)", magic[:])
	}
	if v := cr.u16(); cr.err == nil && v != checkpointVersion {
		return fmt.Errorf("nsga2: checkpoint: format version %d, this build reads %d", v, checkpointVersion)
	}
	gl, nObj, auxDim, popSize := cr.u32(), cr.u32(), cr.u32(), cr.u32()
	seed := int64(cr.u64())
	gen, draws := cr.u64(), cr.u64()
	evals, validEvals := cr.u64(), cr.u64()
	popLen := cr.u32()
	if cr.err != nil {
		return fmt.Errorf("nsga2: checkpoint: truncated header: %w", cr.err)
	}
	switch {
	case int(gl) != e.gl:
		return fmt.Errorf("nsga2: checkpoint: genome length %d, problem wants %d", gl, e.gl)
	case int(nObj) != e.nObj:
		return fmt.Errorf("nsga2: checkpoint: %d objectives, problem wants %d", nObj, e.nObj)
	case int(auxDim) != e.auxLen:
		return fmt.Errorf("nsga2: checkpoint: aux dimension %d, problem wants %d", auxDim, e.auxLen)
	case int(popSize) != e.size:
		return fmt.Errorf("nsga2: checkpoint: population size %d, config wants %d", popSize, e.size)
	case seed != e.cfg.Seed:
		return fmt.Errorf("nsga2: checkpoint: seed %d, config wants %d", seed, e.cfg.Seed)
	case popLen == 0 || int(popLen) > e.size:
		return fmt.Errorf("nsga2: checkpoint: population of %d individuals, want 1..%d", popLen, e.size)
	case gen > math.MaxInt32 || evals > math.MaxInt32 || validEvals > math.MaxInt32:
		return fmt.Errorf("nsga2: checkpoint: implausible counters (gen=%d evals=%d valid=%d)", gen, evals, validEvals)
	case draws > math.MaxInt32:
		// The decoder replays the PRNG draw by draw; an unbounded
		// count would turn a forged-but-CRC-consistent file into a
		// hang instead of an error. Real runs draw a few thousand
		// times per generation — MaxInt32 is orders of magnitude of
		// headroom and replays in seconds at worst.
		return fmt.Errorf("nsga2: checkpoint: implausible PRNG draw count %d", draws)
	}
	for i := 0; i < int(popLen); i++ {
		row := e.curRow(i)
		cr.bytes(row)
		rank := cr.u32()
		crowding := cr.f64()
		if cr.err != nil {
			return fmt.Errorf("nsga2: checkpoint: truncated population at individual %d: %w", i, cr.err)
		}
		e.popBuf[i] = Individual{Genome: row, Rank: int(rank), Crowding: crowding}
	}
	cacheLen := cr.u64()
	if cr.err != nil {
		return fmt.Errorf("nsga2: checkpoint: truncated cache header: %w", cr.err)
	}
	key := make([]byte, e.gl)
	for i := uint64(0); i < cacheLen; i++ {
		// Each entry's objectives and aux values are one row carved
		// from the engine's chunked arena instead of boxed per entry:
		// rehydration costs one allocation per arena chunk, not per
		// genotype.
		row := e.store.alloc(e.nObj + e.auxLen)
		violation, err := cr.cacheEntry(key, row, e.nObj)
		if err != nil {
			return fmt.Errorf("nsga2: checkpoint: cache entry %d of %d: %w", i, cacheLen, err)
		}
		if _, dup := e.cache.lookup(key); dup {
			return fmt.Errorf("nsga2: checkpoint: corrupt cache: duplicate genotype at entry %d", i)
		}
		ent := &e.cache.entries[e.cache.insert(key)]
		ent.setRow(row, e.nObj)
		ent.violation = violation
	}
	want := cr.crc
	stored := cr.u32()
	if cr.err != nil {
		return fmt.Errorf("nsga2: checkpoint: truncated checksum: %w", cr.err)
	}
	if stored != want {
		return fmt.Errorf("nsga2: checkpoint: CRC mismatch (stored %08x, computed %08x): file damaged", stored, want)
	}
	// Rehydrate the population's objective views from the cache, like
	// the live engine aliases them. Every population genome was
	// evaluated, so a miss means the file lies about its own history.
	for i := 0; i < int(popLen); i++ {
		idx, ok := e.cache.lookup(e.popBuf[i].Genome)
		if !ok {
			return fmt.Errorf("nsga2: checkpoint: corrupt: population individual %d missing from evaluation cache", i)
		}
		e.popBuf[i].Objs = e.cache.entries[idx].objs
		e.popBuf[i].Violation = e.cache.entries[idx].violation
	}
	e.pop = e.popBuf[:popLen]
	e.gen, e.evals, e.validEvals = int(gen), int(evals), int(validEvals)
	e.rng, e.src = newCountedRNG(e.cfg.Seed)
	for i := uint64(0); i < draws; i++ {
		e.src.src.Int63()
	}
	e.src.n = draws
	return nil
}

// cacheEntry decodes one evaluation-cache entry: the genotype into
// key, its objectives into row[:nObj], and its aux values into the
// rest of row; it returns the violation. It is the checkpoint side of
// the engine's NaN boundary: a NaN objective or violation is an
// error, because the ranking cannot order it. NaN aux values stay
// legal — they mean "unknown".
func (c *crcReader) cacheEntry(key []byte, row []float64, nObj int) (violation float64, err error) {
	c.bytes(key)
	for k := range row[:nObj] {
		row[k] = c.f64()
	}
	violation = c.f64()
	for k := nObj; k < len(row); k++ {
		row[k] = c.f64()
	}
	if c.err != nil {
		return 0, fmt.Errorf("truncated: %w", c.err)
	}
	if hasNaN(row[:nObj], violation) {
		return 0, fmt.Errorf("NaN objective or violation (objectives %v, violation %v)", row[:nObj], violation)
	}
	return violation, nil
}

// crcWriter accumulates an IEEE CRC-32 over everything written
// through it, encoding fixed-width little-endian. Errors stick.
type crcWriter struct {
	w   io.Writer
	crc uint32
	err error
	buf [8]byte
}

func (c *crcWriter) bytes(p []byte) {
	if c.err != nil {
		return
	}
	c.crc = crc32.Update(c.crc, crc32.IEEETable, p)
	_, c.err = c.w.Write(p)
}

func (c *crcWriter) u16(v uint16) {
	binary.LittleEndian.PutUint16(c.buf[:2], v)
	c.bytes(c.buf[:2])
}

func (c *crcWriter) u32(v uint32) {
	binary.LittleEndian.PutUint32(c.buf[:4], v)
	c.bytes(c.buf[:4])
}

func (c *crcWriter) u64(v uint64) {
	binary.LittleEndian.PutUint64(c.buf[:8], v)
	c.bytes(c.buf[:8])
}

func (c *crcWriter) f64(v float64) { c.u64(math.Float64bits(v)) }

// crcReader mirrors crcWriter for decoding: it checks every read for
// truncation and accumulates the CRC of consumed bytes, so the
// decoder can compare against the stored checksum. Errors stick.
type crcReader struct {
	r   io.Reader
	crc uint32
	err error
	buf [8]byte
}

func (c *crcReader) bytes(p []byte) {
	if c.err != nil {
		return
	}
	if _, err := io.ReadFull(c.r, p); err != nil {
		c.err = err
		return
	}
	c.crc = crc32.Update(c.crc, crc32.IEEETable, p)
}

func (c *crcReader) u16() uint16 {
	c.bytes(c.buf[:2])
	return binary.LittleEndian.Uint16(c.buf[:2])
}

func (c *crcReader) u32() uint32 {
	c.bytes(c.buf[:4])
	return binary.LittleEndian.Uint32(c.buf[:4])
}

func (c *crcReader) u64() uint64 {
	c.bytes(c.buf[:8])
	return binary.LittleEndian.Uint64(c.buf[:8])
}

func (c *crcReader) f64() float64 { return math.Float64frombits(c.u64()) }
