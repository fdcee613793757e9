package alloc

import (
	"fmt"
	"hash/maphash"
	"math"
	"math/bits"

	"repro/internal/sched"
)

// This file implements the delta-aware evaluation path: an evaluator
// with EnableDeltaCache retains the decoded state and per-edge optics
// results of recently evaluated VALID genomes, and re-evaluates a
// genome that differs from a retained parent in a few edge rows by
//
//  1. editing the parent's mask rows instead of decoding the child
//     genome gene by gene,
//  2. recomputing the analytic schedule (cheap) and re-grading the
//     wavelength-conflict rule over only the mutated edges'
//     conflict-neighbor CSR rows when the activity windows did not
//     move (a valid parent has no conflicts anywhere, so new
//     conflicts can only involve a mutated row), falling back to the
//     full CSR scan when they did,
//  3. recomputing the optics walk for only the AFFECTED edges — the
//     mutated ones plus every edge whose receiver-bank view or
//     crosstalk-contributor set can see a mutated row or a moved
//     window — and replaying the parent's recorded per-channel BERs
//     and per-edge energies, in the full kernel's exact stream order,
//     for the rest.
//
// The replay keeps the result bit-identical to EvaluateInto: an
// unaffected edge's optics are a pure function of inputs that did not
// change, and the cross-edge aggregation (BER sum, worst BER, total
// energy) consumes the identical values in the identical order.
// The property tests and the fuzz target in delta_test.go pin
// the equivalence across comb sizes.
//
// The parent store copies state out of the evaluator scratch, it does
// not alias it, so a retained parent stays usable across any number
// of Evaluate*Into calls until the store's wholesale reset (when it
// reaches capacity) drops it. Like the rest of the evaluator, none of
// this is safe for concurrent use.

// deltaEntry is one retained valid evaluation: the decoded mask rows,
// per-edge wavelength counts, activity windows, and the optics
// results the replay path consumes.
type deltaEntry struct {
	hash    uint64
	key     []byte
	masks   []uint64
	counts  []int32
	windows []sched.Window
	setOff  []int32
	bers    []float64
	commBER []float64
	commFJ  []float64
}

// deltaState is the bounded parent store plus the delta-path scratch.
type deltaState struct {
	seed    maphash.Seed
	slots   int
	table   []int32 // 1-based indices into entries, 0 = empty
	mask    uint64
	entries []deltaEntry

	// Per-evaluation scratch of the delta path.
	changed     []int
	changedMark []bool
	wchanged    []bool
	wchangedLst []int
	affected    []bool
}

// DefaultDeltaCacheBudget is the approximate memory budget (in bytes)
// EnableDeltaCache(0) sizes the parent store for.
const DefaultDeltaCacheBudget = 32 << 20

// EnableDeltaCache switches the evaluator into delta-aware mode:
// every valid evaluation is registered in a bounded parent store, and
// EvaluateNearInto can re-evaluate nearby genomes incrementally. slots
// bounds the number of retained parents; slots <= 0 picks a default
// sized so the store stays within DefaultDeltaCacheBudget for this
// instance's geometry. The store grows as parents arrive; when it
// fills up it is reset wholesale (entry slices are recycled), so
// retention is approximately "the most recent slots distinct valid
// genomes". Results are bit-identical with the cache on or off; only
// the evaluation cost changes.
func (e *Evaluator) EnableDeltaCache(slots int) {
	if slots <= 0 {
		nl, nw := e.in.Edges(), e.in.Channels()
		// Rough per-entry footprint: interned key + mask rows + counts
		// + windows + offsets + optics vectors.
		approx := nl*nw + nl*e.in.maskWords*8 + nl*44 + nl*nw*8
		slots = DefaultDeltaCacheBudget / approx
		if slots > 4096 {
			slots = 4096
		}
		if slots < 64 {
			slots = 64
		}
	}
	tableLen := 1
	for tableLen < 2*slots {
		tableLen *= 2
	}
	nl := e.in.Edges()
	e.delta = &deltaState{
		seed:        maphash.MakeSeed(),
		slots:       slots,
		table:       make([]int32, tableLen),
		mask:        uint64(tableLen - 1),
		changed:     make([]int, 0, nl),
		changedMark: make([]bool, nl),
		wchanged:    make([]bool, nl),
		wchangedLst: make([]int, 0, nl),
		affected:    make([]bool, nl),
	}
}

// lookup returns the entry index of key, or false. Allocation-free.
func (d *deltaState) lookup(key []byte) (int, bool) {
	h := maphash.Bytes(d.seed, key)
	for slot := h & d.mask; ; slot = (slot + 1) & d.mask {
		t := d.table[slot]
		if t == 0 {
			return 0, false
		}
		ent := &d.entries[t-1]
		if ent.hash == h && string(ent.key) == string(key) {
			return int(t - 1), true
		}
	}
}

// entryFor returns the (new or refreshed) entry for key, resetting
// the store first when it is full. Refreshing an existing key and
// inserting into a warm slot are allocation-free.
func (d *deltaState) entryFor(key []byte) *deltaEntry {
	if idx, ok := d.lookup(key); ok {
		return &d.entries[idx]
	}
	if len(d.entries) >= d.slots {
		for i := range d.table {
			d.table[i] = 0
		}
		d.entries = d.entries[:0]
	}
	idx := len(d.entries)
	if idx < cap(d.entries) {
		d.entries = d.entries[:idx+1]
	} else {
		d.entries = append(d.entries, deltaEntry{})
	}
	ent := &d.entries[idx]
	ent.hash = maphash.Bytes(d.seed, key)
	ent.key = append(ent.key[:0], key...)
	for slot := ent.hash & d.mask; ; slot = (slot + 1) & d.mask {
		if d.table[slot] == 0 {
			d.table[slot] = int32(idx + 1)
			break
		}
	}
	return ent
}

// capture registers the evaluator's current (valid) evaluation state
// under key. No-op when the delta cache is disabled or key is nil.
func (e *Evaluator) capture(key []byte) {
	if e.delta == nil || key == nil {
		return
	}
	in := e.in
	nl, W := in.Edges(), in.maskWords
	ent := e.delta.entryFor(key)
	ent.masks = append(ent.masks[:0], e.masks[:nl*W]...)
	ent.counts = ent.counts[:0]
	for _, c := range e.counts {
		ent.counts = append(ent.counts, int32(c))
	}
	ent.windows = append(ent.windows[:0], e.sched.Comm...)
	ent.setOff = append(ent.setOff[:0], e.setOff...)
	ent.bers = append(ent.bers[:0], e.berBuf[:e.setOff[nl]]...)
	ent.commBER = append(ent.commBER[:0], e.commBER...)
	ent.commFJ = append(ent.commFJ[:0], e.commFJ...)
}

// EvaluateNearInto evaluates g like EvaluateInto, but first tries the
// delta path against the candidate parent genomes (typically the
// offspring's mating parents). The closest retained parent (the first
// on a tie) becomes the base: the schedule is recomputed and
// conflicts are re-graded over the rows differing from it. The delta
// path is taken when few enough rows differ; a child one row away
// from its base — every single-gene mutant of a retained parent, and
// every one-row channel swap — is served as EvalPathGeneDelta. The
// result is bit-identical either way; the return value reports
// whether the delta path was taken (for tests and benchmarks). nil or
// wrong-length parents are ignored.
func (e *Evaluator) EvaluateNearInto(out *Eval, g Genome, parents ...[]byte) bool {
	in := e.in
	if g.Edges() != in.Edges() || g.Channels() != in.Channels() {
		e.lastPath = EvalPathFull
		*out = invalid(fmt.Sprintf("genome shape %dx%d does not match instance %dx%d",
			g.Edges(), g.Channels(), in.Edges(), in.Channels()), 1)
		return false
	}
	nl, W := in.Edges(), in.maskWords
	g.MaskInto(e.masks, W)
	if e.delta != nil {
		var base *deltaEntry
		baseDiff := 0
		for _, p := range parents {
			if len(p) != nl*in.Channels() {
				continue
			}
			idx, ok := e.delta.lookup(p)
			if !ok {
				continue
			}
			ent := &e.delta.entries[idx]
			diff := 0
			for ei := 0; ei < nl; ei++ {
				if e.rowDiffers(ent, ei) {
					diff++
				}
			}
			if base == nil || diff < baseDiff {
				base, baseDiff = ent, diff
			}
		}
		maxRows := nl / 2
		if maxRows < 2 {
			maxRows = 2
		}
		if base != nil && baseDiff <= maxRows {
			d := e.delta
			d.changed = d.changed[:0]
			for ei := 0; ei < nl; ei++ {
				if e.rowDiffers(base, ei) {
					d.changed = append(d.changed, ei)
				}
			}
			e.lastPath = EvalPathNearDelta
			if len(d.changed) == 1 {
				e.lastPath = EvalPathGeneDelta
			}
			e.evaluateDelta(out, base, g.bits)
			return true
		}
	}
	e.evaluateDecoded(out, g.bits)
	return false
}

// rowDiffers reports whether the child's mask row ei (in e.masks)
// differs from the retained entry's.
func (e *Evaluator) rowDiffers(ent *deltaEntry, ei int) bool {
	W := e.in.maskWords
	for w := ei * W; w < (ei+1)*W; w++ {
		if e.masks[w] != ent.masks[w] {
			return true
		}
	}
	return false
}

// evaluateDelta runs the delta kernel: e.masks holds the child's mask
// rows, ent the retained (valid) base parent, e.delta.changed the
// edges whose rows differ from it. key is the child's gene slice for
// registration.
func (e *Evaluator) evaluateDelta(out *Eval, ent *deltaEntry, key []byte) {
	in := e.in
	nl := in.Edges()
	d := e.delta
	for i := range d.changedMark {
		d.changedMark[i] = false
	}
	for _, ei := range d.changed {
		d.changedMark[ei] = true
	}

	// Decode sets/counts/effective counts and grade missing
	// reservations from the mask rows — identical to the full kernel's
	// decode, minus the gene-by-gene genome scan.
	violation, reason := e.decodeMasks()
	if err := e.planner.ComputeInto(&e.sched, e.eff, in.BitsPerCycle); err != nil {
		*out = invalid(err.Error(), violation+1)
		return
	}
	s := &e.sched

	// Window movement: the schedule is a pure function of the
	// effective counts, so windows move iff a mutated edge's count
	// changed (0 <-> 1 transitions keep the clamped effective count
	// and the channel-swap case keeps the count entirely).
	d.wchangedLst = d.wchangedLst[:0]
	for o := 0; o < nl; o++ {
		w := s.Comm[o]
		pw := ent.windows[o]
		moved := w.Start != pw.Start || w.End != pw.End
		d.wchanged[o] = moved
		if moved && in.App.Edges[o].VolumeBits > 0 && !in.selfEdge[o] {
			d.wchangedLst = append(d.wchangedLst, o)
		}
	}

	if len(d.wchangedLst) == 0 {
		// Windows identical: the valid parent had no conflicts on any
		// pair, so conflicts can only involve a mutated row — re-grade
		// just those CSR rows, tracking the first conflict in the full
		// scan's (i, j, word) order for the failure reason.
		violation, reason = e.gradeConflictsChanged(s, violation, reason)
	} else {
		// Windows moved: any pair's overlap status may have flipped —
		// fall back to the full conflict scan.
		violation, reason = e.gradeConflicts(s, violation, reason)
	}
	if violation > 0 {
		*out = invalidEval(reason, violation)
		return
	}

	// Affected edges: a mutated row, a row that can see a mutated row
	// in its receiver bank or crosstalk-contributor set (same lane
	// and overlapping windows, before or after
	// the edit), or a row whose overlap relation with any loaded edge
	// flipped when windows moved. Everything else has bit-identical
	// optics inputs and replays the parent's recorded results.
	for o := 0; o < nl; o++ {
		aff := d.changedMark[o]
		laneO := in.paths[o].Lane
		if !aff && d.wchanged[o] {
			// A shifted window keeps its overlap relations more often
			// than not, but its Duration() — an input of the laser
			// energy — is a float subtraction whose result can change
			// in the last ulp even under a pure shift. Replay is only
			// sound when the duration bits are unchanged.
			w, pw := s.Comm[o], ent.windows[o]
			if math.Float64bits(w.End-w.Start) != math.Float64bits(pw.End-pw.Start) {
				aff = true
			}
		}
		if !aff {
			for _, E := range d.changed {
				if in.App.Edges[E].VolumeBits <= 0 || in.selfEdge[E] || in.paths[E].Lane != laneO {
					continue
				}
				if ent.windows[o].Overlaps(ent.windows[E]) || s.Comm[o].Overlaps(s.Comm[E]) {
					aff = true
					break
				}
			}
		}
		if !aff && d.wchanged[o] {
			for q := 0; q < nl; q++ {
				if q == o || in.App.Edges[q].VolumeBits <= 0 || in.selfEdge[q] || in.paths[q].Lane != laneO {
					continue
				}
				if ent.windows[o].Overlaps(ent.windows[q]) != s.Comm[o].Overlaps(s.Comm[q]) {
					aff = true
					break
				}
			}
		} else if !aff {
			for _, q := range d.wchangedLst {
				if q == o || in.paths[q].Lane != laneO {
					continue
				}
				if ent.windows[o].Overlaps(ent.windows[q]) != s.Comm[o].Overlaps(s.Comm[q]) {
					aff = true
					break
				}
			}
		}
		d.affected[o] = aff
	}

	*out = Eval{
		Valid:          true,
		Counts:         e.counts,
		CommBER:        e.commBER,
		CommEnergyFJ:   e.commFJ,
		Schedule:       s,
		MakespanCycles: s.MakespanCycles,
	}
	var acc opticsAccum
	for ei := 0; ei < nl; ei++ {
		if in.App.Edges[ei].VolumeBits <= 0 || e.counts[ei] == 0 || in.selfEdge[ei] {
			continue
		}
		if d.affected[ei] {
			e.opticsEdge(out, ei, s, &acc)
			continue
		}
		// Replay: identical inputs would produce identical per-channel
		// BERs and energies, so feed the parent's recorded values into
		// the same accumulation stream the full kernel runs.
		off := int(e.setOff[ei])
		poff := int(ent.setOff[ei])
		n := int(e.setOff[ei+1]) - off
		for k := 0; k < n; k++ {
			ber := ent.bers[poff+k]
			e.berBuf[off+k] = ber
			acc.berSum += ber
			acc.berN++
			if ber > out.WorstBER {
				out.WorstBER = ber
			}
		}
		e.commBER[ei] = ent.commBER[ei]
		e.commFJ[ei] = ent.commFJ[ei]
		acc.totalFJ += e.commFJ[ei]
		acc.totalBits += in.App.Edges[ei].VolumeBits
	}
	if acc.berN > 0 {
		out.MeanBER = acc.berSum / float64(acc.berN)
	}
	if acc.totalBits > 0 {
		out.BitEnergyFJ = acc.totalFJ / acc.totalBits
	}
	e.capture(key)
}

// gradeConflictsChanged re-grades the wavelength-disjointness rule
// over only the pairs that involve a mutated edge, assuming every
// other pair is conflict-free (true when the parent is valid and no
// window moved). The violation total and the first-failure reason are
// identical to the full scan's: integer conflict counts sum exactly
// in any order, and the first conflict of the full (i, j)-ascending
// scan is the lexicographically smallest conflicting pair.
func (e *Evaluator) gradeConflictsChanged(s *sched.Schedule, violation float64, reason failureReason) (float64, failureReason) {
	in := e.in
	W := in.maskWords
	d := e.delta
	bestI, bestJ := -1, -1
	for _, E := range d.changed {
		for _, jj := range in.AllConflictNeighbors(E) {
			o := int(jj)
			if d.changedMark[o] && o < E {
				continue // pair handled from o's side
			}
			i, j := E, o
			if o < E {
				i, j = o, E
			}
			if !s.Comm[i].Overlaps(s.Comm[j]) {
				continue
			}
			wi := e.masks[i*W : (i+1)*W]
			wj := e.masks[j*W : (j+1)*W]
			shared := 0
			for w := range wi {
				shared += bits.OnesCount64(wi[w] & wj[w])
			}
			if shared > 0 {
				violation += float64(shared)
				if bestI == -1 || i < bestI || (i == bestI && j < bestJ) {
					bestI, bestJ = i, j
				}
			}
		}
	}
	if bestI >= 0 && reason.kind == reasonNone {
		wi := e.masks[bestI*W : (bestI+1)*W]
		wj := e.masks[bestJ*W : (bestJ+1)*W]
		first := -1
		for w := range wi {
			if x := wi[w] & wj[w]; x != 0 {
				first = w*64 + bits.TrailingZeros64(x)
				break
			}
		}
		reason = failureReason{kind: reasonSharedWavelength, in: in, edge: bestI, other: bestJ, channel: first}
	}
	return violation, reason
}
