package alloc

import (
	"fmt"
	"math/bits"

	"repro/internal/fabric"
	"repro/internal/phys"
	"repro/internal/sched"
)

// Evaluator is the reusable, allocation-free form of the chromosome
// evaluation kernel. It owns every piece of scratch the evaluation
// needs — the decoded channel sets, the effective-count vector, the
// schedule windows, the receiver-bank state and the per-communication
// metric vectors — so a steady-state GA loop calling EvaluateInto
// performs no heap allocations for valid genomes.
//
// An Evaluator is NOT safe for concurrent use: give each worker
// goroutine its own (they are cheap — a few KiB of slices plus the
// optics conversion memo, 64 KiB at NW 8). The shared *Instance is
// read-only during evaluation, so any number of evaluators may wrap
// the same instance.
//
// With EnableDeltaCache, the evaluator additionally retains the
// decoded state and per-edge optics results of recently evaluated
// valid genomes, which the delta kernel (EvaluateNearInto — see
// delta.go) uses to re-evaluate single-gene and few-row mutants at a
// fraction of the full kernel's cost while staying bit-identical to
// it.
type Evaluator struct {
	in      *Instance
	planner *sched.Planner

	sched   sched.Schedule
	counts  []int
	eff     []int
	sets    [][]int
	setsBuf []int
	// setOff holds the per-edge CSR offsets of sets/berBuf: edge e's
	// channel set is setsBuf[setOff[e]:setOff[e+1]], and its
	// per-channel BERs land at the same offsets in berBuf.
	setOff []int32
	// masks holds the decoded per-edge wavelength bitmasks, one
	// in.MaskWords()-word row per edge: the native representation of
	// the conflict kernel (disjointness = word-wise AND) and of the
	// receiver-bank fill (Bank.OrRow).
	masks []uint64
	bank  *fabric.Bank
	// berBuf records the per-(edge, reserved channel) BER values of
	// the optics walk, parallel to setsBuf. The delta kernel replays
	// them in stream order for edges whose optics inputs did not
	// change, reproducing the full kernel's float accumulation
	// bit-for-bit.
	berBuf  []float64
	powers  []phys.MilliWatt
	commBER []float64
	commFJ  []float64

	// mw memoizes the optics walk's dB -> linear conversions (see
	// mwMemo). p0 is the laser's 0-level power in mW, fixed by the
	// fabric.
	mw mwMemo
	p0 phys.MilliWatt

	// delta is the opt-in retained-parent store plus the delta-path
	// scratch (see delta.go); nil until EnableDeltaCache.
	delta *deltaState

	// lastPath records which kernel served the most recent
	// Evaluate*Into call (see LastEvalPath).
	lastPath EvalPath
}

// EvalPath identifies which kernel served an evaluation.
type EvalPath uint8

const (
	// EvalPathFull is the full evaluation kernel.
	EvalPathFull EvalPath = iota
	// EvalPathGeneDelta is the delta replay of a child one edge row
	// away from its base parent (every single-gene mutant).
	EvalPathGeneDelta
	// EvalPathNearDelta is the few-row delta replay off a single
	// retained parent (EvaluateNearInto with one usable parent).
	EvalPathNearDelta
	// EvalPathCrossDelta is the two-parent crossover delta replay
	// (EvaluateNearInto with both mating parents retained).
	EvalPathCrossDelta
)

// LastEvalPath reports which kernel served the most recent
// Evaluate*Into call on this evaluator — observability for the
// engine-level instrumentation counters, not part of any result.
func (e *Evaluator) LastEvalPath() EvalPath { return e.lastPath }

// NewEvaluator builds an evaluator with scratch sized for the
// instance. The only possible error is a task graph that lost its
// acyclicity since NewInstance validated it.
func NewEvaluator(in *Instance) (*Evaluator, error) {
	if in == nil {
		return nil, fmt.Errorf("alloc: nil instance")
	}
	planner, err := sched.NewPlannerMapped(in.App, in.Map, in.fab.Size())
	if err != nil {
		return nil, err
	}
	nl, nw := in.Edges(), in.Channels()
	return &Evaluator{
		in:      in,
		planner: planner,
		counts:  make([]int, nl),
		eff:     make([]int, nl),
		sets:    make([][]int, nl),
		setsBuf: make([]int, 0, nl*nw),
		setOff:  make([]int32, nl+1),
		masks:   make([]uint64, nl*in.maskWords),
		bank:    fabric.NewBank(in.fab.Size(), nw),
		berBuf:  make([]float64, nl*nw),
		powers:  make([]phys.MilliWatt, 0, nw),
		commBER: make([]float64, nl),
		commFJ:  make([]float64, nl),
		mw:      newMWMemo(memoBits(nw)),
		p0:      in.fab.Params().LaserOffDBm.MilliWatt(),
	}, nil
}

// Instance returns the bound problem instance.
func (e *Evaluator) Instance() *Instance { return e.in }

// Evaluate is the convenience form of EvaluateInto: the returned
// Eval is detached, so it owns its slices and survives later calls
// on this evaluator. Hot loops should use EvaluateInto and accept
// the scratch-aliasing contract instead.
func (e *Evaluator) Evaluate(g Genome) Eval {
	var out Eval
	e.EvaluateInto(&out, g)
	out.Detach()
	return out
}

// EvaluateInto computes the objective vector of one chromosome into
// out, reusing the evaluator's scratch. The slices and the Schedule
// reachable from out (Counts, CommBER, CommEnergyFJ, Schedule) alias
// that scratch: they are valid only until the next Evaluate*Into call
// on this evaluator. Callers that retain them must copy (see
// Instance.Evaluate and Eval.Detach).
//
// The model is identical to Instance.Evaluate:
//
//  1. decode and check the validity rules (every loaded communication
//     needs at least one wavelength; communications whose fabric paths
//     share a resource and whose activity windows overlap must use
//     disjoint wavelength sets),
//  2. run the analytic time model,
//  3. assemble the per-window receiver-bank states and walk the
//     optics for the signal and every first-order crosstalk
//     contributor (Eqs. 2-7),
//  4. aggregate SNR -> BER (Eqs. 8-9) and the loss-compensating laser
//     energy.
func (e *Evaluator) EvaluateInto(out *Eval, g Genome) {
	in := e.in
	if g.Edges() != in.Edges() || g.Channels() != in.Channels() {
		e.lastPath = EvalPathFull
		*out = invalid(fmt.Sprintf("genome shape %dx%d does not match instance %dx%d",
			g.Edges(), g.Channels(), in.Edges(), in.Channels()), 1)
		return
	}
	// Decode the chromosome into per-edge wavelength bitmasks; the
	// rest of the kernel consumes the mask rows natively.
	g.MaskInto(e.masks, in.maskWords)
	e.evaluateDecoded(out, g.bits)
}

// evaluateDecoded runs the kernel on the already decoded mask rows in
// e.masks. key is the genome's gene slice, used only to register the
// evaluation with the delta cache (nil skips registration).
func (e *Evaluator) evaluateDecoded(out *Eval, key []byte) {
	e.lastPath = EvalPathFull
	violation, reason := e.decodeMasks()
	if err := e.planner.ComputeInto(&e.sched, e.eff, e.in.BitsPerCycle); err != nil {
		*out = invalid(err.Error(), violation+1)
		return
	}
	s := &e.sched
	violation, reason = e.gradeConflicts(s, violation, reason)
	if violation > 0 {
		*out = invalidEval(reason, violation)
		return
	}
	e.opticsInto(out, s)
	e.capture(key)
}

// decodeMasks derives the channel index sets (the optics walk
// iterates those) and the effective counts from the mask rows in
// e.masks: counts are popcounts, set members come off TrailingZeros.
// Missing reservations are graded as we go; effective counts let the
// scheduler produce windows even for a broken chromosome, so the
// conflict grading stays meaningful while the genome is repaired by
// evolution.
func (e *Evaluator) decodeMasks() (violation float64, reason failureReason) {
	in := e.in
	nl, W := in.Edges(), in.maskWords
	e.setsBuf = e.setsBuf[:0]
	off := 0
	for ei := 0; ei < nl; ei++ {
		row := e.masks[ei*W : (ei+1)*W]
		n := 0
		for w, word := range row {
			n += bits.OnesCount64(word)
			base := w * 64
			for word != 0 {
				e.setsBuf = append(e.setsBuf, base+bits.TrailingZeros64(word))
				word &= word - 1
			}
		}
		e.setOff[ei] = int32(off)
		e.sets[ei] = e.setsBuf[off : off+n : off+n]
		off += n
		e.counts[ei] = n
		e.eff[ei] = n
		e.commBER[ei] = 0
		e.commFJ[ei] = 0
		// Self edges (same-core endpoints under a shared mapping) are
		// served by the core's memory: they need no wavelengths and any
		// reserved ones are inert.
		if n == 0 && in.App.Edges[ei].VolumeBits > 0 && !in.selfEdge[ei] {
			violation++
			if reason.kind == reasonNone {
				reason = failureReason{kind: reasonNoWavelength, in: in, edge: ei}
			}
			e.eff[ei] = 1
		}
	}
	e.setOff[nl] = int32(off)
	return violation, reason
}

// gradeConflicts applies the wavelength-disjointness rule over every
// conflict-neighbor pair: time-overlapping communications sharing
// waveguide segments must not share wavelengths (the paper's "same
// wavelength assigned to the same link"). Every shared channel adds
// to the violation grade. Only the precomputed conflict-neighbor
// pairs (paths sharing a resource, ascending i < j exactly like the
// full matrix scan) can trip the rule, and set intersection is a
// word-wise AND over the mask rows.
func (e *Evaluator) gradeConflicts(s *sched.Schedule, violation float64, reason failureReason) (float64, failureReason) {
	in := e.in
	nl, W := in.Edges(), in.maskWords
	for i := 0; i < nl; i++ {
		wi := e.masks[i*W : (i+1)*W]
		for k := in.confStart[i]; k < in.confStart[i+1]; k++ {
			j := int(in.confAdj[k])
			if !s.Comm[i].Overlaps(s.Comm[j]) {
				continue
			}
			wj := e.masks[j*W : (j+1)*W]
			shared := 0
			for w := range wi {
				shared += bits.OnesCount64(wi[w] & wj[w])
			}
			if shared > 0 {
				violation += float64(shared)
				if reason.kind == reasonNone {
					first := -1
					for w := range wi {
						if x := wi[w] & wj[w]; x != 0 {
							first = w*64 + bits.TrailingZeros64(x)
							break
						}
					}
					reason = failureReason{kind: reasonSharedWavelength, in: in, edge: i, other: j, channel: first}
				}
			}
		}
	}
	return violation, reason
}

// opticsAccum carries the cross-edge aggregation state of the optics
// walk. The delta path shares it with the full kernel so replayed and
// recomputed edges contribute to the same float accumulation sequence.
type opticsAccum struct {
	berSum             float64
	berN               int
	totalFJ, totalBits float64
}

// opticsInto walks the optics of every transmitting edge and
// assembles the valid evaluation.
func (e *Evaluator) opticsInto(out *Eval, s *sched.Schedule) {
	in := e.in
	nl := in.Edges()
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
		// Self edges never reach the optics: no BER, no laser energy,
		// and their bits do not count as optically transmitted.
		if in.App.Edges[ei].VolumeBits <= 0 || e.counts[ei] == 0 || in.selfEdge[ei] {
			continue
		}
		e.opticsEdge(out, ei, s, &acc)
	}
	if acc.berN > 0 {
		out.MeanBER = acc.berSum / float64(acc.berN)
	}
	if acc.totalBits > 0 {
		out.BitEnergyFJ = acc.totalFJ / acc.totalBits
	}
}

// opticsEdge computes one transmitting edge's optics: the receiver
// bank it sees, the signal and crosstalk walks of every reserved
// wavelength, the per-channel BERs (recorded in berBuf for the delta
// kernel's replay) and the edge's laser energy.
func (e *Evaluator) opticsEdge(out *Eval, ei int, s *sched.Schedule, acc *opticsAccum) {
	in := e.in
	nl := in.Edges()
	pv := in.fab.Params().LaserOnDBm
	p0 := e.p0

	e.fillBank(ei, s)
	dst := in.dstCore[ei]
	powers := e.powers[:0]
	bers := e.berBuf[e.setOff[ei]:e.setOff[ei+1]]
	var commBERSum float64
	for si, ch := range e.sets[ei] {
		sigLoss := in.fab.SignalArrivalDB(in.paths[ei], ch, e.bank)
		psig := e.mw.milliWatt(pv.Add(sigLoss))

		var noise phys.MilliWatt
		// Intra-communication crosstalk: the same transfer's
		// other wavelengths leak into this detector.
		for _, other := range e.sets[ei] {
			if other == ch || !in.Xtalk.intra() {
				continue
			}
			arr, err := in.fab.ArrivalAlongDB(in.paths[ei], dst, other, ch, e.bank)
			if err == nil {
				noise += e.mw.milliWatt(pv.Add(arr))
			}
		}
		// Inter-communication crosstalk: wavelengths of other
		// transfers whose light crosses this receiver while this
		// transfer is active, walked along the interferer's own
		// route.
		for o := 0; in.Xtalk.inter() && o < nl; o++ {
			if o == ei || e.counts[o] == 0 || in.App.Edges[o].VolumeBits <= 0 || in.selfEdge[o] {
				continue
			}
			// Transfers on another lane live on a physically
			// separate medium and pass a different receiver bank:
			// no coupling.
			if in.paths[o].Lane != in.paths[ei].Lane {
				continue
			}
			if !s.Comm[ei].Overlaps(s.Comm[o]) || !in.paths[o].Through(dst) {
				continue
			}
			for _, other := range e.sets[o] {
				if other == ch {
					// Impossible in valid genomes (the shared
					// incoming segment would have tripped the
					// validity rule); skip defensively.
					continue
				}
				arr, err := in.fab.ArrivalAlongDB(in.paths[o], dst, other, ch, e.bank)
				if err == nil {
					noise += e.mw.milliWatt(pv.Add(arr))
				}
			}
		}
		ber := phys.BEROOK(phys.SNR(psig, noise, p0))
		bers[si] = ber
		commBERSum += ber
		acc.berSum += ber
		acc.berN++
		if ber > out.WorstBER {
			out.WorstBER = ber
		}
		// Laser sizing: fixed receive-power target by default,
		// or the BER-target mode where crosstalk directly drives
		// the emitted power (the paper's introduction).
		powers = append(powers, in.Energy.WavelengthLaserMWVia(sigLoss, noise, p0, e.mw.milliWatt))
	}
	e.commBER[ei] = commBERSum / float64(len(e.sets[ei]))
	e.commFJ[ei] = in.Energy.EnergyFJ(powers, s.Comm[ei].Duration())
	acc.totalFJ += e.commFJ[ei]
	acc.totalBits += in.App.Edges[ei].VolumeBits
}

// fillBank rebuilds the evaluator's receiver-bank scratch with the
// state seen by communication ei's light (the zero-allocation form of
// Instance.bankFor). Each contributing communication installs its
// whole wavelength set with one word-wise OR of its mask row.
func (e *Evaluator) fillBank(ei int, s *sched.Schedule) {
	in := e.in
	W := in.maskWords
	e.bank.Reset()
	for o := 0; o < in.Edges(); o++ {
		if in.App.Edges[o].VolumeBits <= 0 || in.selfEdge[o] {
			continue
		}
		if in.paths[o].Lane != in.paths[ei].Lane {
			continue
		}
		if o != ei && !s.Comm[ei].Overlaps(s.Comm[o]) {
			continue
		}
		e.bank.OrRow(in.dstCore[o], e.masks[o*W:(o+1)*W])
	}
}

// Detach deep-copies every slice and the schedule reachable from the
// evaluation, so it survives the next EvaluateInto call on the
// evaluator that produced it.
func (e *Eval) Detach() {
	e.Counts = append([]int(nil), e.Counts...)
	e.CommBER = append([]float64(nil), e.CommBER...)
	e.CommEnergyFJ = append([]float64(nil), e.CommEnergyFJ...)
	if e.Schedule != nil {
		e.Schedule = e.Schedule.Clone()
	}
}
