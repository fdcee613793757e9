package alloc

import (
	"fmt"
	"math"
	"math/bits"

	"repro/internal/energy"
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
// Each evaluator also keeps an exact memo of per-communication optics
// results (see edgeMemo): a communication whose optics inputs match
// one already walked replays the stored BERs and energy instead of
// walking again, bit for bit.
type Evaluator struct {
	in      *Instance
	planner *sched.Planner

	sched   sched.Schedule
	counts  []int
	eff     []int
	sets    [][]int
	setsBuf []int
	// masks holds the decoded per-edge wavelength bitmasks, one
	// in.MaskWords()-word row per edge: the native representation of
	// the conflict kernel (disjointness = word-wise AND) and of the
	// receiver-bank fill (Bank.OrRow).
	masks []uint64
	bank  *fabric.Bank
	// inter lists the current communication's inter-crosstalk
	// contributors in ascending order; key is its memo key and vals
	// its walked optics result (per-channel BERs, mean BER, energy).
	inter []int
	key   []uint64
	vals  []float64
	// liveRow[oni] reports whether some transmitting communication's
	// receiver sits at ONI oni. fillBank writes only those rows; every
	// other row is zero in every fill, so the memo key skips it.
	liveRow []bool
	powers  []phys.MilliWatt
	commBER []float64
	commFJ  []float64

	// mw memoizes the optics walk's dB -> linear conversions (see
	// mwMemo). p0 is the laser's 0-level power in mW, fixed by the
	// fabric.
	mw mwMemo
	p0 phys.MilliWatt

	// memo holds the per-communication optics results (edgememo.go),
	// valid for the crosstalk mode and energy model recorded here.
	memo       edgeMemo
	memoXtalk  CrosstalkMode
	memoEnergy energy.Model
}

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
	liveRow := make([]bool, in.fab.Size())
	for o := 0; o < nl; o++ {
		if in.App.Edges[o].VolumeBits > 0 && !in.selfEdge[o] {
			liveRow[in.dstCore[o]] = true
		}
	}
	return &Evaluator{
		in:      in,
		planner: planner,
		counts:  make([]int, nl),
		eff:     make([]int, nl),
		sets:    make([][]int, nl),
		setsBuf: make([]int, 0, nl*nw),
		masks:   make([]uint64, nl*in.maskWords),
		bank:    fabric.NewBank(in.fab.Size(), nw),
		inter:   make([]int, 0, nl),
		vals:    make([]float64, 0, nw+2),
		liveRow: liveRow,
		powers:  make([]phys.MilliWatt, 0, nw),
		commBER: make([]float64, nl),
		commFJ:  make([]float64, nl),
		mw:      newMWMemo(memoBits(nw)),
		p0:      in.fab.Params().LaserOffDBm.MilliWatt(),

		memoXtalk:  in.Xtalk,
		memoEnergy: in.Energy,
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
		*out = invalid(fmt.Sprintf("genome shape %dx%d does not match instance %dx%d",
			g.Edges(), g.Channels(), in.Edges(), in.Channels()), 1)
		return
	}
	// Decode the chromosome into per-edge wavelength bitmasks; the
	// rest of the kernel consumes the mask rows natively.
	g.MaskInto(e.masks, in.maskWords)
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
// walk. Walked and replayed communications feed it the same values in
// the same order.
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
	// Memo keys leave out the instance's crosstalk mode and energy
	// model; start over if a caller changed either.
	if in.Xtalk != e.memoXtalk || in.Energy != e.memoEnergy {
		e.memo.reset()
		e.memoXtalk, e.memoEnergy = in.Xtalk, in.Energy
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

// opticsEdge computes one transmitting edge's optics and feeds them
// to the accumulation: the receiver bank it sees, then either the
// memoized result for the same inputs or a fresh walk (stored for the
// next time).
func (e *Evaluator) opticsEdge(out *Eval, ei int, s *sched.Schedule, acc *opticsAccum) {
	e.fillBank(ei, s)
	e.gatherInter(ei, s)
	key := e.edgeKey(ei, s)
	vals, h, ok := e.memo.lookup(key)
	if !ok {
		vals = e.walkOptics(ei, s)
		e.memo.insert(h, key, vals)
	}
	n := len(vals) - 2
	for _, ber := range vals[:n] {
		acc.berSum += ber
		acc.berN++
		if ber > out.WorstBER {
			out.WorstBER = ber
		}
	}
	e.commBER[ei], e.commFJ[ei] = vals[n], vals[n+1]
	acc.totalFJ += e.commFJ[ei]
	acc.totalBits += e.in.App.Edges[ei].VolumeBits
}

// gatherInter lists, in ascending order, the communications whose
// light crosses edge ei's receiver while ei is active: the
// inter-communication crosstalk contributors. Transfers on another
// lane live on a physically separate medium and pass a different
// receiver bank, so they never couple.
func (e *Evaluator) gatherInter(ei int, s *sched.Schedule) {
	in := e.in
	e.inter = e.inter[:0]
	if !in.Xtalk.inter() {
		return
	}
	dst := in.dstCore[ei]
	for o := 0; o < in.Edges(); o++ {
		if o == ei || e.counts[o] == 0 || in.App.Edges[o].VolumeBits <= 0 || in.selfEdge[o] {
			continue
		}
		if in.paths[o].Lane != in.paths[ei].Lane {
			continue
		}
		if !s.Comm[ei].Overlaps(s.Comm[o]) || !in.paths[o].Through(dst) {
			continue
		}
		e.inter = append(e.inter, o)
	}
}

// interTag marks a contributor's index word in a memo key.
const interTag = 1 << 63

// edgeKey packs every input of edge ei's optics into the memo key
// (see edgeMemo). The bank rows are the ones the fabric's loss
// methods read (the fabric.Fabric read-set contract): a path's
// ONIs()[1:], and a contributor's only up to the victim's receiver,
// whose row the edge's own part already holds. Rows no fill ever
// writes are left out: they are zero whatever the genome.
func (e *Evaluator) edgeKey(ei int, s *sched.Schedule) []uint64 {
	in := e.in
	W := in.maskWords
	k := append(e.key[:0], uint64(ei), math.Float64bits(s.Comm[ei].Duration()))
	k = append(k, e.masks[ei*W:(ei+1)*W]...)
	for _, oni := range in.paths[ei].ONIs()[1:] {
		if e.liveRow[oni] {
			k = append(k, e.bank.Row(oni)...)
		}
	}
	dst := in.dstCore[ei]
	for _, o := range e.inter {
		k = append(k, interTag|uint64(o))
		k = append(k, e.masks[o*W:(o+1)*W]...)
		for _, oni := range in.paths[o].ONIs()[1:] {
			if oni == dst {
				break
			}
			if e.liveRow[oni] {
				k = append(k, e.bank.Row(oni)...)
			}
		}
	}
	e.key = k
	return k
}

// walkOptics walks the signal and crosstalk of every wavelength edge
// ei reserves against the filled bank, and returns the per-channel
// BERs followed by the edge's mean BER and laser energy.
func (e *Evaluator) walkOptics(ei int, s *sched.Schedule) []float64 {
	in := e.in
	pv := in.fab.Params().LaserOnDBm
	p0 := e.p0
	dst := in.dstCore[ei]
	powers := e.powers[:0]
	vals := e.vals[:0]
	var commBERSum float64
	for _, ch := range e.sets[ei] {
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
		for _, o := range e.inter {
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
		vals = append(vals, ber)
		commBERSum += ber
		// Laser sizing: fixed receive-power target by default,
		// or the BER-target mode where crosstalk directly drives
		// the emitted power (the paper's introduction).
		powers = append(powers, in.Energy.WavelengthLaserMWVia(sigLoss, noise, p0, e.mw.milliWatt))
	}
	return append(vals, commBERSum/float64(len(e.sets[ei])), in.Energy.EnergyFJ(powers, s.Comm[ei].Duration()))
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
