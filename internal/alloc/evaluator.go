package alloc

import (
	"fmt"
	"math"
	"math/bits"

	"repro/internal/fabric"
	"repro/internal/phys"
	"repro/internal/sched"
)

// Evaluator is the reusable, allocation-free form of the chromosome
// evaluation kernel. It owns every piece of scratch the evaluation
// needs — the wavelength masks and counts, the schedule windows, the
// time-overlap rows, the receiver-bank state, the arrival matrices and
// the per-communication metric vectors — so a steady-state GA loop
// calling EvaluateInto performs no heap allocations for valid genomes.
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
// walking again, bit for bit. A walk is linear in the channels that
// reach the receiver: fabric.Budget.ArrivalsDB gives each one transit
// and one walk of the detector's bank, and each (victim, interferer)
// channel pair only its coupling.
type Evaluator struct {
	in      *Instance
	planner *sched.Planner

	sched  sched.Schedule
	counts []int
	eff    []int
	// masks holds the decoded per-edge wavelength bitmasks, one
	// in.MaskWords()-word row per edge: the native representation of
	// the conflict kernel (disjointness = word-wise AND), of the
	// receiver-bank fill (Bank.OrRow) and of the channel lists a walk
	// reads off.
	masks []uint64
	bank  *fabric.Bank
	// Edge sets are bit rows of ow = ceil(nl/64) words. live holds the
	// edges that can transmit (some volume, distinct endpoint cores);
	// through, one row per edge e, the other edges whose path crosses
	// e's receiver; overlap, one row per edge e, the live edges other
	// than e whose windows overlap e's — the time-overlap relation,
	// rebuilt once per valid evaluation.
	ow      int
	live    []uint64
	through []uint64
	overlap []uint64
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
	// A walk's scratch: the victim's and one contributor's channel
	// lists, the arrival matrix of a channel set at the victim's
	// detectors, and the victim's per-channel signal arrivals and
	// crosstalk powers.
	chans, ochans []int
	arr           []phys.DB
	sig           []phys.DB
	noise         []phys.MilliWatt
	powers        []phys.MilliWatt
	commBER       []float64
	commFJ        []float64

	// mw memoizes the optics walk's dB -> linear conversions (see
	// mwMemo). p0 is the laser's 0-level power in mW, fixed by the
	// fabric.
	mw mwMemo
	p0 phys.MilliWatt

	// memo holds the per-communication optics results (edgememo.go).
	memo edgeMemo
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
	ow := (nl + 63) / 64
	live := make([]uint64, ow)
	through := make([]uint64, nl*ow)
	liveRow := make([]bool, in.fab.Size())
	for o := 0; o < nl; o++ {
		if in.App.Edges[o].VolumeBits > 0 && !in.selfEdge[o] {
			setBit(live, o)
			liveRow[in.dstCore[o]] = true
		}
		for ei := 0; ei < nl; ei++ {
			if o != ei && in.paths[o].Through(in.dstCore[ei]) {
				setBit(through[ei*ow:(ei+1)*ow], o)
			}
		}
	}
	return &Evaluator{
		in:      in,
		planner: planner,
		counts:  make([]int, nl),
		eff:     make([]int, nl),
		masks:   make([]uint64, nl*in.maskWords),
		bank:    fabric.NewBank(in.fab.Size(), nw),
		ow:      ow,
		live:    live,
		through: through,
		overlap: make([]uint64, nl*ow),
		inter:   make([]int, 0, nl),
		vals:    make([]float64, 0, nw+2),
		liveRow: liveRow,
		chans:   make([]int, 0, nw),
		ochans:  make([]int, 0, nw),
		arr:     make([]phys.DB, nw*nw),
		sig:     make([]phys.DB, nw),
		noise:   make([]phys.MilliWatt, nw),
		powers:  make([]phys.MilliWatt, 0, nw),
		commBER: make([]float64, nl),
		commFJ:  make([]float64, nl),
		mw:      newMWMemo(memoBits(nw)),
		p0:      in.fab.Params().LaserOffDBm.MilliWatt(),
	}, nil
}

// setBit sets bit i of a bit row.
func setBit(row []uint64, i int) { row[i>>6] |= 1 << (uint(i) & 63) }

// appendBits appends the indices of the bits set in row, ascending.
func appendBits(dst []int, row []uint64) []int {
	for w, word := range row {
		for word != 0 {
			dst = append(dst, w*64+bits.TrailingZeros64(word))
			word &= word - 1
		}
	}
	return dst
}

// Instance returns the instance the evaluator was built over.
func (e *Evaluator) Instance() *Instance { return e.in }

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

// decodeMasks derives the wavelength counts (popcounts of the mask
// rows in e.masks) and the effective counts. Missing reservations are
// graded as we go; effective counts let the scheduler produce windows
// even for a broken chromosome, so the conflict grading stays
// meaningful while the genome is repaired by evolution.
func (e *Evaluator) decodeMasks() (violation float64, reason failureReason) {
	in := e.in
	nl, W := in.Edges(), in.maskWords
	for ei := 0; ei < nl; ei++ {
		n := 0
		for _, word := range e.masks[ei*W : (ei+1)*W] {
			n += bits.OnesCount64(word)
		}
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
// assembles the valid evaluation. In a valid genome every live edge
// reserves a wavelength, so the live edges are the transmitting ones.
func (e *Evaluator) opticsInto(out *Eval, s *sched.Schedule) {
	*out = Eval{
		Valid:          true,
		Counts:         e.counts,
		CommBER:        e.commBER,
		CommEnergyFJ:   e.commFJ,
		Schedule:       s,
		MakespanCycles: s.MakespanCycles,
	}
	e.overlapRows(s)
	var acc opticsAccum
	for w, word := range e.live {
		for word != 0 {
			e.opticsEdge(out, w*64+bits.TrailingZeros64(word), s, &acc)
			word &= word - 1
		}
	}
	if acc.berN > 0 {
		out.MeanBER = acc.berSum / float64(acc.berN)
	}
	if acc.totalBits > 0 {
		out.BitEnergyFJ = acc.totalFJ / acc.totalBits
	}
}

// overlapRows rebuilds e.overlap from the schedule's windows: one
// Overlaps test per pair of live edges.
func (e *Evaluator) overlapRows(s *sched.Schedule) {
	ow := e.ow
	clear(e.overlap)
	for w, word := range e.live {
		for word != 0 {
			i := w*64 + bits.TrailingZeros64(word)
			word &= word - 1
			for j := i + 1; j < e.in.Edges(); j++ {
				if e.live[j>>6]&(1<<(uint(j)&63)) != 0 && s.Comm[i].Overlaps(s.Comm[j]) {
					setBit(e.overlap[i*ow:(i+1)*ow], j)
					setBit(e.overlap[j*ow:(j+1)*ow], i)
				}
			}
		}
	}
}

// opticsEdge computes one transmitting edge's optics and feeds them
// to the accumulation: the receiver bank it sees, then either the
// memoized result for the same inputs or a fresh walk (stored for the
// next time).
func (e *Evaluator) opticsEdge(out *Eval, ei int, s *sched.Schedule, acc *opticsAccum) {
	e.fillBank(ei)
	e.gatherInter(ei)
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
// inter-communication crosstalk contributors.
func (e *Evaluator) gatherInter(ei int) {
	e.inter = e.inter[:0]
	ow := e.ow
	over, thr := e.overlap[ei*ow:(ei+1)*ow], e.through[ei*ow:(ei+1)*ow]
	for w := range over {
		for word := over[w] & thr[w]; word != 0; word &= word - 1 {
			e.inter = append(e.inter, w*64+bits.TrailingZeros64(word))
		}
	}
}

// interTag marks a contributor's index word in a memo key.
const interTag = 1 << 63

// edgeKey packs every input of edge ei's optics into the memo key
// (see edgeMemo). The bank rows are the ones the instance's
// fabric.Budget reads (the fabric.Fabric read-set contract: the
// backend's transit before the detector, the budget's walk at it): a
// path's ONIs()[1:], and a contributor's only up to the victim's
// receiver, whose row the edge's own part already holds. Rows no fill
// ever writes are left out: they are zero whatever the genome.
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
//
// The budget fills one arrival matrix per channel set that reaches
// the receiver: the edge's own (the signals on its diagonal, the
// intra-communication crosstalk off it), then each inter-crosstalk
// contributor's, walked along the contributor's own route. Each
// detector's noise adds its terms in the pairwise order: its own
// transfer's other wavelengths ascending, then the contributors
// ascending, each one's wavelengths ascending.
func (e *Evaluator) walkOptics(ei int, s *sched.Schedule) []float64 {
	in := e.in
	W := in.maskWords
	pv := in.fab.Params().LaserOnDBm
	dst := in.dstCore[ei]
	chans := appendBits(e.chans[:0], e.masks[ei*W:(ei+1)*W])
	k := len(chans)
	sig, noise := e.sig[:k], e.noise[:k]

	own := e.arr[:k*k]
	// A path always reaches its own destination: no error.
	_ = in.budget.ArrivalsDB(own, in.paths[ei], dst, chans, chans, e.bank)
	for j := range chans {
		sig[j] = own[j*k+j]
		noise[j] = 0
		for i := range chans {
			if i != j {
				noise[j] += e.mw.milliWatt(pv.Add(own[i*k+j]))
			}
		}
	}
	for _, o := range e.inter {
		ochans := appendBits(e.ochans[:0], e.masks[o*W:(o+1)*W])
		arr := e.arr[:len(ochans)*k]
		if in.budget.ArrivalsDB(arr, in.paths[o], dst, ochans, chans, e.bank) != nil {
			continue // the light never reaches this receiver
		}
		for j, ch := range chans {
			for i, other := range ochans {
				if other == ch {
					// Impossible in valid genomes (the shared
					// incoming segment would have tripped the
					// validity rule); skip defensively.
					continue
				}
				noise[j] += e.mw.milliWatt(pv.Add(arr[i*k+j]))
			}
		}
	}

	powers := e.powers[:0]
	vals := e.vals[:0]
	var commBERSum float64
	for j := range chans {
		psig := e.mw.milliWatt(pv.Add(sig[j]))
		ber := phys.BEROOK(phys.SNR(psig, noise[j], e.p0))
		vals = append(vals, ber)
		commBERSum += ber
		powers = append(powers, in.energy.WavelengthLaserMWVia(sig[j], e.mw.milliWatt))
	}
	return append(vals, commBERSum/float64(k), in.energy.EnergyFJ(powers, s.Comm[ei].Duration()))
}

// fillBank rebuilds the evaluator's receiver-bank scratch with the
// state seen by communication ei's light (the zero-allocation form of
// Instance.bankFor): ei and every live edge whose window overlaps
// ei's install their whole wavelength set with one word-wise OR of
// the mask row.
func (e *Evaluator) fillBank(ei int) {
	in := e.in
	W := in.maskWords
	e.bank.Reset()
	e.bank.OrRow(in.dstCore[ei], e.masks[ei*W:(ei+1)*W])
	for w, word := range e.overlap[ei*e.ow : (ei+1)*e.ow] {
		for ; word != 0; word &= word - 1 {
			o := w*64 + bits.TrailingZeros64(word)
			e.bank.OrRow(in.dstCore[o], e.masks[o*W:(o+1)*W])
		}
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
