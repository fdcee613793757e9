package alloc

import (
	"fmt"
	"math"

	"repro/internal/fabric"
	"repro/internal/phys"
	"repro/internal/sched"
)

// Eval is the full figure-of-merit vector of one chromosome. Invalid
// chromosomes (the paper sets their fitness to infinity) carry a
// failure reason (see Reason) and infinite objectives.
type Eval struct {
	// Valid reports whether the chromosome satisfies the paper's
	// validity rules; when false, Reason() explains which rule fired
	// first and Violation grades how badly the rules are broken (the
	// number of missing reservations plus the number of shared
	// wavelength/link/time collisions). The GA uses the magnitude as
	// Deb's constraint violation, which gives evolution a gradient
	// toward the feasible region.
	Valid     bool
	Violation float64
	// reason records which validity rule fired first, as indices into
	// the instance rather than a formatted string: the GA discards
	// reasons wholesale, so the invalid hot path must not pay a
	// fmt.Sprintf allocation per rejected genome. Reason() formats it
	// on demand.
	reason failureReason

	// MakespanCycles is the global execution time (Eq. 11).
	MakespanCycles float64
	// BitEnergyFJ is the laser energy per transmitted bit (Fig 6(a)).
	BitEnergyFJ float64
	// MeanBER and WorstBER aggregate the per-wavelength BER of every
	// reserved (communication, wavelength) pair (Fig 6(b) plots the
	// mean).
	MeanBER  float64
	WorstBER float64

	// Counts is the per-communication wavelength count vector.
	Counts []int
	// CommBER is the mean BER per communication.
	CommBER []float64
	// CommEnergyFJ is the laser energy per communication.
	CommEnergyFJ []float64
	// Schedule is the analytic schedule the metrics were derived
	// from.
	Schedule *sched.Schedule
}

// TimeKCC returns the makespan in kilo-clock-cycles, the unit of the
// paper's plots.
func (e Eval) TimeKCC() float64 { return e.MakespanCycles / 1000 }

// Log10MeanBER returns the display form used by Figs. 6(b) and 7.
func (e Eval) Log10MeanBER() float64 { return phys.Log10BER(e.MeanBER) }

// reasonKind discriminates the lazily formatted failure reasons.
type reasonKind uint8

const (
	// reasonNone marks a valid evaluation (Reason returns "").
	reasonNone reasonKind = iota
	// reasonText carries a pre-formatted message, used only on the
	// exceptional paths (shape mismatch, scheduler failure) where the
	// message is built from an error anyway.
	reasonText
	// reasonNoWavelength: communication `edge` reserves no wavelength.
	reasonNoWavelength
	// reasonSharedWavelength: communications `edge` and `other` share
	// `channel` on a common link while both active.
	reasonSharedWavelength
)

// failureReason is the allocation-free record of the first validity
// rule an evaluation broke: indices into the (immutable, long-lived)
// instance instead of a formatted string. It stays resolvable after
// Detach and after the producing evaluator moves on, because it
// references no evaluator scratch.
type failureReason struct {
	kind                 reasonKind
	text                 string
	in                   *Instance
	edge, other, channel int
}

// Reason formats the first-failure explanation of an invalid
// evaluation ("" for valid ones). The string is computed on demand:
// the GA's invalid path records only indices, so rejecting a genome
// does not allocate, while explain/simulator/CLI callers that surface
// the message still get exactly the historical wording.
func (e *Eval) Reason() string {
	r := &e.reason
	switch r.kind {
	case reasonText:
		return r.text
	case reasonNoWavelength:
		return fmt.Sprintf("communication %s reserves no wavelength", r.in.App.Edges[r.edge].Name)
	case reasonSharedWavelength:
		return fmt.Sprintf("communications %s and %s share wavelength %d on a common link while both active",
			r.in.App.Edges[r.edge].Name, r.in.App.Edges[r.other].Name, r.channel)
	}
	return ""
}

// invalid builds an infeasible evaluation with a pre-formatted text
// reason (exceptional paths only — the kernel's graded-violation path
// uses invalidEval with an index-backed reason instead).
func invalid(reason string, violation float64) Eval {
	return invalidEval(failureReason{kind: reasonText, text: reason}, violation)
}

func invalidEval(reason failureReason, violation float64) Eval {
	inf := math.Inf(1)
	if violation <= 0 {
		violation = 1
	}
	return Eval{Valid: false, reason: reason, Violation: violation,
		MakespanCycles: inf, BitEnergyFJ: inf, MeanBER: inf, WorstBER: inf}
}

// Evaluate computes the objective vector of one chromosome. It is the
// pooled entry point for one-off evaluations (the waserve evaluate and
// explain handlers, explain): evaluators are drawn from the instance's
// pool, so concurrent callers evaluate in parallel, and the result is
// detached, so the returned Eval owns its slices. Hot loops (the GA
// workers, a campaign cell's simulator) hold their own Evaluator
// instead and skip both the pool round-trip and the copies.
func (in *Instance) Evaluate(g Genome) Eval {
	ev, err := in.BorrowEvaluator()
	if err != nil {
		return invalid(err.Error(), 1)
	}
	var out Eval
	ev.EvaluateInto(&out, g)
	out.Detach()
	in.ReturnEvaluator(ev)
	return out
}

// BorrowEvaluator draws an evaluator from the instance's pool, building
// one when the pool is empty. The caller owns it exclusively until it
// hands it back with ReturnEvaluator. The error is NewEvaluator's.
func (in *Instance) BorrowEvaluator() (*Evaluator, error) {
	if ev, _ := in.evaluators.Get().(*Evaluator); ev != nil {
		return ev, nil
	}
	return NewEvaluator(in)
}

// ReturnEvaluator hands an evaluator drawn by BorrowEvaluator back to
// the pool. The caller must not use it afterwards.
func (in *Instance) ReturnEvaluator(ev *Evaluator) { in.evaluators.Put(ev) }

// bankFor builds the receiver-bank state seen by communication e's
// light: the micro-ring for channel ch at ONI oni is ON when some
// communication whose activity window overlaps e's (including e
// itself) is dropping ch at oni.
func (in *Instance) bankFor(e int, s *sched.Schedule, sets [][]int) *fabric.Bank {
	nw := in.Channels()
	bank := fabric.NewBank(in.fab.Size(), nw)
	for o := 0; o < in.Edges(); o++ {
		if in.App.Edges[o].VolumeBits <= 0 || in.selfEdge[o] {
			continue
		}
		if o != e && !s.Comm[e].Overlaps(s.Comm[o]) {
			continue
		}
		for _, ch := range sets[o] {
			bank.Set(in.dstCore[o], ch, true)
		}
	}
	return bank
}

// ObjectivesInto projects an evaluation onto a minimization vector
// written into dst (len(dst) must be len(objs)), so the search engine
// lands objective values directly in its column arena. Invalid
// evaluations map to +Inf in every coordinate, mirroring the paper's
// "set the fitness to infinity".
func (e Eval) ObjectivesInto(dst []float64, objs []Objective) {
	for i, o := range objs {
		if !e.Valid {
			dst[i] = math.Inf(1)
			continue
		}
		switch o {
		case ObjTime:
			dst[i] = e.MakespanCycles
		case ObjEnergy:
			dst[i] = e.BitEnergyFJ
		case ObjBER:
			dst[i] = e.MeanBER
		default:
			dst[i] = math.Inf(1)
		}
	}
}

// Objective selects one of the paper's three optimization criteria.
type Objective int

const (
	// ObjTime is the global execution time (Eq. 11).
	ObjTime Objective = iota
	// ObjEnergy is the energy per transmitted bit.
	ObjEnergy
	// ObjBER is the mean bit-error rate (Eq. 9).
	ObjBER
)

// String names the objective for reports.
func (o Objective) String() string {
	switch o {
	case ObjTime:
		return "execution time"
	case ObjEnergy:
		return "bit energy"
	case ObjBER:
		return "mean BER"
	}
	return fmt.Sprintf("objective(%d)", int(o))
}
