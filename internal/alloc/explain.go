package alloc

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/phys"
	"repro/internal/sched"
)

// Explain produces the full link-budget breakdown of a valid
// chromosome: for every (communication, wavelength) pair, the signal
// arrival power, every first-order crosstalk contributor with its
// origin, the SNR and BER, and the loss-compensating laser power. It
// is the engineering view behind the scalar objectives — what a
// designer would ask the tool to print before signing off an
// allocation (cmd/onocsim -explain renders it).
type Explanation struct {
	// Eval echoes the scalar evaluation the breakdown expands.
	Eval Eval
	// Comms holds one breakdown per loaded communication.
	Comms []CommBudget
}

// CommBudget is the per-communication part of an explanation.
type CommBudget struct {
	// Edge is the communication index; Name its task-graph label.
	Edge int
	Name string
	// SrcCore and DstCore are the mapped fabric endpoints; Hops the
	// path length.
	SrcCore, DstCore, Hops int
	// Window is the activity interval from the schedule.
	Window sched.Window
	// Lambdas holds one budget per reserved wavelength.
	Lambdas []LambdaBudget
}

// LambdaBudget is the per-wavelength link budget.
type LambdaBudget struct {
	// Channel is the comb slot; WavelengthNM its absolute position.
	Channel      int
	WavelengthNM float64
	// SignalDBm is the arrival power at the photodetector for the
	// fixed Pv laser; PathLossDB the corresponding end-to-end loss.
	SignalDBm  phys.DBm
	PathLossDB phys.DB
	// Noise lists every crosstalk contributor at this detector.
	Noise []NoiseTerm
	// NoiseTotalMW aggregates the contributors plus nothing else;
	// the 0-level P0 enters the SNR separately, as in Eq. 8.
	NoiseTotalMW phys.MilliWatt
	// SNR is linear, per Eq. 8; BER per Eq. 9.
	SNR float64
	BER float64
	// LaserMW is the loss-compensating average laser power of the
	// energy model.
	LaserMW phys.MilliWatt
}

// NoiseTerm is one first-order crosstalk contributor.
type NoiseTerm struct {
	// FromEdge and FromName identify the interfering communication
	// (the communication itself for intra-channel terms).
	FromEdge int
	FromName string
	// Channel is the interfering wavelength; Intra marks terms from
	// the victim's own transfer.
	Channel int
	Intra   bool
	// PowerDBm is the leak's arrival power at the victim detector.
	PowerDBm phys.DBm
}

// Explain expands ev, the valid evaluation of chromosome g on this
// instance (as Evaluate returns it), into the full link budget. The
// schedule and the scalar results come from ev; Explain walks only the
// per-wavelength budgets. It panics on an invalid evaluation — there
// is no meaningful budget for a conflicting allocation, and every
// caller has already reported the evaluator's reason.
func (in *Instance) Explain(g Genome, ev Eval) *Explanation {
	if !ev.Valid {
		panic("alloc: Explain of an invalid evaluation: " + ev.Reason())
	}
	sets := make([][]int, in.Edges())
	for e := range sets {
		sets[e] = g.ChannelSet(e)
	}
	par := in.fab.Params()
	pv := par.LaserOnDBm
	p0 := par.LaserOffDBm.MilliWatt()
	grid := in.fab.Grid()

	ex := &Explanation{Eval: ev}
	for e := 0; e < in.Edges(); e++ {
		// Self edges have no link budget: nothing travels the
		// waveguide.
		if in.App.Edges[e].VolumeBits <= 0 || len(sets[e]) == 0 || in.selfEdge[e] {
			continue
		}
		bank := in.bankFor(e, ev.Schedule, sets)
		cb := CommBudget{
			Edge:    e,
			Name:    in.App.Edges[e].Name,
			SrcCore: in.srcCore[e],
			DstCore: in.dstCore[e],
			Hops:    in.paths[e].Hops(),
			Window:  ev.Schedule.Comm[e],
		}
		for _, ch := range sets[e] {
			loss := in.budget.SignalArrivalDB(in.paths[e], ch, bank)
			lb := LambdaBudget{
				Channel:      ch,
				WavelengthNM: grid.WavelengthNM(ch),
				SignalDBm:    pv.Add(loss),
				PathLossDB:   loss,
			}
			addTerm := func(from, channel int, intra bool) {
				arr, err := in.budget.ArrivalAlongDB(in.paths[from], in.dstCore[e], channel, ch, bank)
				if err != nil {
					return
				}
				t := NoiseTerm{
					FromEdge: from,
					FromName: in.App.Edges[from].Name,
					Channel:  channel,
					Intra:    intra,
					PowerDBm: pv.Add(arr),
				}
				lb.Noise = append(lb.Noise, t)
				lb.NoiseTotalMW += t.PowerDBm.MilliWatt()
			}
			for _, other := range sets[e] {
				if other != ch {
					addTerm(e, other, true)
				}
			}
			for o := 0; o < in.Edges(); o++ {
				if o == e || len(sets[o]) == 0 || in.App.Edges[o].VolumeBits <= 0 {
					continue
				}
				if !ev.Schedule.Comm[e].Overlaps(ev.Schedule.Comm[o]) || !in.paths[o].Through(in.dstCore[e]) {
					continue
				}
				for _, other := range sets[o] {
					if other != ch {
						addTerm(o, other, false)
					}
				}
			}
			sort.Slice(lb.Noise, func(a, b int) bool {
				return lb.Noise[a].PowerDBm > lb.Noise[b].PowerDBm
			})
			lb.SNR = phys.SNR(lb.SignalDBm.MilliWatt(), lb.NoiseTotalMW, p0)
			lb.BER = phys.BEROOK(lb.SNR)
			lb.LaserMW = in.energy.WavelengthLaserMWVia(loss, phys.DBm.MilliWatt)
			cb.Lambdas = append(cb.Lambdas, lb)
		}
		ex.Comms = append(ex.Comms, cb)
	}
	return ex
}

// String renders the explanation as the report cmd/onocsim -explain
// prints.
func (ex *Explanation) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "link budget: %.3f k-cc, %.3f fJ/bit, mean BER %.3e\n",
		ex.Eval.TimeKCC(), ex.Eval.BitEnergyFJ, ex.Eval.MeanBER)
	for _, cb := range ex.Comms {
		fmt.Fprintf(&sb, "\n%s: cores %d->%d (%d hops), window [%.0f,%.0f)\n",
			cb.Name, cb.SrcCore, cb.DstCore, cb.Hops, cb.Window.Start, cb.Window.End)
		for _, lb := range cb.Lambdas {
			fmt.Fprintf(&sb, "  ch %2d (%.2f nm): signal %6.2f dBm (loss %5.2f dB), laser %.3f mW\n",
				lb.Channel, lb.WavelengthNM, float64(lb.SignalDBm), float64(lb.PathLossDB), float64(lb.LaserMW))
			fmt.Fprintf(&sb, "      SNR %7.1f  BER %.3e  noise %.4g uW over %d terms\n",
				lb.SNR, lb.BER, float64(lb.NoiseTotalMW)*1000, len(lb.Noise))
			for i, t := range lb.Noise {
				if i >= 4 {
					fmt.Fprintf(&sb, "      ... %d more terms\n", len(lb.Noise)-i)
					break
				}
				kind := "inter"
				if t.Intra {
					kind = "intra"
				}
				fmt.Fprintf(&sb, "      %-5s ch %2d from %-4s at %6.2f dBm\n",
					kind, t.Channel, t.FromName, float64(t.PowerDBm))
			}
		}
	}
	return sb.String()
}
