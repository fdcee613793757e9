package ring

import (
	"repro/internal/fabric"
	"repro/internal/phys"
)

var _ fabric.Fabric = (*Ring)(nil)

// Bank is the fabric's receiver-bank state; the micro-ring bank
// machinery lives in the fabric package, shared by every backend.
type Bank = fabric.Bank

// PropagationLossDB returns the waveguide propagation plus bending
// loss (LP + LB of Eq. 6) accumulated along a path.
func (r *Ring) PropagationLossDB(p Path) phys.DB {
	par := r.cfg.Params
	return phys.DB(r.LengthCM(p))*par.PropagationDBPerCM +
		phys.DB(r.BendCount(p))*par.BendingDBPer90
}

// TransitLossDB returns the loss channel ch accumulates travelling the
// whole path p up to (but not into) the receiver bank of p.Dst:
// propagation and bending along the waveguide plus a full bank walk at
// every interior ONI (Eqs. 2 and 4, via fabric.BankWalkDB). If an
// interior bank has an ON micro-ring at ch itself, the signal is
// (almost entirely) dropped there and only the Kp1 residue continues —
// the situation the allocation validity rule exists to prevent, but
// the optics model it faithfully.
func (r *Ring) TransitLossDB(p Path, ch int, bank *Bank) phys.DB {
	loss := r.PropagationLossDB(p)
	for _, oni := range p.Interior() {
		loss += fabric.BankWalkDB(r.cfg.Params, oni, ch, r.Channels(), bank)
	}
	return loss
}

// ArrivalAlongDB returns the power change with which grid channel ch,
// travelling path p, arrives at the photodetector behind the
// micro-ring tuned to channel detCh at ONI det. det is either the
// path's destination or an ONI the path crosses (the noise analyses
// walk an interferer's light only as far as the victim's receiver).
// It composes the same terms as DetectorArrivalDB but follows the
// caller's path — which matters on bidirectional rings, where the
// shortest route between two ONIs is not necessarily the route the
// interferer took.
func (r *Ring) ArrivalAlongDB(p Path, det, ch, detCh int, bank *Bank) (phys.DB, error) {
	prefix := p
	if det != p.Dst {
		var err error
		prefix, err = p.Prefix(det)
		if err != nil {
			return 0, err
		}
	}
	loss := r.TransitLossDB(prefix, ch, bank)
	loss += fabric.BankWalkDB(r.cfg.Params, det, ch, detCh, bank)
	if ch == detCh {
		loss += phys.DropLossDB(r.cfg.Params, phys.MRState(bank.On(det, detCh)))
	} else {
		loss += r.xtalk.DB(detCh, ch)
	}
	return loss, nil
}

// DetectorArrivalDB returns the power change, relative to the injected
// power at src, with which grid channel ch arrives at the
// photodetector behind the micro-ring tuned to channel detCh at ONI
// det, routed by PathBetween. It composes Eqs. 2-6:
//
//   - waveguide propagation and bending along src -> det,
//   - full receiver-bank transits at every interior ONI,
//   - the partial bank walk at det across the rings ordered before
//     detCh,
//   - and the final coupling into detCh's ring: the drop loss Lp1 for
//     the resonant channel (ch == detCh), or the Lorentzian
//     inter-channel leak Phi(detCh, ch) of Eq. 1 for any other channel
//     — the first-order crosstalk term summed by Eq. 7.
//
// det does not need to be p.Dst for the ch != detCh case: crosstalk
// enters every receiver the signal passes, so callers evaluate noise
// at intermediate receivers with the prefix path src -> det.
func (r *Ring) DetectorArrivalDB(src, det, ch, detCh int, bank *Bank) (phys.DB, error) {
	p, err := r.PathBetween(src, det)
	if err != nil {
		return 0, err
	}
	return r.ArrivalAlongDB(p, det, ch, detCh, bank)
}

// SignalArrivalDB is the common case of DetectorArrivalDB for the
// wanted signal itself: channel ch travelling its own path into its
// own detector at p.Dst.
func (r *Ring) SignalArrivalDB(p Path, ch int, bank *Bank) phys.DB {
	loss := r.TransitLossDB(p, ch, bank)
	loss += fabric.BankWalkDB(r.cfg.Params, p.Dst, ch, ch, bank)
	loss += phys.DropLossDB(r.cfg.Params, phys.MRState(bank.On(p.Dst, ch)))
	return loss
}
