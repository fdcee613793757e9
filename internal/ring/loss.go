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
