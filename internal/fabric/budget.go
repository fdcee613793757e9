package fabric

import "repro/internal/phys"

// Budget composes the link budget at a photodetector (Eqs. 1-9) on
// top of a fabric's transit: the backend's TransitLossDB to the
// receiver bank, the BankWalkDB across the rings ordered before the
// detector's, and the final coupling into the detector's ring. The
// composition is the same on every topology, so it lives here once;
// backends differ only in how light gets to the receiver. A Budget is
// immutable but for its lazily built crosstalk table, and safe for
// concurrent use.
type Budget struct {
	fab   Fabric
	par   phys.Params
	xtalk crosstalkTable
}

// NewBudget returns the budget of fabric f, with its own (lazily
// built) crosstalk table.
func NewBudget(f Fabric) *Budget {
	return &Budget{fab: f, par: f.Params(), xtalk: crosstalkTable{grid: f.Grid()}}
}

// SignalArrivalDB is the power change with which channel ch,
// travelling its own path p, arrives at its own detector at p.Dst.
func (b *Budget) SignalArrivalDB(p Path, ch int, bank *Bank) phys.DB {
	loss, _ := b.ArrivalAlongDB(p, p.Dst, ch, ch, bank)
	return loss
}

// ArrivalAlongDB is the power change with which grid channel ch,
// travelling path p, arrives at the photodetector behind the
// micro-ring tuned to channel detCh at ONI det. det is either p.Dst or
// an ONI the path crosses (the noise analyses walk an interferer's
// light, along its own route, only as far as the victim's receiver);
// an ONI the signal never reaches is the Prefix error, which the
// crosstalk scans treat as "no coupling". The terms, added in this
// order, are:
//
//   - the transit to det's receiver bank (Fabric.TransitLossDB of the
//     prefix path),
//   - the partial bank walk at det across the rings before detCh,
//   - and the coupling into detCh's ring: the drop loss for the
//     resonant channel (ch == detCh), or Eq. 1's Lorentzian leak
//     Phi(detCh, ch) for any other — the first-order crosstalk term
//     summed by Eq. 7.
func (b *Budget) ArrivalAlongDB(p Path, det, ch, detCh int, bank *Bank) (phys.DB, error) {
	prefix, err := p.Prefix(det)
	if err != nil {
		return 0, err
	}
	loss := b.fab.TransitLossDB(prefix, ch, bank)
	loss += BankWalkDB(b.par, det, ch, detCh, bank)
	loss += b.couplingDB(det, ch, detCh, bank)
	return loss, nil
}

// ArrivalsDB fills dst with the arrivals of every channel of chs,
// travelling path p, at the detector of every channel of detChs at
// ONI det: dst[i*len(detChs)+j] is ArrivalAlongDB(p, det, chs[i],
// detChs[j], bank), bit for bit. detChs must be ascending and dst must
// hold len(chs)*len(detChs) values. The error is ArrivalAlongDB's, for
// a det the path never reaches; dst is then left untouched.
//
// The work is linear in the channels where the pairwise calls are
// quadratic: the prefix to det is resolved once, each travelling
// channel pays one transit and one walk of det's bank, up to the last
// detector, and each pair only its coupling. The walk's running sum
// passes through BankWalkDB(b.par, det, ch, detCh, bank) at every
// detCh, and each arrival adds (transit + walk) + coupling, the
// pairwise order.
func (b *Budget) ArrivalsDB(dst []phys.DB, p Path, det int, chs, detChs []int, bank *Bank) error {
	prefix, err := p.Prefix(det)
	if err != nil {
		return err
	}
	n := len(detChs)
	for i, ch := range chs {
		transit := b.fab.TransitLossDB(prefix, ch, bank)
		walk := newBankWalk(&b.par, det, ch, bank)
		row := dst[i*n : (i+1)*n]
		for j, detCh := range detChs {
			row[j] = transit + walk.to(detCh) + b.couplingDB(det, ch, detCh, bank)
		}
	}
	return nil
}

// couplingDB is the last term of an arrival: the drop into detCh's
// ring at det for the resonant channel, Eq. 1's leak for any other.
func (b *Budget) couplingDB(det, ch, detCh int, bank *Bank) phys.DB {
	if ch == detCh {
		return phys.DropLossDB(b.par, phys.MRState(bank.On(det, detCh)))
	}
	return b.xtalk.DB(detCh, ch)
}
