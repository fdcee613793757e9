// Package fabric defines the optical-backend contract of the
// evaluation stack: the minimal interface a photonic interconnect must
// implement for the wavelength-allocation machinery (internal/alloc,
// internal/core, internal/expt) to search it. The paper's serpentine
// ring (internal/ring) is the reference implementation; the
// multi-layer deposited-silicon crossbar (internal/crossbar, after Li
// et al., arXiv 1512.07493 / 1512.07492) is the second. Topologies
// become backend instances instead of evaluator forks.
//
// The contract splits cleanly into four concerns:
//
//   - route construction: PathBetween/SelfPath produce immutable Path
//     values whose resource IDs drive the conflict structure;
//   - transit optics: TransitLossDB, the one loss hook a backend
//     implements, walks a wavelength from its source to (but not
//     into) a receiver bank against the bank state (*Bank) supplied
//     by the allocation layer;
//   - detector optics: Budget composes the transit with the receiver
//     bank walk and the final drop or crosstalk coupling (Eqs. 1-9),
//     once for every backend;
//   - conflict structure: Path.Overlaps (resource intersection) feeds
//     the CSR neighbor lists and MaskWords sizes the per-edge
//     wavelength bitmasks.
//
// See DESIGN.md "Optical fabric contract" for the invariants a third
// backend must keep for the evaluator's per-communication optics memo
// to stay exact.
package fabric

import (
	"fmt"

	"repro/internal/phys"
)

// Fabric is one optical interconnect backend. Implementations are
// immutable after construction and safe for concurrent read-only use;
// every method must be deterministic, and TransitLossDB, on the
// evaluation hot path, allocation-free.
//
// Read-set contract: TransitLossDB is a pure function of its
// arguments, and it reads the *Bank only at the ONIs in p.ONIs()[1:]
// before p.Dst. Budget adds the row of the detector, so an arrival
// reads the rows up to and including it. The evaluator's
// per-communication optics memo keys a result on exactly those bank
// rows, so a backend that reads any other row, or keeps state between
// calls, breaks its exactness. TestLossReadSetContract holds every
// shipped backend to it.
type Fabric interface {
	// ResourceName is the human word for one unit of the shared
	// optical medium ("segment" for the ring's waveguide hops), used
	// by diagnostics that name a double-booked resource.
	ResourceName() string
	// Size is the number of optical network interfaces (== cores).
	Size() int
	// Channels is NW, the number of wavelengths of the comb.
	Channels() int
	// Grid is the WDM wavelength comb.
	Grid() phys.Grid
	// Params are the device power parameters.
	Params() phys.Params
	// PathBetween returns the backend's route from ONI src to ONI dst
	// (src != dst). The same (src, dst) must always yield the same
	// path.
	PathBetween(src, dst int) (Path, error)
	// TransitLossDB is the loss channel ch accumulates travelling the
	// whole path p up to (but not into) the receiver bank of p.Dst,
	// under the given micro-ring states.
	TransitLossDB(p Path, ch int, bank *Bank) phys.DB
}

// BankWalkDB accumulates the through-losses of channel ch crossing the
// MRs [0, upto) of the receiver bank at ONI oni. MRs are assumed to be
// ordered by grid channel along the waveguide, so a signal headed for
// the detector of channel detCh only crosses the rings before it; pass
// upto = Channels() for a full transit. ArrivalAlongDB's detector
// walk and the ring's interior-bank transits share it, and
// ArrivalsDB's bankWalk adds the same terms, so the MR-state
// semantics (ON drops the resonant channel, OFF passes with Lp0) are
// identical everywhere. The walk reads ONI oni's row
// words directly and adds one term per ring, left to right.
func BankWalkDB(par phys.Params, oni, ch, upto int, bank *Bank) phys.DB {
	if upto > bank.channels {
		panic(fmt.Sprintf("fabric: bank walk to channel %d outside [0,%d]", upto, bank.channels))
	}
	row := bank.on[oni*bank.words : (oni+1)*bank.words]
	var loss phys.DB
	for idx := 0; idx < upto; idx++ {
		loss += ringThroughDB(&par, row, idx, ch)
	}
	return loss
}

// ringThroughDB is the through loss of channel ch past ring idx of
// the bank row.
func ringThroughDB(par *phys.Params, row []uint64, idx, ch int) phys.DB {
	on := row[idx>>6]&(1<<(uint(idx)&63)) != 0
	return phys.ThroughLossDB(*par, phys.MRState(on), idx == ch)
}

// bankWalk is a BankWalkDB kept open: it walks channel ch across ONI
// oni's receiver bank one ring at a time, so one pass serves every
// detector of the bank. After to(upto) its sum is BankWalkDB(par,
// oni, ch, upto, bank), bit for bit: the same terms, added in the same
// order from the same zero.
type bankWalk struct {
	par  *phys.Params
	row  []uint64
	ch   int
	next int // rings walked so far
	loss phys.DB
}

func newBankWalk(par *phys.Params, oni, ch int, bank *Bank) bankWalk {
	return bankWalk{par: par, row: bank.Row(oni), ch: ch}
}

// to walks on to ring upto and returns the sum so far. upto must not
// fall below an earlier call's.
func (w *bankWalk) to(upto int) phys.DB {
	for ; w.next < upto; w.next++ {
		w.loss += ringThroughDB(w.par, w.row, w.next, w.ch)
	}
	return w.loss
}
