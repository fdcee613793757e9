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
//   - per-hop optics: TransitLossDB/SignalArrivalDB/ArrivalAlongDB/
//     DetectorArrivalDB walk the loss and crosstalk budget of a
//     wavelength against the receiver-bank state (*Bank) supplied by
//     the allocation layer;
//   - conflict structure: Path.Overlaps (resource intersection within
//     a lane) feeds the CSR neighbor lists and MaskWords sizes the
//     per-edge wavelength bitmasks;
//   - accounting: Area summarizes the photonic footprint.
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
// every method must be deterministic and allocation-free on the hot
// paths (TransitLossDB, SignalArrivalDB, ArrivalAlongDB) after their
// first call, which may build a lazy table such as CrosstalkTable.
//
// Read-set contract: the loss methods are pure functions of their
// arguments, and they read the *Bank only at the ONIs in
// p.ONIs()[1:] up to det (up to p.Dst for TransitLossDB and
// SignalArrivalDB). The evaluator's per-communication optics memo
// keys a result on exactly those bank rows, so a backend that reads
// any other row, or keeps state between calls, breaks its
// exactness. TestLossReadSetContract holds every shipped backend to
// it.
type Fabric interface {
	// Name identifies the backend ("ring", "crossbar") for reports,
	// campaign artifacts and checkpoint identities.
	Name() string
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
	// SignalArrivalDB is the power change with which channel ch,
	// travelling its own path, arrives at its own detector at p.Dst:
	// transit plus the partial receiver-bank walk and the final drop.
	SignalArrivalDB(p Path, ch int, bank *Bank) phys.DB
	// ArrivalAlongDB is the power change with which channel ch,
	// travelling path p, arrives at the photodetector behind the
	// micro-ring tuned to detCh at ONI det. det is either p.Dst or an
	// ONI the path crosses; an ONI the signal never reaches is an
	// error (the caller's crosstalk scan treats it as "no coupling").
	ArrivalAlongDB(p Path, det, ch, detCh int, bank *Bank) (phys.DB, error)
	// DetectorArrivalDB composes PathBetween(src, det) with
	// ArrivalAlongDB.
	DetectorArrivalDB(src, det, ch, detCh int, bank *Bank) (phys.DB, error)
	// Area evaluates the footprint model on this fabric.
	Area(m AreaModel) Area
}

// BankWalkDB accumulates the through-losses of channel ch crossing the
// MRs [0, upto) of the receiver bank at ONI oni. MRs are assumed to be
// ordered by grid channel along the waveguide, so a signal headed for
// the detector of channel detCh only crosses the rings before it; pass
// upto = Channels() for a full transit. Both backends share this walk
// so the MR-state semantics (ON drops the resonant channel, OFF passes
// with Lp0) are identical everywhere. The walk reads ONI oni's row
// words directly and adds one term per ring, left to right.
func BankWalkDB(par phys.Params, oni, ch, upto int, bank *Bank) phys.DB {
	if upto > bank.channels {
		panic(fmt.Sprintf("fabric: bank walk to channel %d outside [0,%d]", upto, bank.channels))
	}
	row := bank.on[oni*bank.words : (oni+1)*bank.words]
	var loss phys.DB
	for idx := 0; idx < upto; idx++ {
		on := row[idx>>6]&(1<<(uint(idx)&63)) != 0
		loss += phys.ThroughLossDB(par, phys.MRState(on), idx == ch)
	}
	return loss
}
