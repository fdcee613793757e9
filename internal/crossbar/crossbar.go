// Package crossbar implements the multi-layer deposited-silicon
// optical crossbar backend after Li et al. ("Multilayer 3D photonics
// on bulk silicon" line of work, arXiv 1512.07493, with the
// worst-case-loss structure of their comparative study 1512.07492).
//
// Topology: a multiple-writer single-reader (MWSR) crossbar. Every
// destination ONI owns one dedicated waveguide that runs past the
// modulator banks of all N sources in index order and terminates in
// the destination's receiver bank; a source transmits to d by
// modulating its comb channels onto waveguide d. Two transmissions
// conflict exactly when they target the same destination (they share
// that destination's waveguide), so same-destination communications
// with overlapping activity windows must use disjoint wavelength sets
// — the same validity rule as the ring, induced purely by the path
// resource structure.
//
// The loss model is the first-order worst-case budget of the
// comparative study, per (src, dst) pair:
//
//   - propagation over the (N - src) tap pitches from the source's
//     modulator bank to the receiver,
//   - the OFF-state through loss of the (N - 1 - src) downstream
//     modulator banks the signal passes (NW micro-rings each),
//   - in-plane waveguide crossings: with the N waveguides deposited
//     round-robin onto Layers silicon layers, waveguide d crosses
//     only the floor((N-1-d)/Layers) same-layer waveguides of higher
//     index — the multi-layer advantage: more layers, fewer
//     crossings,
//   - two vertical coupler traversals per layer step: sources and
//     receivers sit on the device layer, so light on waveguide d
//     (layer d mod Layers) couples up at injection and down at the
//     receiver.
//
// The backend supplies only that transit (TransitLossDB). The receiver
// bank at the destination, the drop and the crosstalk coupling are
// composed by fabric.Budget against the allocation layer's
// *fabric.Bank, exactly as on the ring, so intra- and
// inter-communication crosstalk at the victim receiver use identical
// MR-state semantics. A crossbar path crosses no receiver bank but its
// destination's, so an arrival at any other detector is the Prefix
// error, which crosstalk scans treat as no coupling.
package crossbar

import (
	"fmt"

	"repro/internal/fabric"
	"repro/internal/phys"
)

// Config describes a crossbar instance.
type Config struct {
	// Cores is N, the number of ONIs (16 in the default platform).
	Cores int
	// TilePitchCM is the modulator-tap pitch along each waveguide in
	// centimetres; it scales the propagation-loss term.
	TilePitchCM float64
	// Layers is the number of deposited silicon layers the N
	// waveguides are distributed over (round-robin by destination
	// index). 1 recovers a single-layer crossbar with all crossings
	// in-plane.
	Layers int
	// CrossingDB is the insertion loss of one in-plane waveguide
	// crossing (negative dB).
	CrossingDB phys.DB
	// CouplerDB is the insertion loss of one vertical inter-layer
	// coupler traversal (negative dB).
	CouplerDB phys.DB
	// Grid is the WDM wavelength comb.
	Grid phys.Grid
	// Params are the device power parameters, shared with the ring
	// backend.
	Params phys.Params
}

// DefaultConfig returns the default 16-core crossbar with the Table I
// device parameters, an NW-channel comb, two deposited layers and
// representative crossing/coupler losses from the comparative study
// (-0.04 dB per crossing, -0.1 dB per vertical coupler traversal).
func DefaultConfig(channels int) Config {
	return Config{
		Cores:       16,
		TilePitchCM: 0.2,
		Layers:      2,
		CrossingDB:  -0.04,
		CouplerDB:   -0.1,
		Grid:        phys.DefaultGrid(channels),
		Params:      phys.DefaultParams(),
	}
}

// Crossbar is an immutable crossbar instance implementing
// fabric.Fabric.
type Crossbar struct {
	cfg Config
}

var _ fabric.Fabric = (*Crossbar)(nil)

// New validates the configuration and builds the crossbar.
func New(cfg Config) (*Crossbar, error) {
	if cfg.Cores < 2 {
		return nil, fmt.Errorf("crossbar: need at least 2 cores, got %d", cfg.Cores)
	}
	if cfg.TilePitchCM <= 0 {
		return nil, fmt.Errorf("crossbar: tile pitch must be positive, got %v", cfg.TilePitchCM)
	}
	if cfg.Layers < 1 {
		return nil, fmt.Errorf("crossbar: need at least 1 layer, got %d", cfg.Layers)
	}
	if cfg.CrossingDB > 0 || cfg.CouplerDB > 0 {
		return nil, fmt.Errorf("crossbar: crossing/coupler losses must be <= 0 dB, got %v/%v",
			cfg.CrossingDB, cfg.CouplerDB)
	}
	if err := cfg.Grid.Validate(); err != nil {
		return nil, err
	}
	if err := cfg.Params.Validate(); err != nil {
		return nil, err
	}
	return &Crossbar{cfg: cfg}, nil
}

// ResourceName implements fabric.Fabric: the shared-medium unit is a
// span ("hop") of a destination's dedicated waveguide.
func (x *Crossbar) ResourceName() string { return "hop" }

// Size implements fabric.Fabric.
func (x *Crossbar) Size() int { return x.cfg.Cores }

// Channels implements fabric.Fabric.
func (x *Crossbar) Channels() int { return x.cfg.Grid.Channels }

// Grid implements fabric.Fabric.
func (x *Crossbar) Grid() phys.Grid { return x.cfg.Grid }

// Params implements fabric.Fabric.
func (x *Crossbar) Params() phys.Params { return x.cfg.Params }

// PathBetween implements fabric.Fabric. The route from src to dst
// rides destination dst's dedicated waveguide: hop j of waveguide d
// (resource ID d*N + j) is the span from tap j toward tap j+1 (hop
// N-1 ends in the receiver), so light injected at src occupies hops
// src..N-1. Two paths overlap iff they target the same destination.
// The ONI sequence is just {src, dst}: the signal passes no
// intermediate receiver bank, only modulator banks accounted
// statically by the loss model.
func (x *Crossbar) PathBetween(src, dst int) (fabric.Path, error) {
	n := x.cfg.Cores
	if src < 0 || src >= n || dst < 0 || dst >= n {
		return fabric.Path{}, fmt.Errorf("crossbar: path endpoints %d->%d outside [0,%d)", src, dst, n)
	}
	if src == dst {
		return fabric.Path{}, fmt.Errorf("crossbar: degenerate path %d->%d", src, dst)
	}
	hops := make([]int, 0, n-src)
	for j := src; j < n; j++ {
		hops = append(hops, dst*n+j)
	}
	return fabric.NewPath(src, dst, []int{src, dst}, hops), nil
}

// TransitLossDB implements fabric.Fabric: the static worst-case
// budget from the path's source tap to (but not into) the receiver
// bank. The crossbar has no interior receiver banks, so the transit
// is independent of the channel and the bank state; pass-by modulator
// banks are modelled in their OFF through state (first order — an ON
// modulator belongs to a transmission on a disjoint wavelength set,
// whose through-loss difference is second order).
func (x *Crossbar) TransitLossDB(p fabric.Path, ch int, bank *fabric.Bank) phys.DB {
	par := x.cfg.Params
	hops := p.Hops() // N - src
	if hops == 0 {
		return 0 // self path: never enters the optical layer
	}
	loss := phys.DB(float64(hops)*x.cfg.TilePitchCM) * par.PropagationDBPerCM
	loss += phys.DB((hops-1)*x.Channels()) * par.LossOffMR
	loss += phys.DB(x.crossings(p.Dst)) * x.cfg.CrossingDB
	loss += phys.DB(2*x.layerOf(p.Dst)) * x.cfg.CouplerDB
	return loss
}

// crossings counts the in-plane waveguide crossings of destination
// d's waveguide: only the same-layer waveguides of higher index cross
// it (lower-index same-layer waveguides are routed on the other
// side), so distributing the N waveguides round-robin over Layers
// layers divides the crossing count by the layer count.
func (x *Crossbar) crossings(d int) int {
	return (x.cfg.Cores - 1 - d) / x.cfg.Layers
}

// layerOf returns the deposited layer carrying destination d's
// waveguide (round-robin assignment).
func (x *Crossbar) layerOf(d int) int { return d % x.cfg.Layers }
