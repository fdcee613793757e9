// Package ring models the ring-based WDM 3D optical NoC architecture
// of the paper: a rows x cols grid of IP cores on the electrical layer,
// each connected through a TSV to an Optical Network Interface (ONI) on
// the optical layer, all ONIs threaded by a single unidirectional
// serpentine waveguide closed into a ring (Fig. 1 and Fig. 5(b)).
//
// The package provides the geometry (waveguide lengths and bend counts
// per hop), the clockwise route between two ONIs, and the transit loss
// of Eqs. 2-6: propagation and bends along the waveguide plus a full
// receiver bank walk at every interior ONI. The detector end of the budget (the
// partial bank walk, the drop and the crosstalk coupling of Eq. 7) is
// composed by fabric.Budget, the same for every backend. The package
// is purely structural: which micro rings are ON at a given instant is
// supplied by the caller as a receiver-bank state (Bank), because that
// state is decided by the wavelength allocation and the application
// schedule.
package ring

import (
	"fmt"

	"repro/internal/phys"
)

// Config describes a ring ONoC instance.
type Config struct {
	// Rows and Cols give the core grid (4x4 = 16 cores in the paper).
	Rows, Cols int
	// TilePitchCM is the centre-to-centre tile distance in
	// centimetres; it scales the propagation-loss term. The default
	// 0.2 cm (2 mm tiles) is a typical MPSoC tile pitch.
	TilePitchCM float64
	// Grid is the WDM wavelength comb.
	Grid phys.Grid
	// Params are the device power parameters (Table I).
	Params phys.Params
}

// DefaultConfig returns the paper's evaluation platform: a 4x4 core
// grid with the Table I device parameters and an NW-channel comb.
func DefaultConfig(channels int) Config {
	return Config{
		Rows:        4,
		Cols:        4,
		TilePitchCM: 0.2,
		Grid:        phys.DefaultGrid(channels),
		Params:      phys.DefaultParams(),
	}
}

// Segment is one directed hop of the waveguide between consecutive
// ONIs in ring order.
type Segment struct {
	// From and To are ring positions (equal to core IDs in the
	// serpentine numbering of Fig. 5(b)).
	From, To int
	// LengthCM is the waveguide length of the hop.
	LengthCM float64
	// Bends is the number of 90-degree bends along the hop.
	Bends int
}

// Ring is an immutable ring ONoC instance.
type Ring struct {
	cfg      Config
	segments []Segment // segments[i] connects ONI i to ONI (i+1) mod N
}

// New builds the ring, deriving per-hop geometry from the serpentine
// layout: horizontal hops inside a row are one pitch long with no
// bends; the row-turn hops at row ends are one pitch long with two
// 90-degree bends; the closing hop from the last ONI back to ONI 0
// runs up the left edge ((rows-1) pitches) with two bends.
func New(cfg Config) (*Ring, error) {
	if cfg.Rows <= 0 || cfg.Cols <= 0 {
		return nil, fmt.Errorf("ring: grid %dx%d must be positive", cfg.Rows, cfg.Cols)
	}
	if cfg.Rows*cfg.Cols < 2 {
		return nil, fmt.Errorf("ring: need at least 2 cores, got %d", cfg.Rows*cfg.Cols)
	}
	if cfg.TilePitchCM <= 0 {
		return nil, fmt.Errorf("ring: tile pitch must be positive, got %v", cfg.TilePitchCM)
	}
	if err := cfg.Grid.Validate(); err != nil {
		return nil, err
	}
	if err := cfg.Params.Validate(); err != nil {
		return nil, err
	}
	n := cfg.Rows * cfg.Cols
	segs := make([]Segment, n)
	for i := 0; i < n; i++ {
		next := (i + 1) % n
		seg := Segment{From: i, To: next, LengthCM: cfg.TilePitchCM}
		switch {
		case next == 0:
			// Closing hop up the left edge of the chip.
			seg.LengthCM = float64(cfg.Rows-1) * cfg.TilePitchCM
			seg.Bends = 2
		case (i+1)%cfg.Cols == 0:
			// End of a row: the serpentine turns down to the next row.
			seg.Bends = 2
		}
		segs[i] = seg
	}
	return &Ring{cfg: cfg, segments: segs}, nil
}

// Config returns the configuration the ring was built from.
func (r *Ring) Config() Config { return r.cfg }

// ResourceName implements fabric.Fabric: the ring's shared-medium
// unit is the waveguide segment.
func (r *Ring) ResourceName() string { return "segment" }

// Grid implements fabric.Fabric.
func (r *Ring) Grid() phys.Grid { return r.cfg.Grid }

// Params implements fabric.Fabric.
func (r *Ring) Params() phys.Params { return r.cfg.Params }

// Size returns the number of ONIs on the ring.
func (r *Ring) Size() int { return len(r.segments) }

// Channels returns NW, the number of wavelengths of the comb.
func (r *Ring) Channels() int { return r.cfg.Grid.Channels }

// Segment returns the directed hop leaving ring position i.
func (r *Ring) Segment(i int) Segment { return r.segments[i] }
