package ring

import "repro/internal/fabric"

// The paper closes its Fig. 6(a) discussion with "a growing number of
// wavelengths increases the area cost". This file makes that remark
// quantitative with a first-order photonic area model: every ONI
// carries one receiver micro-ring, one photodetector and one
// modulating laser per comb channel, and the serpentine waveguide
// occupies its trace. The model types live in the fabric package,
// shared by every backend.

// AreaModel holds per-device footprints in square micrometres.
type AreaModel = fabric.AreaModel

// DefaultAreaModel returns typical silicon-photonics footprints.
func DefaultAreaModel() AreaModel { return fabric.DefaultAreaModel() }

// Area summarizes the optical layer's footprint.
type Area = fabric.Area

// Area evaluates the model on this ring.
func (r *Ring) Area(m AreaModel) Area {
	devices := r.Size() * r.Channels()
	a := Area{MRs: devices, Lasers: devices, Photodetectors: devices}
	for i := 0; i < r.Size(); i++ {
		a.WaveguideCM += r.segments[i].LengthCM
	}
	a.Total(m)
	return a
}
