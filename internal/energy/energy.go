// Package energy implements the bit-energy model of the reproduction.
//
// The paper plots "bit energy" in fJ/bit (Fig. 6(a)) and explains its
// growth with the number of reserved wavelengths by "the additional
// ON-state MRs suffering from more propagation loss in the
// architecture", but never prints the energy equation itself. We
// therefore model the laser emission energy needed to deliver a fixed
// target power at the photodetector through the allocated link:
//
//	P_laser(lambda) = P_rx-target / eta_link(lambda)
//
// where eta_link is the linear transmission of the path (propagation,
// bends, every OFF- and ON-state micro-ring crossed — so a wavelength
// sitting behind more ON drops of its own communication needs more
// power), and the average emitted power accounts for the OOK duty
// cycle. Energy per communication is the summed average laser power
// of its wavelengths times the transfer duration; the figure-of-merit
// divides by the bits moved. Crosstalk does not size the laser: it
// enters the objectives only through the BER (Eqs. 8-9). See DESIGN.md
// section 5 for the calibration discussion.
package energy

import (
	"fmt"

	"repro/internal/phys"
)

// Model holds the calibration constants of the bit-energy model.
type Model struct {
	// RxTargetDBm is the optical power each wavelength must deliver
	// at its photodetector. -13 dBm lands the all-ones allocation of
	// the paper's application at ~3.5 fJ/bit, the bottom of Fig. 6(a).
	RxTargetDBm phys.DBm
	// Duty is the OOK mark ratio: the fraction of bits that are 1s
	// and so carry the full laser power (0.5 for balanced data).
	Duty float64
	// ClockGHz converts schedule cycles to time: the optical layer
	// runs at 10 GHz, so one cycle moves one bit per wavelength at
	// 10 Gb/s.
	ClockGHz float64
}

// Default returns the calibration used by all paper-reproduction
// experiments.
func Default() Model {
	return Model{RxTargetDBm: -13, Duty: 0.5, ClockGHz: 10}
}

// Validate rejects non-physical calibrations.
func (m Model) Validate() error {
	if m.Duty <= 0 || m.Duty > 1 {
		return fmt.Errorf("energy: duty %v outside (0,1]", m.Duty)
	}
	if m.ClockGHz <= 0 {
		return fmt.Errorf("energy: clock %v GHz must be positive", m.ClockGHz)
	}
	return nil
}

// WavelengthLaserMWVia returns the average emitted laser power (mW)
// of one wavelength whose end-to-end link loss is lossDB (a negative
// dB value): the receive target divided by the link transmission,
// scaled by the duty cycle.
//
// toMW does the dB -> linear conversion and must return exactly what
// phys.DBm.MilliWatt returns: the evaluation kernel passes its exact
// memo of that conversion, Explain the conversion itself.
func (m Model) WavelengthLaserMWVia(lossDB phys.DB, toMW func(phys.DBm) phys.MilliWatt) phys.MilliWatt {
	peak := toMW(m.RxTargetDBm.Add(-lossDB)) // compensate the loss
	return phys.MilliWatt(m.Duty * float64(peak))
}

// EnergyFJ converts summed average laser powers held for a window
// into femtojoules.
func (m Model) EnergyFJ(avgPowers []phys.MilliWatt, durationCycles float64) float64 {
	var totalMW float64
	for _, p := range avgPowers {
		totalMW += float64(p)
	}
	ns := durationCycles / m.ClockGHz
	// 1 mW * 1 ns = 1 pJ = 1000 fJ.
	return totalMW * ns * 1000
}
