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
// divides by the bits moved. See DESIGN.md section 5 for the
// calibration discussion.
package energy

import (
	"fmt"
	"math"

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
	// BERTarget, when positive, switches the laser sizing from the
	// fixed receive-power target to BER-target mode: each wavelength
	// emits just enough power for its detector to reach the target
	// BER in its crosstalk environment — the paper's introduction
	// ("inter-channel crosstalk leads to an increase of the laser
	// power when a specific BER is targeted") made operational.
	BERTarget float64
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
	if m.BERTarget < 0 || m.BERTarget >= 0.5 {
		return fmt.Errorf("energy: BER target %v outside [0, 0.5)", m.BERTarget)
	}
	return nil
}

// LaserPowerMW returns the average emitted laser power (in mW) needed
// on a wavelength whose end-to-end link loss is lossDB (a negative dB
// value): the receive target divided by the link transmission, scaled
// by the duty cycle.
func (m Model) LaserPowerMW(lossDB phys.DB) phys.MilliWatt {
	return m.laserPowerMW(lossDB, phys.DBm.MilliWatt)
}

func (m Model) laserPowerMW(lossDB phys.DB, toMW func(phys.DBm) phys.MilliWatt) phys.MilliWatt {
	peak := toMW(m.RxTargetDBm.Add(-lossDB)) // compensate the loss
	return phys.MilliWatt(m.Duty * float64(peak))
}

// LaserPowerForBERMW sizes the average laser power of a wavelength so
// that its detector reaches the model's BER target given the
// first-order crosstalk noise and the 0-level residue at that
// detector (both in linear mW, evaluated at the nominal laser level):
// the peak power must deliver SNRForBER(target) times the noise floor
// through the link's transmission.
func (m Model) LaserPowerForBERMW(lossDB phys.DB, noise, p0 phys.MilliWatt) phys.MilliWatt {
	return m.laserPowerForBERMW(lossDB, noise, p0, phys.DBm.MilliWatt)
}

func (m Model) laserPowerForBERMW(lossDB phys.DB, noise, p0 phys.MilliWatt, toMW func(phys.DBm) phys.MilliWatt) phys.MilliWatt {
	snr := phys.SNRForBER(m.BERTarget)
	needAtDetector := snr * (float64(noise) + float64(p0))
	// The link transmission lossDB.Linear(): DB.Linear and
	// DBm.MilliWatt are the same conversion.
	transmission := float64(toMW(phys.DBm(lossDB)))
	if transmission <= 0 {
		return phys.MilliWatt(math.Inf(1))
	}
	return phys.MilliWatt(m.Duty * needAtDetector / transmission)
}

// WavelengthLaserMW dispatches between the fixed receive-power sizing
// and BER-target sizing according to the model mode.
func (m Model) WavelengthLaserMW(lossDB phys.DB, noise, p0 phys.MilliWatt) phys.MilliWatt {
	return m.WavelengthLaserMWVia(lossDB, noise, p0, phys.DBm.MilliWatt)
}

// WavelengthLaserMWVia is WavelengthLaserMW with the one dB -> linear
// conversion of either sizing mode done by toMW, which must return
// exactly what phys.DBm.MilliWatt returns. The evaluation kernel
// passes its exact memo of that conversion.
func (m Model) WavelengthLaserMWVia(lossDB phys.DB, noise, p0 phys.MilliWatt, toMW func(phys.DBm) phys.MilliWatt) phys.MilliWatt {
	if m.BERTarget > 0 {
		return m.laserPowerForBERMW(lossDB, noise, p0, toMW)
	}
	return m.laserPowerMW(lossDB, toMW)
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

// CommEnergyFJ returns the laser energy (femtojoules) spent moving one
// communication in fixed receive-power mode: the summed average power
// of its wavelengths times the transfer duration. lossesDB carries
// the per-wavelength end-to-end link loss; durationCycles is the
// window length from the schedule.
func (m Model) CommEnergyFJ(lossesDB []phys.DB, durationCycles float64) float64 {
	powers := make([]phys.MilliWatt, len(lossesDB))
	for i, l := range lossesDB {
		powers[i] = m.LaserPowerMW(l)
	}
	return m.EnergyFJ(powers, durationCycles)
}

// BitEnergyFJ aggregates communication energies into the figure of
// merit of Fig. 6(a): total laser femtojoules per transmitted bit.
func BitEnergyFJ(totalFJ, totalBits float64) float64 {
	if totalBits <= 0 {
		return 0
	}
	return totalFJ / totalBits
}
