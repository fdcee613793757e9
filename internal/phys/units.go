// Package phys implements the photonic device physics underlying the
// wavelength-allocation models of Luo et al. (DATE 2017): decibel and
// linear optical power arithmetic, the micro-ring resonator (MR)
// Lorentzian filter response (Eq. 1), the WDM wavelength grid (FSR,
// channel spacing, quality factor), and the OOK signal-to-noise-ratio
// and bit-error-rate model (Eqs. 8 and 9).
//
// Conventions:
//   - Wavelengths are expressed in nanometres.
//   - Relative power gains/losses are phys.DB values; losses are
//     negative (e.g. an ON-state MR pass is -0.5 dB).
//   - Absolute optical powers are phys.DBm (referenced to 1 mW) or
//     phys.MilliWatt in the linear domain.
package phys

import "math"

// DB is a relative power ratio expressed in decibels. Losses are
// negative values, exactly as printed in Table I of the paper.
type DB float64

// DBm is an absolute optical power referenced to 1 mW.
type DBm float64

// MilliWatt is an absolute optical power in the linear domain.
type MilliWatt float64

// LinearToDB converts a linear power ratio to decibels. Ratios must be
// strictly positive; zero maps to -Inf, which propagates harmlessly
// through the loss budget (a fully blocked signal).
func LinearToDB(ratio float64) DB {
	return DB(10 * math.Log10(ratio))
}

// MilliWatt converts an absolute dBm power to linear milliwatts. For a
// relative ratio d, DBm(d).MilliWatt() is its linear transmission.
func (p DBm) MilliWatt() MilliWatt {
	return MilliWatt(math.Pow(10, float64(p)/10))
}

// Add applies a relative gain or loss to an absolute power. Because
// both quantities are logarithmic this is a plain addition.
func (p DBm) Add(gain DB) DBm { return p + DBm(gain) }
