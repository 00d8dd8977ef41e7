package simtime

import "time"

// Oscillator models an imperfect device clock: the badge microcontrollers in
// the paper run on crystals whose frequency error produces clock shifts that
// the reference badge at the charging station is used to correct.
//
// A local reading L relates to true simulation time T as
//
//	L(T) = Offset + (1 + SkewPPM*1e-6) * T
type Oscillator struct {
	// Offset is the initial phase error of the clock.
	Offset time.Duration
	// SkewPPM is the constant frequency error in parts per million.
	// Typical watch crystals are within +-20 ppm.
	SkewPPM float64
}

// NewOscillator creates an oscillator with the given phase offset and skew.
func NewOscillator(offset time.Duration, skewPPM float64) *Oscillator {
	return &Oscillator{Offset: offset, SkewPPM: skewPPM}
}

// Read converts true simulation time to the local clock reading.
func (o *Oscillator) Read(trueTime time.Duration) time.Duration {
	scaled := time.Duration(float64(trueTime) * (1 + o.SkewPPM*1e-6))
	return o.Offset + scaled
}
