// Package radio models the wireless physical layer of the badge system: the
// 2.4 GHz BLE radio and the 868 MHz radio (the paper's two omnidirectional
// proximity sensors "with different signal attenuation properties"), plus
// the directional infrared transceiver used to confirm face-to-face
// contacts.
//
// Propagation follows the standard log-distance path-loss model with
// per-wall material attenuation (from the habitat floor plan) and log-normal
// shadowing. Received signal strength drives both proximity sensing and the
// beacon-based indoor localization.
package radio

import (
	"errors"
	"math"

	"icares/internal/geometry"
	"icares/internal/habitat"
	"icares/internal/stats"
)

// Band identifies a radio band.
type Band int

// Supported bands.
const (
	// BLE24 is the 2.4 GHz Bluetooth Low Energy radio.
	BLE24 Band = iota + 1
	// Sub868 is the 868 MHz radio with better wall penetration.
	Sub868
)

// String returns the band name.
func (b Band) String() string {
	switch b {
	case BLE24:
		return "2.4GHz BLE"
	case Sub868:
		return "868MHz"
	default:
		return "unknown band"
	}
}

// Profile holds the propagation parameters of a band.
type Profile struct {
	// RefLossDB is the path loss at the 1 m reference distance.
	RefLossDB float64
	// Exponent is the log-distance path-loss exponent.
	Exponent float64
	// ShadowSigmaDB is the log-normal shadowing standard deviation.
	ShadowSigmaDB float64
	// WallFactor scales the habitat's per-wall attenuation: lower
	// frequencies penetrate walls better.
	WallFactor float64
	// SensitivityDBm is the weakest RSSI the receiver can decode.
	SensitivityDBm float64
}

// ProfileFor returns the default propagation profile of a band.
func ProfileFor(b Band) Profile {
	switch b {
	case Sub868:
		return Profile{
			RefLossDB:      31.5,
			Exponent:       1.9,
			ShadowSigmaDB:  3.0,
			WallFactor:     0.55,
			SensitivityDBm: -110,
		}
	default: // BLE24
		return Profile{
			RefLossDB:      40.0,
			Exponent:       2.1,
			ShadowSigmaDB:  4.0,
			WallFactor:     1.0,
			SensitivityDBm: -95,
		}
	}
}

// ErrNoHabitat is returned when a Channel is built without a floor plan.
var ErrNoHabitat = errors.New("radio: nil habitat")

// Channel computes received signal strengths within a habitat.
//
// A Channel is not safe for concurrent use: the simulator is single-threaded
// (see simtime) and each concurrent component should own its stream.
type Channel struct {
	hab     *habitat.Habitat
	profile Profile
	rng     *stats.RNG
	// dropProb injects additional uniform packet loss (failure testing).
	dropProb float64
}

// NewChannel creates a channel over the habitat with the band's default
// profile and the given noise stream.
func NewChannel(hab *habitat.Habitat, band Band, rng *stats.RNG) (*Channel, error) {
	if hab == nil {
		return nil, ErrNoHabitat
	}
	return &Channel{hab: hab, profile: ProfileFor(band), rng: rng}, nil
}

// NewChannelWithProfile creates a channel with explicit parameters.
func NewChannelWithProfile(hab *habitat.Habitat, p Profile, rng *stats.RNG) (*Channel, error) {
	if hab == nil {
		return nil, ErrNoHabitat
	}
	return &Channel{hab: hab, profile: p, rng: rng}, nil
}

// SetDropProb injects extra uniform packet loss with the given probability,
// used by the failure-injection tests. Values are clamped to [0, 1].
func (c *Channel) SetDropProb(p float64) {
	c.dropProb = math.Max(0, math.Min(1, p))
}

// PathLossDB returns the deterministic path loss (no shadowing) between two
// points, including wall attenuation.
func (c *Channel) PathLossDB(tx, rx geometry.Point) float64 {
	d := tx.Dist(rx)
	if d < 0.1 {
		d = 0.1 // near-field clamp
	}
	pl := c.profile.RefLossDB + 10*c.profile.Exponent*math.Log10(d)
	pl += c.profile.WallFactor * c.hab.WallLossDB(tx, rx)
	return pl
}

// Transmission is the outcome of one simulated packet.
type Transmission struct {
	RSSI     float64 // dBm at the receiver
	Received bool    // above sensitivity and not dropped
}

// Transmit simulates one packet from tx to rx at the given transmit power.
// Shadowing is drawn fresh per call, modeling per-packet fading.
func (c *Channel) Transmit(tx, rx geometry.Point, txPowerDBm float64) Transmission {
	rssi := txPowerDBm - c.PathLossDB(tx, rx)
	if c.profile.ShadowSigmaDB > 0 && c.rng != nil {
		rssi += c.rng.Norm(0, c.profile.ShadowSigmaDB)
	}
	received := rssi >= c.profile.SensitivityDBm
	if received && c.dropProb > 0 && c.rng != nil && c.rng.Bool(c.dropProb) {
		received = false
	}
	return Transmission{RSSI: rssi, Received: received}
}

// DistanceFromRSSI inverts the free-space part of the path-loss model,
// returning the maximum-likelihood distance for an observed RSSI assuming no
// wall in between. This is the estimator localization uses; wall-shielded
// beacons never make it into the scan list, so the assumption holds within a
// room.
func DistanceFromRSSI(p Profile, rssiDBm, txPowerDBm float64) float64 {
	loss := txPowerDBm - rssiDBm
	exp := (loss - p.RefLossDB) / (10 * p.Exponent)
	return math.Pow(10, exp)
}

// IRLink models the badge's infrared transceiver: a directional cone that
// detects another badge only when the two are close, roughly facing each
// other, and in line of sight. The paper uses IR to tell that two bearers
// "are truly close and face each other, so that it is likely that their
// bearers may be having a conversation".
type IRLink struct {
	// MaxRange is the detection range in meters.
	MaxRange float64
	// HalfAngle is the half-angle of the emission/reception cone in radians.
	HalfAngle float64
	hab       *habitat.Habitat
}

// NewIRLink creates an IR link model over the habitat. Zero values get the
// badge defaults (2.5 m, 30 degrees), matching the paper's conversation
// distance of "at most 2.5 m".
func NewIRLink(hab *habitat.Habitat, maxRange, halfAngle float64) (*IRLink, error) {
	if hab == nil {
		return nil, ErrNoHabitat
	}
	if maxRange <= 0 {
		maxRange = 2.5
	}
	if halfAngle <= 0 {
		halfAngle = 30 * math.Pi / 180
	}
	return &IRLink{MaxRange: maxRange, HalfAngle: halfAngle, hab: hab}, nil
}

// Detect reports whether badge A (at posA, facing headingA radians) and
// badge B mutually detect each other over IR.
func (l *IRLink) Detect(posA geometry.Point, headingA float64, posB geometry.Point, headingB float64) bool {
	if posA.Dist(posB) > l.MaxRange {
		return false
	}
	if l.hab.WallLossDB(posA, posB) > 0 {
		return false
	}
	toB := posB.Sub(posA).Angle()
	toA := posA.Sub(posB).Angle()
	return angleDiff(headingA, toB) <= l.HalfAngle && angleDiff(headingB, toA) <= l.HalfAngle
}

// angleDiff returns the absolute smallest difference between two angles.
func angleDiff(a, b float64) float64 {
	d := math.Mod(a-b, 2*math.Pi)
	if d < -math.Pi {
		d += 2 * math.Pi
	}
	if d > math.Pi {
		d -= 2 * math.Pi
	}
	return math.Abs(d)
}
