// Package speech turns the badges' microphone feature frames into the
// paper's conversation metrics. It applies the published detection rule —
// "a 15 s interval is considered as speech if there are voice frequencies
// detected of at least 60 dB and for at least 20% of the interval", values
// that "correspond to a conversation at a distance of at most 2.5 m" — and
// provides speaker attribution by voice fundamental, gender classification,
// conversation segmentation, and the per-day speech fractions of Fig. 6.
package speech

import (
	"math"
	"time"

	"icares/internal/record"
	"icares/internal/simtime"
)

// Config holds the detection thresholds.
type Config struct {
	// MinLoudDB is the minimum voice-band level (paper: 60 dB).
	MinLoudDB float64
	// MinFraction is the minimum voiced fraction of the interval
	// (paper: 20%).
	MinFraction float64
}

// DefaultConfig returns the paper's experimentally determined boundary
// values.
func DefaultConfig() Config {
	return Config{MinLoudDB: 60, MinFraction: 0.2}
}

// Frame is one analyzed mic interval.
type Frame struct {
	At       time.Duration
	Speech   bool // passes the Config thresholds
	LoudDB   float64
	F0Hz     float64
	Fraction float64
}

// FramesCursor applies the detection rule to a badge's time-ordered mic
// records in one streaming pass, so out-of-core sources never materialize
// the mic stream.
func FramesCursor(c *record.Cursor, cfg Config) []Frame {
	var out []Frame
	for c.Next() {
		r := c.Record()
		if r.Kind != record.KindMic {
			continue
		}
		f := Frame{
			At:       r.Local,
			LoudDB:   float64(r.LoudnessDB),
			F0Hz:     float64(r.FundamentalHz),
			Fraction: float64(r.SpeechFraction),
		}
		f.Speech = r.SpeechDetected &&
			f.LoudDB >= cfg.MinLoudDB &&
			f.Fraction >= cfg.MinFraction
		out = append(out, f)
	}
	return out
}

// FilterWorn keeps frames recorded while the badge was worn.
func FilterWorn(frames []Frame, worn record.RangeSet) []Frame {
	out := make([]Frame, 0, len(frames))
	for _, f := range frames {
		if worn.Contains(f.At) {
			out = append(out, f)
		}
	}
	return out
}

// Fraction returns the fraction of frames with detected speech.
func Fraction(frames []Frame) float64 {
	if len(frames) == 0 {
		return 0
	}
	n := 0
	for _, f := range frames {
		if f.Speech {
			n++
		}
	}
	return float64(n) / float64(len(frames))
}

// FractionByDay computes the Fig. 6 series: per mission day, the fraction
// of recorded 15 s intervals with detected speech.
func FractionByDay(frames []Frame) map[int]float64 {
	byDay := make(map[int][]Frame)
	for _, f := range frames {
		d := simtime.DayOf(f.At)
		byDay[d] = append(byDay[d], f)
	}
	out := make(map[int]float64, len(byDay))
	for d, fs := range byDay {
		out[d] = Fraction(fs)
	}
	return out
}

// Gender is a voice-based speaker category; the paper's badges distinguish
// "between male and female speakers" by voice frequency.
type Gender int

// Gender values.
const (
	GenderUnknown Gender = iota
	GenderMale
	GenderFemale
)

// String returns the gender label.
func (g Gender) String() string {
	switch g {
	case GenderMale:
		return "male"
	case GenderFemale:
		return "female"
	default:
		return "unknown"
	}
}

// GenderBoundaryHz separates typical male (~85-155 Hz) from female
// (~165-255 Hz) fundamentals.
const GenderBoundaryHz = 165

// ClassifyGender classifies a voice fundamental.
func ClassifyGender(f0Hz float64) Gender {
	if f0Hz <= 0 {
		return GenderUnknown
	}
	if f0Hz >= GenderBoundaryHz {
		return GenderFemale
	}
	return GenderMale
}

// AttributeSpeaker maps a frame's fundamental to the closest known voice.
// profiles maps speaker name to typical F0. The second return is false when
// no profile is within tolerance (e.g. astronaut A's text-to-speech reader,
// whose synthetic fundamental matches nobody).
func AttributeSpeaker(f0Hz float64, profiles map[string]float64, toleranceHz float64) (string, bool) {
	if f0Hz <= 0 || len(profiles) == 0 {
		return "", false
	}
	best, bestDiff := "", math.Inf(1)
	for name, p := range profiles {
		// Break exact-distance ties by name: profiles is a map, and letting
		// iteration order decide made equidistant frames flip between
		// speakers run to run.
		if d := math.Abs(p - f0Hz); d < bestDiff || (d == bestDiff && name < best) {
			best, bestDiff = name, d
		}
	}
	if bestDiff > toleranceHz {
		return "", false
	}
	return best, true
}

// TalkingFrames counts the frames attributed to a given speaker — used for
// the Table I "talking" column: the fraction of a bearer's worn time spent
// talking is the fraction of their frames whose dominant voice is theirs.
func TalkingFrames(frames []Frame, profiles map[string]float64, toleranceHz float64, self string) (talking, total int) {
	for _, f := range frames {
		total++
		if !f.Speech {
			continue
		}
		if who, ok := AttributeSpeaker(f.F0Hz, profiles, toleranceHz); ok && who == self {
			talking++
		}
	}
	return talking, total
}

// Conversation is a maximal run of speech frames with small gaps.
type Conversation struct {
	From, To time.Duration
	Frames   int
	MeanLoud float64
}

// Conversations segments speech frames into conversations, bridging gaps of
// at most maxGap between speech frames.
func Conversations(frames []Frame, maxGap time.Duration) []Conversation {
	if maxGap <= 0 {
		maxGap = 45 * time.Second
	}
	var out []Conversation
	var cur *Conversation
	var loudSum float64
	for _, f := range frames {
		if !f.Speech {
			continue
		}
		if cur != nil && f.At-cur.To <= maxGap {
			cur.To = f.At
			cur.Frames++
			loudSum += f.LoudDB
			cur.MeanLoud = loudSum / float64(cur.Frames)
			continue
		}
		if cur != nil {
			out = append(out, *cur)
		}
		loudSum = f.LoudDB
		cur = &Conversation{From: f.At, To: f.At, Frames: 1, MeanLoud: f.LoudDB}
	}
	if cur != nil {
		out = append(out, *cur)
	}
	return out
}
