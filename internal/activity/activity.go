// Package activity classifies accelerometer streams into locomotion states
// and produces the mobility metrics of the paper: per-day walking fractions
// (Fig. 4) and average daily acceleration, restricted to the periods the
// badge was actually worn.
package activity

import (
	"math"
	"time"

	"icares/internal/record"
	"icares/internal/simtime"
)

// Config parameterizes the walking classifier.
type Config struct {
	// Window is the classification window length.
	Window time.Duration
	// WalkSigma is the per-axis standard-deviation threshold (milli-g)
	// above which a window counts as walking.
	WalkSigma float64
	// MinSamples is the minimum accel records per window for a decision.
	MinSamples int
}

// DefaultConfig returns thresholds matched to the badge's burst sampling:
// one window spans one accel burst (10 s cadence), walking produces ~260
// milli-g per-axis sigma, stationary wear well under 100.
func DefaultConfig() Config {
	return Config{
		Window:     10 * time.Second,
		WalkSigma:  120,
		MinSamples: 3,
	}
}

// Sample is one classified window.
type Sample struct {
	At      time.Duration // window start
	Walking bool
	// RMS is the root-mean-square deviation of the acceleration magnitude
	// from 1 g, a proxy for overall movement intensity.
	RMS float64
}

// ClassifyCursor windows the time-ordered accel records of one badge and
// classifies each window, in one streaming pass holding only the current
// window's samples, so out-of-core sources never materialize the accel
// stream.
func ClassifyCursor(c *record.Cursor, cfg Config) []Sample {
	if cfg.Window <= 0 {
		cfg = DefaultConfig()
	}
	var out []Sample
	var xs, ys []float64
	var magSq float64
	var curStart time.Duration
	started := false
	flush := func() {
		if len(xs) < cfg.MinSamples {
			xs, ys = xs[:0], ys[:0]
			magSq = 0
			return
		}
		sigma := math.Max(sd(xs), sd(ys))
		out = append(out, Sample{
			At:      curStart,
			Walking: sigma >= cfg.WalkSigma,
			RMS:     math.Sqrt(magSq / float64(len(xs))),
		})
		xs, ys = xs[:0], ys[:0]
		magSq = 0
	}
	for c.Next() {
		r := c.Record()
		if r.Kind != record.KindAccel {
			continue
		}
		w := r.Local - (r.Local % cfg.Window)
		if !started || w != curStart {
			flush()
			curStart = w
			started = true
		}
		xs = append(xs, float64(r.AX))
		ys = append(ys, float64(r.AY))
		dz := float64(r.AZ) - 1000
		m := float64(r.AX)*float64(r.AX) + float64(r.AY)*float64(r.AY) + dz*dz
		magSq += m
	}
	flush()
	return out
}

func sd(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	var mean float64
	for _, x := range xs {
		mean += x
	}
	mean /= float64(len(xs))
	var sum float64
	for _, x := range xs {
		d := x - mean
		sum += d * d
	}
	return math.Sqrt(sum / float64(len(xs)))
}

// WalkingFraction returns the fraction of windows classified as walking.
func WalkingFraction(samples []Sample) float64 {
	if len(samples) == 0 {
		return 0
	}
	n := 0
	for _, s := range samples {
		if s.Walking {
			n++
		}
	}
	return float64(n) / float64(len(samples))
}

// FilterWorn keeps only samples whose window start falls inside the worn
// ranges — the paper's fractions are "of recorded time" while the badge was
// on the bearer's neck.
func FilterWorn(samples []Sample, worn record.RangeSet) []Sample {
	out := make([]Sample, 0, len(samples))
	for _, s := range samples {
		if worn.Contains(s.At) {
			out = append(out, s)
		}
	}
	return out
}

// ByDay groups samples by 1-based mission day.
func ByDay(samples []Sample) map[int][]Sample {
	out := make(map[int][]Sample)
	for _, s := range samples {
		d := simtime.DayOf(s.At)
		out[d] = append(out[d], s)
	}
	return out
}

// WalkingFractionByDay computes the per-day walking fraction of already
// classified (and typically worn-filtered) samples.
func WalkingFractionByDay(samples []Sample) map[int]float64 {
	out := make(map[int]float64)
	for day, ss := range ByDay(samples) {
		out[day] = WalkingFraction(ss)
	}
	return out
}

// MeanRMSByDay computes the per-day mean movement intensity of already
// classified samples.
func MeanRMSByDay(samples []Sample) map[int]float64 {
	sums := make(map[int]float64)
	counts := make(map[int]int)
	for _, s := range samples {
		d := simtime.DayOf(s.At)
		sums[d] += s.RMS
		counts[d]++
	}
	out := make(map[int]float64, len(sums))
	for d, sum := range sums {
		out[d] = sum / float64(counts[d])
	}
	return out
}
