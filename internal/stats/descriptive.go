package stats

import (
	"errors"
	"math"
	"sort"
)

// ErrEmpty is returned by functions that require at least one sample.
var ErrEmpty = errors.New("stats: empty sample")

// Mean returns the arithmetic mean of xs, or 0 for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// Variance returns the population variance of xs, or 0 for fewer than two
// samples.
func Variance(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	m := Mean(xs)
	var sum float64
	for _, x := range xs {
		d := x - m
		sum += d * d
	}
	return sum / float64(len(xs))
}

// StdDev returns the population standard deviation of xs.
func StdDev(xs []float64) float64 {
	return math.Sqrt(Variance(xs))
}

// Min returns the minimum of xs. It returns ErrEmpty for an empty slice.
func Min(xs []float64) (float64, error) {
	if len(xs) == 0 {
		return 0, ErrEmpty
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x < m {
			m = x
		}
	}
	return m, nil
}

// Max returns the maximum of xs. It returns ErrEmpty for an empty slice.
func Max(xs []float64) (float64, error) {
	if len(xs) == 0 {
		return 0, ErrEmpty
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x > m {
			m = x
		}
	}
	return m, nil
}

// Quantile returns the q-quantile (0 <= q <= 1) of xs using linear
// interpolation between order statistics. It returns ErrEmpty for an empty
// slice.
func Quantile(xs []float64, q float64) (float64, error) {
	if len(xs) == 0 {
		return 0, ErrEmpty
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	sorted := make([]float64, len(xs))
	copy(sorted, xs)
	sort.Float64s(sorted)
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return sorted[lo], nil
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac, nil
}

// Median returns the median of xs. It returns ErrEmpty for an empty slice.
func Median(xs []float64) (float64, error) {
	return Quantile(xs, 0.5)
}

// Summary holds descriptive statistics for a sample.
type Summary struct {
	N      int
	Mean   float64
	StdDev float64
	Min    float64
	Median float64
	Max    float64
}

// Summarize computes a Summary of xs. A zero Summary is returned for an
// empty sample.
func Summarize(xs []float64) Summary {
	if len(xs) == 0 {
		return Summary{}
	}
	mn, _ := Min(xs)
	mx, _ := Max(xs)
	md, _ := Median(xs)
	return Summary{
		N:      len(xs),
		Mean:   Mean(xs),
		StdDev: StdDev(xs),
		Min:    mn,
		Median: md,
		Max:    mx,
	}
}

// Normalize scales xs so its maximum maps to 1, as used for Table I of the
// paper ("average and normalized parameters"). Values are divided by the
// maximum; a zero or empty slice is returned unchanged. NaN inputs are
// preserved (the paper reports "n/a" for astronaut C's company score).
func Normalize(xs []float64) []float64 {
	out := make([]float64, len(xs))
	var mx float64
	for _, x := range xs {
		if !math.IsNaN(x) && x > mx {
			mx = x
		}
	}
	for i, x := range xs {
		if math.IsNaN(x) || mx == 0 {
			out[i] = x
			continue
		}
		out[i] = x / mx
	}
	return out
}
