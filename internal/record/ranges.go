package record

import (
	"sort"
	"time"
)

// TimeRange is a half-open interval [From, To).
type TimeRange struct {
	From, To time.Duration
}

// Duration returns the range length (0 for inverted ranges).
func (r TimeRange) Duration() time.Duration {
	if r.To <= r.From {
		return 0
	}
	return r.To - r.From
}

// Contains reports whether t lies in [From, To).
func (r TimeRange) Contains(t time.Duration) bool {
	return t >= r.From && t < r.To
}

// Intersect returns the overlap of two ranges (possibly empty).
func (r TimeRange) Intersect(o TimeRange) TimeRange {
	out := TimeRange{From: maxDur(r.From, o.From), To: minDur(r.To, o.To)}
	if out.To < out.From {
		out.To = out.From
	}
	return out
}

func maxDur(a, b time.Duration) time.Duration {
	if a > b {
		return a
	}
	return b
}

func minDur(a, b time.Duration) time.Duration {
	if a < b {
		return a
	}
	return b
}

// RangeSet is a set of time ranges. Normalize sorts and merges overlaps.
type RangeSet []TimeRange

// Normalize returns a sorted, overlap-free copy of the set.
func (s RangeSet) Normalize() RangeSet {
	if len(s) == 0 {
		return nil
	}
	out := make(RangeSet, 0, len(s))
	for _, r := range s {
		if r.Duration() > 0 {
			out = append(out, r)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].From < out[j].From })
	merged := out[:0]
	for _, r := range out {
		if n := len(merged); n > 0 && r.From <= merged[n-1].To {
			if r.To > merged[n-1].To {
				merged[n-1].To = r.To
			}
			continue
		}
		merged = append(merged, r)
	}
	return merged
}

// Total returns the summed duration of the normalized set.
func (s RangeSet) Total() time.Duration {
	var t time.Duration
	for _, r := range s.Normalize() {
		t += r.Duration()
	}
	return t
}

// Contains reports whether t lies in any range of the set. It agrees with
// Normalize/Clip/Total on un-normalized input: inverted or empty ranges
// (To <= From), which Normalize drops, contain nothing, and duplicates and
// overlaps change nothing. The check is allocation-free so per-sample
// callers (speech/activity worn filters) stay cheap.
func (s RangeSet) Contains(t time.Duration) bool {
	for _, r := range s {
		if r.To > r.From && r.Contains(t) {
			return true
		}
	}
	return false
}

// Clip returns the parts of the set inside the window.
func (s RangeSet) Clip(window TimeRange) RangeSet {
	out := make(RangeSet, 0, len(s))
	for _, r := range s.Normalize() {
		if iv := r.Intersect(window); iv.Duration() > 0 {
			out = append(out, iv)
		}
	}
	return out
}

// Intersect returns the intersection of two sets.
func (s RangeSet) Intersect(o RangeSet) RangeSet {
	a := s.Normalize()
	b := o.Normalize()
	var out RangeSet
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		iv := a[i].Intersect(b[j])
		if iv.Duration() > 0 {
			out = append(out, iv)
		}
		if a[i].To < b[j].To {
			i++
		} else {
			j++
		}
	}
	return out
}

// WornRangesCursor extracts the periods a badge was worn from its KindWear
// transition records in a single streaming scan, so out-of-core sources
// never materialize the stream. An interval still open at the end is
// closed at horizon (pass the last record timestamp or the mission end).
func WornRangesCursor(c *Cursor, horizon time.Duration) RangeSet {
	var out RangeSet
	var open bool
	var start time.Duration
	for c.Next() {
		r := c.Record()
		if r.Kind != KindWear {
			continue
		}
		switch {
		case r.Worn && !open:
			open = true
			start = r.Local
		case !r.Worn && open:
			open = false
			out = append(out, TimeRange{From: start, To: r.Local})
		}
	}
	if open && horizon > start {
		out = append(out, TimeRange{From: start, To: horizon})
	}
	return out.Normalize()
}
