package store

import (
	"math"
	"time"

	"icares/internal/record"
	"icares/internal/timesync"
)

// rectifiedView adapts a badge's local-clock read view onto reference
// time: every record comes out with Local rectified by the badge's
// correction, and window queries are answered by inverting the correction
// over the underlying local-time view. It is the one rectification path —
// stored data, resident or archived, is never rewritten.
type rectifiedView struct {
	v View
	c timesync.Correction
}

var _ View = (*rectifiedView)(nil)

// RectifyView wraps v so its records read in reference time. A degenerate
// correction (1+Skew <= 0, under which ToReference reverses the time axis)
// cannot be window-inverted monotonically, so that case materializes the
// mapped records into an in-memory series, which re-sorts them stably;
// realistic clock skews are parts per million.
func RectifyView(v View, c timesync.Correction) View {
	if 1+c.Skew <= 0 {
		s := new(Series)
		it := v.Iter(minDuration, maxDuration, 0)
		for it.Next() {
			r := it.Record()
			r.Local = c.ToReference(r.Local)
			s.Append(r)
		}
		return s
	}
	return &rectifiedView{v: v, c: c}
}

// invertLower returns the smallest local timestamp whose rectified image
// reaches ref — the exact preimage boundary of a half-open reference-time
// window. ToReference's float rounding makes an algebraic inverse inexact,
// so this is a plain binary search over the timestamp domain (~62 probes,
// each one float divide); monotonicity makes it land exactly:
// local >= invertLower(ref) iff ToReference(local) >= ref.
func (rv *rectifiedView) invertLower(ref time.Duration) time.Duration {
	lo, hi := int64(math.MinInt64/2), int64(math.MaxInt64/2)
	for lo < hi {
		mid := lo + (hi-lo)/2
		if rv.c.ToReference(time.Duration(mid)) >= ref {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return time.Duration(lo)
}

// rectifyBatch is the cursor batch size: large enough to amortize the pull
// indirection, small enough to stay cache-resident.
const rectifyBatch = 256

func (rv *rectifiedView) Iter(from, to time.Duration, k record.Kind) record.Cursor {
	inner := rv.v.Iter(rv.invertLower(from), rv.invertLower(to), k)
	var buf, pending []record.Record
	return record.PullCursor(func() []record.Record {
		// Inner batches are mapped rectifyBatch records at a time into one
		// reused buffer — the documented Cursor contract (records are read
		// by value; NextBatch slices are copied before the cursor
		// advances). pending aliases the inner batch, which stays valid
		// until the inner cursor advances, after pending is drained.
		if len(pending) == 0 {
			if pending = inner.NextBatch(); pending == nil {
				return nil
			}
		}
		if buf == nil {
			buf = make([]record.Record, rectifyBatch)
		}
		out := buf[:copy(buf, pending)]
		pending = pending[len(out):]
		for i := range out {
			out[i].Local = rv.c.ToReference(out[i].Local)
		}
		return out
	})
}

func (rv *rectifiedView) Last() (record.Record, bool) {
	r, ok := rv.v.Last()
	if ok {
		r.Local = rv.c.ToReference(r.Local)
	}
	return r, ok
}
