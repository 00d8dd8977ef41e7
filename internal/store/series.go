package store

import (
	"cmp"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"icares/internal/record"
)

// Series is the time-ordered record log of one badge: recs, sorted by
// Local, plus pending, the out-of-order appends not yet merged into it. A
// badge writes its SD card almost in time order (the simulator's
// out-of-order appends land at most a few records back; live ingest
// arrives in order), so an append no earlier than recs' last record
// extends recs, and anything earlier waits in pending until the next read
// stable-sorts it and merges it in. Per-kind sub-series are indexed lazily
// so Kind/RangeKind answer from a cached, time-ordered view instead of
// scanning every record.
//
// Concurrency: any number of readers (All, Range, Kind, RangeKind, Last,
// Len) may run concurrently, and Append may interleave with them — once a
// view has escaped, merges build a new backing array, so previously
// returned views stay valid snapshots. Stored records are never rewritten:
// clock rectification is a read-time mapping (RectifyView).
type Series struct {
	mu sync.RWMutex

	// onAppend, when set (by Dataset.Series), publishes each append to the
	// dataset's subscribers. Called outside the series lock.
	onAppend func(record.Record)

	// recs is sorted by Local and stable in append order. pending holds,
	// in arrival order, appends that were earlier than recs' last record
	// when they arrived. Each pending record is strictly earlier than every
	// record appended to recs after it, so stable-sorting pending and
	// merging it behind recs' equal timestamps yields exactly the stable
	// sort of the append sequence.
	recs    []record.Record
	pending []record.Record

	// kinds caches per-kind, time-ordered sub-views of the merged series,
	// built lazily per requested kind and dropped on any write.
	kinds map[record.Kind][]record.Record

	// exposed reports whether a view aliasing recs' backing array has been
	// returned to a caller. While false, a merge may reuse the array's
	// spare capacity in place; once true, it must copy recs first so
	// outstanding views stay valid snapshots. Atomic because the read fast
	// path flags it under RLock.
	exposed atomic.Bool

	// bytes is O(1) size accounting via record.EncodedSize; unsized counts
	// records whose size could not be computed (unknown kinds the encoder
	// would also reject), so the undercount is observable, not silent.
	bytes   int64
	unsized int
}

// Append adds a record to the series and publishes the append to the
// owning dataset's subscribers.
func (s *Series) Append(r record.Record) {
	s.mu.Lock()
	if sz, err := record.EncodedSize(r); err != nil {
		s.unsized++
	} else {
		s.bytes += int64(sz)
	}
	s.kinds = nil
	if n := len(s.recs); n == 0 || r.Local >= s.recs[n-1].Local {
		s.recs = append(s.recs, r)
	} else {
		s.pending = append(s.pending, r)
	}
	notify := s.onAppend
	s.mu.Unlock()
	if notify != nil {
		notify(r)
	}
}

// mergeLocked folds pending into recs and returns recs. Ties keep append
// order: recs' records stay ahead of equal timestamps from pending. The
// merge runs in recs' spare capacity when no view of it has escaped;
// otherwise it copies recs into a fresh array first.
func (s *Series) mergeLocked() []record.Record {
	if len(s.pending) == 0 {
		return s.recs
	}
	slices.SortStableFunc(s.pending, func(a, b record.Record) int { return cmp.Compare(a.Local, b.Local) })
	if n := len(s.recs) + len(s.pending); s.exposed.Load() || cap(s.recs) < n {
		s.recs = append(make([]record.Record, 0, n), s.recs...)
		s.exposed.Store(false)
	}
	s.recs = mergeInto(s.recs, s.pending)
	s.pending = nil
	return s.recs
}

// mergeInto merges sorted run b into a's backing array in place (a must
// have the capacity; callers guarantee no view of a has escaped). It works
// back to front: instead of comparing record by record, it binary-searches
// for the next crossover and moves the whole contiguous chunk, so a long
// sorted run plus a few stragglers merges at memmove speed. Ties keep a's
// records ahead of equal timestamps from b.
func mergeInto(a, b []record.Record) []record.Record {
	out := a[: len(a)+len(b) : len(a)+len(b)]
	i, j, w := len(a)-1, len(b)-1, len(out)-1
	for i >= 0 && j >= 0 {
		if a[i].Local > b[j].Local {
			// The trailing a-chunk strictly above b's head moves right.
			k := sort.Search(i+1, func(n int) bool { return a[n].Local > b[j].Local })
			copy(out[w-(i-k):w+1], a[k:i+1])
			w -= i - k + 1
			i = k - 1
		} else {
			// The trailing b-chunk at or above a's head lands next (ties
			// from b stay behind a's equal records).
			k := sort.Search(j+1, func(n int) bool { return b[n].Local >= a[i].Local })
			copy(out[w-(j-k):w+1], b[k:j+1])
			w -= j - k + 1
			j = k - 1
		}
	}
	copy(out[:j+1], b[:j+1]) // leftovers of a are already in place
	return out
}

// sorted returns the time-ordered record slice, merging pending appends
// first if there are any.
func (s *Series) sorted() []record.Record {
	s.mu.RLock()
	if len(s.pending) == 0 {
		recs := s.recs
		if recs != nil {
			s.exposed.Store(true)
		}
		s.mu.RUnlock()
		return recs
	}
	s.mu.RUnlock()
	s.mu.Lock()
	defer s.mu.Unlock()
	recs := s.mergeLocked()
	s.exposed.Store(true)
	return recs
}

// Len returns the number of records.
func (s *Series) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.recs) + len(s.pending)
}

// EncodedBytes returns the total encoded size of the series, accounted in
// O(1) per append via record.EncodedSize.
func (s *Series) EncodedBytes() int64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.bytes
}

// Unsized returns how many appended records could not be size-accounted
// (unknown kinds the encoder would reject too). A non-zero count means
// EncodedBytes is a lower bound rather than exact.
func (s *Series) Unsized() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.unsized
}

// All returns the full, time-ordered record slice. The returned slice is a
// read-only view; callers must not modify it.
func (s *Series) All() []record.Record {
	return s.sorted()
}

// Range returns the records with timestamps in [from, to) as a read-only,
// zero-copy view. An inverted window (from >= to) is empty, not a panic:
// the two binary searches land with lo > hi when from > to, so the bounds
// are clamped before slicing.
func (s *Series) Range(from, to time.Duration) []record.Record {
	recs := s.sorted()
	lo := sort.Search(len(recs), func(i int) bool { return recs[i].Local >= from })
	hi := sort.Search(len(recs), func(i int) bool { return recs[i].Local >= to })
	if hi < lo {
		hi = lo
	}
	return recs[lo:hi]
}

// Kind returns all records of one kind, in time order, as a read-only view
// of the per-kind index (built on first use, cached until the next write).
func (s *Series) Kind(k record.Kind) []record.Record {
	s.mu.RLock()
	if len(s.pending) == 0 {
		if kv, ok := s.kinds[k]; ok {
			s.mu.RUnlock()
			return kv
		}
	}
	s.mu.RUnlock()
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.kindLocked(k)
}

// kindLocked returns the cached per-kind view, building it with one pass
// over the materialized series on a miss.
func (s *Series) kindLocked(k record.Kind) []record.Record {
	if kv, ok := s.kinds[k]; ok {
		return kv
	}
	var out []record.Record
	for _, r := range s.mergeLocked() {
		if r.Kind == k {
			out = append(out, r)
		}
	}
	if s.kinds == nil {
		s.kinds = make(map[record.Kind][]record.Record)
	}
	s.kinds[k] = out
	return out
}

// RangeKind returns records of one kind within [from, to) as a read-only,
// zero-copy view: two binary searches on the per-kind index instead of a
// scan over every record. Like Range, an inverted window is clamped to an
// empty view.
func (s *Series) RangeKind(from, to time.Duration, k record.Kind) []record.Record {
	kv := s.Kind(k)
	lo := sort.Search(len(kv), func(i int) bool { return kv[i].Local >= from })
	hi := sort.Search(len(kv), func(i int) bool { return kv[i].Local >= to })
	if hi < lo {
		hi = lo
	}
	return kv[lo:hi]
}

// Iter returns a streaming cursor over the records in [from, to),
// optionally restricted to one kind (k == 0 iterates every kind) — the
// Series side of the View.Iter contract. The cursor wraps the zero-copy
// Range/RangeKind view, so building and stepping it allocates nothing
// beyond what those queries already cache.
func (s *Series) Iter(from, to time.Duration, k record.Kind) record.Cursor {
	if k == 0 {
		return record.NewCursor(s.Range(from, to))
	}
	return record.NewCursor(s.RangeKind(from, to, k))
}

// Last returns the latest record, if any. It never needs a merge: recs'
// last record is later than every pending one.
func (s *Series) Last() (record.Record, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if len(s.recs) == 0 {
		return record.Record{}, false
	}
	return s.recs[len(s.recs)-1], true
}
