package sociometry

import (
	"time"

	"icares/internal/record"
	"icares/internal/simtime"
	"icares/internal/store"
)

// This file is the pipeline's incremental fold machinery: how records that
// arrive after the first analysis are folded into the memoized derivations
// without recomputing the mission.
//
// The unit of invalidation is the fold window — one (astronaut, day). An
// appended record marks exactly its (badge, day) stale; applying the marks
// drops that window's partials plus the astronaut-level caches that fold
// them, and nothing else. A record landing on day 9 leaves days 2..8 of the
// same astronaut — and every other astronaut — warm.
//
// Marks are applied lazily, at the start of the next top-level analysis
// (the inflight 0→1 transition), never while analyses are running: dropping
// caches under a running analysis could hand it a mix of old and new
// windows. Analyses that overlap an append therefore see the pre-append
// state; once appends quiesce, the next analysis folds everything pending
// in and is exact. That is the streaming contract: eventually-exact queries
// with window-scoped recomputation.

// staleKey marks one badge's data on one mission day as dirty.
type staleKey struct {
	id  store.BadgeID
	day int
}

// Follow subscribes the pipeline to its source's append notifications (a
// source with a Subscribe method, such as store.Dataset) so that records
// arriving after analyses ran are folded in incrementally: an append marks
// only its (badge, day) window stale, and the next analysis recomputes just
// the affected windows and the astronaut-level results folding them. While
// following, the pipeline memoizes window partials. The returned stop
// function cancels the subscription; for a source that cannot append
// (a segment archive) Follow does nothing.
func (p *Pipeline) Follow() (stop func()) {
	sub, ok := p.src.Data.(interface {
		Subscribe(func(store.BadgeID, record.Record, uint64)) func()
	})
	if !ok {
		return func() {}
	}
	p.following.Store(true)
	return sub.Subscribe(func(id store.BadgeID, r record.Record, _ uint64) {
		p.markStale(id, r.Local)
	})
}

// markStale records that a badge received a record at the given local
// timestamp. The window it lands in is the reference-time day, so the
// timestamp goes through the badge's correction first. Cheap and
// lock-scoped: safe to call from the dataset's append path.
func (p *Pipeline) markStale(id store.BadgeID, local time.Duration) {
	if !p.rectified.Load() {
		// Corrections are not final, so no derivation has read the source
		// yet: every read starts after RectifyClocks, and will see this
		// record, which was stored before the notification.
		return
	}
	at := local
	if c, ok := p.corrections[id]; ok {
		at = c.ToReference(local)
	}
	day := simtime.DayOf(at)
	if day < p.src.FirstDay || day > p.src.LastDay {
		// Outside the analysis range: no derivation reads it.
		return
	}
	p.staleMu.Lock()
	if p.stale == nil {
		p.stale = make(map[staleKey]struct{})
	}
	p.stale[staleKey{id, day}] = struct{}{}
	p.staleMu.Unlock()
	p.staleFlag.Store(true)
}

// beginAnalysis enters an analysis, folding pending stale marks in first if
// this is the outermost entry. Nested and concurrent analyses never apply
// marks mid-flight — they would tear caches out from under running work.
func (p *Pipeline) beginAnalysis() {
	if p.inflight.Add(1) == 1 && p.staleFlag.Load() {
		p.applyStale()
	}
}

// endAnalysis leaves an analysis.
func (p *Pipeline) endAnalysis() {
	p.inflight.Add(-1)
}

// applyStale drains the stale set and drops exactly the caches it touches:
// first every dirty window partial, then the astronaut-level caches folding
// them (in that order, so a recompute never mixes fresh and stale windows),
// then the crew-level presence fold.
func (p *Pipeline) applyStale() {
	p.foldMu.Lock()
	defer p.foldMu.Unlock()

	p.staleMu.Lock()
	dirty := p.stale
	p.stale = nil
	p.staleFlag.Store(false)
	p.staleMu.Unlock()
	if len(dirty) == 0 {
		return
	}

	// A badge maps to wearers through the assignment, which may alias (two
	// names nominally assigned one badge), so scan all names per dirty day
	// rather than trusting the first-wins wearers inverse.
	affected := make(map[string]struct{})
	for k := range dirty {
		for _, name := range p.src.Names {
			if p.src.BadgeFor(name, k.day) != k.id {
				continue
			}
			w := wkey{name, k.day}
			p.winTrack.drop(w)
			p.winFrames.drop(w)
			p.winActivity.drop(w)
			p.winContacts.drop(w)
			p.winActive.drop(w)
			affected[name] = struct{}{}
		}
	}
	if len(affected) == 0 {
		return
	}
	for name := range affected {
		p.wornCache.drop(name)
		p.trackCache.drop(name)
		p.intervalCache.drop(name)
		p.framesCache.drop(name)
		p.activityCache.drop(name)
	}
	p.presenceCache.reset()
}
