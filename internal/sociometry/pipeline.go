// Package sociometry is the paper's analysis pipeline — the core offline
// backend that turns raw badge datasets into the published results: room
// transition matrices (Fig. 2), position heatmaps (Fig. 3), walking
// fractions (Fig. 4), day timelines with meeting dynamics (Fig. 5), speech
// fractions (Fig. 6), and the centrality table (Table I), plus the wear and
// stay statistics quoted in the text.
//
// The pipeline composes the lower layers: timesync rectification first
// (cross-badge analyses are meaningless on skewed clocks), then per-
// astronaut attribution of badge records via the assignment metadata, then
// localization, speech, activity, and proximity analyses.
//
// # One source, read-time rectification
//
// A pipeline reads one store.Viewer — a resident store.Dataset or a
// segment archive alike — whose records stay on the badges' local clocks.
// Each badge's clock correction is either supplied at construction
// (WithCorrections) or fitted once from the badge's sync records
// (FitCorrections), and every read goes through a view that maps
// timestamps to reference time (store.RectifyView). Nothing is rewritten in
// place, so any number of pipelines — e.g. the true and nominal assignment
// views over one simulated mission — share a source freely.
//
// # Incremental operators
//
// Every derivation is folded from per-(astronaut, day) window partials —
// the day's raw localization track, raw mic frames, raw activity windows,
// IR contacts, and daytime recording coverage — assembled into
// astronaut-level results. The batch path
// is simply "fold everything": deriving over a complete dataset computes
// each window once and concatenates, byte-identical to deriving from the
// full record stream (the localization and activity windows are aligned to
// absolute time and divide the day, so no analysis window ever spans a day
// boundary; NewPipeline rejects a localization window that does not).
//
// The same structure serves live data: Follow subscribes the pipeline to
// its source's append notifications, and each new record marks only its
// (badge, day) window stale — the day of its rectified timestamp. The next
// analysis drops exactly the affected windows and the astronaut-level
// caches folding them — everything else stays warm. Window partials are
// memoized only while following, since nothing else can invalidate one. See
// fold.go for the invalidation machinery and DESIGN.md for the model.
//
// # Concurrency
//
// A Pipeline is safe for concurrent use. Every derivation is memoized with
// compute-once-per-key semantics: concurrent callers of the same derivation
// block on a single in-flight computation instead of repeating it, and the
// correction fit runs once per pipeline.
//
// Crew-level analyses (Report, TableI, Transitions, Pairwise, Wear,
// Timeline, ...) fan their per-astronaut work out across a bounded worker
// pool sized by Parallelism (default runtime.NumCPU) while keeping output
// deterministic: results are computed into per-astronaut slots and folded
// in crew order, so equal seeds give byte-identical reports at any width.
//
// Queries racing a live fold (records arriving via Follow) are safe and see
// stale-but-consistent memoized values; once appends quiesce, the next
// analysis folds everything pending in and is exact. Analysis parameters
// are fixed at construction, so no configuration can race an analysis.
package sociometry

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"icares/internal/activity"
	"icares/internal/habitat"
	"icares/internal/localization"
	"icares/internal/proximity"
	"icares/internal/record"
	"icares/internal/simtime"
	"icares/internal/speech"
	"icares/internal/store"
	"icares/internal/telemetry"
	"icares/internal/timesync"
)

// Source describes a mission dataset to analyze. Data is the one record
// source — a resident store.Dataset, a store.SegmentStore reopened from an
// archive, or any other Viewer — holding every badge's records on that
// badge's local clock. The pipeline never rewrites it: every read goes
// through a view that maps timestamps to reference time (see RectifyClocks),
// so any number of pipelines can share one source.
type Source struct {
	// Habitat is the floor plan the data was collected in.
	Habitat *habitat.Habitat
	// Data holds the per-badge record series, on local clocks.
	Data store.Viewer
	// Names lists the astronauts.
	Names []string
	// BadgeFor maps (astronaut, mission day) to the badge they wore that
	// day; 0 means none. Using the nominal deployment mapping here
	// reproduces the paper's swap/reuse confusion; using the corrected
	// mapping reproduces the fixed analyses. Must be pure: the pipeline
	// memoizes its day-wise inverse.
	BadgeFor func(name string, day int) store.BadgeID
	// VoiceProfiles maps astronaut to typical voice fundamental (Hz), for
	// speaker attribution.
	VoiceProfiles map[string]float64
	// FirstDay and LastDay bound the data days (ICAres-1: 2..14).
	FirstDay, LastDay int
}

// validate checks the source for completeness.
func (s Source) validate() error {
	switch {
	case s.Habitat == nil:
		return errors.New("sociometry: nil habitat")
	case s.Data == nil:
		return errors.New("sociometry: nil record source")
	case len(s.Names) == 0:
		return errors.New("sociometry: no astronauts")
	case s.BadgeFor == nil:
		return errors.New("sociometry: nil badge assignment")
	case s.FirstDay < 1 || s.LastDay < s.FirstDay:
		return fmt.Errorf("sociometry: bad day range %d..%d", s.FirstDay, s.LastDay)
	}
	return nil
}

// wkey addresses one fold window: one astronaut's data on one mission day.
type wkey struct {
	name string
	day  int
}

// Pipeline is a configured analysis over one source. Its parameters are
// fixed at construction (see the With* options). It is safe for concurrent
// use; see the package comment for the memoization and determinism
// guarantees.
type Pipeline struct {
	src Source

	// Analysis parameters, fixed at construction.
	speechCfg speech.Config // Fig. 6 thresholds (WithSpeechConfig)
	locWindow time.Duration // localization scan window; divides the day (WithLocWindow)
	minDwell  time.Duration // Fig. 2 dwell filter; 0 disables (WithMinDwell)

	// Parallelism bounds the worker pool of crew-level analyses:
	// 0 means runtime.NumCPU(), 1 forces sequential execution.
	Parallelism int

	// corrections maps each badge to its clock correction; a badge absent
	// from the map keeps its local clock. Supplied at construction
	// (WithCorrections) or fitted by the first RectifyClocks; rectified
	// flips once the map is final, and the map is read-only from then on.
	rectOnce    sync.Once
	corrections map[store.BadgeID]timesync.Correction
	rectified   atomic.Bool

	// locator is built once per pipeline and shared by every window
	// computation (it is immutable after construction).
	locOnce sync.Once
	locator *localization.Locator
	locErr  error

	// Window partials: the per-(astronaut, day) fold state each derivation
	// is assembled from. Raw means before the worn filter — worn ranges are
	// an astronaut-level, cross-day scan, so the filter applies at the
	// astronaut level. Each partial folds straight off a window cursor
	// (windowIter), and they are memoized only while the pipeline follows
	// appends (Follow): without appends no window is ever invalidated, so
	// each partial is computed exactly once for the astronaut-level cache
	// folding it, and holding it would only double resident memory.
	winTrack    memo[wkey, []localization.Fix]  // raw localization fixes (loc window)
	winFrames   memo[wkey, []speech.Frame]      // raw mic frames (speech config)
	winActivity memo[wkey, []activity.Sample]   // raw classified activity windows
	winContacts memo[wkey, []proximity.Contact] // attributed IR contacts
	winActive   memo[wkey, time.Duration]       // daytime recording coverage (Wear)

	// Memoized per-astronaut derivations, folded from the window partials:
	//
	//	worn ── frames
	//	  └─ track ── intervals ── presence
	//	  └─ activity (walking windows)
	wornCache     memo[string, record.RangeSet]
	trackCache    memo[string, []localization.Fix]
	intervalCache memo[string, []localization.Interval]
	framesCache   memo[string, []speech.Frame]
	activityCache memo[string, []activity.Sample]
	presenceCache memo[struct{}, proximity.Presence]
	// wearerCache memoizes the per-day BadgeID→astronaut inverse of
	// BadgeFor, so IR attribution is O(1) per record instead of O(crew).
	wearerCache memo[int, map[store.BadgeID]string]

	// Streaming fold state (fold.go): append notifications mark (badge,
	// day) windows stale; the next top-level analysis applies the marks.
	following atomic.Bool
	foldMu    sync.Mutex
	staleMu   sync.Mutex
	stale     map[staleKey]struct{}
	staleFlag atomic.Bool
	inflight  atomic.Int64

	// tel optionally receives per-stage compute timings (see SetTelemetry).
	tel *telemetry.Registry
}

// Option configures a pipeline at construction.
type Option func(*Pipeline)

// WithCorrections supplies the per-badge clock corrections instead of
// fitting them from the source's sync records. Badges missing from the map
// keep their local clocks, so WithCorrections(nil) is the timesync
// ablation: every cross-badge analysis runs on skewed local clocks. A live
// pipeline uses it to read with corrections fitted elsewhere (FitCorrections
// over the complete SD-card data), so its results do not depend on which
// sync records had arrived by its first analysis. The map is copied.
func WithCorrections(cors map[store.BadgeID]timesync.Correction) Option {
	return func(p *Pipeline) {
		p.corrections = make(map[store.BadgeID]timesync.Correction, len(cors))
		for id, c := range cors {
			p.corrections[id] = c
		}
	}
}

// WithMinDwell sets the Fig. 2 dwell filter (default 10 s; 0 disables).
func WithMinDwell(d time.Duration) Option {
	return func(p *Pipeline) { p.minDwell = d }
}

// WithLocWindow sets the localization scan window (default 15 s). Windows
// are aligned to absolute time and folded per day, so the window must be
// positive and divide 24 h; NewPipeline rejects any other value.
func WithLocWindow(w time.Duration) Option {
	return func(p *Pipeline) { p.locWindow = w }
}

// WithSpeechConfig sets the Fig. 6 thresholds (default: the paper's
// 60 dB / 20%).
func WithSpeechConfig(cfg speech.Config) Option {
	return func(p *Pipeline) { p.speechCfg = cfg }
}

// NewPipeline validates the source and builds a pipeline with the paper's
// default parameters, overridden by opts.
func NewPipeline(src Source, opts ...Option) (*Pipeline, error) {
	if err := src.validate(); err != nil {
		return nil, err
	}
	p := &Pipeline{
		src:       src,
		speechCfg: speech.DefaultConfig(),
		locWindow: 15 * time.Second,
		minDwell:  localization.DefaultMinDwell,
	}
	for _, opt := range opts {
		opt(p)
	}
	if p.locWindow <= 0 || (24*time.Hour)%p.locWindow != 0 {
		return nil, fmt.Errorf("sociometry: localization window %v does not divide the day", p.locWindow)
	}
	return p, nil
}

// Source returns the pipeline's source.
func (p *Pipeline) Source() Source { return p.src }

// SetTelemetry mirrors each memoized derivation's compute time (wall
// clock, seconds) into reg's "sociometry_stage_seconds" histogram,
// labelled by stage (worn, track, intervals, frames, activity) — the
// per-stage profile of the analysis engine. Because derivations are
// compute-once, each (stage, astronaut) contributes one observation per
// cache fill; invalidation and recomputation contribute again. Set it
// before the first analysis.
func (p *Pipeline) SetTelemetry(reg *telemetry.Registry) { p.tel = reg }

// observeStage records one stage computation's wall time.
func (p *Pipeline) observeStage(stage string, start time.Time) {
	if p.tel == nil {
		return
	}
	p.tel.Histogram("sociometry_stage_seconds", telemetry.DefBuckets,
		telemetry.L("stage", stage)).Observe(time.Since(start).Seconds())
}

// Horizon returns the end of the data period.
func (p *Pipeline) Horizon() time.Duration {
	return simtime.StartOfDay(p.src.LastDay + 1)
}

// RectifyClocks returns the per-badge clock corrections every read goes
// through: the ones supplied with WithCorrections, or else the ones
// FitCorrections estimates from the source's sync records on the first
// call. Every analysis calls it before reading, so cross-badge analyses
// always see reference time. Corrections are frozen once fitted: sync
// exchanges arriving later do not re-fit. The source itself is never
// rewritten. Concurrent callers block until the one fit completes.
func (p *Pipeline) RectifyClocks() (map[store.BadgeID]timesync.Correction, error) {
	p.rectOnce.Do(func() {
		if p.corrections == nil {
			p.corrections = FitCorrections(p.src.Data)
		}
		p.rectified.Store(true)
	})
	return p.corrections, nil
}

// FitCorrections estimates each badge's clock correction from one
// streaming pass over its sync records. Badges without enough sync
// observations get the identity correction: they keep their local clocks,
// and their records remain usable for per-badge analyses.
func FitCorrections(data store.Viewer) map[store.BadgeID]timesync.Correction {
	out := make(map[store.BadgeID]timesync.Correction)
	for _, id := range data.Badges() {
		v, ok := data.View(id)
		if !ok {
			continue
		}
		var est timesync.Estimator
		it := v.Iter(minTime, maxTime, record.KindSync)
		est.ObserveCursor(&it)
		c, err := est.Fit()
		if err != nil {
			c = timesync.Identity()
		}
		out[id] = c
	}
	return out
}

// minTime/maxTime span the whole timestamp domain for full Iter scans.
const (
	minTime = time.Duration(math.MinInt64)
	maxTime = time.Duration(math.MaxInt64)
)

// view returns the badge's read view in reference time, or ok == false
// when the badge has no data. A badge with a correction reads through
// store.RectifyView; one without reads its local clock. The view is looked up on
// every call, so badges a live source gains after the first analysis are
// seen.
func (p *Pipeline) view(id store.BadgeID) (store.View, bool) {
	cors, _ := p.RectifyClocks()
	v, ok := p.src.Data.View(id)
	if !ok {
		return nil, false
	}
	if c, ok := cors[id]; ok {
		return store.RectifyView(v, c), true
	}
	return v, true
}

// sourceBytes returns the source's framed-encoding size (the paper's
// "150 GiB" figure), or 0 if the source cannot answer it.
func (p *Pipeline) sourceBytes() int64 {
	if eb, ok := p.src.Data.(interface{ EncodedBytes() int64 }); ok {
		return eb.EncodedBytes()
	}
	return 0
}

// dayRange returns the [start, end) reference times of a mission day.
func dayRange(day int) (time.Duration, time.Duration) {
	return simtime.StartOfDay(day), simtime.StartOfDay(day + 1)
}

// sharedLocator returns the pipeline's locator, building it on first use.
func (p *Pipeline) sharedLocator() (*localization.Locator, error) {
	p.locOnce.Do(func() {
		p.locator, p.locErr = localization.NewLocator(p.src.Habitat)
	})
	return p.locator, p.locErr
}

// windowIter returns a streaming cursor over one fold window: the day
// range of the badge the astronaut wore that day, optionally restricted to
// one kind (empty without an assignment or data).
func (p *Pipeline) windowIter(name string, day int, k record.Kind) record.Cursor {
	id := p.src.BadgeFor(name, day)
	if id == 0 {
		return record.NewCursor(nil)
	}
	v, ok := p.view(id)
	if !ok {
		return record.NewCursor(nil)
	}
	from, to := dayRange(day)
	return v.Iter(from, to, k)
}

// crewIter chains the astronaut's per-day windows into one continuous
// cursor over the data days — the whole-mission stream the astronaut-level
// scans (worn ranges, environment) fold, without ever materializing it.
func (p *Pipeline) crewIter(name string, k record.Kind) record.Cursor {
	day := p.src.FirstDay
	var cur record.Cursor
	started := false
	return record.PullCursor(func() []record.Record {
		for {
			if started {
				if b := cur.NextBatch(); b != nil {
					return b
				}
			}
			if day > p.src.LastDay {
				return nil
			}
			cur = p.windowIter(name, day, k)
			started = true
			day++
		}
	})
}

// windowPartial returns one fold window's partial from m, memoized only
// while the pipeline follows appends — the only thing that can invalidate
// a window (see the window partial fields of Pipeline).
func windowPartial[V any](p *Pipeline, m *memo[wkey, V], name string, day int, compute func(wkey) V) V {
	if !p.following.Load() {
		return compute(wkey{name, day})
	}
	return m.get(wkey{name, day}, compute)
}

// windowTrack returns one fold window's raw localization fixes.
func (p *Pipeline) windowTrack(name string, day int) []localization.Fix {
	if p.src.BadgeFor(name, day) == 0 {
		return nil
	}
	return windowPartial(p, &p.winTrack, name, day, func(k wkey) []localization.Fix {
		loc, err := p.sharedLocator()
		if err != nil {
			return nil
		}
		it := p.windowIter(k.name, k.day, record.KindBeacon)
		return loc.TrackCursor(&it, p.locWindow)
	})
}

// windowFrames returns one fold window's raw mic frames.
func (p *Pipeline) windowFrames(name string, day int) []speech.Frame {
	if p.src.BadgeFor(name, day) == 0 {
		return nil
	}
	return windowPartial(p, &p.winFrames, name, day, func(k wkey) []speech.Frame {
		it := p.windowIter(k.name, k.day, record.KindMic)
		return speech.FramesCursor(&it, p.speechCfg)
	})
}

// windowActivity returns one fold window's raw classified activity samples.
// The classifier's 10 s window divides the day, so per-day folds are exact.
func (p *Pipeline) windowActivity(name string, day int) []activity.Sample {
	if p.src.BadgeFor(name, day) == 0 {
		return nil
	}
	return windowPartial(p, &p.winActivity, name, day, func(k wkey) []activity.Sample {
		it := p.windowIter(k.name, k.day, record.KindAccel)
		return activity.ClassifyCursor(&it, activity.DefaultConfig())
	})
}

// hasRecords probes whether the astronaut has any records in the data days
// without materializing them: at most one cursor step per assigned day.
func (p *Pipeline) hasRecords(name string) bool {
	for day := p.src.FirstDay; day <= p.src.LastDay; day++ {
		it := p.windowIter(name, day, 0)
		if it.Next() {
			return true
		}
	}
	return false
}

// WornRanges returns the astronaut's badge-worn periods (memoized).
func (p *Pipeline) WornRanges(name string) record.RangeSet {
	p.beginAnalysis()
	defer p.endAnalysis()
	return p.wornRanges(name)
}

func (p *Pipeline) wornRanges(name string) record.RangeSet {
	return p.wornCache.get(name, func(name string) record.RangeSet {
		defer p.observeStage("worn", time.Now())
		// Worn ranges are a stateful open/close scan across the whole
		// mission (a badge can stay on over midnight), so they fold at the
		// astronaut level, not per window — one streaming pass over the
		// chained day cursors.
		it := p.crewIter(name, record.KindWear)
		return record.WornRangesCursor(&it, p.Horizon())
	})
}

// Track returns the astronaut's localization fixes while the badge was
// worn (an unworn badge still scans from wherever it lies, which would
// corrupt mobility analyses). Memoized; the returned slice is a shared
// read-only view.
func (p *Pipeline) Track(name string) []localization.Fix {
	p.beginAnalysis()
	defer p.endAnalysis()
	return p.track(name)
}

func (p *Pipeline) track(name string) []localization.Fix {
	return p.trackCache.get(name, func(name string) []localization.Fix {
		defer p.observeStage("track", time.Now())
		// The scan window divides the day (checked at construction), so no
		// window spans midnight and the per-day fold equals the
		// whole-stream derivation.
		var fixes []localization.Fix
		for day := p.src.FirstDay; day <= p.src.LastDay; day++ {
			fixes = append(fixes, p.windowTrack(name, day)...)
		}
		worn := p.wornRanges(name)
		kept := make([]localization.Fix, 0, len(fixes))
		for _, f := range fixes {
			if worn.Contains(f.At) {
				kept = append(kept, f)
			}
		}
		return kept
	})
}

// Intervals returns the astronaut's room-stay intervals with the pipeline's
// dwell filter applied (memoized).
func (p *Pipeline) Intervals(name string) []localization.Interval {
	p.beginAnalysis()
	defer p.endAnalysis()
	return p.intervals(name)
}

func (p *Pipeline) intervals(name string) []localization.Interval {
	return p.intervalCache.get(name, func(name string) []localization.Interval {
		defer p.observeStage("intervals", time.Now())
		// Interval assembly bridges gaps and deletes blips across day
		// boundaries, so it derives from the concatenated track — the
		// astronaut level is the lowest at which it is exact.
		return localization.RoomIntervals(p.track(name), p.minDwell, localization.DefaultMaxGap)
	})
}

// Frames returns the astronaut's analyzed mic frames while worn (memoized).
func (p *Pipeline) Frames(name string) []speech.Frame {
	p.beginAnalysis()
	defer p.endAnalysis()
	return p.frames(name)
}

func (p *Pipeline) frames(name string) []speech.Frame {
	return p.framesCache.get(name, func(name string) []speech.Frame {
		defer p.observeStage("frames", time.Now())
		var raw []speech.Frame
		for day := p.src.FirstDay; day <= p.src.LastDay; day++ {
			raw = append(raw, p.windowFrames(name, day)...)
		}
		return speech.FilterWorn(raw, p.wornRanges(name))
	})
}

// walkingSamples returns the astronaut's worn-time classified activity
// windows — the single source for WalkingFraction, WalkingByDay, and
// MeanAccelByDay, so the mission-level and per-day walking figures always
// agree on the worn-time filter.
func (p *Pipeline) walkingSamples(name string) []activity.Sample {
	p.beginAnalysis()
	defer p.endAnalysis()
	return p.activitySamples(name)
}

func (p *Pipeline) activitySamples(name string) []activity.Sample {
	return p.activityCache.get(name, func(name string) []activity.Sample {
		defer p.observeStage("activity", time.Now())
		var raw []activity.Sample
		for day := p.src.FirstDay; day <= p.src.LastDay; day++ {
			raw = append(raw, p.windowActivity(name, day)...)
		}
		return activity.FilterWorn(raw, p.wornRanges(name))
	})
}

// windowContacts returns one fold window's attributed IR contacts.
func (p *Pipeline) windowContacts(name string, day int) []proximity.Contact {
	if p.src.BadgeFor(name, day) == 0 {
		return nil
	}
	return windowPartial(p, &p.winContacts, name, day, func(k wkey) []proximity.Contact {
		var out []proximity.Contact
		it := p.windowIter(k.name, k.day, record.KindIR)
		for it.Next() {
			r := it.Record()
			peer, ok := p.wearerOf(store.BadgeID(r.PeerID), k.day)
			if !ok {
				continue
			}
			out = append(out, proximity.Contact{At: r.Local, A: k.name, B: peer})
		}
		return out
	})
}

// wearers returns the day's BadgeID→astronaut inverse of the assignment,
// memoized per day. Like the linear BadgeFor scan it replaces, the first
// astronaut in crew order wins if two names map to one badge.
func (p *Pipeline) wearers(day int) map[store.BadgeID]string {
	return p.wearerCache.get(day, func(day int) map[store.BadgeID]string {
		out := make(map[store.BadgeID]string, len(p.src.Names))
		for _, name := range p.src.Names {
			id := p.src.BadgeFor(name, day)
			if id == 0 {
				continue
			}
			if _, taken := out[id]; !taken {
				out[id] = name
			}
		}
		return out
	})
}

// wearerOf inverts BadgeFor for one day.
func (p *Pipeline) wearerOf(id store.BadgeID, day int) (string, bool) {
	name, ok := p.wearers(day)[id]
	return name, ok
}
