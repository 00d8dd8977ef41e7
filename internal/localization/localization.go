// Package localization turns beacon observations into positions and room
// occupancy. It implements the paper's positioning pipeline: RSSI-based
// triangulation against the 27 fixed beacons, perfect room detection thanks
// to metal-wall shielding, dominant-position frames, and the >= 10 s dwell
// filter that suppresses beacon bleed-through at open doors (paper,
// footnote 1).
package localization

import (
	"errors"
	"sort"
	"time"

	"icares/internal/geometry"
	"icares/internal/habitat"
	"icares/internal/radio"
	"icares/internal/record"
)

// Fix is one position estimate.
type Fix struct {
	At      time.Duration
	Pos     geometry.Point
	Room    habitat.RoomID
	Beacons int // number of distinct beacons used
}

// Errors of the locator.
var (
	ErrNoObservations = errors.New("localization: no observations")
	ErrUnknownBeacon  = errors.New("localization: unknown beacon id")
)

// Locator resolves positions within a habitat.
type Locator struct {
	hab     *habitat.Habitat
	sites   map[int]habitat.BeaconSite
	profile radio.Profile
	txPower float64
}

// NewLocator builds a locator using the habitat's beacon map and the BLE
// propagation profile for RSSI-to-distance inversion.
func NewLocator(hab *habitat.Habitat) (*Locator, error) {
	if hab == nil {
		return nil, radio.ErrNoHabitat
	}
	sites := make(map[int]habitat.BeaconSite)
	for _, s := range hab.Beacons() {
		sites[s.ID] = s
	}
	return &Locator{
		hab:     hab,
		sites:   sites,
		profile: radio.ProfileFor(radio.BLE24),
		txPower: 0,
	}, nil
}

// Obs is one (beacon, RSSI) pair of a scan window. Multiple observations of
// the same beacon are averaged by Locate.
type Obs struct {
	BeaconID int
	RSSI     float64
}

// Locate estimates a position from one scan window.
//
// Room detection picks the room of the strongest beacon — exact in the
// shielded habitat. The in-room position is then a distance-weighted
// centroid of that room's beacons refined by Gauss-Newton iterations on the
// log-distance model, clamped to the detected room.
func (l *Locator) Locate(obs []Obs) (Fix, error) {
	if len(obs) == 0 {
		return Fix{}, ErrNoObservations
	}
	// Average duplicate sightings per beacon.
	sum := make(map[int]float64, len(obs))
	cnt := make(map[int]int, len(obs))
	for _, o := range obs {
		if _, ok := l.sites[o.BeaconID]; !ok {
			return Fix{}, ErrUnknownBeacon
		}
		sum[o.BeaconID] += o.RSSI
		cnt[o.BeaconID]++
	}
	ids := make([]int, 0, len(sum))
	for id := range sum {
		ids = append(ids, id)
	}
	sort.Ints(ids)

	// Strongest beacon determines the room.
	bestID, bestRSSI := 0, -1e18
	for _, id := range ids {
		if avg := sum[id] / float64(cnt[id]); avg > bestRSSI {
			bestID, bestRSSI = id, avg
		}
	}
	room := l.sites[bestID].Room

	// Use only the detected room's beacons for the position (bleed-through
	// sightings from adjacent rooms would otherwise drag the estimate).
	type anchor struct {
		pos  geometry.Point
		dist float64
	}
	anchors := make([]anchor, 0, len(ids))
	for _, id := range ids {
		s := l.sites[id]
		if s.Room != room {
			continue
		}
		avg := sum[id] / float64(cnt[id])
		anchors = append(anchors, anchor{
			pos:  s.Pos,
			dist: radio.DistanceFromRSSI(l.profile, avg, l.txPower),
		})
	}

	var pos geometry.Point
	switch len(anchors) {
	case 0: // all sightings were bleed-through; fall back to room center
		c, err := l.hab.Center(room)
		if err != nil {
			return Fix{}, err
		}
		pos = c
	case 1:
		pos = anchors[0].pos
	default:
		// Distance-weighted centroid seed: nearest beacons dominate.
		var wsum float64
		for _, a := range anchors {
			w := 1 / (a.dist*a.dist*a.dist + 0.1)
			pos = pos.Add(a.pos.Scale(w))
			wsum += w
		}
		pos = pos.Scale(1 / wsum)
		// Damped Gauss-Newton refinement on range residuals, weighted like
		// the seed so distant (noisier) anchors cannot drag the estimate.
		for iter := 0; iter < 12; iter++ {
			var gx, gy, hxx, hyy float64
			for _, a := range anchors {
				d := pos.Dist(a.pos)
				if d < 1e-6 {
					continue
				}
				w := 1 / (a.dist*a.dist + 0.25)
				r := d - a.dist
				ux := (pos.X - a.pos.X) / d
				uy := (pos.Y - a.pos.Y) / d
				gx += w * r * ux
				gy += w * r * uy
				hxx += w * ux * ux
				hyy += w * uy * uy
			}
			step := func(g, h float64) float64 {
				if h <= 0 {
					return 0
				}
				s := 0.5 * g / h // damping 0.5
				if s > 1 {
					s = 1
				}
				if s < -1 {
					s = -1
				}
				return s
			}
			pos.X -= step(gx, hxx)
			pos.Y -= step(gy, hyy)
		}
	}
	// Clamp into the detected room.
	if r, err := l.hab.Room(room); err == nil {
		pos = r.Bounds.Inset(0.1).Clamp(pos)
	}
	return Fix{Pos: pos, Room: room, Beacons: len(ids)}, nil
}

// TrackCursor groups a badge's time-ordered beacon records into windows
// and locates each; windows with no observations yield no fix. It is one
// streaming pass holding only the current window's observations, so
// out-of-core sources never materialize the beacon stream.
func (l *Locator) TrackCursor(c *record.Cursor, window time.Duration) []Fix {
	if window <= 0 {
		window = 15 * time.Second
	}
	var fixes []Fix
	var cur []Obs
	var curStart time.Duration
	flush := func() {
		if len(cur) == 0 {
			return
		}
		if fix, err := l.Locate(cur); err == nil {
			fix.At = curStart
			fixes = append(fixes, fix)
		}
		cur = cur[:0]
	}
	started := false
	for c.Next() {
		r := c.Record()
		if r.Kind != record.KindBeacon {
			continue
		}
		w := r.Local - (r.Local % window)
		if !started || w != curStart {
			flush()
			curStart = w
			started = true
		}
		cur = append(cur, Obs{BeaconID: int(r.PeerID), RSSI: float64(r.RSSI)})
	}
	flush()
	return fixes
}

// Interval is a maximal stay of one track in one room.
type Interval struct {
	Room     habitat.RoomID
	From, To time.Duration
}

// Duration returns the interval length.
func (iv Interval) Duration() time.Duration { return iv.To - iv.From }

// DefaultMinDwell is the paper's dwell filter: a room change only counts if
// at least 10 s are spent in the new room.
const DefaultMinDwell = 10 * time.Second

// DefaultMaxGap is the largest fix gap bridged inside one interval; badge
// scans every 15 s, so a minute tolerates a few missed scans.
const DefaultMaxGap = time.Minute

// RoomIntervals merges a fix sequence into room-stay intervals. Stays
// shorter than minDwell are treated as bleed-through noise: they are
// deleted and their neighbours merged when they agree (the paper's filter
// for "occasional beacon signals from another room slipped through open
// doors"). Fix gaps longer than maxGap end the current interval. Pass
// minDwell = 0 to disable the filter (ablation).
func RoomIntervals(fixes []Fix, minDwell, maxGap time.Duration) []Interval {
	if maxGap <= 0 {
		maxGap = DefaultMaxGap
	}
	raw := make([]Interval, 0, 32)
	for _, f := range fixes {
		n := len(raw)
		if n > 0 && raw[n-1].Room == f.Room && f.At-raw[n-1].To <= maxGap {
			raw[n-1].To = f.At
			continue
		}
		raw = append(raw, Interval{Room: f.Room, From: f.At, To: f.At})
	}
	if minDwell <= 0 {
		return raw
	}
	// Remove sub-dwell blips, merging equal neighbours.
	out := make([]Interval, 0, len(raw))
	for _, iv := range raw {
		if iv.Duration() < minDwell {
			// Blip: extend the previous interval over it if possible.
			if n := len(out); n > 0 {
				out[n-1].To = iv.To
			}
			continue
		}
		if n := len(out); n > 0 && out[n-1].Room == iv.Room && iv.From-out[n-1].To <= maxGap {
			out[n-1].To = iv.To
			continue
		}
		out = append(out, iv)
	}
	return out
}

// ExcludeRooms drops intervals spent in the listed rooms. Fig. 2 of the
// paper excludes the central room "adjacent to all other rooms", so a
// kitchen→atrium→office walk counts as one kitchen→office passage.
func ExcludeRooms(ivs []Interval, rooms ...habitat.RoomID) []Interval {
	skip := make(map[habitat.RoomID]bool, len(rooms))
	for _, r := range rooms {
		skip[r] = true
	}
	out := make([]Interval, 0, len(ivs))
	for _, iv := range ivs {
		if skip[iv.Room] {
			continue
		}
		out = append(out, iv)
	}
	return out
}

// Transitions counts room-to-room passages from an interval sequence: one
// passage per consecutive pair of distinct rooms.
func Transitions(ivs []Interval) map[[2]habitat.RoomID]int {
	out := make(map[[2]habitat.RoomID]int)
	for i := 1; i < len(ivs); i++ {
		if ivs[i].Room == ivs[i-1].Room {
			continue
		}
		out[[2]habitat.RoomID{ivs[i-1].Room, ivs[i].Room}]++
	}
	return out
}
