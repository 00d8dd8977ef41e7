package localization

import (
	"errors"
	"math"
	"testing"
	"testing/quick"
	"time"

	"icares/internal/beacon"
	"icares/internal/geometry"
	"icares/internal/habitat"
	"icares/internal/radio"
	"icares/internal/record"
	"icares/internal/stats"
)

func newLocator(t *testing.T) (*Locator, *habitat.Habitat) {
	t.Helper()
	hab := habitat.Standard()
	l, err := NewLocator(hab)
	if err != nil {
		t.Fatal(err)
	}
	return l, hab
}

// obsAt synthesizes noise-free observations of every beacon in the room of p.
func obsAt(hab *habitat.Habitat, p geometry.Point) []Obs {
	prof := radio.ProfileFor(radio.BLE24)
	room := hab.RoomAt(p)
	var out []Obs
	for _, s := range hab.Beacons() {
		if s.Room != room {
			continue
		}
		d := p.Dist(s.Pos)
		if d < 0.1 {
			d = 0.1
		}
		loss := prof.RefLossDB + 10*prof.Exponent*log10(d)
		out = append(out, Obs{BeaconID: s.ID, RSSI: -loss})
	}
	return out
}

func log10(x float64) float64 { return math.Log10(x) }

func TestNewLocatorNilHabitat(t *testing.T) {
	if _, err := NewLocator(nil); !errors.Is(err, radio.ErrNoHabitat) {
		t.Errorf("nil habitat: %v", err)
	}
}

func TestLocateErrors(t *testing.T) {
	l, _ := newLocator(t)
	if _, err := l.Locate(nil); !errors.Is(err, ErrNoObservations) {
		t.Errorf("empty: %v", err)
	}
	if _, err := l.Locate([]Obs{{BeaconID: 999, RSSI: -50}}); !errors.Is(err, ErrUnknownBeacon) {
		t.Errorf("unknown: %v", err)
	}
}

func TestLocateRoomDetectionPerfect(t *testing.T) {
	// The paper: "the room the badge located in was detected perfectly."
	l, hab := newLocator(t)
	rng := stats.NewRNG(3)
	for _, id := range hab.RoomIDs() {
		for i := 0; i < 20; i++ {
			p, err := hab.RandomPointIn(id, 0.5, rng)
			if err != nil {
				t.Fatal(err)
			}
			obs := obsAt(hab, p)
			if len(obs) == 0 {
				t.Fatalf("no beacons visible in %v", id)
			}
			fix, err := l.Locate(obs)
			if err != nil {
				t.Fatal(err)
			}
			if fix.Room != id {
				t.Errorf("room at %v detected as %v, want %v", p, fix.Room, id)
			}
		}
	}
}

func TestLocatePositionAccuracy(t *testing.T) {
	l, hab := newLocator(t)
	rng := stats.NewRNG(4)
	var worst float64
	for i := 0; i < 100; i++ {
		p, err := hab.RandomPointIn(habitat.Atrium, 1.0, rng)
		if err != nil {
			t.Fatal(err)
		}
		fix, err := l.Locate(obsAt(hab, p))
		if err != nil {
			t.Fatal(err)
		}
		if d := fix.Pos.Dist(p); d > worst {
			worst = d
		}
	}
	// Noise-free RSSI in the beacon-rich atrium should localize well.
	if worst > 2.5 {
		t.Errorf("worst noise-free error = %.2f m", worst)
	}
}

func TestLocateWithRealChannelNoise(t *testing.T) {
	l, hab := newLocator(t)
	ch, err := radio.NewChannel(hab, radio.BLE24, stats.NewRNG(5))
	if err != nil {
		t.Fatal(err)
	}
	fleet, err := beacon.NewFleet(hab, ch)
	if err != nil {
		t.Fatal(err)
	}
	rng := stats.NewRNG(6)
	errSum, n := 0.0, 0
	for i := 0; i < 100; i++ {
		p, err := hab.RandomPointIn(habitat.Office, 0.7, rng)
		if err != nil {
			t.Fatal(err)
		}
		scan := fleet.Scan(p)
		obs := make([]Obs, len(scan))
		for j, o := range scan {
			obs[j] = Obs{BeaconID: o.BeaconID, RSSI: o.RSSI}
		}
		if len(obs) == 0 {
			continue
		}
		fix, err := l.Locate(obs)
		if err != nil {
			t.Fatal(err)
		}
		if fix.Room != habitat.Office {
			t.Fatalf("noisy scan put badge in %v", fix.Room)
		}
		errSum += fix.Pos.Dist(p)
		n++
	}
	if n == 0 {
		t.Fatal("no usable scans")
	}
	if mean := errSum / float64(n); mean > 3.5 {
		t.Errorf("mean noisy error = %.2f m", mean)
	}
}

func TestTrackWindowsRecords(t *testing.T) {
	l, hab := newLocator(t)
	var recs []record.Record
	// 2 minutes in the kitchen, then 2 minutes in the office.
	kitchenBeacon, officeBeacon := 0, 0
	for _, s := range hab.Beacons() {
		if s.Room == habitat.Kitchen && kitchenBeacon == 0 {
			kitchenBeacon = s.ID
		}
		if s.Room == habitat.Office && officeBeacon == 0 {
			officeBeacon = s.ID
		}
	}
	for sec := 0; sec < 120; sec += 15 {
		recs = append(recs, record.Record{
			Local: time.Duration(sec) * time.Second, Kind: record.KindBeacon,
			PeerID: uint16(kitchenBeacon), RSSI: -55,
		})
	}
	for sec := 120; sec < 240; sec += 15 {
		recs = append(recs, record.Record{
			Local: time.Duration(sec) * time.Second, Kind: record.KindBeacon,
			PeerID: uint16(officeBeacon), RSSI: -55,
		})
	}
	c := record.NewCursor(recs)
	fixes := l.TrackCursor(&c, 15*time.Second)
	if len(fixes) != 16 {
		t.Fatalf("fixes = %d, want 16", len(fixes))
	}
	for i, f := range fixes {
		want := habitat.Kitchen
		if i >= 8 {
			want = habitat.Office
		}
		if f.Room != want {
			t.Errorf("fix %d room = %v, want %v", i, f.Room, want)
		}
	}
}

func TestRoomIntervalsDwellFilter(t *testing.T) {
	mk := func(sec int, room habitat.RoomID) Fix {
		return Fix{At: time.Duration(sec) * time.Second, Room: room}
	}
	// Kitchen with a 5 s office blip in the middle (door bleed-through).
	fixes := []Fix{
		mk(0, habitat.Kitchen), mk(15, habitat.Kitchen), mk(30, habitat.Kitchen),
		mk(35, habitat.Office), // blip
		mk(45, habitat.Kitchen), mk(60, habitat.Kitchen),
	}
	filtered := RoomIntervals(fixes, DefaultMinDwell, DefaultMaxGap)
	if len(filtered) != 1 || filtered[0].Room != habitat.Kitchen {
		t.Errorf("filtered = %+v, want single kitchen stay", filtered)
	}
	// Without the filter the blip splits the stay.
	raw := RoomIntervals(fixes, 0, DefaultMaxGap)
	if len(raw) != 3 {
		t.Errorf("raw intervals = %d, want 3", len(raw))
	}
}

func TestRoomIntervalsRealMove(t *testing.T) {
	mk := func(sec int, room habitat.RoomID) Fix {
		return Fix{At: time.Duration(sec) * time.Second, Room: room}
	}
	fixes := []Fix{
		mk(0, habitat.Kitchen), mk(15, habitat.Kitchen),
		mk(30, habitat.Atrium), mk(45, habitat.Atrium),
		mk(60, habitat.Office), mk(75, habitat.Office), mk(300, habitat.Office),
	}
	ivs := RoomIntervals(fixes, DefaultMinDwell, DefaultMaxGap)
	if len(ivs) != 3 {
		t.Fatalf("intervals = %+v", ivs)
	}
	if ivs[0].Room != habitat.Kitchen || ivs[1].Room != habitat.Atrium || ivs[2].Room != habitat.Office {
		t.Errorf("rooms = %v %v %v", ivs[0].Room, ivs[1].Room, ivs[2].Room)
	}
	trans := Transitions(ExcludeRooms(ivs, habitat.Atrium))
	if trans[[2]habitat.RoomID{habitat.Kitchen, habitat.Office}] != 1 {
		t.Errorf("kitchen->office passages = %v", trans)
	}
}

func TestRoomIntervalsGapSplits(t *testing.T) {
	mk := func(sec int, room habitat.RoomID) Fix {
		return Fix{At: time.Duration(sec) * time.Second, Room: room}
	}
	fixes := []Fix{
		mk(0, habitat.Kitchen), mk(15, habitat.Kitchen),
		// 10-minute gap (badge off / EVA).
		mk(630, habitat.Kitchen), mk(645, habitat.Kitchen),
	}
	ivs := RoomIntervals(fixes, DefaultMinDwell, DefaultMaxGap)
	if len(ivs) != 2 {
		t.Errorf("gap did not split intervals: %+v", ivs)
	}
}

func TestTransitionsCounts(t *testing.T) {
	ivs := []Interval{
		{Room: habitat.Office}, {Room: habitat.Kitchen},
		{Room: habitat.Office}, {Room: habitat.Kitchen},
		{Room: habitat.Biolab},
	}
	tr := Transitions(ivs)
	if tr[[2]habitat.RoomID{habitat.Office, habitat.Kitchen}] != 2 {
		t.Errorf("office->kitchen = %d", tr[[2]habitat.RoomID{habitat.Office, habitat.Kitchen}])
	}
	if tr[[2]habitat.RoomID{habitat.Kitchen, habitat.Biolab}] != 1 {
		t.Errorf("kitchen->biolab = %d", tr[[2]habitat.RoomID{habitat.Kitchen, habitat.Biolab}])
	}
	if len(Transitions(nil)) != 0 {
		t.Error("transitions of empty input")
	}
}

// Property: Locate never panics and always returns a room present in the
// habitat for arbitrary subsets of beacons.
func TestQuickLocateTotal(t *testing.T) {
	l, hab := newLocator(t)
	sites := hab.Beacons()
	f := func(seed uint64) bool {
		rng := stats.NewRNG(seed)
		n := 1 + rng.Intn(6)
		obs := make([]Obs, 0, n)
		for i := 0; i < n; i++ {
			s := sites[rng.Intn(len(sites))]
			obs = append(obs, Obs{BeaconID: s.ID, RSSI: rng.Range(-95, -35)})
		}
		fix, err := l.Locate(obs)
		if err != nil {
			return false
		}
		if _, err := hab.Room(fix.Room); err != nil {
			return false
		}
		return hab.Bounds().Contains(fix.Pos)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
