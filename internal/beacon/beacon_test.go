package beacon

import (
	"errors"
	"testing"

	"icares/internal/geometry"
	"icares/internal/habitat"
	"icares/internal/radio"
	"icares/internal/stats"
)

func newFleet(t *testing.T, seed uint64) (*Fleet, *habitat.Habitat) {
	t.Helper()
	hab := habitat.Standard()
	ch, err := radio.NewChannel(hab, radio.BLE24, stats.NewRNG(seed))
	if err != nil {
		t.Fatal(err)
	}
	f, err := NewFleet(hab, ch)
	if err != nil {
		t.Fatal(err)
	}
	return f, hab
}

// siteOf looks a deployed beacon site up by ID.
func siteOf(f *Fleet, id int) (habitat.BeaconSite, bool) {
	for _, s := range f.sites {
		if s.ID == id {
			return s, true
		}
	}
	return habitat.BeaconSite{}, false
}

func TestNewFleetErrors(t *testing.T) {
	hab := habitat.Standard()
	ch, err := radio.NewChannel(hab, radio.BLE24, stats.NewRNG(1))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewFleet(nil, ch); !errors.Is(err, radio.ErrNoHabitat) {
		t.Errorf("nil habitat: %v", err)
	}
	if _, err := NewFleet(hab, nil); !errors.Is(err, ErrNilChannel) {
		t.Errorf("nil channel: %v", err)
	}
}

func TestFleetDeploysAllSites(t *testing.T) {
	f, _ := newFleet(t, 2)
	if got := len(f.sites); got != habitat.StandardBeaconCount {
		t.Errorf("sites = %d", got)
	}
	if _, ok := siteOf(f, 1); !ok {
		t.Error("site 1 missing")
	}
	if _, ok := siteOf(f, 999); ok {
		t.Error("phantom site found")
	}
}

func TestScanSeesOwnRoomOnly(t *testing.T) {
	f, hab := newFleet(t, 3)
	center, err := hab.Center(habitat.Kitchen)
	if err != nil {
		t.Fatal(err)
	}
	obs := f.Scan(center)
	if len(obs) == 0 {
		t.Fatal("no beacons heard at kitchen center")
	}
	for _, o := range obs {
		s, ok := siteOf(f, o.BeaconID)
		if !ok {
			t.Fatalf("unknown beacon %d", o.BeaconID)
		}
		if s.Room != habitat.Kitchen {
			t.Errorf("heard beacon %d from %v at kitchen center", o.BeaconID, s.Room)
		}
		if o.RSSI > 0 || o.RSSI < -100 {
			t.Errorf("implausible RSSI %v", o.RSSI)
		}
	}
}

func TestScanNearDoorCanBleed(t *testing.T) {
	f, hab := newFleet(t, 4)
	door, ok := hab.DoorBetween(habitat.Kitchen, habitat.Atrium)
	if !ok {
		t.Fatal("no kitchen door")
	}
	// Just inside the kitchen, right at the doorway.
	pos := geometry.Point{X: door.X, Y: door.Y + 0.2}
	bleed := false
	for i := 0; i < 300 && !bleed; i++ {
		for _, o := range f.Scan(pos) {
			s, _ := siteOf(f, o.BeaconID)
			if s.Room == habitat.Atrium {
				bleed = true
			}
		}
	}
	if !bleed {
		t.Error("no atrium beacon ever bled through the open door")
	}
}

func TestScanDeepInRoomNeverBleeds(t *testing.T) {
	f, hab := newFleet(t, 5)
	room, err := hab.Room(habitat.Bedroom)
	if err != nil {
		t.Fatal(err)
	}
	// A far corner of the bedroom, away from the door.
	pos := room.Bounds.Inset(0.5).Min
	for i := 0; i < 200; i++ {
		for _, o := range f.Scan(pos) {
			s, _ := siteOf(f, o.BeaconID)
			if s.Room != habitat.Bedroom {
				t.Fatalf("beacon %d from %v heard deep inside bedroom", o.BeaconID, s.Room)
			}
		}
	}
}

func TestScanOutsideHabitat(t *testing.T) {
	f, _ := newFleet(t, 6)
	if obs := f.Scan(geometry.Point{X: -50, Y: -50}); len(obs) != 0 {
		t.Errorf("scan outside habitat heard %d beacons", len(obs))
	}
}

func TestScanStrongestBeaconIsNearest(t *testing.T) {
	f, hab := newFleet(t, 7)
	sites := f.sites
	// Stand exactly at a beacon inside the office.
	var target habitat.BeaconSite
	for _, s := range sites {
		if s.Room == habitat.Office {
			target = s
			break
		}
	}
	if target.ID == 0 {
		t.Fatal("no office beacon")
	}
	wins := 0
	const trials = 100
	for i := 0; i < trials; i++ {
		obs := f.Scan(target.Pos)
		best, bestRSSI := 0, -1e9
		for _, o := range obs {
			if o.RSSI > bestRSSI {
				best, bestRSSI = o.BeaconID, o.RSSI
			}
		}
		if best == target.ID {
			wins++
		}
	}
	if wins < trials*3/4 {
		t.Errorf("co-located beacon strongest only %d/%d times", wins, trials)
	}
	_ = hab
}
