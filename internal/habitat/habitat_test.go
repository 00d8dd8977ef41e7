package habitat

import (
	"errors"
	"testing"
	"testing/quick"

	"icares/internal/geometry"
	"icares/internal/stats"
)

func TestStandardRoomCount(t *testing.T) {
	h := Standard()
	if got := len(h.rooms); got != 10 {
		t.Errorf("rooms = %d, want 10", got)
	}
	if got := len(h.Beacons()); got != StandardBeaconCount {
		t.Errorf("beacons = %d, want %d", got, StandardBeaconCount)
	}
}

func TestRoomLookup(t *testing.T) {
	h := Standard()
	r, err := h.Room(Kitchen)
	if err != nil {
		t.Fatal(err)
	}
	if r.ID != Kitchen || r.Name != "kitchen" {
		t.Errorf("room = %+v", r)
	}
	if _, err := h.Room(RoomID(99)); !errors.Is(err, ErrUnknownRoom) {
		t.Errorf("unknown room error = %v", err)
	}
}

func TestRoomAt(t *testing.T) {
	h := Standard()
	tests := []struct {
		p    geometry.Point
		want RoomID
	}{
		{geometry.Point{X: 12, Y: 4}, Atrium},
		{geometry.Point{X: 3, Y: 11}, Bedroom},
		{geometry.Point{X: 9, Y: 11}, Kitchen},
		{geometry.Point{X: 15, Y: 11}, Office},
		{geometry.Point{X: 21, Y: 11}, Workshop},
		{geometry.Point{X: 3, Y: -3}, Biolab},
		{geometry.Point{X: 9, Y: -3}, Storage},
		{geometry.Point{X: 13.5, Y: -3}, Restroom},
		{geometry.Point{X: 16.5, Y: -3}, Gym},
		{geometry.Point{X: 21, Y: -3}, Airlock},
		{geometry.Point{X: -5, Y: 0}, NoRoom},
		{geometry.Point{X: 12, Y: 30}, NoRoom},
	}
	for _, tt := range tests {
		if got := h.RoomAt(tt.p); got != tt.want {
			t.Errorf("RoomAt(%v) = %v, want %v", tt.p, got, tt.want)
		}
	}
}

func TestEveryModuleHasAtriumDoor(t *testing.T) {
	h := Standard()
	for _, r := range h.rooms {
		if r.ID == Atrium {
			continue
		}
		if _, ok := h.DoorBetween(r.ID, Atrium); !ok {
			t.Errorf("room %v has no door to atrium", r.ID)
		}
	}
}

func TestPathDirectAndViaAtrium(t *testing.T) {
	h := Standard()
	// Same room: empty path.
	p, err := h.Path(Kitchen, Kitchen)
	if err != nil || len(p) != 0 {
		t.Errorf("same-room path = %v, %v", p, err)
	}
	// Room to atrium: single door waypoint.
	p, err = h.Path(Kitchen, Atrium)
	if err != nil || len(p) != 1 {
		t.Fatalf("kitchen->atrium path = %v, %v", p, err)
	}
	// Room to room: via atrium, three waypoints.
	p, err = h.Path(Office, Kitchen)
	if err != nil {
		t.Fatal(err)
	}
	if len(p) != 3 {
		t.Fatalf("office->kitchen path = %v", p)
	}
	// All waypoints must be in the atrium or on its boundary (doors).
	for _, wp := range p {
		atr, err := h.Room(Atrium)
		if err != nil {
			t.Fatal(err)
		}
		if !atr.Bounds.Contains(wp) {
			t.Errorf("waypoint %v outside atrium", wp)
		}
	}
}

func TestPathUnknownRoom(t *testing.T) {
	h := Standard()
	if _, err := h.Path(RoomID(99), Kitchen); !errors.Is(err, ErrUnknownRoom) {
		t.Errorf("unknown from: %v", err)
	}
	if _, err := h.Path(Kitchen, RoomID(99)); !errors.Is(err, ErrUnknownRoom) {
		t.Errorf("unknown to: %v", err)
	}
}

func TestWallLossShieldsBetweenRooms(t *testing.T) {
	h := Standard()
	kitchen, err := h.Center(Kitchen)
	if err != nil {
		t.Fatal(err)
	}
	office, err := h.Center(Office)
	if err != nil {
		t.Fatal(err)
	}
	biolab, err := h.Center(Biolab)
	if err != nil {
		t.Fatal(err)
	}
	// Between adjacent-module centers: at least one metal wall.
	if loss := h.WallLossDB(kitchen, office); loss < Metal.AttenuationDB() {
		t.Errorf("kitchen->office loss = %v dB, want >= %v", loss, Metal.AttenuationDB())
	}
	// Across the habitat: even more.
	if loss := h.WallLossDB(kitchen, biolab); loss < Metal.AttenuationDB() {
		t.Errorf("kitchen->biolab loss = %v dB", loss)
	}
	// Within one room: zero.
	if loss := h.WallLossDB(kitchen, kitchen.Add(geometry.Point{X: 1, Y: 1})); loss != 0 {
		t.Errorf("in-room loss = %v dB, want 0", loss)
	}
}

func TestDoorGapAllowsLineOfSight(t *testing.T) {
	h := Standard()
	door, ok := h.DoorBetween(Kitchen, Atrium)
	if !ok {
		t.Fatal("no kitchen door")
	}
	// A ray passing straight through the middle of the doorway should cross
	// no wall.
	a := geometry.Point{X: door.X, Y: door.Y + 0.3} // just inside kitchen
	b := geometry.Point{X: door.X, Y: door.Y - 0.3} // just inside atrium
	if loss := h.WallLossDB(a, b); loss != 0 {
		t.Errorf("through-door loss = %v dB, want 0", loss)
	}
}

func TestBeaconsInTheirRooms(t *testing.T) {
	h := Standard()
	seen := make(map[int]bool)
	perRoom := make(map[RoomID]int)
	for _, b := range h.Beacons() {
		if seen[b.ID] {
			t.Errorf("duplicate beacon ID %d", b.ID)
		}
		seen[b.ID] = true
		if got := h.RoomAt(b.Pos); got != b.Room {
			t.Errorf("beacon %d declared in %v but located in %v", b.ID, b.Room, got)
		}
		perRoom[b.Room]++
	}
	if perRoom[Atrium] != 9 {
		t.Errorf("atrium beacons = %d, want 9", perRoom[Atrium])
	}
	for _, r := range h.rooms {
		if r.ID == Atrium {
			continue
		}
		if perRoom[r.ID] != 2 {
			t.Errorf("room %v beacons = %d, want 2", r.ID, perRoom[r.ID])
		}
	}
}

func TestRandomPointInStaysInside(t *testing.T) {
	h := Standard()
	rng := stats.NewRNG(99)
	for _, id := range h.RoomIDs() {
		for i := 0; i < 50; i++ {
			p, err := h.RandomPointIn(id, 0.3, rng)
			if err != nil {
				t.Fatal(err)
			}
			if got := h.RoomAt(p); got != id {
				t.Fatalf("random point %v for %v landed in %v", p, id, got)
			}
		}
	}
	if _, err := h.RandomPointIn(RoomID(99), 0.3, rng); !errors.Is(err, ErrUnknownRoom) {
		t.Errorf("unknown room: %v", err)
	}
}

func TestRoomsDoNotOverlap(t *testing.T) {
	h := Standard()
	rooms := h.rooms
	rng := stats.NewRNG(7)
	for _, r := range rooms {
		for i := 0; i < 30; i++ {
			p, err := h.RandomPointIn(r.ID, 0.2, rng)
			if err != nil {
				t.Fatal(err)
			}
			count := 0
			for _, other := range rooms {
				in := other.Bounds
				if p.X > in.Min.X && p.X < in.Max.X && p.Y > in.Min.Y && p.Y < in.Max.Y {
					count++
				}
			}
			if count != 1 {
				t.Fatalf("point %v strictly inside %d rooms", p, count)
			}
		}
	}
}

func TestSplitAroundGaps(t *testing.T) {
	s := geometry.Segment{A: geometry.Point{X: 0, Y: 0}, B: geometry.Point{X: 10, Y: 0}}
	segs := splitAroundGaps(s, []geometry.Point{{X: 5, Y: 0}}, 1)
	if len(segs) != 2 {
		t.Fatalf("segments = %d, want 2", len(segs))
	}
	total := segs[0].A.Dist(segs[0].B) + segs[1].A.Dist(segs[1].B)
	if total != 9 {
		t.Errorf("remaining wall = %v, want 9", total)
	}
	// No gaps: passthrough.
	if got := splitAroundGaps(s, nil, 1); len(got) != 1 || got[0] != s {
		t.Errorf("no-gap split = %v", got)
	}
	// Gap at edge end.
	segs = splitAroundGaps(s, []geometry.Point{{X: 0.2, Y: 0}}, 1)
	if len(segs) != 1 {
		t.Fatalf("edge-gap segments = %v", segs)
	}
}

func TestRoomIDString(t *testing.T) {
	if Kitchen.String() != "kitchen" {
		t.Errorf("Kitchen = %q", Kitchen.String())
	}
	if got := RoomID(42).String(); got != "room(42)" {
		t.Errorf("unknown = %q", got)
	}
}

// Property: RoomAt(center of room) == room for every room, under any
// habitat-preserving random probing; and WallLossDB is symmetric.
func TestQuickHabitatInvariants(t *testing.T) {
	h := Standard()
	f := func(seed uint64) bool {
		rng := stats.NewRNG(seed)
		ids := h.RoomIDs()
		a := ids[rng.Intn(len(ids))]
		b := ids[rng.Intn(len(ids))]
		pa, err := h.RandomPointIn(a, 0.3, rng)
		if err != nil {
			return false
		}
		pb, err := h.RandomPointIn(b, 0.3, rng)
		if err != nil {
			return false
		}
		if h.RoomAt(pa) != a || h.RoomAt(pb) != b {
			return false
		}
		return h.WallLossDB(pa, pb) == h.WallLossDB(pb, pa)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// TestStandardBeaconInvariants pins the construction invariant behind the
// placeBeacons panic: Standard always lays out the atrium, so construction
// never panics, and the paper's 27 beacon sites (two per module, nine along
// the atrium) come out with valid room attributions.
func TestStandardBeaconInvariants(t *testing.T) {
	h := Standard()
	if _, err := h.Room(Atrium); err != nil {
		t.Fatalf("standard layout missing atrium: %v", err)
	}
	beacons := h.Beacons()
	if len(beacons) != 27 {
		t.Fatalf("beacons = %d, want 27", len(beacons))
	}
	atrium := 0
	seen := make(map[int]bool)
	for _, b := range beacons {
		if seen[b.ID] {
			t.Errorf("duplicate beacon ID %d", b.ID)
		}
		seen[b.ID] = true
		if _, err := h.Room(b.Room); err != nil {
			t.Errorf("beacon %d in unknown room %v", b.ID, b.Room)
		}
		if b.Room == Atrium {
			atrium++
		}
	}
	if atrium != 9 {
		t.Errorf("atrium beacons = %d, want 9", atrium)
	}
}
