package habitat

import (
	"testing"

	"icares/internal/geometry"
	"icares/internal/stats"
)

// bruteWallLossDB is WallLossDB without the bounding-box prefilter: every
// wall, in Walls() order, is tested with Segment.Intersects.
func bruteWallLossDB(h *Habitat, p, q geometry.Point) float64 {
	ray := geometry.Segment{A: p, B: q}
	var loss float64
	for _, w := range h.Walls() {
		if ray.Intersects(w.Seg) {
			loss += w.Material.AttenuationDB()
		}
	}
	return loss
}

// offGridPlan builds a four-module habitat whose coordinates are not exactly
// representable in binary, so wall boxes and door gaps carry rounding.
func offGridPlan(t testing.TB) *Habitat {
	t.Helper()
	h, err := NewBuilder().
		AddRoom(Atrium, geometry.Point{X: 0.1, Y: 0.3}, geometry.Point{X: 7.7, Y: 3.9}).
		AddRoom(Kitchen, geometry.Point{X: 0.1, Y: 3.9}, geometry.Point{X: 3.7, Y: 6.45}).
		AddRoom(Office, geometry.Point{X: 3.7, Y: 3.9}, geometry.Point{X: 7.7, Y: 6.45}).
		AddRoom(Gym, geometry.Point{X: 0.1, Y: -2.35}, geometry.Point{X: 7.7, Y: 0.3}).
		AddDoor(Kitchen, Atrium).
		AddDoor(Office, Atrium).
		AddDoor(Kitchen, Office).
		AddDoor(Gym, Atrium).
		PlaceBeacon(1, Atrium, geometry.Point{X: 1.3, Y: 2.1}).
		PlaceBeacon(2, Atrium, geometry.Point{X: 6.9, Y: 1.1}).
		PlaceBeacon(3, Kitchen, geometry.Point{X: 1.7, Y: 5.3}).
		PlaceBeacon(4, Office, geometry.Point{X: 5.3, Y: 5.7}).
		PlaceBeacon(5, Gym, geometry.Point{X: 3.3, Y: -1.1}).
		Build()
	if err != nil {
		t.Fatal(err)
	}
	return h
}

// adversarialPoints returns points where a box prefilter could go wrong:
// wall endpoints and their sub-tolerance neighbours (5e-13 m, inside
// geometry's 1e-12 orientation tolerance), points on wall lines inside and
// beyond each wall, door midpoints and door-gap edges, and beacon sites.
// anchors is the subset without perturbations.
func adversarialPoints(h *Habitat) (pts, anchors []geometry.Point) {
	const tiny = 5e-13
	for _, w := range h.Walls() {
		a, b := w.Seg.A, w.Seg.B
		u := b.Sub(a).Unit()
		n := geometry.Point{X: -u.Y, Y: u.X}
		anchors = append(anchors, a, b)
		pts = append(pts, a, b, a.Lerp(b, 0.5),
			a.Sub(u.Scale(0.5)), b.Add(u.Scale(0.5)), b.Add(u.Scale(2)))
		for _, end := range []geometry.Point{a, b} {
			for _, d := range []geometry.Point{n, u} {
				pts = append(pts, end.Add(d.Scale(tiny)), end.Sub(d.Scale(tiny)))
			}
		}
	}
	for _, d := range h.Doors() {
		anchors = append(anchors, d.At)
		pts = append(pts, d.At)
		for _, off := range []geometry.Point{{X: DoorWidth / 2}, {Y: DoorWidth / 2}} {
			pts = append(pts, d.At.Add(off), d.At.Sub(off))
		}
	}
	for _, s := range h.Beacons() {
		anchors = append(anchors, s.Pos)
		pts = append(pts, s.Pos)
	}
	return pts, anchors
}

// TestWallLossPrefilterExact: the bounding-box prefilter never changes
// WallLossDB — the result equals the brute-force sum bit for bit on seeded
// random rays and on adversarial ones (touches at wall corners and on wall
// lines, door gaps, beacon sites, collinear overlap and disjoint collinear
// rays, zero-length rays), for the standard layout and an off-grid plan.
func TestWallLossPrefilterExact(t *testing.T) {
	for _, tc := range []struct {
		name string
		h    *Habitat
	}{
		{"standard", Standard()},
		{"off-grid", offGridPlan(t)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			h := tc.h
			var rays []geometry.Segment
			pts, anchors := adversarialPoints(h)
			for _, p := range pts {
				rays = append(rays, geometry.Segment{A: p, B: p})
				for _, q := range anchors {
					rays = append(rays, geometry.Segment{A: p, B: q})
				}
			}
			for _, w := range h.Walls() {
				a, b := w.Seg.A, w.Seg.B
				u := b.Sub(a).Unit()
				rays = append(rays,
					geometry.Segment{A: a, B: b},                                   // the wall itself
					geometry.Segment{A: a.Sub(u.Scale(0.5)), B: a.Lerp(b, 0.5)},    // collinear, overlapping
					geometry.Segment{A: a.Sub(u), B: b.Add(u)},                     // collinear, covering
					geometry.Segment{A: b.Add(u.Scale(0.5)), B: b.Add(u.Scale(2))}, // collinear, disjoint
				)
			}
			rng := stats.NewRNG(13)
			bb := h.Bounds()
			for i := 0; i < 20000; i++ {
				rays = append(rays, geometry.Segment{
					A: geometry.Point{X: rng.Range(bb.Min.X-2, bb.Max.X+2), Y: rng.Range(bb.Min.Y-2, bb.Max.Y+2)},
					B: geometry.Point{X: rng.Range(bb.Min.X-2, bb.Max.X+2), Y: rng.Range(bb.Min.Y-2, bb.Max.Y+2)},
				})
			}

			blocked, bad := 0, 0
			for _, r := range rays {
				got, want := h.WallLossDB(r.A, r.B), bruteWallLossDB(h, r.A, r.B)
				if want > 0 {
					blocked++
				}
				if got != want {
					bad++
					if bad <= 10 {
						t.Errorf("WallLossDB(%v, %v) = %v, brute force %v", r.A, r.B, got, want)
					}
				}
			}
			if bad > 0 {
				t.Fatalf("%d of %d rays differ", bad, len(rays))
			}
			if blocked == 0 || blocked == len(rays) {
				t.Fatalf("%d of %d rays cross a wall: the ray mix is degenerate", blocked, len(rays))
			}
		})
	}
}

// BenchmarkWallLossDB casts a fixed seeded ray mix through the standard
// layout: beacon to a point in the beacon's room, and point to point across
// two random rooms. candidates/ray is how many walls pass the box
// prefilter and reach Segment.Intersects (all of them without the filter).
func BenchmarkWallLossDB(b *testing.B) {
	h := Standard()
	rng := stats.NewRNG(1)
	ids := h.RoomIDs()
	beacons := h.Beacons()
	point := func(id RoomID) geometry.Point {
		p, err := h.RandomPointIn(id, 0.3, rng)
		if err != nil {
			b.Fatal(err)
		}
		return p
	}
	var rays []geometry.Segment
	for i := 0; i < 512; i++ {
		s := beacons[rng.Intn(len(beacons))]
		rays = append(rays,
			geometry.Segment{A: s.Pos, B: point(s.Room)},
			geometry.Segment{A: point(ids[rng.Intn(len(ids))]), B: point(ids[rng.Intn(len(ids))])})
	}
	candidates := 0
	for _, r := range rays {
		box := geometry.NewRect(r.A, r.B)
		for _, wb := range h.wallBoxes {
			if boxesOverlap(box, wb) {
				candidates++
			}
		}
	}

	b.ReportAllocs()
	b.ResetTimer()
	var sink float64
	for i := 0; i < b.N; i++ {
		r := rays[i%len(rays)]
		sink += h.WallLossDB(r.A, r.B)
	}
	b.StopTimer()
	b.ReportMetric(float64(candidates)/float64(len(rays)), "candidates/ray")
	if sink < 0 {
		b.Fatal("negative wall loss")
	}
}
