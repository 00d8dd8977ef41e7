package localization

import (
	"testing"
	"time"

	"icares/internal/habitat"
	"icares/internal/radio"
	"icares/internal/record"
	"icares/internal/stats"
)

func BenchmarkLocate(b *testing.B) {
	hab := habitat.Standard()
	l, err := NewLocator(hab)
	if err != nil {
		b.Fatal(err)
	}
	rng := stats.NewRNG(1)
	var sites []habitat.BeaconSite
	for _, s := range hab.Beacons() {
		if s.Room == habitat.Atrium {
			sites = append(sites, s)
		}
	}
	scans := make([][]Obs, 64)
	for i := range scans {
		n := 3 + rng.Intn(4)
		obs := make([]Obs, 0, n)
		for j := 0; j < n; j++ {
			s := sites[rng.Intn(len(sites))]
			obs = append(obs, Obs{BeaconID: s.ID, RSSI: rng.Range(-85, -45)})
		}
		scans[i] = obs
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := l.Locate(scans[i%len(scans)]); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTrack(b *testing.B) {
	hab := habitat.Standard()
	l, err := NewLocator(hab)
	if err != nil {
		b.Fatal(err)
	}
	rng := stats.NewRNG(2)
	sites := hab.Beacons()
	recs := make([]record.Record, 0, 40_000)
	for i := 0; i < 40_000; i++ {
		s := sites[rng.Intn(len(sites))]
		recs = append(recs, record.Record{
			Local:  time.Duration(i/3) * 15 * time.Second,
			Kind:   record.KindBeacon,
			PeerID: uint16(s.ID),
			RSSI:   float32(rng.Range(-85, -45)),
		})
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := record.NewCursor(recs)
		fixes := l.TrackCursor(&c, 15*time.Second)
		if len(fixes) == 0 {
			b.Fatal("no fixes")
		}
	}
}

func BenchmarkRoomIntervals(b *testing.B) {
	rng := stats.NewRNG(3)
	rooms := []habitat.RoomID{habitat.Kitchen, habitat.Office, habitat.Atrium}
	fixes := make([]Fix, 10_000)
	cur := habitat.Kitchen
	for i := range fixes {
		if rng.Bool(0.02) {
			cur = rooms[rng.Intn(len(rooms))]
		}
		fixes[i] = Fix{At: time.Duration(i) * 15 * time.Second, Room: cur}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = RoomIntervals(fixes, DefaultMinDwell, DefaultMaxGap)
	}
}

// BenchmarkAblationBeaconDensity measures room-detection accuracy as a
// function of how many of the 27 beacons are deployed — the cargo-budget
// question of the paper's Section VI-B.
func BenchmarkAblationBeaconDensity(b *testing.B) {
	hab := habitat.Standard()
	l, err := NewLocator(hab)
	if err != nil {
		b.Fatal(err)
	}
	prof := radio.ProfileFor(radio.BLE24)
	accuracyWith := func(keepEvery int, rng *stats.RNG) float64 {
		var kept []habitat.BeaconSite
		for i, s := range hab.Beacons() {
			if i%keepEvery == 0 {
				kept = append(kept, s)
			}
		}
		correct, total := 0, 0
		for i := 0; i < 300; i++ {
			ids := hab.RoomIDs()
			room := ids[rng.Intn(len(ids))]
			pos, err := hab.RandomPointIn(room, 0.5, rng)
			if err != nil {
				continue
			}
			var obs []Obs
			for _, s := range kept {
				if s.Room != room {
					continue // shielding
				}
				d := pos.Dist(s.Pos)
				if d < 0.1 {
					d = 0.1
				}
				rssi := -prof.RefLossDB - 10*prof.Exponent*log10(d) + rng.Norm(0, prof.ShadowSigmaDB)
				if rssi < prof.SensitivityDBm {
					continue
				}
				obs = append(obs, Obs{BeaconID: s.ID, RSSI: rssi})
			}
			total++
			if len(obs) == 0 {
				continue // no coverage: counts as a miss
			}
			fix, err := l.Locate(obs)
			if err != nil {
				continue
			}
			if fix.Room == room {
				correct++
			}
		}
		if total == 0 {
			return 0
		}
		return float64(correct) / float64(total)
	}
	var full, half, third float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rng := stats.NewRNG(uint64(i) + 9)
		full = accuracyWith(1, rng)
		half = accuracyWith(2, rng)
		third = accuracyWith(3, rng)
	}
	b.StopTimer()
	b.ReportMetric(full, "room-acc-27")
	b.ReportMetric(half, "room-acc-14")
	b.ReportMetric(third, "room-acc-9")
}
