package activity

import (
	"testing"
	"time"

	"icares/internal/record"
	"icares/internal/simtime"
	"icares/internal/stats"
)

// synthAccel produces accel bursts (3 samples per event, like the badge)
// with the given per-axis sigma.
// classify runs the window classifier over a record slice.
func classify(recs []record.Record, cfg Config) []Sample {
	c := record.NewCursor(recs)
	return ClassifyCursor(&c, cfg)
}

func synthAccel(rng *stats.RNG, from, dur, every time.Duration, sigma float64) []record.Record {
	var out []record.Record
	for at := from; at < from+dur; at += every {
		for i := 0; i < 3; i++ {
			out = append(out, record.Record{
				Local: at + time.Duration(i)*50*time.Millisecond, Kind: record.KindAccel,
				AX: int16(rng.Norm(0, sigma)),
				AY: int16(rng.Norm(0, sigma)),
				AZ: int16(1000 + rng.Norm(0, sigma)),
			})
		}
	}
	return out
}

func TestClassifyWalkingVsIdle(t *testing.T) {
	rng := stats.NewRNG(1)
	cfg := DefaultConfig()
	walk := classify(synthAccel(rng, 0, 10*time.Minute, 10*time.Second, 260), cfg)
	idle := classify(synthAccel(rng, 0, 10*time.Minute, 10*time.Second, 30), cfg)
	if f := WalkingFraction(walk); f < 0.9 {
		t.Errorf("walking fraction of walk data = %v", f)
	}
	if f := WalkingFraction(idle); f > 0.05 {
		t.Errorf("walking fraction of idle data = %v", f)
	}
}

func TestClassifyMixedStream(t *testing.T) {
	rng := stats.NewRNG(2)
	recs := synthAccel(rng, 0, 5*time.Minute, 10*time.Second, 260)
	recs = append(recs, synthAccel(rng, 5*time.Minute, 5*time.Minute, 10*time.Second, 25)...)
	samples := classify(recs, DefaultConfig())
	if len(samples) < 18 {
		t.Fatalf("samples = %d", len(samples))
	}
	f := WalkingFraction(samples)
	if f < 0.35 || f > 0.65 {
		t.Errorf("mixed fraction = %v, want ~0.5", f)
	}
	// RMS should be higher in walking windows.
	var rmsWalk, rmsIdle float64
	var nW, nI int
	for _, s := range samples {
		if s.Walking {
			rmsWalk += s.RMS
			nW++
		} else {
			rmsIdle += s.RMS
			nI++
		}
	}
	if nW == 0 || nI == 0 || rmsWalk/float64(nW) <= rmsIdle/float64(nI) {
		t.Error("walking RMS not above idle RMS")
	}
}

func TestClassifySkipsSparseWindows(t *testing.T) {
	recs := []record.Record{
		{Local: 0, Kind: record.KindAccel, AX: 500, AY: 0, AZ: 1000},
	}
	if got := classify(recs, DefaultConfig()); len(got) != 0 {
		t.Errorf("single-sample window classified: %v", got)
	}
}

func TestClassifyIgnoresOtherKinds(t *testing.T) {
	rng := stats.NewRNG(3)
	recs := synthAccel(rng, 0, time.Minute, 10*time.Second, 30)
	recs = append(recs, record.Record{Local: 5 * time.Second, Kind: record.KindMic, LoudnessDB: 70})
	if got := classify(recs, DefaultConfig()); len(got) == 0 {
		t.Error("no samples")
	}
}

func TestFilterWorn(t *testing.T) {
	samples := []Sample{
		{At: 10 * time.Second}, {At: 50 * time.Second}, {At: 90 * time.Second},
	}
	worn := record.RangeSet{{From: 0, To: 30 * time.Second}, {From: 80 * time.Second, To: 120 * time.Second}}
	got := FilterWorn(samples, worn)
	if len(got) != 2 {
		t.Fatalf("filtered = %v", got)
	}
	if got[0].At != 10*time.Second || got[1].At != 90*time.Second {
		t.Errorf("filtered = %v", got)
	}
}

func TestDailyWalkingFraction(t *testing.T) {
	rng := stats.NewRNG(4)
	day2 := simtime.StartOfDay(2)
	day3 := simtime.StartOfDay(3)
	var recs []record.Record
	// Day 2: mostly walking; day 3: mostly idle.
	recs = append(recs, synthAccel(rng, day2, time.Hour, 10*time.Second, 260)...)
	recs = append(recs, synthAccel(rng, day3, time.Hour, 10*time.Second, 25)...)
	worn := record.RangeSet{{From: day2, To: day3 + 2*time.Hour}}
	got := WalkingFractionByDay(FilterWorn(classify(recs, DefaultConfig()), worn))
	if got[2] < 0.9 {
		t.Errorf("day 2 fraction = %v", got[2])
	}
	if got[3] > 0.05 {
		t.Errorf("day 3 fraction = %v", got[3])
	}
}

func TestMeanDailyRMS(t *testing.T) {
	rng := stats.NewRNG(5)
	day2 := simtime.StartOfDay(2)
	recs := synthAccel(rng, day2, time.Hour, 10*time.Second, 200)
	worn := record.RangeSet{{From: day2, To: day2 + 2*time.Hour}}
	got := MeanRMSByDay(FilterWorn(classify(recs, DefaultConfig()), worn))
	if got[2] <= 0 {
		t.Errorf("day 2 RMS = %v", got[2])
	}
}

func TestWalkingFractionEmpty(t *testing.T) {
	if WalkingFraction(nil) != 0 {
		t.Error("empty fraction nonzero")
	}
}

func TestByDay(t *testing.T) {
	samples := []Sample{
		{At: simtime.StartOfDay(2) + time.Hour},
		{At: simtime.StartOfDay(2) + 2*time.Hour},
		{At: simtime.StartOfDay(5)},
	}
	got := ByDay(samples)
	if len(got[2]) != 2 || len(got[5]) != 1 {
		t.Errorf("by day = %v", got)
	}
}
