package store

import (
	"math/rand"
	"reflect"
	"testing"
	"time"

	"icares/internal/record"
	"icares/internal/timesync"
)

// TestRectifyViewMatchesMappedSeries pins the read-time rectification
// wrapper against its definition: every View query over RectifyView(v, c)
// answers exactly like a series holding v's records with their timestamps
// mapped through c. That covers a realistic correction (offset plus ppm
// skew, answered lazily) and a degenerate one that reverses the time axis
// (answered by a stably re-sorted copy), per-kind views included.
func TestRectifyViewMatchesMappedSeries(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	raw := new(Series)
	kinds := []record.Kind{record.KindAccel, record.KindMic, record.KindBeacon}
	for i := 0; i < 2000; i++ {
		// Appended slightly out of order, with duplicate timestamps.
		at := time.Duration(i)*time.Second + time.Duration(rng.Intn(3000))*time.Millisecond
		raw.Append(record.Record{Local: at, Kind: kinds[rng.Intn(len(kinds))], AX: int16(i)})
	}

	for _, c := range []timesync.Correction{
		{Offset: 1500 * time.Millisecond, Skew: 25e-6, N: 6},
		{Offset: time.Hour, Skew: -2, N: 6},
	} {
		want := new(Series)
		for _, r := range raw.All() {
			r.Local = c.ToReference(r.Local)
			want.Append(r)
		}
		got := RectifyView(raw, c)

		gotAll, all := drainAll(got), drainAll(want)
		if len(gotAll) != len(all) {
			t.Errorf("%+v: Len = %d, want %d", c, len(gotAll), len(all))
		}
		gl, _ := got.Last()
		wl, _ := want.Last()
		if gotAll[0] != all[0] || gl != wl {
			t.Errorf("%+v: First/Last = %v/%v, want %v/%v", c, gotAll[0].Local, gl.Local, all[0].Local, wl.Local)
		}
		if !reflect.DeepEqual(gotAll, all) {
			t.Errorf("%+v: All differs", c)
		}
		lo, hi := all[len(all)/4].Local, all[3*len(all)/4].Local
		for _, k := range kinds {
			if !reflect.DeepEqual(drain(got.Iter(minDuration, maxDuration, k)), drain(want.Iter(minDuration, maxDuration, k))) {
				t.Errorf("%+v: Kind(%v) differs", c, k)
			}
			if !reflect.DeepEqual(drain(got.Iter(lo, hi, k)), drain(want.Iter(lo, hi, k))) {
				t.Errorf("%+v: Iter(%v) differs", c, k)
			}
		}
		if !reflect.DeepEqual(drain(got.Iter(lo, hi, 0)), drain(want.Iter(lo, hi, 0))) {
			t.Errorf("%+v: Iter over every kind differs", c)
		}
	}
}

// drain collects every record a cursor yields.
func drain(it record.Cursor) []record.Record {
	var out []record.Record
	for it.Next() {
		out = append(out, it.Record())
	}
	return out
}

// drainAll collects a view's whole stream, every kind.
func drainAll(v View) []record.Record {
	return drain(v.Iter(minDuration, maxDuration, 0))
}

func TestSeriesRectify(t *testing.T) {
	var s Series
	s.Append(mkRec(10*time.Second, record.KindAccel))
	s.Append(mkRec(20*time.Second, record.KindAccel))
	all := drainAll(RectifyView(&s, timesync.Correction{Offset: 5 * time.Second}))
	if all[0].Local != 5*time.Second || all[1].Local != 15*time.Second {
		t.Errorf("rectified = %v, %v", all[0].Local, all[1].Local)
	}
	// The series itself stays on the local clock.
	if raw := s.All(); raw[0].Local != 10*time.Second || raw[1].Local != 20*time.Second {
		t.Errorf("series rewritten: %v, %v", raw[0].Local, raw[1].Local)
	}
}

func TestSeriesRectifyInvalidatesKindIndex(t *testing.T) {
	var s Series
	for i := 0; i < 100; i++ {
		k := record.KindAccel
		if i%2 == 0 {
			k = record.KindMic
		}
		s.Append(mkRec(time.Duration(i)*time.Second, k))
	}
	// Build the series' kind index before wrapping it.
	before := s.RangeKind(0, 10*time.Second, record.KindMic)
	if len(before) != 5 {
		t.Fatalf("pre-rectify mic records = %d", len(before))
	}
	v := RectifyView(&s, timesync.Correction{Offset: -time.Hour})
	if got := drain(v.Iter(0, 10*time.Second, record.KindMic)); len(got) != 0 {
		t.Errorf("stale kind index: %d records still in old window", len(got))
	}
	after := drain(v.Iter(time.Hour, time.Hour+10*time.Second, record.KindMic))
	if len(after) != 5 {
		t.Errorf("post-rectify mic records = %d, want 5", len(after))
	}
	for _, r := range after {
		if r.Local < time.Hour {
			t.Errorf("kind view has unrectified timestamp %v", r.Local)
		}
	}
	if got := s.RangeKind(0, 10*time.Second, record.KindMic); len(got) != 5 {
		t.Errorf("series kind index changed under the view: %d mic records", len(got))
	}
}

func TestSeriesRectifyNonMonotonicResorts(t *testing.T) {
	var s Series
	for i := 0; i < 10; i++ {
		s.Append(mkRec(time.Duration(i)*time.Second, record.KindAccel))
	}
	// Reverse time (Skew -2 maps d to Offset-d): a pathological correction
	// must still yield a sorted view.
	all := drainAll(RectifyView(&s, timesync.Correction{Offset: 100 * time.Second, Skew: -2}))
	for i := 1; i < len(all); i++ {
		if all[i].Local < all[i-1].Local {
			t.Fatal("view unsorted after non-monotonic rectify")
		}
	}
	if all[0].Local != 91*time.Second || all[9].Local != 100*time.Second {
		t.Errorf("rectified bounds: %v .. %v", all[0].Local, all[9].Local)
	}
}
