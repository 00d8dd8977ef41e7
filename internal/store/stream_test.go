package store

import (
	"reflect"
	"testing"
	"time"

	"icares/internal/record"
)

func TestDatasetSubscribeDeliversAppends(t *testing.T) {
	d := NewDataset()
	type ev struct {
		id BadgeID
		at time.Duration
	}
	var got []ev
	cancel := d.Subscribe(func(id BadgeID, r record.Record) {
		got = append(got, ev{id, r.Local})
	})
	d.Series(7).Append(record.Record{Local: time.Second, Kind: record.KindAccel})
	d.Series(9).Append(record.Record{Local: 2 * time.Second, Kind: record.KindIR})
	d.Series(7).Append(record.Record{Local: 3 * time.Second, Kind: record.KindAccel})
	want := []ev{{7, time.Second}, {9, 2 * time.Second}, {7, 3 * time.Second}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("events = %v, want %v", got, want)
	}
	cancel()
	d.Series(7).Append(record.Record{Local: 4 * time.Second, Kind: record.KindAccel})
	if len(got) != 3 {
		t.Fatalf("append after cancel still delivered: %v", got)
	}
}
