package store

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"icares/internal/record"
)

// viewerDataset builds a small two-badge dataset for the Viewer and
// manifest tests.
func viewerDataset() *Dataset {
	d := NewDataset()
	for i := 0; i < 50; i++ {
		at := time.Duration(i) * time.Second
		d.Series(1).Append(record.Record{Local: at, Kind: record.KindEnv, TempC: 21, LightLux: 300})
		d.Series(2).Append(record.Record{Local: at, Kind: record.KindBeacon, PeerID: 3, RSSI: -48})
	}
	return d
}

// TestSegmentStoreViewAvoidsTypedNil pins the satellite-1 contract: Series
// on a missing badge returns a concrete nil *segment.Reader — which becomes
// a NON-nil interface when assigned into a View — while the View accessor
// reports the miss as ok == false with a genuinely nil interface.
func TestSegmentStoreViewAvoidsTypedNil(t *testing.T) {
	d := viewerDataset()
	dir := t.TempDir()
	if err := d.SaveSegments(dir); err != nil {
		t.Fatal(err)
	}
	ss, _, err := OpenSegments(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer ss.Close()

	if rd := ss.Series(99); rd != nil {
		t.Fatalf("Series(99) = %v, want nil", rd)
	}
	// The footgun View exists to fix: a typed nil in an interface is not
	// nil, so a Series-based miss check compiles and then panics at use.
	var trap View = ss.Series(99)
	if trap == nil {
		t.Fatal("typed-nil reader compared equal to nil interface; the footgun this test documents is gone — update the Series docs")
	}

	if v, ok := ss.View(99); ok || v != nil {
		t.Fatalf("View(99) = %v, %v; want nil, false", v, ok)
	}
	v, ok := ss.View(1)
	if !ok {
		t.Fatal("View(1) missing")
	}
	if v.Len() != 50 {
		t.Fatalf("View(1).Len() = %d, want 50", v.Len())
	}
}

// TestDatasetViewDoesNotCreate pins that Dataset.View is a pure read: a
// miss reports ok == false without materializing an empty series the way
// Series does.
func TestDatasetViewDoesNotCreate(t *testing.T) {
	d := NewDataset()
	if _, ok := d.View(7); ok {
		t.Fatal("View on empty dataset reported ok")
	}
	if n := len(d.Badges()); n != 0 {
		t.Fatalf("View created a series: %d badges", n)
	}
	d.Series(7).Append(record.Record{Local: time.Second, Kind: record.KindWear, Worn: true})
	v, ok := d.View(7)
	if !ok || v.Len() != 1 {
		t.Fatalf("View(7) after append: ok=%v len=%d", ok, v.Len())
	}
}

// TestManifestRoundTrip pins the save-time sidecar: the framed size
// survives the archive round trip, a manifest in the older layout (which
// also recorded rectification state and corrections) still yields it, and
// a missing or corrupt manifest degrades to the framed size recomputed
// from the segments.
func TestManifestRoundTrip(t *testing.T) {
	d := viewerDataset()
	dir := t.TempDir()
	if err := d.SaveSegments(dir); err != nil {
		t.Fatal(err)
	}

	ss, _, err := OpenSegments(dir)
	if err != nil {
		t.Fatal(err)
	}
	if ss.EncodedBytes() != d.EncodedBytes() {
		t.Errorf("EncodedBytes() = %d, want framed size %d", ss.EncodedBytes(), d.EncodedBytes())
	}
	ss.Close()

	// Older layout: the extra fields are ignored, the framed size is read.
	old := fmt.Sprintf(`{"rectified":true,"framed_bytes":%d,"corrections":[{"badge":1,"offset_ns":5000000,"skew":2e-05,"residual_ns":40000,"n":6}]}`, d.EncodedBytes()+1)
	if err := os.WriteFile(filepath.Join(dir, manifestName), []byte(old), 0o644); err != nil {
		t.Fatal(err)
	}
	ssOld, _, err := OpenSegments(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := ssOld.EncodedBytes(), d.EncodedBytes()+1; got != want {
		t.Errorf("older-layout manifest: EncodedBytes() = %d, want the recorded %d", got, want)
	}
	ssOld.Close()

	// Lost sidecar: still opens, framed size recomputed by streaming the
	// surviving records — which equals the framed accounting.
	if err := os.Remove(filepath.Join(dir, manifestName)); err != nil {
		t.Fatal(err)
	}
	ss2, _, err := OpenSegments(dir)
	if err != nil {
		t.Fatal(err)
	}
	if ss2.EncodedBytes() != d.EncodedBytes() {
		t.Errorf("manifestless EncodedBytes() = %d, want %d", ss2.EncodedBytes(), d.EncodedBytes())
	}
	ss2.Close()

	// Corrupt sidecar: parsed tolerantly, same fallback.
	if err := os.WriteFile(filepath.Join(dir, manifestName), []byte("{truncated"), 0o644); err != nil {
		t.Fatal(err)
	}
	ss3, _, err := OpenSegments(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer ss3.Close()
	if ss3.EncodedBytes() != d.EncodedBytes() {
		t.Errorf("corrupt manifest: EncodedBytes() = %d, want %d", ss3.EncodedBytes(), d.EncodedBytes())
	}
}
