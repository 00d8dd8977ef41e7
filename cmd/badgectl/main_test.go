package main

import (
	"io"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"

	"icares/internal/record"
	"icares/internal/store"
)

// runCapture runs badgectl with args and returns what it printed to stdout.
func runCapture(t *testing.T, args ...string) (string, error) {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	stdout := os.Stdout
	os.Stdout = w
	out := make(chan string)
	go func() {
		b, _ := io.ReadAll(r)
		out <- string(b)
	}()
	runErr := run(args)
	os.Stdout = stdout
	w.Close()
	return <-out, runErr
}

// testDataset is a small multi-badge, multi-kind dataset: several segment
// blocks per badge, so a byte flipped mid-file lands inside a block.
func testDataset() *store.Dataset {
	d := store.NewDataset()
	for b := 1; b <= 3; b++ {
		s := d.Series(store.BadgeID(b))
		for sec := 0; sec < 6000; sec++ {
			at := time.Duration(sec) * time.Second
			s.Append(record.Record{Local: at, Kind: record.KindAccel, AX: int16(sec % 700), AY: int16(b), AZ: -1})
			if sec%2 == 0 {
				s.Append(record.Record{Local: at, Kind: record.KindMic, SpeechDetected: sec%6 == 0, LoudnessDB: 40 + float32(sec%30)})
			}
			if sec%5 == 0 {
				s.Append(record.Record{Local: at + time.Millisecond, Kind: record.KindBeacon, PeerID: uint16(sec % 16), RSSI: -60})
			}
		}
	}
	return d
}

var statsLine = regexp.MustCompile(`^\S+: badge (\d+), (\d+) records`)

// recordCounts parses the per-badge record counts of a stats listing.
func recordCounts(t *testing.T, out string) map[int]int {
	t.Helper()
	counts := map[int]int{}
	for _, line := range strings.Split(out, "\n") {
		m := statsLine.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		id, _ := strconv.Atoi(m[1])
		n, _ := strconv.Atoi(m[2])
		counts[id] = n
	}
	return counts
}

// TestStatsSegmentsMatchLogs checks that stats over a segment archive and
// over the framed logs of the same dataset report equal record counts.
func TestStatsSegmentsMatchLogs(t *testing.T) {
	d := testDataset()
	logs, segs := t.TempDir(), t.TempDir()
	if err := d.Save(logs); err != nil {
		t.Fatal(err)
	}
	if err := d.SaveSegments(segs); err != nil {
		t.Fatal(err)
	}
	logOut, err := runCapture(t, "stats", logs)
	if err != nil {
		t.Fatalf("stats over logs: %v", err)
	}
	segOut, err := runCapture(t, "stats", segs)
	if err != nil {
		t.Fatalf("stats over segments: %v", err)
	}
	fromLogs, fromSegs := recordCounts(t, logOut), recordCounts(t, segOut)
	if len(fromLogs) != 3 {
		t.Fatalf("stats over logs listed %d badges, want 3:\n%s", len(fromLogs), logOut)
	}
	for _, id := range d.Badges() {
		want := d.Series(id).Len()
		if fromLogs[int(id)] != want || fromSegs[int(id)] != want {
			t.Errorf("badge %d: logs report %d records, segments %d, dataset holds %d",
				id, fromLogs[int(id)], fromSegs[int(id)], want)
		}
	}
}

// TestVerifyReportsFlippedSegmentByte checks that verify reports a segment
// with one flipped mid-file byte as damaged, and that the read survives it.
func TestVerifyReportsFlippedSegmentByte(t *testing.T) {
	dir := t.TempDir()
	if err := testDataset().SaveSegments(dir); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "badge-002.seg")
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	clean, err := runCapture(t, "verify", path)
	if err != nil || !strings.HasSuffix(strings.TrimSpace(clean), ", OK") {
		t.Fatalf("verify on an intact segment: %v\n%s", err, clean)
	}
	raw[len(raw)/2] ^= 0x40
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	out, err := runCapture(t, "verify", path)
	if err != nil {
		t.Fatalf("verify failed the read on a damaged segment: %v", err)
	}
	if !strings.Contains(out, "1 corrupt frames") {
		t.Fatalf("verify did not report the damage:\n%s", out)
	}
}
