package main

import (
	"crypto/sha256"
	"encoding/hex"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"icares/internal/store"
)

// runCapture runs icares with args and returns what it printed to stdout.
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

// TestSimulateWritesArchivesAndReportsFromSegments simulates the seed-42,
// 3-day mission into both on-disk forms, checks the printed record count
// and compression ratio against what the archives hold, then reports from
// the segments. That report must equal the resident seed-42 report byte
// for byte (SHA-256 of Pipeline(TrueAssignment).Report()).
func TestSimulateWritesArchivesAndReportsFromSegments(t *testing.T) {
	dir := t.TempDir()
	logs, segs := filepath.Join(dir, "logs"), filepath.Join(dir, "segs")
	out, err := runCapture(t, "-seed", "42", "-days", "3", "-out", logs, "-segout", segs)
	if err != nil {
		t.Fatal(err)
	}
	m := regexp.MustCompile(`(?m)^  records:\s+(\d+)$`).FindStringSubmatch(out)
	if m == nil {
		t.Fatalf("no record count in output:\n%s", out)
	}
	printed, _ := strconv.Atoi(m[1])

	ds, rep, err := store.LoadWithReport(logs)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Clean() || ds.TotalRecords() != printed {
		t.Errorf("logs hold %d records (clean %v), output says %d", ds.TotalRecords(), rep.Clean(), printed)
	}
	ss, _, err := store.OpenSegments(segs)
	if err != nil {
		t.Fatal(err)
	}
	if n := ss.TotalRecords(); n != printed {
		t.Errorf("segments hold %d records, output says %d", n, printed)
	}
	ss.Close()

	m = regexp.MustCompile(`\((\d+\.\d+)x over framed logs\)`).FindStringSubmatch(out)
	if m == nil {
		t.Fatalf("no compression ratio in output:\n%s", out)
	}
	if ratio, _ := strconv.ParseFloat(m[1], 64); ratio < 2.00 {
		t.Errorf("compression ratio %.2fx, want >= 2.00x", ratio)
	}

	report, err := runCapture(t, "-segdir", segs, "-days", "3")
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256([]byte(report))
	const want = "80881f8c46f819f1860d07761d38624c5f212781dbd8255712dcda6b6dde0098"
	if got := hex.EncodeToString(sum[:]); got != want {
		t.Fatalf("archive report digest = %s, want %s\n%s", got, want, report)
	}
}

func TestMetricsPrintsRegistry(t *testing.T) {
	out, err := runCapture(t, "-seed", "42", "-days", "2", "-metrics")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "mission_ticks_total") {
		t.Fatalf("-metrics output lacks mission_ticks_total:\n%s", out)
	}
}

func TestRunRejectsUnknownFlag(t *testing.T) {
	if _, err := runCapture(t, "-bogus"); err == nil {
		t.Fatal("-bogus: no error")
	}
}
