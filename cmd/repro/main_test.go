package main

import (
	"crypto/sha256"
	"encoding/hex"
	"io"
	"os"
	"strings"
	"testing"
)

// runCapture runs repro with args and returns what it printed to stdout.
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

func TestRunRejectsUnknownExperiment(t *testing.T) {
	_, err := runCapture(t, "-exp", "bogus", "-days", "2")
	if err == nil || !strings.Contains(err.Error(), `unknown experiment "bogus"`) {
		t.Fatalf("-exp bogus: err = %v", err)
	}
}

func TestRunRejectsMissionWithoutDataDays(t *testing.T) {
	_, err := runCapture(t, "-days", "1")
	if err == nil || !strings.Contains(err.Error(), "first data day 2 of 1") {
		t.Fatalf("-days 1: err = %v", err)
	}
}

// TestTable1Golden pins the seed-42, 3-day Table I output. The digest
// covers everything from the table header on; the preamble carries the
// wall-clock simulation time, so only its record count is checked.
func TestTable1Golden(t *testing.T) {
	out, err := runCapture(t, "-exp", "table1", "-days", "3")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, ": 936662 records,") {
		t.Errorf("preamble does not report the 936662 simulated records:\n%s", out)
	}
	i := strings.Index(out, "=====")
	if i < 0 {
		t.Fatalf("no table in output:\n%s", out)
	}
	sum := sha256.Sum256([]byte(out[i:]))
	const want = "0ad0a86a18a918e8af203fddad723d112dd44e84a4281cbc99f7028286ca5621"
	if got := hex.EncodeToString(sum[:]); got != want {
		t.Fatalf("table1 digest = %s, want %s\n%s", got, want, out[i:])
	}
}
