package sociometry

import (
	"math"
	"strings"
	"testing"

	"icares/internal/habitat"
	"icares/internal/store"
)

// TestReportStarvedInput is the NaN/Inf regression: a pipeline over an
// empty dataset — the worst case a chaos plan can produce, every astronaut
// starved of every sample — must still render a report with no non-finite
// value leaking into any cell.
func TestReportStarvedInput(t *testing.T) {
	src := Source{
		Habitat:  habitat.Standard(),
		Data:     store.NewDataset(),
		Names:    []string{"A", "B", "C"},
		BadgeFor: func(name string, day int) store.BadgeID { return 1 },
		FirstDay: 1,
		LastDay:  3,
	}
	p, err := NewPipeline(src)
	if err != nil {
		t.Fatal(err)
	}
	report := p.Report()
	for _, bad := range []string{"NaN", "Inf", "inf"} {
		if strings.Contains(report, bad) {
			t.Errorf("starved-input report leaks %q:\n%s", bad, report)
		}
	}
	// Starved aggregates collapse to zero, not to poison values.
	for _, name := range src.Names {
		for d, v := range p.MeanSpeedByDay(name) {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Errorf("MeanSpeedByDay(%s)[%d] = %v", name, d, v)
			}
		}
	}
}

func TestSanitize(t *testing.T) {
	cases := []struct {
		in, want float64
	}{
		{math.NaN(), 0},
		{math.Inf(1), 0},
		{math.Inf(-1), 0},
		{0.25, 0.25},
		{-1.5, -1.5},
		{0, 0},
	}
	for _, c := range cases {
		if got := sanitize(c.in); got != c.want {
			t.Errorf("sanitize(%v) = %v, want %v", c.in, got, c.want)
		}
	}
	if na(math.Inf(1)) != "n/a" || na(math.NaN()) != "n/a" {
		t.Error("na() must render non-finite values as n/a")
	}
	if na(1.234) != "1.23" {
		t.Errorf("na(1.234) = %q", na(1.234))
	}
}
