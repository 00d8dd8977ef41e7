package sociometry

import (
	"testing"
	"time"

	"icares/internal/activity"
	"icares/internal/habitat"
	"icares/internal/store"
)

// TestUnalignedLocWindowRejected pins the construction-time guard behind the
// per-day fold: localization windows are aligned to absolute time, so a
// window that does not divide the day (7 s here — 86400 % 7 != 0) would
// straddle midnight and make the per-day fold diverge from the whole-stream
// derivation. NewPipeline rejects it, and a zero or negative window, instead
// of computing anything.
func TestUnalignedLocWindowRejected(t *testing.T) {
	src := Source{
		Habitat:  habitat.Standard(),
		Data:     store.NewDataset(),
		Names:    []string{"X"},
		BadgeFor: func(string, int) store.BadgeID { return 1 },
		FirstDay: 2,
		LastDay:  3,
	}
	for _, w := range []time.Duration{7 * time.Second, 0, -time.Second} {
		if p, err := NewPipeline(src, WithLocWindow(w)); err == nil {
			t.Errorf("WithLocWindow(%v) accepted (pipeline %p)", w, p)
		}
	}
	for _, w := range []time.Duration{15 * time.Second, 60 * time.Second, 24 * time.Hour} {
		if _, err := NewPipeline(src, WithLocWindow(w)); err != nil {
			t.Errorf("WithLocWindow(%v) rejected: %v", w, err)
		}
	}
	// The activity classifier's fixed window must divide the day too: its
	// per-day folds rely on the same alignment, with no option to check.
	if w := activity.DefaultConfig().Window; w <= 0 || (24*time.Hour)%w != 0 {
		t.Fatalf("activity default window %v does not divide the day; per-day activity folds are now wrong", w)
	}
}
