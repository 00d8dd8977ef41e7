package simtime

import (
	"testing"
	"testing/quick"
	"time"

	"icares/internal/stats"
)

func TestOscillatorSkew(t *testing.T) {
	o := NewOscillator(0, 20) // +20 ppm
	trueT := 24 * time.Hour
	local := o.Read(trueT)
	shift := local - trueT
	// 20 ppm over 24 h is ~1.728 s.
	want := time.Duration(20e-6 * float64(24*time.Hour.Nanoseconds()))
	if diff := shift - want; diff < -time.Millisecond || diff > time.Millisecond {
		t.Errorf("shift = %v, want ~%v", shift, want)
	}
}

func TestOscillatorOffset(t *testing.T) {
	o := NewOscillator(5*time.Second, 0)
	if got := o.Read(0); got != 5*time.Second {
		t.Errorf("Read(0) = %v, want 5s", got)
	}
	if got := o.Read(time.Hour) - time.Hour; got != 5*time.Second {
		t.Errorf("shift at 1h = %v, want 5s", got)
	}
}

func TestDayHelpers(t *testing.T) {
	tests := []struct {
		t   time.Duration
		day int
	}{
		{0, 1},
		{30 * time.Minute, 1},
		{23*time.Hour + 59*time.Minute, 1},
		{24 * time.Hour, 2},
		{13*DayLength + 15*time.Hour, 14},
		{-time.Second, 0},
	}
	for _, tt := range tests {
		if got := DayOf(tt.t); got != tt.day {
			t.Errorf("DayOf(%v) = %d, want %d", tt.t, got, tt.day)
		}
	}
	if got := StartOfDay(3); got != 2*DayLength {
		t.Errorf("StartOfDay(3) = %v", got)
	}
}

func TestClockString(t *testing.T) {
	tests := []struct {
		t    time.Duration
		want string
	}{
		{0, "00:00"},
		{15*time.Hour + 20*time.Minute, "15:20"},
		{DayLength + 12*time.Hour + 30*time.Minute, "12:30"},
		{9*time.Hour + 5*time.Minute, "09:05"},
	}
	for _, tt := range tests {
		if got := ClockString(tt.t); got != tt.want {
			t.Errorf("ClockString(%v) = %q, want %q", tt.t, got, tt.want)
		}
	}
}

// Property: DayOf and StartOfDay are consistent.
func TestQuickDayInvariants(t *testing.T) {
	f := func(raw uint32) bool {
		tt := time.Duration(raw) * time.Second
		day := DayOf(tt)
		if StartOfDay(day) > tt {
			return false
		}
		return StartOfDay(day+1) > tt
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: oscillator Read is monotone in true time for |skew| < 1000 ppm.
func TestQuickOscillatorMonotone(t *testing.T) {
	f := func(seed uint64) bool {
		r := stats.NewRNG(seed)
		o := NewOscillator(time.Duration(r.Intn(1000))*time.Millisecond, r.Range(-500, 500))
		prev := o.Read(0)
		for i := 1; i <= 20; i++ {
			cur := o.Read(time.Duration(i) * time.Hour)
			if cur <= prev {
				return false
			}
			prev = cur
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
