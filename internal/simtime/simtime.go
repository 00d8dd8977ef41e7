// Package simtime provides the virtual-time substrate for the icares
// simulator: mission-day and clock helpers over virtual time, and the
// imperfect per-device oscillator model that converts true simulation time
// into locally observed device time (the source of the clock shifts the
// paper's reference badge corrects).
//
// The entire simulation runs on virtual time; nothing in this module touches
// the wall clock, so runs are deterministic and arbitrarily faster than real
// time.
package simtime

import "time"

// Mission times are expressed as time.Duration offsets from mission start
// (T0). Using Duration rather than time.Time keeps arithmetic explicit and
// avoids fake calendar dates.

// Day helpers shared across the simulator. The mission runs on "Martian
// time" maintained by artificial lighting; we model mission days as uniform
// 24 h periods from T0.

// DayLength is the length of one mission day.
const DayLength = 24 * time.Hour

// DayOf returns the 1-based mission day containing t (t=0 is day 1).
func DayOf(t time.Duration) int {
	if t < 0 {
		return 0
	}
	return int(t/DayLength) + 1
}

// StartOfDay returns the virtual time at which the 1-based day begins.
func StartOfDay(day int) time.Duration {
	return time.Duration(day-1) * DayLength
}

// TimeOfDay returns the offset of t within its day.
func TimeOfDay(t time.Duration) time.Duration {
	if t < 0 {
		return 0
	}
	return t % DayLength
}

// ClockString formats a time-of-day as HH:MM for report output.
func ClockString(t time.Duration) string {
	tod := TimeOfDay(t)
	h := int(tod / time.Hour)
	m := int(tod/time.Minute) % 60
	return twoDigits(h) + ":" + twoDigits(m)
}

func twoDigits(v int) string {
	return string([]byte{byte('0' + v/10), byte('0' + v%10)})
}
