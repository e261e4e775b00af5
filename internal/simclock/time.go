// Package simclock provides virtual time, the wake heap both simulation
// drivers schedule events with, and seedable random-number streams for
// the ad-prefetching simulator.
//
// All simulation components share a single virtual clock. Time is a
// nanosecond count from the start of the simulation (Time 0 is "midnight
// Monday" of the simulated epoch by convention, which lets the trace
// generator and predictors reason about time-of-day and day-of-week
// without pulling in the wall-clock time package for anything but
// durations).
package simclock

import (
	"fmt"
	"time"
)

// Time is an instant in virtual time, in nanoseconds since the simulation
// epoch. The zero Time is the epoch itself.
type Time int64

// Common durations used throughout the simulator.
const (
	Second = Time(time.Second)
	Minute = Time(time.Minute)
	Hour   = Time(time.Hour)
	Day    = 24 * Hour
	Week   = 7 * Day
)

// At returns the instant d after the epoch.
func At(d time.Duration) Time { return Time(d) }

// Add returns the instant d after t.
func (t Time) Add(d time.Duration) Time { return t + Time(d) }

// Sub returns the duration t-u.
func (t Time) Sub(u Time) time.Duration { return time.Duration(t - u) }

// Before reports whether t precedes u.
func (t Time) Before(u Time) bool { return t < u }

// After reports whether t follows u.
func (t Time) After(u Time) bool { return t > u }

// Duration converts the instant to the duration elapsed since the epoch.
func (t Time) Duration() time.Duration { return time.Duration(t) }

// Seconds returns the elapsed time since the epoch in seconds.
func (t Time) Seconds() float64 { return time.Duration(t).Seconds() }

// Hours returns the elapsed time since the epoch in hours.
func (t Time) Hours() float64 { return time.Duration(t).Hours() }

// DayIndex returns the zero-based day number of the instant.
func (t Time) DayIndex() int { return int(t / Day) }

// HourOfDay returns the hour-of-day in [0,24).
func (t Time) HourOfDay() int { return int((t % Day) / Hour) }

// DayOfWeek returns the zero-based day of week in [0,7), where 0 is the
// epoch's weekday (Monday by convention).
func (t Time) DayOfWeek() int { return int((t / Day) % 7) }

// Weekend reports whether the instant falls on day 5 or 6 of the week
// (Saturday/Sunday under the Monday-epoch convention).
func (t Time) Weekend() bool { d := t.DayOfWeek(); return d == 5 || d == 6 }

// String formats the instant as d<day>+hh:mm:ss for readable logs.
func (t Time) String() string {
	if t < 0 {
		return fmt.Sprintf("-%s", (-t).String())
	}
	rem := time.Duration(t % Day)
	h := int(rem / time.Hour)
	m := int(rem/time.Minute) % 60
	s := int(rem/time.Second) % 60
	return fmt.Sprintf("d%d+%02d:%02d:%02d", t.DayIndex(), h, m, s)
}
