// Package trace models smartphone app-usage traces: the schema for
// users and app sessions, a synthetic population generator calibrated to
// published smartphone-usage statistics, serialization so real traces
// can be substituted, ad-slot derivation, and trace characterization.
//
// The paper evaluated on proprietary traces of over 1,700 iPhone and
// Windows Phone users. Those traces are not available, so this package
// synthesizes a population with the two properties the paper's results
// actually depend on: (1) bursty, diurnal, heavy-tailed app usage, and
// (2) per-user day-over-day regularity, which is what makes client-side
// slot prediction feasible at all. Both are tunable so experiments can
// probe sensitivity to them.
package trace

import (
	"fmt"
	"time"

	"repro/internal/simclock"
)

// Platform tags a user with the device family, mirroring the paper's
// two trace sets.
type Platform string

const (
	PlatformIPhone       Platform = "iPhone"
	PlatformWindowsPhone Platform = "WindowsPhone"
)

// Session is one foreground app session.
type Session struct {
	App      AppID
	Start    simclock.Time
	Duration time.Duration
}

// End returns the instant the session closes.
func (s Session) End() simclock.Time { return s.Start.Add(s.Duration) }

// User is one device's trace: a time-ordered, non-overlapping sequence
// of sessions.
type User struct {
	ID       int
	Platform Platform
	Sessions []Session
}

// Validate checks ordering and non-overlap invariants.
func (u *User) Validate() error {
	for i, s := range u.Sessions {
		if s.Duration <= 0 {
			return fmt.Errorf("trace: user %d session %d: non-positive duration %v", u.ID, i, s.Duration)
		}
		if i > 0 && s.Start < u.Sessions[i-1].End() {
			return fmt.Errorf("trace: user %d session %d overlaps previous (start %v < end %v)",
				u.ID, i, s.Start, u.Sessions[i-1].End())
		}
	}
	return nil
}

// Population is a set of user traces covering the same span.
type Population struct {
	Users []*User
	Span  simclock.Time // exclusive end of the trace window
}

// Validate checks every user trace.
func (p *Population) Validate() error {
	for _, u := range p.Users {
		if err := u.Validate(); err != nil {
			return err
		}
	}
	return nil
}

// TotalSessions returns the number of sessions across all users.
func (p *Population) TotalSessions() int {
	n := 0
	for _, u := range p.Users {
		n += len(u.Sessions)
	}
	return n
}

// Days returns the number of whole days the population spans.
func (p *Population) Days() int { return int(p.Span / simclock.Day) }
