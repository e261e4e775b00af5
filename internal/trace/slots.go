package trace

import (
	"time"

	"repro/internal/simclock"
)

// SlotCount is how many ads one session shows under the given refresh
// interval: the ad control shows an ad when a session starts and
// refreshes it at a fixed interval while the app stays in the foreground
// (the Microsoft Ad SDK default is 30 s), so one at session start, then
// one per refresh boundary strictly inside the session. The i-th shows
// at s.Start + i·refresh.
func SlotCount(s Session, refresh time.Duration) int {
	if refresh <= 0 {
		return 1
	}
	n := 1 + int(s.Duration/refresh)
	if s.Duration%refresh == 0 && s.Duration > 0 {
		// A session lasting exactly k refreshes shows k ads (the display
		// at the closing instant never renders).
		n--
	}
	return n
}

// SlotsOfSession returns the ad display instants of one session under
// the given refresh interval (see SlotCount).
func SlotsOfSession(s Session, refresh time.Duration) []simclock.Time {
	n := SlotCount(s, refresh)
	out := make([]simclock.Time, n)
	for i := range out {
		out[i] = s.Start.Add(time.Duration(i) * refresh)
	}
	return out
}

// SlotsPerPeriod buckets a user's slots in ad-supported apps into
// consecutive periods of the given length covering [0, span). This is
// the series the client predictors are trained on.
func SlotsPerPeriod(u *User, cat *Catalog, refresh, period time.Duration, span simclock.Time) []int {
	n := int(span / simclock.Time(period))
	if simclock.Time(n)*simclock.Time(period) < span {
		n++
	}
	counts := make([]int, n)
	for _, s := range u.Sessions {
		if !cat.App(s.App).AdSupported {
			continue
		}
		for k := range SlotCount(s, refresh) {
			i := int(s.Start.Add(time.Duration(k)*refresh) / simclock.Time(period))
			if i >= 0 && i < n {
				counts[i]++
			}
		}
	}
	return counts
}
