package trace

import (
	"math"
	"time"

	"repro/internal/metrics"
)

// Characterization summarizes a population the way the paper's trace
// section does: how often users open apps, how long sessions last, how
// many ad slots that implies, and how self-similar each user's usage is
// day over day (the property that makes prediction feasible).
type Characterization struct {
	Users           int
	Days            int
	TotalSessions   int
	SessionsPerDay  metrics.Sample // per user-day
	SessionLenSec   metrics.Sample // per session
	SlotsPerHour    metrics.Sample // per user-hour, under the given refresh
	SlotsPerDay     metrics.Sample // per user-day
	DayRegularity   metrics.Sample // per user: mean day-pair correlation of hourly slot counts
	RefreshInterval time.Duration
}

// Characterize computes the summary for the population under the given
// ad refresh interval.
func Characterize(p *Population, cat *Catalog, refresh time.Duration) *Characterization {
	days := p.Days()
	c := &Characterization{
		Users:           len(p.Users),
		Days:            days,
		TotalSessions:   p.TotalSessions(),
		RefreshInterval: refresh,
	}
	for _, u := range p.Users {
		perDay := make([]int, days)
		for _, s := range u.Sessions {
			d := s.Start.DayIndex()
			if d < days {
				perDay[d]++
			}
			c.SessionLenSec.Add(s.Duration.Seconds())
		}
		for _, n := range perDay {
			c.SessionsPerDay.Add(float64(n))
		}
		hourly := SlotsPerPeriod(u, cat, refresh, time.Hour, p.Span)
		daySlots := make([]float64, days)
		for i, n := range hourly {
			c.SlotsPerHour.Add(float64(n))
			d := i / 24
			if d < days {
				daySlots[d] += float64(n)
			}
		}
		for _, n := range daySlots {
			c.SlotsPerDay.Add(n)
		}
		// Regularity is measured on 4-hour buckets: hourly counts are too
		// sparse for a stable correlation, and 4 h is the system's
		// prefetch-period granularity anyway.
		buckets := SlotsPerPeriod(u, cat, refresh, 4*time.Hour, p.Span)
		if r, ok := userDayRegularity(buckets, 6, days); ok {
			c.DayRegularity.Add(r)
		}
	}
	return c
}

// userDayRegularity computes the mean Pearson correlation between the
// per-bucket slot-count vectors of consecutive days, where perDay is the
// number of buckets in a day. Returns ok=false when a user has no
// variance to correlate (e.g. almost no usage).
func userDayRegularity(series []int, perDay, days int) (float64, bool) {
	if days < 2 || perDay < 2 {
		return 0, false
	}
	dayVec := func(d int) []float64 {
		v := make([]float64, perDay)
		for h := 0; h < perDay; h++ {
			i := d*perDay + h
			if i < len(series) {
				v[h] = float64(series[i])
			}
		}
		return v
	}
	sum, n := 0.0, 0
	for d := 0; d+1 < days; d++ {
		if r, ok := pearson(dayVec(d), dayVec(d+1)); ok {
			sum += r
			n++
		}
	}
	if n == 0 {
		return 0, false
	}
	return sum / float64(n), true
}

func pearson(a, b []float64) (float64, bool) {
	n := len(a)
	if n == 0 || n != len(b) {
		return 0, false
	}
	var ma, mb float64
	for i := 0; i < n; i++ {
		ma += a[i]
		mb += b[i]
	}
	ma /= float64(n)
	mb /= float64(n)
	var cov, va, vb float64
	for i := 0; i < n; i++ {
		da, db := a[i]-ma, b[i]-mb
		cov += da * db
		va += da * da
		vb += db * db
	}
	if va == 0 || vb == 0 {
		return 0, false
	}
	return cov / math.Sqrt(va*vb), true
}

// Table renders the characterization as the F2 experiment table.
func (c *Characterization) Table() *metrics.Table {
	t := metrics.NewTable(
		"F2: trace characterization",
		"metric", "mean", "p50", "p90", "p99")
	row := func(name string, s *metrics.Sample) {
		t.AddRow(name, s.Mean(), s.Quantile(0.5), s.Quantile(0.9), s.Quantile(0.99))
	}
	row("sessions/user/day", &c.SessionsPerDay)
	row("session length (s)", &c.SessionLenSec)
	row("ad slots/user/hour", &c.SlotsPerHour)
	row("ad slots/user/day", &c.SlotsPerDay)
	row("day-over-day regularity (corr)", &c.DayRegularity)
	t.AddNote("%d users, %d days, refresh %v, %d sessions",
		c.Users, c.Days, c.RefreshInterval, c.TotalSessions)
	return t
}

// PeakHour returns the hour-of-day with the most sessions across the
// population, for sanity-checking the diurnal model.
func PeakHour(p *Population) int {
	var byHour [24]int
	for _, u := range p.Users {
		for _, s := range u.Sessions {
			byHour[s.Start.HourOfDay()]++
		}
	}
	best := 0
	for h, n := range byHour {
		if n > byHour[best] {
			best = h
		}
	}
	return best
}
