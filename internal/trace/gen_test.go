package trace

import (
	"testing"
	"time"

	"repro/internal/simclock"
)

func smallConfig() GenConfig {
	cfg := DefaultGenConfig()
	cfg.Users = 40
	cfg.Days = 7
	return cfg
}

func TestGenerateValidPopulation(t *testing.T) {
	pop, err := Generate(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := pop.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(pop.Users) != 40 {
		t.Fatalf("users=%d", len(pop.Users))
	}
	if pop.Days() != 7 {
		t.Fatalf("days=%d", pop.Days())
	}
	if pop.TotalSessions() == 0 {
		t.Fatal("no sessions generated")
	}
	// Every session is inside the span.
	for _, u := range pop.Users {
		for _, s := range u.Sessions {
			if s.Start < 0 || s.End() > pop.Span {
				t.Fatalf("user %d session out of span: %v + %v", u.ID, s.Start, s.Duration)
			}
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a, err := Generate(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	if a.TotalSessions() != b.TotalSessions() {
		t.Fatalf("session counts differ: %d vs %d", a.TotalSessions(), b.TotalSessions())
	}
	for i := range a.Users {
		as, bs := a.Users[i].Sessions, b.Users[i].Sessions
		if len(as) != len(bs) {
			t.Fatalf("user %d session counts differ", i)
		}
		for j := range as {
			if as[j] != bs[j] {
				t.Fatalf("user %d session %d differs: %+v vs %+v", i, j, as[j], bs[j])
			}
		}
	}
}

func TestGenerateSeedMatters(t *testing.T) {
	cfg := smallConfig()
	a, _ := Generate(cfg)
	cfg.Seed = 99
	b, _ := Generate(cfg)
	if a.TotalSessions() == b.TotalSessions() {
		// Counts colliding is possible but contents matching entirely is not.
		same := true
	outer:
		for i := range a.Users {
			if len(a.Users[i].Sessions) != len(b.Users[i].Sessions) {
				same = false
				break
			}
			for j := range a.Users[i].Sessions {
				if a.Users[i].Sessions[j] != b.Users[i].Sessions[j] {
					same = false
					break outer
				}
			}
		}
		if same {
			t.Fatal("different seeds produced identical populations")
		}
	}
}

func TestGenerateDiurnal(t *testing.T) {
	pop, err := Generate(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	// Sessions in 02:00-05:00 must be well under those in 18:00-21:00.
	night, evening := 0, 0
	for _, u := range pop.Users {
		for _, s := range u.Sessions {
			switch h := s.Start.HourOfDay(); {
			case h >= 2 && h < 5:
				night++
			case h >= 18 && h < 21:
				evening++
			}
		}
	}
	if ratio := float64(night) / float64(evening); evening == 0 || ratio > 0.4 {
		t.Fatalf("population not diurnal: %d night vs %d evening sessions", night, evening)
	}
	if h := PeakHour(pop); h < 11 || h > 23 {
		t.Fatalf("implausible peak hour %d", h)
	}
}

func TestGenerateHeterogeneity(t *testing.T) {
	cfg := smallConfig()
	cfg.Users = 100
	pop, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	minS, maxS := 1<<30, 0
	for _, u := range pop.Users {
		n := len(u.Sessions)
		if n < minS {
			minS = n
		}
		if n > maxS {
			maxS = n
		}
	}
	if maxS < 3*minS+3 {
		t.Fatalf("population too homogeneous: min=%d max=%d sessions", minS, maxS)
	}
}

func TestGenerateRegularityKnob(t *testing.T) {
	lowCfg := smallConfig()
	lowCfg.Users = 60
	lowCfg.Days = 14
	lowCfg.Regularity = 0.05
	highCfg := lowCfg
	highCfg.Regularity = 0.95

	low, err := Generate(lowCfg)
	if err != nil {
		t.Fatal(err)
	}
	high, err := Generate(highCfg)
	if err != nil {
		t.Fatal(err)
	}
	cat := NewCatalog(DefaultCatalog())
	lowC := Characterize(low, cat, 30*time.Second)
	highC := Characterize(high, cat, 30*time.Second)
	if highC.DayRegularity.Mean() <= lowC.DayRegularity.Mean() {
		t.Fatalf("regularity knob ineffective: high=%v low=%v",
			highC.DayRegularity.Mean(), lowC.DayRegularity.Mean())
	}
}

func TestGenerateWeekendFactor(t *testing.T) {
	cfg := smallConfig()
	cfg.Users = 150
	cfg.Days = 14
	cfg.WeekendFactor = 2.0
	pop, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	weekday, weekend := 0, 0
	for _, u := range pop.Users {
		for _, s := range u.Sessions {
			if s.Start.Weekend() {
				weekend++
			} else {
				weekday++
			}
		}
	}
	// 4 weekend days vs 10 weekdays in 14 days; with 2x factor, the
	// per-day weekend rate should clearly exceed the weekday rate.
	perWeekend := float64(weekend) / 4
	perWeekday := float64(weekday) / 10
	if perWeekend < 1.3*perWeekday {
		t.Fatalf("weekend factor ineffective: weekend/day=%v weekday/day=%v", perWeekend, perWeekday)
	}
}

func TestGenerateConfigValidation(t *testing.T) {
	bad := []func(*GenConfig){
		func(c *GenConfig) { c.Users = 0 },
		func(c *GenConfig) { c.Days = 0 },
		func(c *GenConfig) { c.Regularity = 1.5 },
		func(c *GenConfig) { c.SessionsPerDayMedian = 0 },
		func(c *GenConfig) { c.SessionMedianSec = 0 },
		func(c *GenConfig) { c.MaxSessionSec = 1 },
		func(c *GenConfig) { c.FracIPhone = -0.1 },
	}
	for i, mutate := range bad {
		cfg := DefaultGenConfig()
		mutate(&cfg)
		if _, err := Generate(cfg); err == nil {
			t.Errorf("case %d: expected validation error", i)
		}
	}
}

func TestPlatformSplit(t *testing.T) {
	cfg := smallConfig()
	cfg.Users = 100
	cfg.FracIPhone = 0.9
	pop, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	iphone := 0
	for _, u := range pop.Users {
		if u.Platform == PlatformIPhone {
			iphone++
		}
	}
	if iphone != 90 {
		t.Fatalf("iPhone users = %d, want 90", iphone)
	}
}

func TestResolveOverlaps(t *testing.T) {
	span := simclock.Day
	s := []Session{
		{Start: 0, Duration: 10 * time.Second},
		{Start: simclock.At(5 * time.Second), Duration: 10 * time.Second},      // overlaps
		{Start: simclock.At(40 * time.Second), Duration: 10 * time.Second},     // fine
		{Start: span - simclock.At(5*time.Second), Duration: 10 * time.Second}, // runs past span
	}
	out := resolveOverlaps(s, span)
	if len(out) != 3 {
		t.Fatalf("len=%d want 3", len(out))
	}
	for i := 1; i < len(out); i++ {
		if out[i].Start < out[i-1].End() {
			t.Fatalf("overlap remains at %d", i)
		}
	}
}
