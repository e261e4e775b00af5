package simclock

import (
	"testing"
	"time"
)

func TestTimeArithmetic(t *testing.T) {
	t0 := At(90 * time.Minute)
	if got := t0.Add(30 * time.Minute); got != 2*Hour {
		t.Fatalf("Add: got %v, want %v", got, 2*Hour)
	}
	if got := t0.Sub(Hour); got != 30*time.Minute {
		t.Fatalf("Sub: got %v, want 30m", got)
	}
	if !Time(1).After(Time(0)) || !Time(0).Before(Time(1)) {
		t.Fatal("Before/After inconsistent")
	}
	if got := (2 * Hour).Hours(); got != 2 {
		t.Fatalf("Hours: got %v", got)
	}
	if got := (90 * Minute).Seconds(); got != 5400 {
		t.Fatalf("Seconds: got %v", got)
	}
}

func TestTimeCalendar(t *testing.T) {
	cases := []struct {
		at        Time
		day, hour int
		dow       int
		weekend   bool
	}{
		{0, 0, 0, 0, false},
		{26*Hour + 15*Minute, 1, 2, 1, false},
		{5 * Day, 5, 0, 5, true},
		{6*Day + 23*Hour, 6, 23, 6, true},
		{7 * Day, 7, 0, 0, false},
		{3*Week + 2*Day + Hour, 23, 1, 2, false},
	}
	for _, c := range cases {
		if got := c.at.DayIndex(); got != c.day {
			t.Errorf("%v DayIndex=%d want %d", c.at, got, c.day)
		}
		if got := c.at.HourOfDay(); got != c.hour {
			t.Errorf("%v HourOfDay=%d want %d", c.at, got, c.hour)
		}
		if got := c.at.DayOfWeek(); got != c.dow {
			t.Errorf("%v DayOfWeek=%d want %d", c.at, got, c.dow)
		}
		if got := c.at.Weekend(); got != c.weekend {
			t.Errorf("%v Weekend=%v want %v", c.at, got, c.weekend)
		}
	}
}

func TestTimeString(t *testing.T) {
	if got := (Day + 2*Hour + 3*Minute + 4*Second).String(); got != "d1+02:03:04" {
		t.Fatalf("String: got %q", got)
	}
	if got := Time(0).String(); got != "d0+00:00:00" {
		t.Fatalf("String zero: got %q", got)
	}
}
