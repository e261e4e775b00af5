package trace

import (
	"testing"
	"testing/quick"
	"time"

	"repro/internal/simclock"
)

func TestSlotsOfSession(t *testing.T) {
	s := Session{Start: simclock.At(time.Minute), Duration: 95 * time.Second}
	got := SlotsOfSession(s, 30*time.Second)
	// 95 s session, refresh 30 s: ads at +0, +30, +60, +90.
	if len(got) != 4 {
		t.Fatalf("len=%d want 4 (%v)", len(got), got)
	}
	if got[0] != s.Start || got[3] != s.Start.Add(90*time.Second) {
		t.Fatalf("slot times wrong: %v", got)
	}
}

func TestSlotsExactMultiple(t *testing.T) {
	s := Session{Start: 0, Duration: 60 * time.Second}
	// Exactly two refresh intervals: ads at +0 and +30 only (the ad at
	// +60 would render at the closing instant).
	if got := SlotCount(s, 30*time.Second); got != 2 {
		t.Fatalf("got %d want 2", got)
	}
}

func TestSlotsShortSession(t *testing.T) {
	s := Session{Start: 0, Duration: 3 * time.Second}
	if got := SlotCount(s, 30*time.Second); got != 1 {
		t.Fatalf("short session slots=%d want 1", got)
	}
}

func TestSlotsZeroRefresh(t *testing.T) {
	s := Session{Start: simclock.At(5 * time.Second), Duration: time.Hour}
	got := SlotsOfSession(s, 0)
	if len(got) != 1 || got[0] != s.Start {
		t.Fatalf("zero refresh should give one slot at start: %v", got)
	}
}

// Property: SlotCount agrees with len(SlotsOfSession); slots lie inside
// [start, end) and are spaced exactly one refresh apart.
func TestSlotsProperty(t *testing.T) {
	f := func(durSec uint16, refreshSec uint8) bool {
		dur := time.Duration(durSec%3600+1) * time.Second
		refresh := time.Duration(refreshSec%120+5) * time.Second
		s := Session{Start: simclock.At(time.Hour), Duration: dur}
		slots := SlotsOfSession(s, refresh)
		if len(slots) != SlotCount(s, refresh) {
			return false
		}
		for i, at := range slots {
			if at < s.Start || at >= s.End() {
				return false
			}
			if i > 0 && at.Sub(slots[i-1]) != refresh {
				return false
			}
		}
		return len(slots) >= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestUserSlotsFiltersAndOrders(t *testing.T) {
	cat := NewCatalog([]App{
		{Name: "withAds", AdSupported: true},
		{Name: "noAds", AdSupported: false},
	})
	u := &User{ID: 3, Sessions: []Session{
		{App: 0, Start: 0, Duration: 65 * time.Second},
		{App: 1, Start: simclock.At(2 * time.Minute), Duration: 65 * time.Second},
		{App: 0, Start: simclock.At(4 * time.Minute), Duration: 10 * time.Second},
	}}
	slots := UserSlots(u, cat, 30*time.Second)
	if len(slots) != 4 { // 3 from first session + 0 + 1 from last
		t.Fatalf("len=%d want 4: %+v", len(slots), slots)
	}
	for i := 1; i < len(slots); i++ {
		if slots[i].At < slots[i-1].At {
			t.Fatal("slots out of order")
		}
	}
	if slots[0].User != 3 || slots[3].Session != 2 {
		t.Fatalf("slot metadata wrong: %+v", slots)
	}
}

func TestSlotsPerPeriod(t *testing.T) {
	cat := NewCatalog([]App{{Name: "a", AdSupported: true}})
	u := &User{Sessions: []Session{
		{App: 0, Start: simclock.At(10 * time.Minute), Duration: 65 * time.Second}, // 3 slots in hour 0
		{App: 0, Start: simclock.At(90 * time.Minute), Duration: 5 * time.Second},  // 1 slot in hour 1
	}}
	counts := SlotsPerPeriod(u, cat, 30*time.Second, time.Hour, 3*simclock.Hour)
	want := []int{3, 1, 0}
	if len(counts) != 3 {
		t.Fatalf("len=%d", len(counts))
	}
	for i := range want {
		if counts[i] != want[i] {
			t.Fatalf("counts=%v want %v", counts, want)
		}
	}
}

func TestSlotsPerPeriodConservation(t *testing.T) {
	cfg := smallConfig()
	pop, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cat := NewCatalog(DefaultCatalog())
	for _, u := range pop.Users[:10] {
		total := len(UserSlots(u, cat, 30*time.Second))
		counts := SlotsPerPeriod(u, cat, 30*time.Second, 4*time.Hour, pop.Span)
		sum := 0
		for _, n := range counts {
			sum += n
		}
		if sum != total {
			t.Fatalf("user %d: period sum %d != slot count %d", u.ID, sum, total)
		}
	}
}

func TestCatalogLookup(t *testing.T) {
	cat := NewCatalog(DefaultCatalog())
	if cat.Len() != 15 {
		t.Fatalf("catalog len=%d want 15", cat.Len())
	}
	if cat.App(0).Name == "" {
		t.Fatal("app 0 unnamed")
	}
	apps := cat.Apps()
	apps[0].Name = "mutated"
	if cat.App(0).Name == "mutated" {
		t.Fatal("Apps() exposed internal state")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range app id should panic")
		}
	}()
	cat.App(99)
}

func TestUserValidate(t *testing.T) {
	bad := &User{Sessions: []Session{
		{Start: 0, Duration: time.Minute},
		{Start: simclock.At(30 * time.Second), Duration: time.Minute},
	}}
	if err := bad.Validate(); err == nil {
		t.Fatal("overlapping sessions should fail validation")
	}
	bad2 := &User{Sessions: []Session{{Start: 0, Duration: 0}}}
	if err := bad2.Validate(); err == nil {
		t.Fatal("zero-duration session should fail validation")
	}
}
