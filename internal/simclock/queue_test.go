package simclock

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestQueueFiresInOrder(t *testing.T) {
	q := NewQueue()
	var got []Time
	times := []Time{5 * Second, Second, 3 * Second, 2 * Second, 4 * Second}
	for _, at := range times {
		at := at
		q.Schedule(at, "ev", func(q *Queue) { got = append(got, q.Now()) })
	}
	if err := q.Run(100); err != nil {
		t.Fatal(err)
	}
	if !sort.SliceIsSorted(got, func(i, j int) bool { return got[i] < got[j] }) {
		t.Fatalf("events out of order: %v", got)
	}
	if len(got) != len(times) {
		t.Fatalf("fired %d events, want %d", len(got), len(times))
	}
	if q.Fired() != uint64(len(times)) {
		t.Fatalf("Fired=%d want %d", q.Fired(), len(times))
	}
}

func TestQueueFIFOAtSameInstant(t *testing.T) {
	q := NewQueue()
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		q.Schedule(Second, "same", func(*Queue) { got = append(got, i) })
	}
	if err := q.Run(100); err != nil {
		t.Fatal(err)
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("FIFO violated at %d: %v", i, got)
		}
	}
}

func TestQueueSchedulePastPanics(t *testing.T) {
	q := NewQueue()
	q.Schedule(2*Second, "a", func(q *Queue) {
		defer func() {
			if recover() == nil {
				t.Error("scheduling in the past did not panic")
			}
		}()
		q.Schedule(Second, "past", func(*Queue) {})
	})
	if err := q.Run(10); err != nil {
		t.Fatal(err)
	}
}

func TestQueueCancel(t *testing.T) {
	q := NewQueue()
	fired := false
	ev := q.Schedule(Second, "victim", func(*Queue) { fired = true })
	if !q.Cancel(ev) {
		t.Fatal("Cancel returned false for pending event")
	}
	if q.Cancel(ev) {
		t.Fatal("double Cancel returned true")
	}
	if q.Cancel(nil) {
		t.Fatal("Cancel(nil) returned true")
	}
	if err := q.Run(10); err != nil {
		t.Fatal(err)
	}
	if fired {
		t.Fatal("cancelled event fired")
	}
}

func TestQueueCancelMiddleOfHeap(t *testing.T) {
	q := NewQueue()
	var got []string
	evs := make([]*Event, 0, 6)
	for i, name := range []string{"a", "b", "c", "d", "e", "f"} {
		name := name
		evs = append(evs, q.Schedule(Time(i+1)*Second, name, func(*Queue) { got = append(got, name) }))
	}
	q.Cancel(evs[2]) // "c"
	q.Cancel(evs[4]) // "e"
	if err := q.Run(10); err != nil {
		t.Fatal(err)
	}
	want := []string{"a", "b", "d", "f"}
	if len(got) != len(want) {
		t.Fatalf("got %v want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v want %v", got, want)
		}
	}
}

func TestQueueRunUntil(t *testing.T) {
	q := NewQueue()
	var fired []Time
	for _, at := range []Time{Second, 2 * Second, 3 * Second, 4 * Second} {
		q.Schedule(at, "ev", func(q *Queue) { fired = append(fired, q.Now()) })
	}
	q.RunUntil(2 * Second)
	if len(fired) != 2 {
		t.Fatalf("fired %d events before horizon, want 2 (events at horizon inclusive)", len(fired))
	}
	if q.Now() != 2*Second {
		t.Fatalf("Now=%v want 2s", q.Now())
	}
	q.RunUntil(10 * Second)
	if len(fired) != 4 {
		t.Fatalf("fired %d total, want 4", len(fired))
	}
	if q.Now() != 10*Second {
		t.Fatalf("clock should advance to horizon, got %v", q.Now())
	}
}

func TestQueueSelfScheduling(t *testing.T) {
	q := NewQueue()
	count := 0
	var tick func(q *Queue)
	tick = func(q *Queue) {
		count++
		if count < 5 {
			q.Schedule(q.Now()+Second, "tick", tick)
		}
	}
	q.Schedule(0, "tick", tick)
	if err := q.Run(100); err != nil {
		t.Fatal(err)
	}
	if count != 5 {
		t.Fatalf("count=%d want 5", count)
	}
	if q.Now() != 4*Second {
		t.Fatalf("Now=%v want 4s", q.Now())
	}
}

func TestQueueEventBudget(t *testing.T) {
	q := NewQueue()
	var tick func(q *Queue)
	tick = func(q *Queue) { q.Schedule(q.Now()+Second, "tick", tick) }
	q.Schedule(0, "tick", tick)
	if err := q.Run(50); err == nil {
		t.Fatal("expected budget-exhausted error")
	}
}

// Property: regardless of insertion order, events pop in nondecreasing
// time order and every scheduled (non-cancelled) event fires exactly once.
func TestQueueOrderProperty(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		r := rand.New(rand.NewSource(seed))
		q := NewQueue()
		total := int(n%64) + 1
		fired := 0
		last := Time(-1)
		ok := true
		for i := 0; i < total; i++ {
			at := Time(r.Int63n(1000)) * Millisecondish
			q.Schedule(at, "p", func(q *Queue) {
				fired++
				if q.Now() < last {
					ok = false
				}
				last = q.Now()
			})
		}
		if err := q.Run(uint64(total) + 1); err != nil {
			return false
		}
		return ok && fired == total
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Millisecondish is a convenient sub-second unit for property tests.
const Millisecondish = Time(1e6)
