package sim

import (
	"fmt"
	"runtime"
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/simclock"
	"repro/internal/trace"
)

// streamConfig mirrors transportConfig's order-free serving contract
// (naive mode, no rescue, untargeted demand, effectively infinite
// budgets) at a chosen population size, so monetary outcomes are
// theorems of the trace, not of request interleaving.
func streamConfig(users, days int) Config {
	cfg := DefaultConfig(core.ModeNaiveBulk)
	cfg.TraceCfg.Users = users
	cfg.TraceCfg.Days = days
	cfg.WarmupDays = 1
	cfg.Core.NoRescue = true
	cfg.Demand.TargetedFrac = 0
	cfg.Demand.BudgetImpressions = 1_000_000_000
	return cfg
}

// walkSchedule drives the scheduler exactly as both drivers do —
// seedHeaps once, then drainDue on every worker's heap for every period
// and, without bound, after the last boundary — with a recording
// visitor in place of the engine or the HTTP devices. It fails unless
// every timeline event of every user is visited exactly once, in that
// user's order, in the period that contains it, by the worker owning
// the user's id range; each worker's visits come in (time, user id)
// order; a period costs one load per user with events in it; and no
// cursor holds a timeline at a boundary. It returns how many times two
// users' events fired back to back on one worker at the same instant.
func walkSchedule(t *testing.T, label string, timelines [][]timelineEvent, period, span simclock.Time, workers int) (ties int) {
	t.Helper()
	n := len(timelines)
	firstWake := make([]simclock.Time, n)
	awake := 0
	for id, tl := range timelines {
		firstWake[id] = -1
		if len(tl) > 0 {
			firstWake[id] = tl[0].at
			awake++
		}
	}
	heaps := seedHeaps(firstWake, workers)
	if want := min(workers, n); len(heaps) != want {
		t.Fatalf("%s: %d heaps for %d workers over %d users, want %d", label, len(heaps), workers, n, want)
	}
	seeded := 0
	for i := range heaps {
		seeded += heaps[i].Len()
	}
	if seeded != awake {
		t.Fatalf("%s: %d users seeded, want the %d with a non-empty timeline", label, seeded, awake)
	}

	cur := make([]cursor, n)
	next := make([]int, n) // index of the event each user must see next
	load := func(id int) []timelineEvent { return timelines[id] }
	periods := int(span / period)
	for pi := 0; pi <= periods; pi++ {
		now := simclock.Time(pi) * period
		end := now + period
		if pi == periods {
			end = endOfTime
		}
		var wantLoads int64
		for id, tl := range timelines {
			if next[id] < len(tl) && tl[next[id]].at < end {
				wantLoads++
			}
		}
		var loads int64
		for w := range heaps {
			lo, hi := w*n/len(heaps), (w+1)*n/len(heaps)
			last := simclock.Wake{At: -1}
			loaded, err := drainDue(&heaps[w], end, cur, load, func(id int, ev timelineEvent) error {
				tl := timelines[id]
				if id < lo || id >= hi {
					t.Fatalf("%s: worker %d visited user %d outside its range [%d, %d)", label, w, id, lo, hi)
				}
				if next[id] >= len(tl) {
					t.Fatalf("%s: user %d visited past its %d events (at %v)", label, id, len(tl), ev.at)
				}
				if want := tl[next[id]]; ev != want {
					t.Fatalf("%s: user %d visit #%d is the event at %v, want the one at %v",
						label, id, next[id], ev.at, want.at)
				}
				if ev.at < last.At || ev.at == last.At && id < last.ID {
					t.Fatalf("%s: worker %d fired user %d's event at %v after user %d's at %v",
						label, w, id, ev.at, last.ID, last.At)
				}
				if ev.at == last.At && id != last.ID {
					ties++
				}
				if ev.at < now || ev.at >= end {
					t.Fatalf("%s: user %d event at %v fired in period %d [%v, %v)", label, id, ev.at, pi, now, end)
				}
				last = simclock.Wake{At: ev.at, ID: id}
				next[id]++
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			loads += loaded
		}
		if loads != wantLoads {
			t.Fatalf("%s: period %d cost %d loads, want %d", label, pi, loads, wantLoads)
		}
		for id := range cur {
			if cur[id].tl != nil {
				t.Fatalf("%s: user %d's cursor holds its timeline at the boundary ending period %d", label, id, pi)
			}
		}
	}
	for w := range heaps {
		if heaps[w].Len() != 0 {
			t.Fatalf("%s: worker %d has %d wake-ups left after the trailing drain", label, w, heaps[w].Len())
		}
	}
	for id, tl := range timelines {
		if next[id] != len(tl) {
			t.Fatalf("%s: user %d saw %d of its %d events", label, id, next[id], len(tl))
		}
	}
	return ties
}

// seededTimelines derives a 40-user, 3-day population's timelines from
// seed and returns them with the trace span and the time of a real
// event at least an hour in, for a period boundary to land on.
func seededTimelines(t *testing.T, seed int64) ([][]timelineEvent, simclock.Time, simclock.Time) {
	t.Helper()
	gc := streamConfig(40, 3).TraceCfg
	gc.Seed = seed
	gc.SessionsPerDayMedian = float64(2 * seed)
	st, err := trace.NewStream(gc)
	if err != nil {
		t.Fatal(err)
	}
	cat := trace.NewCatalog(trace.DefaultCatalog())
	timelines := make([][]timelineEvent, st.Users())
	var onBoundary simclock.Time
	for id := range timelines {
		timelines[id] = buildTimeline(st.UserAt(id), cat, 30*time.Second)
		if tl := timelines[id]; onBoundary == 0 && len(tl) > 2 && tl[len(tl)/2].at >= simclock.Hour {
			onBoundary = tl[len(tl)/2].at
		}
	}
	if onBoundary == 0 {
		t.Fatalf("seed %d: no event to place a period boundary on", seed)
	}
	return timelines, st.Span(), onBoundary
}

// edgeTimelines are hand-built edge cases over four one-hour periods:
// events at time zero and exactly on every boundary, events straddling
// a boundary by one tick, a lone event opening the last period, and
// clients whose traces are empty.
func edgeTimelines() [][]timelineEvent {
	const period = simclock.Hour
	at := func(ts ...simclock.Time) []timelineEvent {
		tl := make([]timelineEvent, len(ts))
		for i, ts := range ts {
			tl[i] = timelineEvent{at: ts, slot: i%2 == 0, bytes: int64(i)}
		}
		return tl
	}
	return [][]timelineEvent{
		nil,
		at(0, period, 2*period, 3*period),
		at(period-1, period, period, period+1),
		nil,
		at(3 * period),
	}
}

// TestStreamSchedulerVisitsEveryEventOnce is the scheduler's property
// test, engine- and HTTP-free: over seeded lazy traces, several period
// lengths (dividing the span and not, and one placed so a real event
// lands exactly on a boundary) and worker counts from one to more than
// the population, the wake-heap walk must deliver each user's timeline
// once and in order — what sim.Run's outcomes and per-device request
// order on the wire rest on.
func TestStreamSchedulerVisitsEveryEventOnce(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		timelines, span, onBoundary := seededTimelines(t, seed)
		for _, period := range []simclock.Time{simclock.Hour, 4 * simclock.Hour, 7 * simclock.Hour, simclock.Day, onBoundary} {
			for _, workers := range []int{1, 3, 64} {
				walkSchedule(t, fmt.Sprintf("seed=%d period=%v workers=%d", seed, period, workers),
					timelines, period, span, workers)
			}
		}
	}

	const period = simclock.Hour
	edge := edgeTimelines()
	for _, workers := range []int{1, 2, 5, 8} {
		walkSchedule(t, fmt.Sprintf("edge workers=%d", workers), edge, period, 4*period, workers)
		walkSchedule(t, fmt.Sprintf("edge, partial last period, workers=%d", workers), edge, period, 3*period+1, workers)
	}
	walkSchedule(t, "no users", nil, period, 4*period, 4)
}

// TestDrainDueOrder pins the tie rule on traces quantized to the minute,
// so users share instants: at one worker (sim.Run's walk, and the
// wire's at Workers=1) and at three, same-instant events of different
// users fire in user id order, each worker's walk in (time, user id)
// order, every event once within its own period.
func TestDrainDueOrder(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		timelines, span, onBoundary := seededTimelines(t, seed)
		for _, tl := range timelines {
			for i := range tl {
				tl[i].at -= tl[i].at % simclock.Minute
			}
		}
		for _, period := range []simclock.Time{simclock.Hour, 7 * simclock.Hour, simclock.Day, onBoundary} {
			for _, workers := range []int{1, 3} {
				label := fmt.Sprintf("seed=%d period=%v workers=%d quantized", seed, period, workers)
				if walkSchedule(t, label, timelines, period, span, workers) == 0 {
					t.Fatalf("%s: no two users share an instant; the tie rule went untested", label)
				}
			}
		}
	}
	if walkSchedule(t, "edge", edgeTimelines(), simclock.Hour, 4*simclock.Hour, 1) == 0 {
		t.Fatal("edge: no two users share an instant")
	}
}

// drainUsers returns empty cursors for timelines, a loader over them,
// and a wake heap seeded with each user's first event, pushing users in
// the given order.
func drainUsers(timelines [][]timelineEvent, pushOrder []int) ([]cursor, func(int) []timelineEvent, *simclock.WakeHeap) {
	h := new(simclock.WakeHeap)
	for _, id := range pushOrder {
		if tl := timelines[id]; len(tl) > 0 {
			h.Push(simclock.Wake{At: tl[0].at, ID: id})
		}
	}
	return make([]cursor, len(timelines)), func(id int) []timelineEvent { return timelines[id] }, h
}

// TestDrainDueFiresInOrder: one event per user, queued out of time
// order, fires once each in time order.
func TestDrainDueFiresInOrder(t *testing.T) {
	times := []simclock.Time{5 * simclock.Second, simclock.Second, 3 * simclock.Second, 2 * simclock.Second, 4 * simclock.Second}
	timelines := make([][]timelineEvent, len(times))
	order := make([]int, len(times))
	for id, at := range times {
		timelines[id] = []timelineEvent{{at: at}}
		order[id] = id
	}
	cur, load, h := drainUsers(timelines, order)
	var got []simclock.Time
	if _, err := drainDue(h, endOfTime, cur, load, func(_ int, ev timelineEvent) error {
		got = append(got, ev.at)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(times) || !slices.IsSorted(got) {
		t.Fatalf("fired %v, want the %d events %v in time order", got, len(times), times)
	}
}

// TestDrainDueTiesByUserID pins the tie rule: events of different users
// at one instant fire in user id order, not in the order they were
// queued, and an event at the drain bound waits — a period boundary
// comes before any event at its own instant.
func TestDrainDueTiesByUserID(t *testing.T) {
	const n = 10
	timelines := make([][]timelineEvent, n)
	reversed := make([]int, n)
	for id := range timelines {
		timelines[id] = []timelineEvent{{at: simclock.Second}, {at: 2 * simclock.Second}}
		reversed[id] = n - 1 - id
	}
	cur, load, h := drainUsers(timelines, reversed)
	var got []int
	visit := func(id int, ev timelineEvent) error {
		if ev.at != simclock.Second {
			t.Fatalf("user %d's event at %v fired before the boundary at 2s", id, ev.at)
		}
		got = append(got, id)
		return nil
	}
	if _, err := drainDue(h, 2*simclock.Second, cur, load, visit); err != nil {
		t.Fatal(err)
	}
	for i, id := range got {
		if id != i {
			t.Fatalf("same-instant events fired in user order %v, want 0..%d", got, n-1)
		}
	}
	if len(got) != n || h.Len() != n {
		t.Fatalf("fired %d of %d events before the boundary; %d wake-ups left, want %d", len(got), n, h.Len(), n)
	}
}

// TestDrainDueQueuesNextEvent: a user is queued again at its next event
// as its current one fires, so the heap holds one wake-up per user, and
// the walk ends when the timeline does.
func TestDrainDueQueuesNextEvent(t *testing.T) {
	const n = 5
	tl := make([]timelineEvent, n)
	for i := range tl {
		tl[i] = timelineEvent{at: simclock.Time(i) * simclock.Second}
	}
	cur, load, h := drainUsers([][]timelineEvent{tl}, []int{0})
	count := 0
	var last simclock.Time
	if _, err := drainDue(h, endOfTime, cur, load, func(_ int, ev timelineEvent) error {
		count++
		last = ev.at
		if want := min(1, n-count); h.Len() != want {
			t.Fatalf("after event %d the heap holds %d wake-ups, want %d", count, h.Len(), want)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if count != n || last != (n-1)*simclock.Second {
		t.Fatalf("fired %d events, last at %v; want %d, last at %v", count, last, n, (n-1)*simclock.Second)
	}
}

// TestStreamValidation pins the replay's input rejections, without
// running one.
func TestStreamValidation(t *testing.T) {
	cfg := streamConfig(10, 2)
	ok := TransportOpts{Shards: 1}
	if err := validateTransport(cfg, ok); err != nil {
		t.Fatalf("valid options rejected: %v", err)
	}
	pre := cfg
	popCfg := pre.TraceCfg
	popCfg.Users = 5
	pop, err := trace.Generate(popCfg)
	if err != nil {
		t.Fatal(err)
	}
	pre.Population = pop
	if err := validateTransport(pre, ok); err == nil {
		t.Fatal("accepted a supplied Population")
	}
	bad := cfg
	bad.TraceCfg.Users = -1
	if _, err := RunTransportStream(bad, ok); err == nil {
		t.Fatal("accepted an invalid trace config")
	}
	huge := cfg
	huge.TraceCfg.Users = FloodClientBase + 1
	flood := &FloodSpec{Tenant: "pubB", Devices: 1, PerPeriod: 1}
	if err := validateTransport(huge, TransportOpts{Shards: 1, Flood: flood}); err == nil {
		t.Fatal("accepted a flood whose ids collide with the population")
	}
	huge.MaxUsers = FloodClientBase
	if err := validateTransport(huge, TransportOpts{Shards: 1, Flood: flood}); err != nil {
		t.Fatalf("rejected a flood above a MaxUsers-capped population: %v", err)
	}
	for name, o := range map[string]TransportOpts{
		"zero shards":              {},
		"BinaryBatch sans Batched": {Shards: 1, BinaryBatch: true},
		"crashes without a WAL":    {Shards: 1, Crashes: faults.NewCrashSchedule(faults.CrashPoint{Op: "slot", After: 1})},
		"migrations without nodes": {Shards: 1, Migrations: []MigrationStep{{Period: 1, AddNode: true}}},
	} {
		if err := validateTransport(cfg, o); err == nil {
			t.Fatalf("accepted %s", name)
		}
	}
}

// TestStreamBoundedMemory is the scale acceptance: 100k devices
// replayed through the wake-heap scheduler must fit under a pinned heap
// budget. The config skews toward long media-heavy sessions so a
// resident timeline would balloon (media apps emit a refresh event
// every few seconds) while the HTTP op count stays bounded via a coarse
// ad refresh interval — exactly the regime where lazy derivation pays.
func TestStreamBoundedMemory(t *testing.T) {
	if testing.Short() {
		t.Skip("100k-device HTTP replay")
	}
	const users = 100_000
	cfg := streamConfig(users, 1)
	cfg.WarmupDays = 0
	cfg.TraceCfg.SessionsPerDayMedian = 2
	cfg.TraceCfg.SessionMedianSec = 600
	cfg.TraceCfg.MaxSessionSec = 1200
	cfg.RefreshInterval = 10 * time.Minute
	cfg.Core.Server.Period = 12 * time.Hour

	// High-water: sample HeapAlloc while the replay runs and take the
	// peak growth over the pre-run (collected) baseline.
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	base := ms.HeapAlloc
	var peak atomic.Uint64
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		var ms runtime.MemStats
		for {
			select {
			case <-stop:
				return
			case <-time.After(50 * time.Millisecond):
			}
			runtime.ReadMemStats(&ms)
			if h := ms.HeapAlloc; h > peak.Load() {
				peak.Store(h)
			}
		}
	}()
	res, err := RunTransportStream(cfg, TransportOpts{Shards: 2, Workers: 4, Batched: true, Lean: true})
	close(stop)
	<-done
	if err != nil {
		t.Fatal(err)
	}
	if peak.Load() <= base {
		t.Fatalf("high-water not measurable: peak %d <= base %d", peak.Load(), base)
	}
	high := peak.Load() - base

	if res.Counters.SlotsServed == 0 || res.Ledger.Sold == 0 || res.Ledger.Billed == 0 {
		t.Fatalf("inert run: %+v %+v", res.Counters, res.Ledger)
	}
	if res.PerClient != nil {
		t.Fatal("Lean run still carries per-client counters")
	}

	// Pinned budget: the run's whole working set — devices, server pool,
	// wake heaps, transient derivations, GC slack — for 100k clients.
	// Measured ~1.1 GiB high-water (~0.55 GiB live); the budget leaves
	// headroom for GC timing while still regressing any O(population x
	// sessions) resident state, which alone would add ~0.5 GiB live /
	// ~1 GiB high-water here.
	const budget = 1700 << 20 // 1.7 GiB
	t.Logf("heap high-water: %.1f MiB (budget %.0f MiB)", float64(high)/(1<<20), float64(budget)/(1<<20))
	if high > budget {
		t.Fatalf("heap high-water %d exceeds budget %d", high, budget)
	}
}
