package client

import (
	"reflect"
	"slices"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/auction"
	"repro/internal/simclock"
)

func TestNewCacheValidation(t *testing.T) {
	if _, err := NewCache(0); err == nil {
		t.Fatal("cap 0 should error")
	}
	c, err := NewCache(3)
	if err != nil || c.Cap() != 3 || c.Len() != 0 {
		t.Fatalf("c=%+v err=%v", c, err)
	}
}

func TestCacheOrdersByDeadline(t *testing.T) {
	c, _ := NewCache(10)
	c.Add(
		CachedAd{ID: 1, Deadline: 3 * simclock.Hour},
		CachedAd{ID: 2, Deadline: simclock.Hour},
		CachedAd{ID: 3, Deadline: 2 * simclock.Hour},
	)
	snap := c.Snapshot()
	if snap[0].ID != 2 || snap[1].ID != 3 || snap[2].ID != 1 {
		t.Fatalf("order wrong: %+v", snap)
	}
}

func TestCacheOverflowDropsFarthest(t *testing.T) {
	c, _ := NewCache(2)
	dropped := c.Add(
		CachedAd{ID: 1, Deadline: simclock.Hour},
		CachedAd{ID: 2, Deadline: 3 * simclock.Hour},
		CachedAd{ID: 3, Deadline: 2 * simclock.Hour},
	)
	if dropped != 1 {
		t.Fatalf("dropped %d, want 1", dropped)
	}
	if snap := c.Snapshot(); len(snap) != 2 || snap[0].ID != 1 || snap[1].ID != 3 {
		t.Fatalf("kept %+v, want ids 1 and 3 (the farthest deadline, id 2, dropped)", snap)
	}
}

func TestCacheTakeEDF(t *testing.T) {
	c, _ := NewCache(10)
	c.Add(
		CachedAd{ID: 1, Deadline: 2 * simclock.Hour},
		CachedAd{ID: 2, Deadline: simclock.Hour},
	)
	ad, ok := c.Take(0, nil)
	if !ok || ad.ID != 2 {
		t.Fatalf("EDF violated: %+v ok=%v", ad, ok)
	}
	if c.Len() != 1 {
		t.Fatalf("len=%d", c.Len())
	}
}

func TestCacheTakeSkipsExpiredAndCancelled(t *testing.T) {
	c, _ := NewCache(10)
	c.Add(
		CachedAd{ID: 1, Deadline: simclock.Hour},     // will be expired
		CachedAd{ID: 2, Deadline: 3 * simclock.Hour}, // cancelled
		CachedAd{ID: 3, Deadline: 4 * simclock.Hour}, // usable
		CachedAd{ID: 4, Deadline: 5 * simclock.Hour}, // stays
	)
	cancelled := func(id auction.ImpressionID) bool { return id == 2 }
	ad, ok := c.Take(2*simclock.Hour, cancelled)
	if !ok || ad.ID != 3 {
		t.Fatalf("got %+v ok=%v", ad, ok)
	}
	// 1 and 2 dropped on the way, 3 taken, 4 remains.
	if c.Len() != 1 || c.Snapshot()[0].ID != 4 {
		t.Fatalf("remaining %+v", c.Snapshot())
	}
}

func TestCacheTakeExactDeadlineUsable(t *testing.T) {
	c, _ := NewCache(10)
	c.Add(CachedAd{ID: 1, Deadline: simclock.Hour})
	if _, ok := c.Take(simclock.Hour, nil); !ok {
		t.Fatal("ad at exactly its deadline should still display")
	}
}

func TestCacheTakeEmpty(t *testing.T) {
	c, _ := NewCache(10)
	if _, ok := c.Take(0, nil); ok {
		t.Fatal("empty cache returned an ad")
	}
}

func TestDeviceScheduledDelivery(t *testing.T) {
	d, err := NewDevice(7, 10)
	if err != nil {
		t.Fatal(err)
	}
	d.Assign([]CachedAd{{ID: 1, Deadline: simclock.Hour}}, true)
	if d.Cache.Len() != 1 || len(d.Pending) != 0 {
		t.Fatalf("scheduled delivery should ingest immediately: cache=%d pending=%d",
			d.Cache.Len(), len(d.Pending))
	}
	if d.Counters.BundleFetches != 1 || d.Counters.BundledAds != 1 {
		t.Fatalf("counters %+v", d.Counters)
	}
}

func TestDevicePiggybackDelivery(t *testing.T) {
	d, _ := NewDevice(7, 10)
	d.Assign([]CachedAd{{ID: 1, Deadline: simclock.Hour}, {ID: 2, Deadline: simclock.Hour}}, false)
	if d.Cache.Len() != 0 || len(d.Pending) != 2 {
		t.Fatal("piggyback delivery should defer")
	}
	if n := d.TakePending(); n != 2 {
		t.Fatalf("TakePending=%d", n)
	}
	if d.Cache.Len() != 2 || len(d.Pending) != 0 {
		t.Fatal("pending not ingested")
	}
	if n := d.TakePending(); n != 0 {
		t.Fatalf("second TakePending=%d", n)
	}
	d.Assign(nil, false)
	if len(d.Pending) != 0 {
		t.Fatal("assigning empty bundle should be a no-op")
	}
}

func TestDeviceServeSlot(t *testing.T) {
	d, _ := NewDevice(1, 10)
	d.Assign([]CachedAd{{ID: 5, Deadline: simclock.Hour}}, true)
	ad, hit := d.ServeSlot(simclock.At(0), nil)
	if !hit || ad.ID != 5 {
		t.Fatalf("ad=%+v hit=%v", ad, hit)
	}
	if _, hit := d.ServeSlot(simclock.At(0), nil); hit {
		t.Fatal("empty cache should miss")
	}
	ct := d.Counters
	if ct.SlotsServed != 2 || ct.CacheHits != 1 || ct.OnDemandFetches != 1 {
		t.Fatalf("counters %+v", ct)
	}
	if ct.HitRate() != 0.5 {
		t.Fatalf("hit rate %v", ct.HitRate())
	}
	var zero Counters
	if zero.HitRate() != 0 {
		t.Fatal("zero counters hit rate should be 0")
	}
}

func TestDeviceServeSlotCountsExpiredDrops(t *testing.T) {
	d, _ := NewDevice(1, 10)
	d.Assign([]CachedAd{
		{ID: 1, Deadline: simclock.Hour},
		{ID: 2, Deadline: simclock.Hour},
		{ID: 3, Deadline: 10 * simclock.Hour},
	}, true)
	ad, hit := d.ServeSlot(5*simclock.Hour, nil)
	if !hit || ad.ID != 3 {
		t.Fatalf("ad=%+v", ad)
	}
	if d.Counters.DroppedExpired != 2 {
		t.Fatalf("dropped expired %d", d.Counters.DroppedExpired)
	}
	// All-expired path: misses and counts the drops.
	d2, _ := NewDevice(2, 10)
	d2.Assign([]CachedAd{{ID: 1, Deadline: simclock.Hour}}, true)
	if _, hit := d2.ServeSlot(5*simclock.Hour, nil); hit {
		t.Fatal("expired-only cache should miss")
	}
	if d2.Counters.DroppedExpired != 1 {
		t.Fatalf("dropped %d", d2.Counters.DroppedExpired)
	}
}

// Property: the cache never exceeds capacity, never returns expired or
// cancelled ads, and conserves entries (taken + dropped + remaining =
// added).
func TestCacheInvariantProperty(t *testing.T) {
	f := func(seed int64, ops uint8) bool {
		r := simclock.NewRand(seed)
		c, err := NewCache(5)
		if err != nil {
			return false
		}
		added, taken, droppedOverflow, droppedOther := 0, 0, 0, 0
		now := simclock.Time(0)
		nextID := auction.ImpressionID(1)
		for i := 0; i < int(ops); i++ {
			now = now + simclock.Time(r.Int63n(int64(simclock.Hour)))
			if r.Bernoulli(0.6) {
				n := r.Intn(3) + 1
				ads := make([]CachedAd, n)
				for j := range ads {
					ads[j] = CachedAd{
						ID:       nextID,
						Deadline: now + simclock.Time(r.Int63n(int64(4*simclock.Hour))),
					}
					nextID++
				}
				added += n
				droppedOverflow += c.Add(ads...)
			} else {
				before := c.Len()
				ad, ok := c.Take(now, func(id auction.ImpressionID) bool { return id%7 == 0 })
				after := c.Len()
				if ok {
					taken++
					if now.After(ad.Deadline) || ad.ID%7 == 0 {
						return false
					}
					droppedOther += before - after - 1
				} else {
					droppedOther += before - after
				}
			}
			if c.Len() > 5 {
				return false
			}
		}
		return added == taken+droppedOverflow+droppedOther+c.Len()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestCountersAddSumsEveryField sets every Counters field to a distinct
// value on both sides and checks Add summed each one, so a counter
// added later cannot be silently dropped from the fleet totals.
func TestCountersAddSumsEveryField(t *testing.T) {
	var a, b Counters
	va, vb := reflect.ValueOf(&a).Elem(), reflect.ValueOf(&b).Elem()
	for i := 0; i < va.NumField(); i++ {
		if f := va.Field(i); f.Kind() != reflect.Int64 {
			t.Fatalf("Counters.%s has kind %s: teach Add and this test to sum it", va.Type().Field(i).Name, f.Kind())
		}
		va.Field(i).SetInt(int64(i + 1))
		vb.Field(i).SetInt(int64(100 * (i + 1)))
	}
	a.Add(b)
	for i := 0; i < va.NumField(); i++ {
		if got, want := va.Field(i).Int(), int64(101*(i+1)); got != want {
			t.Errorf("Add left %s = %d, want %d", va.Type().Field(i).Name, got, want)
		}
	}
}

// refCacheAdd is the insertion Cache.Add is checked against: dedup the
// incoming ads through a map of the held ids, re-sort everything by
// (Deadline, Tie, ID), cut at capacity. It returns the new entries and
// how many were dropped.
func refCacheAdd(entries []CachedAd, capacity int, ads ...CachedAd) ([]CachedAd, int) {
	out := append([]CachedAd(nil), entries...)
	have := make(map[auction.ImpressionID]bool, len(out))
	for _, e := range out {
		have[e.ID] = true
	}
	for _, ad := range ads {
		if have[ad.ID] {
			continue
		}
		have[ad.ID] = true
		out = append(out, ad)
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Deadline != b.Deadline {
			return a.Deadline < b.Deadline
		}
		if a.Tie != b.Tie {
			return a.Tie < b.Tie
		}
		return a.ID < b.ID
	})
	dropped := 0
	if len(out) > capacity {
		dropped = len(out) - capacity
		out = out[:capacity]
	}
	return out, dropped
}

// TestCacheAddMatchesSortReference drives Cache.Add and refCacheAdd
// over the same seeded batches and compares the entries, in order, and
// the dropped count after every call. The draws are narrow on purpose:
// ids repeat inside one batch and against the cache (with a different
// deadline, so a wrong survivor shows), deadlines and ties collide,
// batches overflow the capacity, and some batches are empty. Takes in
// between keep the cache churning.
func TestCacheAddMatchesSortReference(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		r := simclock.NewRand(seed)
		capacity := 1 + r.Intn(8)
		if seed%4 == 0 {
			capacity = 64
		}
		c, err := NewCache(capacity)
		if err != nil {
			t.Fatal(err)
		}
		var ref []CachedAd
		for call := 0; call < 60; call++ {
			batch := make([]CachedAd, r.Intn(2*capacity+3)) // zero length: an empty batch
			for i := range batch {
				batch[i] = CachedAd{
					ID:       auction.ImpressionID(r.Intn(3*capacity + 4)),
					Deadline: simclock.Time(r.Intn(4)) * simclock.Hour,
					Tie:      uint64(r.Intn(3)),
				}
			}
			var want int
			ref, want = refCacheAdd(ref, capacity, batch...)
			got := c.Add(batch...)
			if snap := c.Snapshot(); !slices.Equal(snap, ref) {
				t.Fatalf("seed %d call %d: entries\n got %+v\nwant %+v", seed, call, snap, ref)
			}
			if got != want {
				t.Fatalf("seed %d call %d: dropped %d, want %d", seed, call, got, want)
			}
			if r.Bernoulli(0.3) {
				c.Take(simclock.Time(r.Intn(3))*simclock.Hour, func(id auction.ImpressionID) bool { return id%5 == 0 })
				ref = c.Snapshot()
			}
		}
	}
}

// cacheAddRound refills c to 64 from 56 with eight ads of fresh ids
// whose deadlines interleave with the held ones, then drops the eight
// most urgent entries (as eight takes would): the steady state of a
// device that consumes its cache as bundles arrive.
type cacheAddRound struct {
	c     *Cache
	batch []CachedAd
	next  auction.ImpressionID
	now   simclock.Time
}

func newCacheAddRound(t testing.TB) *cacheAddRound {
	c, err := NewCache(64)
	if err != nil {
		t.Fatal(err)
	}
	r := &cacheAddRound{c: c, batch: make([]CachedAd, 8)}
	for c.Len() < 56 {
		r.fill()
		c.Add(r.batch...)
	}
	return r
}

func (r *cacheAddRound) fill() {
	for i := range r.batch {
		r.next++
		r.batch[i] = CachedAd{
			ID:       r.next,
			Deadline: r.now + simclock.Time(uint64(r.next)*2654435761%uint64(4*simclock.Hour)),
			Tie:      uint64(r.next) * 0x9e3779b97f4a7c15,
		}
	}
	r.now += 4 * simclock.Hour / 7
}

func (r *cacheAddRound) run(tb testing.TB) {
	r.fill()
	if dropped := r.c.Add(r.batch...); dropped != 0 || r.c.Len() != 64 {
		tb.Fatalf("dropped %d, len %d: the round should fill the cache exactly", dropped, r.c.Len())
	}
	r.c.entries = r.c.entries[:copy(r.c.entries, r.c.entries[8:])]
}

// TestCacheAddAllocationBudget pins Add at zero allocations once the
// backing array has grown, when the merged set fits the capacity: the
// dedup is a scan and the merge works in place.
func TestCacheAddAllocationBudget(t *testing.T) {
	r := newCacheAddRound(t)
	r.run(t) // grows the backing array to its steady size
	if n := testing.AllocsPerRun(200, func() { r.run(t) }); n != 0 {
		t.Errorf("Cache.Add allocates %v objects per bundle, want exactly 0", n)
	}
}

// BenchmarkCacheAdd is one bundle of 8 merged into a cache of 64
// (refilled from 56 each op, see cacheAddRound).
func BenchmarkCacheAdd(b *testing.B) {
	r := newCacheAddRound(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.run(b)
	}
}
