// Package client implements the device-side runtime of the prefetching
// ad system: a deadline-aware ad cache, delivery bookkeeping (scheduled
// or piggybacked bundles), and per-device counters. The simulator and
// the HTTP device runtime (internal/transport) drive a Device with slot
// and period events; the Device decides whether each ad slot is served
// from cache or must fall back to an energy-expensive on-demand fetch.
package client

import (
	"cmp"
	"fmt"
	"slices"

	"repro/internal/auction"
	"repro/internal/simclock"
)

// CachedAd is one prefetched replica held by a device.
type CachedAd struct {
	ID       auction.ImpressionID
	Deadline simclock.Time

	// Tie orders ads that share a deadline. The server sets it to a
	// per-(client, impression) hash so different replicas of the same
	// impression sit at *uncorrelated* cache positions across clients —
	// with a global order (e.g. by ID) the last-sold impressions would
	// lose the race on every replica simultaneously and replication
	// would buy nothing.
	Tie uint64
}

// Cache is a deadline-ordered ad cache with bounded capacity. Ads are
// served earliest-deadline-first, which maximizes the number of
// impressions shown before expiry.
type Cache struct {
	cap     int
	entries []CachedAd // kept sorted by (Deadline, Tie, ID)
}

// NewCache creates a cache holding at most cap ads; cap must be >= 1.
func NewCache(cap int) (*Cache, error) {
	if cap < 1 {
		return nil, fmt.Errorf("client: cache capacity must be >= 1, got %d", cap)
	}
	return &Cache{cap: cap}, nil
}

// Len returns the number of cached ads.
func (c *Cache) Len() int { return len(c.entries) }

// Cap returns the capacity.
func (c *Cache) Cap() int { return c.cap }

// Add inserts ads, keeping deadline order. Ads whose impression is
// already cached are skipped (a device never holds two copies of the
// same impression). If the cache overflows, the farthest-deadline
// entries are dropped (they are the least urgent and the most likely to
// be displayable by a replica elsewhere). It returns how many ads were
// dropped.
//
// The held entries are already in order, so only the fresh ads are
// sorted, then merged in from the back; once the backing array has
// grown, Add does not allocate. Ids are unique after the dedup, so the
// order is total and the result is the one a full re-sort would give.
func (c *Cache) Add(ads ...CachedAd) (dropped int) {
	n := len(c.entries)
	for _, ad := range ads {
		if !c.holds(ad.ID) {
			c.entries = append(c.entries, ad)
		}
	}
	k := len(c.entries) - n
	if k == 0 {
		return 0
	}
	fresh := c.entries[n:]
	slices.SortFunc(fresh, compareCached)
	// Fresh ads that all sort after the held ones (a later period's
	// bundle, as a rule) are already in place. Otherwise merge: the
	// merge writes [0, n+k) from the back, which can overrun fresh ads
	// it has yet to read, so it reads copies staged past that range.
	if n > 0 && compareCached(c.entries[n-1], fresh[0]) > 0 {
		c.entries = append(c.entries, fresh...)
		held, staged := c.entries[:n], c.entries[n+k:]
		for w := n + k - 1; len(staged) > 0; w-- {
			if i := len(held) - 1; i >= 0 && compareCached(held[i], staged[len(staged)-1]) > 0 {
				c.entries[w], held = held[i], held[:i]
			} else {
				c.entries[w], staged = staged[len(staged)-1], staged[:len(staged)-1]
			}
		}
		c.entries = c.entries[:n+k]
	}
	if len(c.entries) > c.cap {
		dropped = len(c.entries) - c.cap
		c.entries = c.entries[:c.cap]
	}
	return dropped
}

// holds reports whether an ad of the impression is cached: a scan, as
// the cache holds at most its capacity (tens of ads).
func (c *Cache) holds(id auction.ImpressionID) bool {
	for _, e := range c.entries {
		if e.ID == id {
			return true
		}
	}
	return false
}

// compareCached orders the cache by (Deadline, Tie, ID).
func compareCached(a, b CachedAd) int {
	if a.Deadline != b.Deadline {
		return cmp.Compare(a.Deadline, b.Deadline)
	}
	if a.Tie != b.Tie {
		return cmp.Compare(a.Tie, b.Tie)
	}
	return cmp.Compare(a.ID, b.ID)
}

// Take removes and returns the most urgent usable ad at instant now:
// not past its deadline and not known-cancelled per the callback.
// Expired entries encountered on the way are dropped; known-cancelled
// entries are dropped too (the server already has a claimant). ok is
// false if nothing usable remains.
func (c *Cache) Take(now simclock.Time, cancelled func(auction.ImpressionID) bool) (CachedAd, bool) {
	keep := c.entries[:0]
	var chosen CachedAd
	found := false
	for _, e := range c.entries {
		if found {
			keep = append(keep, e)
			continue
		}
		if now.After(e.Deadline) {
			continue // expired; the exchange sweep will record the violation
		}
		if cancelled != nil && cancelled(e.ID) {
			continue // claimed elsewhere and we know it
		}
		chosen = e
		found = true
	}
	c.entries = keep
	return chosen, found
}

// Snapshot returns a copy of the cache contents, most urgent first.
func (c *Cache) Snapshot() []CachedAd {
	out := make([]CachedAd, len(c.entries))
	copy(out, c.entries)
	return out
}

// Counters aggregates one device's outcomes.
type Counters struct {
	SlotsServed     int64 // total ad slots that fired
	CacheHits       int64 // served from prefetched cache
	OnDemandFetches int64 // fallback network fetches
	BundleFetches   int64 // prefetch bundle downloads
	BundledAds      int64 // ads delivered in bundles
	DroppedOverflow int64 // ads dropped on cache overflow
	DroppedExpired  int64 // ads dropped expired in cache
}

// Add accumulates o into ct, field by field: the one fleet-wide
// counter sum (both replay drivers' Result.Counters).
func (ct *Counters) Add(o Counters) {
	ct.SlotsServed += o.SlotsServed
	ct.CacheHits += o.CacheHits
	ct.OnDemandFetches += o.OnDemandFetches
	ct.BundleFetches += o.BundleFetches
	ct.BundledAds += o.BundledAds
	ct.DroppedOverflow += o.DroppedOverflow
	ct.DroppedExpired += o.DroppedExpired
}

// Sub returns the counter deltas c - o (for measuring a window).
func (ct Counters) Sub(o Counters) Counters {
	return Counters{
		SlotsServed:     ct.SlotsServed - o.SlotsServed,
		CacheHits:       ct.CacheHits - o.CacheHits,
		OnDemandFetches: ct.OnDemandFetches - o.OnDemandFetches,
		BundleFetches:   ct.BundleFetches - o.BundleFetches,
		BundledAds:      ct.BundledAds - o.BundledAds,
		DroppedOverflow: ct.DroppedOverflow - o.DroppedOverflow,
		DroppedExpired:  ct.DroppedExpired - o.DroppedExpired,
	}
}

// HitRate returns CacheHits / SlotsServed.
func (ct Counters) HitRate() float64 {
	if ct.SlotsServed == 0 {
		return 0
	}
	return float64(ct.CacheHits) / float64(ct.SlotsServed)
}

// Device is one simulated phone's ad runtime.
type Device struct {
	ID    int
	Cache *Cache

	// Pending holds a bundle assigned by the server but not yet
	// downloaded (piggyback delivery defers the download to the next
	// natural radio wake).
	Pending []CachedAd

	Counters Counters
}

// NewDevice creates a device with the given cache capacity.
func NewDevice(id, cacheCap int) (*Device, error) {
	c, err := NewCache(cacheCap)
	if err != nil {
		return nil, err
	}
	return &Device{ID: id, Cache: c}, nil
}

// Assign queues a bundle for delivery. With deliverNow, the bundle goes
// straight into the cache (scheduled delivery: the caller is
// responsible for charging the radio transfer); otherwise it waits in
// Pending for the next TakePending.
func (d *Device) Assign(ads []CachedAd, deliverNow bool) {
	if len(ads) == 0 {
		return
	}
	if deliverNow {
		d.ingest(ads)
		return
	}
	d.Pending = append(d.Pending, ads...)
}

// TakePending moves the pending bundle into the cache and returns how
// many ads were downloaded (0 if none were pending). The caller charges
// the corresponding radio transfer.
func (d *Device) TakePending() int {
	n := len(d.Pending)
	if n == 0 {
		return 0
	}
	d.ingest(d.Pending)
	d.Pending = nil
	return n
}

func (d *Device) ingest(ads []CachedAd) {
	dropped := d.Cache.Add(ads...)
	d.Counters.BundleFetches++
	d.Counters.BundledAds += int64(len(ads))
	d.Counters.DroppedOverflow += int64(dropped)
}

// ServeSlot serves one ad slot at instant now. It returns the cached ad
// displayed (hit=true), or hit=false meaning the caller must fall back
// to an on-demand fetch. Cancellation knowledge is queried through the
// callback (the server's claim set as this client last learned it).
func (d *Device) ServeSlot(now simclock.Time, cancelled func(auction.ImpressionID) bool) (CachedAd, bool) {
	d.Counters.SlotsServed++
	before := d.Cache.Len()
	ad, ok := d.Cache.Take(now, cancelled)
	if ok {
		d.Counters.CacheHits++
		d.Counters.DroppedExpired += int64(before - d.Cache.Len() - 1)
		return ad, true
	}
	d.Counters.OnDemandFetches++
	d.Counters.DroppedExpired += int64(before - d.Cache.Len())
	return CachedAd{}, false
}
