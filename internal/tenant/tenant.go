// Package tenant models the publishers a multi-tenant deployment
// serves: who owns which client ids, how much traffic each publisher
// may push (token-bucket rate limits), and how much open-book exposure
// each may hold (per-tenant shed thresholds replacing the single
// global MaxOpenBook knob).
//
// A Registry is immutable after construction — hot reload swaps a
// whole registry atomically (see transport's config epochs), so a
// request observes exactly one config, never a blend. The legacy
// deployment is the nil registry (or a client id outside every range):
// tenant "" with no limits, which keeps every pre-tenant test, WAL and
// golden byte-stable.
//
// Rate limiting runs on virtual time: buckets refill from the request
// timestamps (now_ns) the simulated fleet carries, monotonically, so
// a seeded replay admits deterministically per tenant no matter how
// wall-clock schedules the goroutines.
package tenant

import (
	"fmt"
	"sort"
	"sync"
)

// Legacy is the implicit single-publisher tenant: empty id, no limits.
// Client ids outside every configured range belong to it.
const Legacy = ""

// Config is one tenant's admission contract. A tenant owns the client
// id range [Lo, Hi).
type Config struct {
	ID string `json:"id"`
	Lo int    `json:"lo"`
	Hi int    `json:"hi"`

	// RatePerSec and Burst parameterize the tenant's token bucket over
	// rate-limited operations (slot, ondemand, bundle — never display
	// reports, which are money). Zero RatePerSec means unlimited.
	RatePerSec float64 `json:"rate_per_sec,omitempty"`
	Burst      float64 `json:"burst,omitempty"`

	// MaxOpenBook sheds the tenant's slot/ondemand traffic while the
	// tenant's own open (undisplayed, unexpired) impression count
	// exceeds it. Zero disables the per-tenant threshold.
	MaxOpenBook int `json:"max_open_book,omitempty"`
}

// Validate checks one tenant config in isolation.
func (c Config) Validate() error {
	switch {
	case c.ID == Legacy:
		return fmt.Errorf("tenant: empty tenant id (reserved for the legacy tenant)")
	case c.Hi <= c.Lo:
		return fmt.Errorf("tenant %q: empty client range [%d,%d)", c.ID, c.Lo, c.Hi)
	case c.RatePerSec < 0:
		return fmt.Errorf("tenant %q: negative rate %v", c.ID, c.RatePerSec)
	case c.Burst < 0:
		return fmt.Errorf("tenant %q: negative burst %v", c.ID, c.Burst)
	case c.RatePerSec > 0 && c.Burst <= 0:
		return fmt.Errorf("tenant %q: rate limit needs a positive burst", c.ID)
	case c.MaxOpenBook < 0:
		return fmt.Errorf("tenant %q: negative MaxOpenBook %d", c.ID, c.MaxOpenBook)
	}
	return nil
}

// bucket is one tenant's token bucket. Refills ride the virtual
// request clock, monotonically: a late-arriving older timestamp never
// rolls the bucket back.
type bucket struct {
	mu     sync.Mutex
	tokens float64
	lastNS int64
}

// Decision is the outcome of one admission check.
type Decision struct {
	OK     bool
	Tenant string
	// RetryAfter is the suggested client backoff in whole seconds when
	// refused (how long until the bucket holds one token again).
	RetryAfter int
}

// Registry is an immutable tenant table: sorted client-id ranges, one
// token bucket per tenant. Safe for concurrent use. Build a new one
// (and swap it atomically) to change config.
type Registry struct {
	epoch   uint64
	cfgs    []Config // sorted by Lo
	buckets []*bucket
	byID    map[string]int // tenant id -> index into cfgs
}

// NewRegistry validates and indexes a tenant set. Ranges must not
// overlap and ids must be unique. The tenant list is defensively
// copied; the caller may reuse its slice.
func NewRegistry(epoch uint64, cfgs []Config) (*Registry, error) {
	r := &Registry{
		epoch:   epoch,
		cfgs:    append([]Config(nil), cfgs...),
		buckets: make([]*bucket, len(cfgs)),
		byID:    make(map[string]int, len(cfgs)),
	}
	for _, c := range r.cfgs {
		if err := c.Validate(); err != nil {
			return nil, err
		}
	}
	sort.Slice(r.cfgs, func(i, j int) bool { return r.cfgs[i].Lo < r.cfgs[j].Lo })
	for i, c := range r.cfgs {
		if i > 0 && c.Lo < r.cfgs[i-1].Hi {
			return nil, fmt.Errorf("tenant: ranges of %q and %q overlap", r.cfgs[i-1].ID, c.ID)
		}
		if _, dup := r.byID[c.ID]; dup {
			return nil, fmt.Errorf("tenant: duplicate tenant id %q", c.ID)
		}
		r.byID[c.ID] = i
		b := &bucket{lastNS: 0}
		if c.RatePerSec > 0 {
			b.tokens = c.Burst // a fresh config starts with a full bucket
		}
		r.buckets[i] = b
	}
	return r, nil
}

// Epoch returns the config epoch this registry was installed under.
func (r *Registry) Epoch() uint64 { return r.epoch }

// Tenants returns the tenant configs sorted by client range.
func (r *Registry) Tenants() []Config {
	return append([]Config(nil), r.cfgs...)
}

// IDs returns the tenant ids sorted by client range.
func (r *Registry) IDs() []string {
	out := make([]string, len(r.cfgs))
	for i, c := range r.cfgs {
		out[i] = c.ID
	}
	return out
}

// index locates the tenant owning a client id; -1 for the legacy
// tenant. Zero allocations: a binary search over the sorted ranges.
func (r *Registry) index(clientID int) int {
	lo, hi := 0, len(r.cfgs)
	for lo < hi {
		mid := (lo + hi) / 2
		if r.cfgs[mid].Lo <= clientID {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo == 0 {
		return -1
	}
	if c := r.cfgs[lo-1]; clientID < c.Hi {
		return lo - 1
	}
	return -1
}

// TenantOf returns the tenant id owning a client id, or Legacy.
func (r *Registry) TenantOf(clientID int) string {
	if r == nil {
		return Legacy
	}
	if i := r.index(clientID); i >= 0 {
		return r.cfgs[i].ID
	}
	return Legacy
}

// ConfigOf returns a tenant's config by id.
func (r *Registry) ConfigOf(id string) (Config, bool) {
	if r == nil {
		return Config{}, false
	}
	if i, ok := r.byID[id]; ok {
		return r.cfgs[i], true
	}
	return Config{}, false
}

// Admit charges cost tokens against the client's tenant bucket at
// virtual time nowNS. Legacy clients (and tenants without a rate) are
// always admitted. Refused decisions carry the tenant id and a
// RetryAfter hint. The check is the serving hot path: it allocates
// nothing.
func (r *Registry) Admit(clientID int, nowNS int64, cost float64) Decision {
	if r == nil {
		return Decision{OK: true, Tenant: Legacy}
	}
	i := r.index(clientID)
	if i < 0 {
		return Decision{OK: true, Tenant: Legacy}
	}
	c := r.cfgs[i]
	if c.RatePerSec <= 0 {
		return Decision{OK: true, Tenant: c.ID}
	}
	b := r.buckets[i]
	b.mu.Lock()
	defer b.mu.Unlock()
	if nowNS > b.lastNS {
		b.tokens += float64(nowNS-b.lastNS) / 1e9 * c.RatePerSec
		if b.tokens > c.Burst {
			b.tokens = c.Burst
		}
		b.lastNS = nowNS
	}
	if b.tokens >= cost {
		b.tokens -= cost
		return Decision{OK: true, Tenant: c.ID}
	}
	wait := int((cost-b.tokens)/c.RatePerSec) + 1
	if wait > 60 {
		wait = 60
	}
	return Decision{Tenant: c.ID, RetryAfter: wait}
}
