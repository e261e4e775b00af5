package transport

// Multi-tenant admission and crash-safe config hot-reload. The tenant
// registry (internal/tenant) is an immutable table held behind an
// atomic pointer: the serving path reads exactly one config per
// request, never a blend. Config changes arrive as *epochs* — a logged,
// monotonically numbered record applied atomically while every shard
// lock is held — so a node killed mid-reload recovers to exactly the
// pre- or post-reload config:
//
//	POST /v1/admin/config {epoch, tenants:[...]}  -> {epoch, tenants, applied}
//
// The record is WAL-appended *before* the swap; replay re-applies it
// idempotently (an epoch at or below the snapshot's is skipped), so the
// recovered registry equals the live one at the same log position.
// Devices carry their tenant on the wire (X-AdPrefetch-Tenant, the
// batch envelope's tenant field, the APB2 binary frame); a wire tenant
// that contradicts the registry's client-range attribution is refused
// with 403 before anything executes.

import (
	"net/http"
	"sort"
	"strconv"

	"repro/internal/auction"
	"repro/internal/obs"
	"repro/internal/tenant"
)

// TenantHeader carries the requesting device's tenant id
// (X-AdPrefetch-Tenant; the constant is its canonical MIME spelling,
// like VersionHeader). Optional: attribution is authoritative from the
// registry's client-id ranges; the header exists so a misconfigured
// device is refused (403) instead of silently billed to another
// publisher.
const TenantHeader = "X-Adprefetch-Tenant"

// opConfigEpoch is the WAL record kind for one applied config epoch.
const opConfigEpoch = "config_epoch"

// ConfigMsg is the POST /v1/admin/config body: a full tenant table
// under a monotonically increasing epoch. Epochs at or below the
// current one are acknowledged without effect, which makes the endpoint
// (and its WAL replay) idempotent across retries and crashes.
type ConfigMsg struct {
	Epoch   uint64          `json:"epoch"`
	Tenants []tenant.Config `json:"tenants"`
}

// ConfigReply acknowledges a config epoch. Applied is false when the
// epoch was already current (an idempotent repeat).
type ConfigReply struct {
	Epoch   uint64 `json:"epoch"`
	Tenants int    `json:"tenants"`
	Applied bool   `json:"applied"`
}

// MergeConfig is the router's /v1/admin/config merge over the members'
// acknowledgements: the highest epoch and tenant count any member holds,
// and Applied when any member installed the push fresh.
func MergeConfig(parts []ConfigReply) ConfigReply {
	var out ConfigReply
	for _, cr := range parts {
		out.Epoch = max(out.Epoch, cr.Epoch)
		out.Tenants = max(out.Tenants, cr.Tenants)
		out.Applied = out.Applied || cr.Applied
	}
	return out
}

// TenantHealth is one tenant's /v1/health section: its open book and
// configured bounds, admission outcomes, and its ledger view.
type TenantHealth struct {
	Tenant      string         `json:"tenant"`
	OpenBook    int            `json:"open_book"`
	MaxOpenBook int            `json:"max_open_book,omitempty"`
	RatePerSec  float64        `json:"rate_per_sec,omitempty"`
	Admitted    int64          `json:"admitted,omitempty"`
	Shed        int64          `json:"shed,omitempty"`
	Ledger      auction.Ledger `json:"ledger"`
}

// Add accumulates o's open book, admission counts and ledger into th:
// the one per-tenant health sum, over shards on a node (tenantHealth)
// and over nodes at the router (MergeHealth). The config fields —
// Tenant, MaxOpenBook, RatePerSec — are the same in every part and stay
// as th has them.
func (th *TenantHealth) Add(o TenantHealth) {
	th.OpenBook += o.OpenBook
	th.Admitted += o.Admitted
	th.Shed += o.Shed
	th.Ledger.Add(o.Ledger)
}

// tenantMetrics holds the pre-resolved per-tenant counters for the
// current registry, swapped together with it (counter identities are
// stable across swaps — the obs registry returns the existing series
// for a repeated name+label).
type tenantMetrics struct {
	admitted map[string]*obs.Counter
	shed     map[string]*obs.Counter
}

// SetTenants installs a tenant registry (nil restores legacy
// single-tenant serving). Safe while serving: every shard lock is taken
// for the swap, so no request observes a half-installed config. For
// logged, crash-safe reloads use ApplyConfig (or the admin endpoint);
// SetTenants is the programmatic boot-time path and is not WAL-logged —
// callers recovering a WAL must install the same initial registry
// before Recover, exactly like they must rebuild the same shard layout.
func (s *ShardedServer) SetTenants(reg *tenant.Registry) {
	defer s.lockAll()()
	s.installTenants(reg)
}

// Tenants returns the currently installed registry (nil = legacy).
func (s *ShardedServer) Tenants() *tenant.Registry { return s.tenants.Load() }

// ConfigEpoch returns the current config epoch (0 = no registry, or a
// boot-time registry installed under epoch 0).
func (s *ShardedServer) ConfigEpoch() uint64 {
	if reg := s.tenants.Load(); reg != nil {
		return reg.Epoch()
	}
	return 0
}

// installTenants swaps the registry, its metrics and every engine's
// tenancy attribution. Callers must hold every shard's mu (or run
// single-threaded, as during recovery).
func (s *ShardedServer) installTenants(reg *tenant.Registry) {
	s.tenants.Store(reg)
	var tenantOf func(clientID int) string
	if reg != nil {
		tenantOf = reg.TenantOf
		s.reg.SetHelp("tenant_admitted_total", "Rate-limited operations admitted, by tenant.")
		s.reg.SetHelp("tenant_shed_total", "Operations refused 429 by per-tenant admission, by tenant.")
		tm := &tenantMetrics{
			admitted: make(map[string]*obs.Counter),
			shed:     make(map[string]*obs.Counter),
		}
		for _, id := range reg.IDs() {
			tm.admitted[id] = s.reg.Counter("tenant_admitted_total", "tenant", id)
			tm.shed[id] = s.reg.Counter("tenant_shed_total", "tenant", id)
		}
		s.tm.Store(tm)
	} else {
		s.tm.Store(nil)
	}
	for _, sh := range s.shards {
		sh.srv.SetTenancy(tenantOf)
	}
}

// ApplyConfig applies one config epoch: validate, WAL-log, then swap
// the registry atomically between requests (all shard locks held).
// Epochs at or below the current one are acknowledged idempotently —
// the retry contract across lost replies and crash recovery.
func (s *ShardedServer) ApplyConfig(msg ConfigMsg) (ConfigReply, error) {
	s.adminMu.Lock()
	defer s.adminMu.Unlock()
	cur := s.tenants.Load()
	var curEpoch uint64
	if cur != nil {
		curEpoch = cur.Epoch()
	}
	if msg.Epoch <= curEpoch {
		reply := ConfigReply{Epoch: curEpoch}
		if cur != nil {
			reply.Tenants = len(cur.Tenants())
		}
		return reply, nil
	}
	reg, err := tenant.NewRegistry(msg.Epoch, msg.Tenants)
	if err != nil {
		return ConfigReply{}, err
	}
	// Quiesce every engine: the record and the swap are atomic against
	// all serving paths, so recovery lands exactly before or exactly
	// after the whole reload — never inside it. The append precedes the
	// swap; if it fail-stops, nothing was applied and the retry
	// re-executes on the recovered process.
	defer s.lockAll()()
	s.walAppend(s.shards[0], opConfigEpoch, "", msg)
	s.installTenants(reg)
	return ConfigReply{Epoch: msg.Epoch, Tenants: len(msg.Tenants), Applied: true}, nil
}

func (s *ShardedServer) execConfig(msg ConfigMsg) (ConfigReply, *httpError) {
	reply, err := s.ApplyConfig(msg)
	if err != nil {
		return ConfigReply{}, errf(http.StatusBadRequest, "%s", err.Error())
	}
	return reply, nil
}

// retryAfterSecs scales the 429 Retry-After hint with shed pressure:
// 1s just over the bound, growing linearly with the overshoot to a cap
// of 8s — a drowning shard asks its clients for more air than one
// barely over the line.
func retryAfterSecs(open, max int) int {
	if max <= 0 || open <= max {
		return 1
	}
	ra := 1 + (open-max)*2/max
	if ra > 8 {
		ra = 8
	}
	return ra
}

// admitLocked charges one rate-limit token against the client's tenant
// and applies the tenant's open-book bound; sh.mu must be held. Nil
// registry (legacy) admits everything; recovery admits everything (a
// replayed op already executed once — refusing it would diverge from
// the pre-crash state, exactly like shedding).
func (s *ShardedServer) admitLocked(sh *shardState, client int, nowNS int64, what string) *httpError {
	reg := s.tenants.Load()
	if reg == nil || s.recovering.Load() {
		return nil
	}
	d := reg.Admit(client, nowNS, 1)
	tm := s.tm.Load()
	if !d.OK {
		sh.shed.Inc()
		if tm != nil {
			tm.shed[d.Tenant].Inc()
		}
		herr := errf(http.StatusTooManyRequests, "tenant %q over admission rate: %s shed", d.Tenant, what)
		herr.retryAfter = d.RetryAfter
		return herr
	}
	if d.Tenant != tenant.Legacy {
		if cfg, ok := reg.ConfigOf(d.Tenant); ok && cfg.MaxOpenBook > 0 {
			if open := sh.srv.OpenBookOf(d.Tenant); open > cfg.MaxOpenBook {
				sh.shed.Inc()
				if tm != nil {
					tm.shed[d.Tenant].Inc()
				}
				herr := errf(http.StatusTooManyRequests, "tenant %q over its open-book bound: %s shed", d.Tenant, what)
				herr.retryAfter = retryAfterSecs(open, cfg.MaxOpenBook)
				return herr
			}
		}
		if tm != nil {
			tm.admitted[d.Tenant].Inc()
		}
	}
	return nil
}

// checkEnvelopeTenant verifies an envelope's declared tenant (the
// tenant field, or for a per-op endpoint the X-AdPrefetch-Tenant
// header) against every sub-op's effective client. One mismatch refuses
// the whole envelope — nothing executes, matching the envelope
// validation contract. No declaration, or no registry, passes: the
// declaration is a guard, not the attribution source.
func (s *ShardedServer) checkEnvelopeTenant(env *batchMsg) *httpError {
	if env.Tenant == "" {
		return nil
	}
	reg := s.tenants.Load()
	if reg == nil {
		return nil
	}
	for i := range env.Ops {
		client := env.ClientOf(&env.Ops[i])
		if owner := reg.TenantOf(client); owner != env.Tenant {
			// Built by concatenation, not errf: boxing env.Tenant would leak
			// the envelope's contents, and a per-op endpoint's one-op
			// envelope lives on its handler's stack.
			return &httpError{status: http.StatusForbidden, msg: "client " + strconv.Itoa(client) +
				" belongs to tenant " + strconv.Quote(owner) + ", not " + strconv.Quote(env.Tenant)}
		}
	}
	return nil
}

// tenantHealth renders the per-tenant /v1/health sections, one shard
// lock at a time (like the merged ledger view).
func (s *ShardedServer) tenantHealth(reg *tenant.Registry) []TenantHealth {
	cfgs := reg.Tenants()
	sort.Slice(cfgs, func(i, j int) bool { return cfgs[i].ID < cfgs[j].ID })
	tm := s.tm.Load()
	out := make([]TenantHealth, 0, len(cfgs))
	for _, cfg := range cfgs {
		th := TenantHealth{Tenant: cfg.ID, MaxOpenBook: cfg.MaxOpenBook, RatePerSec: cfg.RatePerSec}
		for _, sh := range s.shards {
			sh.mu.Lock()
			part := TenantHealth{OpenBook: sh.srv.OpenBookOf(cfg.ID), Ledger: sh.srv.Exchange().LedgerOf(cfg.ID)}
			sh.mu.Unlock()
			th.Add(part)
		}
		if tm != nil {
			th.Admitted = tm.admitted[cfg.ID].Value()
			th.Shed = tm.shed[cfg.ID].Value()
		}
		out = append(out, th)
	}
	return out
}
