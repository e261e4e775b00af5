package auction

import "sort"

// Impression-id namespaces: each named tenant mints ids from a disjoint
// high range, (tenantIndex+1)<<52 upward, so the tenant of any open or
// settled impression can be recovered from its id alone — including
// after snapshot restore or cross-node migration. The shift composes
// with per-node id bases ((nodeIdx+1)<<40): node bits occupy 40–51 and
// per-period sequence numbers stay far below 2^40, so the two
// namespaces never collide. The legacy tenant ("") keeps the original
// small dense ids, which keeps every pre-tenant WAL, snapshot, and
// golden byte-stable.
const tenantIDShift = 52

// initTenants derives the tenant set from the campaign list: the sorted
// distinct non-empty Campaign.Tenant values. Cursors, per-tenant
// ledgers, and open counts start empty; Restore overlays snapshot state
// afterwards.
func (e *Exchange) initTenants() {
	set := make(map[string]bool)
	for _, id := range e.order {
		if t := e.states[id].c.Tenant; t != "" {
			set[t] = true
		}
	}
	e.tenants = e.tenants[:0]
	for t := range set {
		e.tenants = append(e.tenants, t)
	}
	sort.Strings(e.tenants)
	e.tenantNext = make(map[string]ImpressionID, len(e.tenants))
	e.tenantLedger = make(map[string]*Ledger, len(e.tenants))
	for i, t := range e.tenants {
		e.tenantNext[t] = ImpressionID(i+1) << tenantIDShift
		e.tenantLedger[t] = &Ledger{}
	}
}

// mintID allocates the next impression id in the tenant's namespace.
func (e *Exchange) mintID(tenant string) ImpressionID {
	if tenant == "" {
		e.nextID++
		return e.nextID
	}
	e.tenantNext[tenant]++
	return e.tenantNext[tenant]
}

// TenantOfImpression recovers the owning tenant from an impression id's
// namespace bits ("" for legacy ids).
func (e *Exchange) TenantOfImpression(id ImpressionID) string {
	idx := int(id >> tenantIDShift)
	if idx <= 0 || idx > len(e.tenants) {
		return ""
	}
	return e.tenants[idx-1]
}

// ledgerOfID returns the per-tenant ledger an impression's money should
// also be attributed to, or nil for legacy impressions (which live only
// in the aggregate ledger).
func (e *Exchange) ledgerOfID(id ImpressionID) *Ledger {
	return e.tenantLedger[e.TenantOfImpression(id)]
}

// Tenants returns the exchange's tenant namespace order (sorted
// distinct campaign tenants). Index i mints ids from (i+1)<<52.
func (e *Exchange) Tenants() []string {
	return append([]string(nil), e.tenants...)
}

// LedgerOf returns one tenant's ledger view. The legacy tenant ("") is
// the aggregate ledger minus every named tenant's share, so the views
// always partition Ledger() exactly.
func (e *Exchange) LedgerOf(tenant string) Ledger {
	if tenant != "" {
		if tl := e.tenantLedger[tenant]; tl != nil {
			return *tl
		}
		return Ledger{}
	}
	l := e.ledger
	for _, t := range e.tenants {
		tl := e.tenantLedger[t]
		l.Sold -= tl.Sold
		l.BilledUSD -= tl.BilledUSD
		l.Billed -= tl.Billed
		l.FreeUSD -= tl.FreeUSD
		l.FreeShows -= tl.FreeShows
		l.Violations -= tl.Violations
		l.ViolatedUSD -= tl.ViolatedUSD
		l.PotentialUSD -= tl.PotentialUSD
	}
	return l
}
