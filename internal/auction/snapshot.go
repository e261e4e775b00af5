package auction

import (
	"fmt"
	"sort"
)

// The durability layer (internal/wal) snapshots the exchange as part of
// the ad server's full-state checkpoint. The state is self-contained —
// campaign definitions ride along with their counters — so a restored
// exchange is byte-for-byte equivalent to the original regardless of
// how the replacement process regenerated its demand.

// CampaignSnapshot is one campaign's definition plus mutable counters.
type CampaignSnapshot struct {
	Campaign     Campaign `json:"campaign"`
	SoldCount    int64    `json:"sold_count"`
	CommittedUSD float64  `json:"committed_usd"`
	BilledUSD    float64  `json:"billed_usd"`
	BilledCount  int64    `json:"billed_count"`
}

// SettledImpression records a settled impression's id and price, kept
// so late duplicate displays can still be valued as revenue loss.
type SettledImpression struct {
	ID       ImpressionID `json:"id"`
	PriceUSD float64      `json:"price_usd"`
}

// TenantCursor is one tenant's impression-id cursor.
type TenantCursor struct {
	Tenant string       `json:"tenant"`
	Next   ImpressionID `json:"next"`
}

// TenantLedgerState is one tenant's ledger view.
type TenantLedgerState struct {
	Tenant string `json:"tenant"`
	Ledger Ledger `json:"ledger"`
}

// ExchangeState is the exchange's complete serializable state. The
// tenant fields are omitted for single-tenant exchanges so legacy
// snapshots stay byte-identical.
type ExchangeState struct {
	Reserve   float64             `json:"reserve"`
	NextID    ImpressionID        `json:"next_id"`
	Ledger    Ledger              `json:"ledger"`
	Campaigns []CampaignSnapshot  `json:"campaigns"`
	Open      []Impression        `json:"open"`
	Settled   []SettledImpression `json:"settled"`

	TenantNext    []TenantCursor      `json:"tenant_next,omitempty"`
	TenantLedgers []TenantLedgerState `json:"tenant_ledgers,omitempty"`
}

// Snapshot captures the exchange's full state. Slices are sorted by id
// so the encoding is deterministic.
func (e *Exchange) Snapshot() ExchangeState {
	st := ExchangeState{
		Reserve:   e.reserve,
		NextID:    e.nextID,
		Ledger:    e.ledger,
		Campaigns: make([]CampaignSnapshot, 0, len(e.order)),
		Open:      make([]Impression, 0, len(e.open)),
		Settled:   make([]SettledImpression, 0, len(e.settled)),
	}
	for _, id := range e.order {
		s := e.states[id]
		st.Campaigns = append(st.Campaigns, CampaignSnapshot{
			Campaign:     s.c,
			SoldCount:    s.soldCount,
			CommittedUSD: s.committedUSD,
			BilledUSD:    s.billedUSD,
			BilledCount:  s.billedCount,
		})
	}
	for _, imp := range e.open {
		st.Open = append(st.Open, imp)
	}
	sort.Slice(st.Open, func(i, j int) bool { return st.Open[i].ID < st.Open[j].ID })
	for id, price := range e.settled {
		st.Settled = append(st.Settled, SettledImpression{ID: id, PriceUSD: price})
	}
	sort.Slice(st.Settled, func(i, j int) bool { return st.Settled[i].ID < st.Settled[j].ID })
	for _, t := range e.tenants {
		st.TenantNext = append(st.TenantNext, TenantCursor{Tenant: t, Next: e.tenantNext[t]})
		st.TenantLedgers = append(st.TenantLedgers, TenantLedgerState{Tenant: t, Ledger: *e.tenantLedger[t]})
	}
	return st
}

// Restore overwrites the exchange with a previously captured state.
func (e *Exchange) Restore(st ExchangeState) error {
	states := make(map[CampaignID]*campaignState, len(st.Campaigns))
	order := make([]CampaignID, 0, len(st.Campaigns))
	for _, cs := range st.Campaigns {
		if _, dup := states[cs.Campaign.ID]; dup {
			return fmt.Errorf("auction: restore: duplicate campaign id %d", cs.Campaign.ID)
		}
		states[cs.Campaign.ID] = &campaignState{
			c:            cs.Campaign,
			soldCount:    cs.SoldCount,
			committedUSD: cs.CommittedUSD,
			billedUSD:    cs.BilledUSD,
			billedCount:  cs.BilledCount,
		}
		order = append(order, cs.Campaign.ID)
	}
	sort.Slice(order, func(i, j int) bool { return order[i] < order[j] })
	open := make(map[ImpressionID]Impression, len(st.Open))
	for _, imp := range st.Open {
		if _, ok := states[imp.Campaign]; !ok {
			return fmt.Errorf("auction: restore: open impression %d references unknown campaign %d", imp.ID, imp.Campaign)
		}
		open[imp.ID] = imp
	}
	settled := make(map[ImpressionID]float64, len(st.Settled))
	for _, s := range st.Settled {
		settled[s.ID] = s.PriceUSD
	}
	e.states = states
	e.order = order
	e.reserve = st.Reserve
	e.nextID = st.NextID
	e.ledger = st.Ledger
	e.open = open
	e.settled = settled
	e.indexBids()
	// The tenant namespace order derives from the campaign set, then the
	// snapshot's cursors/ledgers overlay it and the open counts are
	// recounted from the restored open book.
	e.initTenants()
	for _, tc := range st.TenantNext {
		if _, ok := e.tenantNext[tc.Tenant]; !ok {
			return fmt.Errorf("auction: restore: cursor for unknown tenant %q", tc.Tenant)
		}
		e.tenantNext[tc.Tenant] = tc.Next
	}
	for _, tl := range st.TenantLedgers {
		dst, ok := e.tenantLedger[tl.Tenant]
		if !ok {
			return fmt.Errorf("auction: restore: ledger for unknown tenant %q", tl.Tenant)
		}
		*dst = tl.Ledger
	}
	return nil
}
