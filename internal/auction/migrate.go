package auction

import (
	"fmt"
	"sort"
)

// Live shard migration (see internal/transport and internal/cluster)
// hands a client's impressions from one exchange to another. The two
// exchanges run the same campaign set but account independently, so a
// transfer must also move each open impression's budget commitment:
// the source releases it (as RecordExpiry would) and the target assumes
// it (as SellSlotFiltered would), keeping expiry and billing arithmetic correct
// on whichever side the impression finally settles. Ledger history
// (Sold, PotentialUSD) stays on the seller; Billed/Free/Violation
// entries land wherever those events fire — every accounting observable
// is summed across exchanges, so totals are unchanged by a handoff.

// ImpressionTransfer is the wire form of one client's impressions in
// flight between exchanges: the still-open obligations plus the settled
// records that value late duplicate displays.
type ImpressionTransfer struct {
	Open    []Impression        `json:"open,omitempty"`
	Settled []SettledImpression `json:"settled,omitempty"`
}

// ExtractImpressions removes the given impressions from the exchange
// and returns them in transfer form. Open impressions release their
// campaign commitment (and goal slot) on the way out; settled ones move
// their price record. Unknown ids error — the caller derives the id set
// from the ad server's books, so a miss is state corruption, not a
// benign race.
func (e *Exchange) ExtractImpressions(open, settled []ImpressionID) (ImpressionTransfer, error) {
	var tr ImpressionTransfer
	sortedIDs := append([]ImpressionID(nil), open...)
	sort.Slice(sortedIDs, func(i, j int) bool { return sortedIDs[i] < sortedIDs[j] })
	for _, id := range sortedIDs {
		imp, ok := e.open[id]
		if !ok {
			return ImpressionTransfer{}, fmt.Errorf("auction: extract: impression %d not open", id)
		}
		s := e.states[imp.Campaign]
		s.committedUSD -= imp.PriceUSD
		if s.c.Goal > 0 {
			s.soldCount--
		}
		tr.Open = append(tr.Open, imp)
		delete(e.open, id)
	}
	sortedIDs = append(sortedIDs[:0], settled...)
	sort.Slice(sortedIDs, func(i, j int) bool { return sortedIDs[i] < sortedIDs[j] })
	for _, id := range sortedIDs {
		price, ok := e.settled[id]
		if !ok {
			return ImpressionTransfer{}, fmt.Errorf("auction: extract: impression %d not settled", id)
		}
		tr.Settled = append(tr.Settled, SettledImpression{ID: id, PriceUSD: price})
		delete(e.settled, id)
	}
	return tr, nil
}

// AbsorbImpressions adopts a transfer extracted from another exchange:
// open impressions re-commit their price against the local campaign
// (and re-occupy its goal slot), settled records resume valuing late
// duplicates. Campaign references must resolve locally and ids must not
// collide with existing books — both would mean the fleet's
// impression-id namespacing is broken.
func (e *Exchange) AbsorbImpressions(tr ImpressionTransfer) error {
	for _, imp := range tr.Open {
		s, ok := e.states[imp.Campaign]
		if !ok {
			return fmt.Errorf("auction: absorb: impression %d references unknown campaign %d", imp.ID, imp.Campaign)
		}
		if open, settled := e.StatusOf(imp.ID); open || settled {
			return fmt.Errorf("auction: absorb: impression id %d already known", imp.ID)
		}
		s.committedUSD += imp.PriceUSD
		if s.c.Goal > 0 {
			s.soldCount++
		}
		e.open[imp.ID] = imp
	}
	for _, st := range tr.Settled {
		if open, settled := e.StatusOf(st.ID); open || settled {
			return fmt.Errorf("auction: absorb: settled impression id %d already known", st.ID)
		}
		e.settled[st.ID] = st.PriceUSD
	}
	return nil
}

// StatusOf reports whether an impression is currently open or settled
// on this exchange, so migration code can classify a moved book entry
// without reaching into exchange internals. Both false means the
// exchange no longer tracks the id (expired, or billed before the
// settled window existed).
func (e *Exchange) StatusOf(id ImpressionID) (open, settled bool) {
	_, open = e.open[id]
	_, settled = e.settled[id]
	return open, settled
}

// SeedMemberIDs moves the impression-id cursor forward to the floor of
// elastic-cluster member member's namespace, (member+1)<<40, so
// exchanges on different nodes mint from disjoint 2^40 blocks and a
// migrated impression can never collide with a locally sold one. Never
// moves the cursor backward; call before the first sale (and before WAL
// recovery replays sales, so replayed executions mint the same ids the
// live ones did).
func (e *Exchange) SeedMemberIDs(member int) {
	base := ImpressionID(member+1) << 40
	if e.nextID < base {
		e.nextID = base
	}
	// Tenant cursors carry the same node offset inside their own high
	// namespace, so two nodes' same-tenant sales stay disjoint too.
	for i, t := range e.tenants {
		if floor := ImpressionID(i+1)<<tenantIDShift + base; e.tenantNext[t] < floor {
			e.tenantNext[t] = floor
		}
	}
}
