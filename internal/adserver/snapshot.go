package adserver

import (
	"bytes"
	"encoding/json"
	"fmt"
	"sort"

	"repro/internal/auction"
	"repro/internal/metrics"
	"repro/internal/predict"
	"repro/internal/simclock"
)

// State is the server's complete serializable state, captured for
// durability snapshots (internal/wal). Together with the exchange state
// it embeds, restoring it onto a freshly constructed server reproduces
// the original byte-for-byte: maps are serialized in sorted order, and
// the pending heap's backing array is kept verbatim so heap operations
// after a restore behave exactly as they would have without one.
type State struct {
	Exchange auction.ExchangeState `json:"exchange"`

	Claims         []claimEntry    `json:"claims"`
	SlotCounts     []slotCount     `json:"slot_counts"`
	ReplicaHolders []replicaEntry  `json:"replica_holders"`
	Pending        []pendingEntry  `json:"pending"` // heap array, verbatim order
	CurPeriod      predict.Period  `json:"cur_period"`
	RescueCursor   int             `json:"rescue_cursor"`
	ImpCampaigns   []impCampaign   `json:"imp_campaigns"`
	FreqCounts     []freqCount     `json:"freq_counts"`
	LastForecast   float64         `json:"last_forecast"`
	Ops            opsState        `json:"ops"`
	Predictors     json.RawMessage `json:"predictors"`

	// Per-tenant open books (tenant.go); omitted for single-tenant
	// servers so legacy snapshots stay byte-identical. Heap arrays are
	// verbatim, like Pending.
	TenantPending []tenantPendingState `json:"tenant_pending,omitempty"`
	TenantCursors []tenantCursorState  `json:"tenant_cursors,omitempty"`
}

type tenantPendingState struct {
	Tenant  string         `json:"tenant"`
	Pending []pendingEntry `json:"pending"`
}

type tenantCursorState struct {
	Tenant string `json:"tenant"`
	Cursor int    `json:"cursor"`
}

type claimEntry struct {
	ID      auction.ImpressionID `json:"id"`
	Learned simclock.Time        `json:"learned"`
}

type slotCount struct {
	Client int `json:"client"`
	Count  int `json:"count"`
}

type replicaEntry struct {
	ID      auction.ImpressionID `json:"id"`
	Holders []int                `json:"holders"`
}

type pendingEntry struct {
	ID       auction.ImpressionID `json:"id"`
	Deadline simclock.Time        `json:"deadline"`
}

type impCampaign struct {
	ID       auction.ImpressionID `json:"id"`
	Campaign auction.CampaignID   `json:"campaign"`
}

type freqCount struct {
	Client   int                `json:"client"`
	Campaign auction.CampaignID `json:"campaign"`
	Day      int                `json:"day"`
	Count    int                `json:"count"`
}

type opsState struct {
	Rounds int64           `json:"rounds"`
	ErrP50 metrics.P2State `json:"err_p50"`
	ErrP95 metrics.P2State `json:"err_p95"`
}

// Snapshot captures the server's full state. Deterministic: two
// snapshots of equal servers marshal to identical bytes.
func (s *Server) Snapshot() (*State, error) {
	st := &State{
		Exchange:     s.ex.Snapshot(),
		CurPeriod:    s.curPeriod,
		RescueCursor: s.book.cursor,
		LastForecast: s.lastForecast,
		Pending:      s.book.heap.entries(),
	}
	// One record per impression fans out into the three id-sorted lists
	// the wire form has always carried.
	for id, r := range s.imps {
		if r.claimed {
			st.Claims = append(st.Claims, claimEntry{ID: id, Learned: r.learned})
		}
		if len(r.holders) > 0 {
			st.ReplicaHolders = append(st.ReplicaHolders, replicaEntry{ID: id, Holders: append([]int(nil), r.holders...)})
		}
		if r.sold {
			st.ImpCampaigns = append(st.ImpCampaigns, impCampaign{ID: id, Campaign: r.campaign})
		}
	}
	sort.Slice(st.Claims, func(i, j int) bool { return st.Claims[i].ID < st.Claims[j].ID })
	sort.Slice(st.ReplicaHolders, func(i, j int) bool { return st.ReplicaHolders[i].ID < st.ReplicaHolders[j].ID })
	sort.Slice(st.ImpCampaigns, func(i, j int) bool { return st.ImpCampaigns[i].ID < st.ImpCampaigns[j].ID })
	for c, n := range s.slotCounts {
		if n != 0 {
			st.SlotCounts = append(st.SlotCounts, slotCount{Client: c, Count: n})
		}
	}
	sort.Slice(st.SlotCounts, func(i, j int) bool { return st.SlotCounts[i].Client < st.SlotCounts[j].Client })
	for k, n := range s.freqCount {
		st.FreqCounts = append(st.FreqCounts, freqCount{Client: k.client, Campaign: k.campaign, Day: k.day, Count: n})
	}
	sort.Slice(st.FreqCounts, func(i, j int) bool {
		a, b := st.FreqCounts[i], st.FreqCounts[j]
		if a.Client != b.Client {
			return a.Client < b.Client
		}
		if a.Campaign != b.Campaign {
			return a.Campaign < b.Campaign
		}
		return a.Day < b.Day
	})
	tenants := make([]string, 0, len(s.tenantBooks))
	for t := range s.tenantBooks {
		tenants = append(tenants, t)
	}
	sort.Strings(tenants)
	for _, t := range tenants {
		b := s.tenantBooks[t]
		if len(b.heap) > 0 {
			st.TenantPending = append(st.TenantPending, tenantPendingState{Tenant: t, Pending: b.heap.entries()})
		}
		if b.cursor != 0 {
			st.TenantCursors = append(st.TenantCursors, tenantCursorState{Tenant: t, Cursor: b.cursor})
		}
	}
	s.ops.mu.Lock()
	st.Ops = opsState{Rounds: s.ops.rounds, ErrP50: s.ops.errP50.State(), ErrP95: s.ops.errP95.State()}
	s.ops.mu.Unlock()
	var preds bytes.Buffer
	if err := s.SavePredictors(&preds); err != nil {
		return nil, err
	}
	st.Predictors = json.RawMessage(preds.Bytes())
	return st, nil
}

// entries is the heap array in its wire form, verbatim order (nil when
// empty, as the encoding has always had it).
func (h pendingHeap) entries() []pendingEntry {
	var out []pendingEntry
	for _, p := range h {
		out = append(out, pendingEntry{ID: p.id, Deadline: p.deadline})
	}
	return out
}

// restoreBook loads a book's heap array verbatim — no re-heapify, so
// heap operations after a restore behave exactly as they would have
// without one — relinking each entry to its record.
func (s *Server) restoreBook(b *openBook, cursor int, entries []pendingEntry) error {
	*b = openBook{cursor: cursor, heap: make(pendingHeap, 0, len(entries))}
	for _, p := range entries {
		r := s.record(p.ID)
		if r.book != nil {
			return fmt.Errorf("adserver: restore: impression %d is pending twice", p.ID)
		}
		b.link(r)
		b.heap = append(b.heap, pendingImp{id: p.ID, deadline: p.Deadline, rec: r})
	}
	return nil
}

// Restore overwrites the server's state with a previously captured
// snapshot. The server must have been constructed with the same client
// set and predictor factory; everything else — exchange, open book,
// claims, frequency caps, predictor learning — comes from the state.
func (s *Server) Restore(st *State) error {
	if err := s.ex.Restore(st.Exchange); err != nil {
		return err
	}
	// The record fields are set before any entry is linked into a book:
	// the books' live counts read claimed and holders.
	s.imps = make(map[auction.ImpressionID]*impRecord, len(st.ImpCampaigns))
	s.impChunk = nil
	for _, c := range st.Claims {
		r := s.record(c.ID)
		r.claimed, r.learned = true, c.Learned
	}
	for _, rh := range st.ReplicaHolders {
		s.record(rh.ID).holders = append([]int(nil), rh.Holders...)
	}
	for _, ic := range st.ImpCampaigns {
		s.markSold(s.record(ic.ID), ic.Campaign)
	}
	s.slotCounts = make(map[int]int, len(st.SlotCounts))
	for _, c := range st.SlotCounts {
		s.slotCounts[c.Client] = c.Count
	}
	s.curPeriod = st.CurPeriod
	if err := s.restoreBook(&s.book, st.RescueCursor, st.Pending); err != nil {
		return err
	}
	s.tenantBooks = nil
	for _, tp := range st.TenantPending {
		if err := s.restoreBook(s.bookOf(tp.Tenant), 0, tp.Pending); err != nil {
			return err
		}
	}
	for _, tc := range st.TenantCursors {
		s.bookOf(tc.Tenant).cursor = tc.Cursor
	}
	s.freqCount = make(map[freqKey]int, len(st.FreqCounts))
	for _, f := range st.FreqCounts {
		s.freqCount[freqKey{f.Client, f.Campaign, f.Day}] = f.Count
	}
	s.lastForecast = st.LastForecast
	s.ops.mu.Lock()
	s.ops.rounds = st.Ops.Rounds
	err50 := s.ops.errP50.SetState(st.Ops.ErrP50)
	err95 := s.ops.errP95.SetState(st.Ops.ErrP95)
	s.ops.mu.Unlock()
	if err50 != nil {
		return fmt.Errorf("adserver: restore: %w", err50)
	}
	if err95 != nil {
		return fmt.Errorf("adserver: restore: %w", err95)
	}
	if len(st.Predictors) > 0 {
		if err := s.LoadPredictors(bytes.NewReader(st.Predictors)); err != nil {
			return err
		}
	}
	return nil
}
