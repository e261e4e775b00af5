package adserver

import (
	"encoding/json"
	"fmt"
	"sort"

	"repro/internal/auction"
	"repro/internal/minheap"
	"repro/internal/predict"
)

// Live shard migration hands whole clients between ad-server engines
// (see internal/transport and internal/cluster). A client's engine-side
// state is its predictor learning, its current-period slot count, its
// frequency-cap history, and every impression it exclusively holds —
// open book entries, claims, pending-heap entries, replica assignments
// and campaign references, plus the exchange-side transfer those
// impressions require. An impression whose replicas span clients on
// both sides of the handoff stays on the source (only it can arbitrate
// the replica race); under FixedReplicas=1 — the partition-invariance
// operating point — every impression has one holder and moves cleanly.

// ClientState is the wire form of one client's engine-side state in
// flight between servers. Serialized with the same entry codecs the
// durability snapshot uses (snapshot.go), so the transfer format and
// the crash-recovery format can never drift apart.
type ClientState struct {
	Client         int                        `json:"client"`
	Predictor      json.RawMessage            `json:"predictor,omitempty"`
	SlotCount      int                        `json:"slot_count,omitempty"`
	FreqCounts     []freqCount                `json:"freq_counts,omitempty"`
	Claims         []claimEntry               `json:"claims,omitempty"`
	Pending        []pendingEntry             `json:"pending,omitempty"`
	ReplicaHolders []replicaEntry             `json:"replica_holders,omitempty"`
	ImpCampaigns   []impCampaign              `json:"imp_campaigns,omitempty"`
	Impressions    auction.ImpressionTransfer `json:"impressions"`
}

// movable reports whether every holder of an impression is in the
// moving set.
func movable(holders []int, moving map[int]bool) bool {
	if len(holders) == 0 {
		return false
	}
	for _, h := range holders {
		if !moving[h] {
			return false
		}
	}
	return true
}

// ExtractClients removes the given clients from the server and returns
// their state for adoption elsewhere. Every impression held exclusively
// by the moving set travels along, with its exchange-side commitment
// transfer; impressions shared with staying clients (replicas > 1
// spanning the cut) remain on the source. Unknown client ids error.
func (s *Server) ExtractClients(ids []int) ([]ClientState, error) {
	moving := make(map[int]bool, len(ids))
	for _, id := range ids {
		if _, ok := s.predictors[id]; !ok {
			return nil, fmt.Errorf("adserver: extract: unknown client %d", id)
		}
		moving[id] = true
	}
	out := make([]ClientState, 0, len(moving))
	states := make(map[int]*ClientState, len(moving))
	sortedIDs := make([]int, 0, len(moving))
	for id := range moving {
		sortedIDs = append(sortedIDs, id)
	}
	sort.Ints(sortedIDs)
	for _, id := range sortedIDs {
		out = append(out, ClientState{Client: id, SlotCount: s.slotCounts[id]})
		states[id] = &out[len(out)-1]
		delete(s.slotCounts, id)
	}

	// Impressions whose replica holders all move: their books move too.
	// Each moved impression is attributed to its lowest-id holder, so
	// the split is deterministic.
	movedImp := make(map[auction.ImpressionID]*ClientState)
	var impIDs []auction.ImpressionID
	for impID, r := range s.imps {
		if movable(r.holders, moving) {
			impIDs = append(impIDs, impID)
		}
	}
	sort.Slice(impIDs, func(i, j int) bool { return impIDs[i] < impIDs[j] })
	var openIDs, settledIDs []auction.ImpressionID
	for _, impID := range impIDs {
		r := s.imps[impID]
		holders := r.holders
		owner := holders[0]
		for _, h := range holders[1:] {
			if h < owner {
				owner = h
			}
		}
		cs := states[owner]
		movedImp[impID] = cs
		cs.ReplicaHolders = append(cs.ReplicaHolders, replicaEntry{ID: impID, Holders: append([]int(nil), holders...)})
		if r.sold {
			cs.ImpCampaigns = append(cs.ImpCampaigns, impCampaign{ID: impID, Campaign: r.campaign})
		}
		if r.claimed {
			cs.Claims = append(cs.Claims, claimEntry{ID: impID, Learned: r.learned})
		}
		delete(s.imps, impID)
		open, settled := s.ex.StatusOf(impID)
		switch {
		case open:
			openIDs = append(openIDs, impID)
		case settled:
			settledIDs = append(settledIDs, impID)
		}
	}

	// Split the exchange transfer per owning client so each ClientState
	// is self-contained.
	for _, impID := range openIDs {
		tr, err := s.ex.ExtractImpressions([]auction.ImpressionID{impID}, nil)
		if err != nil {
			return nil, err
		}
		movedImp[impID].Impressions.Open = append(movedImp[impID].Impressions.Open, tr.Open...)
	}
	for _, impID := range settledIDs {
		tr, err := s.ex.ExtractImpressions(nil, []auction.ImpressionID{impID})
		if err != nil {
			return nil, err
		}
		movedImp[impID].Impressions.Settled = append(movedImp[impID].Impressions.Settled, tr.Settled...)
	}

	// Pending-heap entries for moved impressions travel (claimed or
	// expired entries linger lazily, so match by impression, not by
	// openness); the remainder is re-heapified in place.
	for _, b := range s.books() {
		kept := b.heap[:0]
		for _, p := range b.heap {
			if cs, ok := movedImp[p.id]; ok {
				cs.Pending = append(cs.Pending, pendingEntry{ID: p.id, Deadline: p.deadline})
				b.forget(p.rec)
			} else {
				kept = append(kept, p)
			}
		}
		b.heap = kept
		minheap.Init(b.heap, pendingLess)
	}

	// Frequency-cap history for the moving clients, all days.
	var fkeys []freqKey
	for k := range s.freqCount {
		if moving[k.client] {
			fkeys = append(fkeys, k)
		}
	}
	sort.Slice(fkeys, func(i, j int) bool {
		a, b := fkeys[i], fkeys[j]
		if a.client != b.client {
			return a.client < b.client
		}
		if a.campaign != b.campaign {
			return a.campaign < b.campaign
		}
		return a.day < b.day
	})
	for _, k := range fkeys {
		cs := states[k.client]
		cs.FreqCounts = append(cs.FreqCounts, freqCount{Client: k.client, Campaign: k.campaign, Day: k.day, Count: s.freqCount[k]})
		delete(s.freqCount, k)
	}

	// Predictor learning travels when the predictor can snapshot itself;
	// otherwise the target rebuilds a fresh one from its factory.
	for _, id := range sortedIDs {
		if snap, ok := s.predictors[id].(predict.Snapshotter); ok {
			data, err := snap.Snapshot()
			if err != nil {
				return nil, fmt.Errorf("adserver: extract: snapshotting client %d: %w", id, err)
			}
			states[id].Predictor = data
		}
		delete(s.predictors, id)
	}
	keptIDs := s.clientIDs[:0]
	for _, id := range s.clientIDs {
		if !moving[id] {
			keptIDs = append(keptIDs, id)
		}
	}
	s.clientIDs = keptIDs
	return out, nil
}

// AdoptClients installs client states extracted from another server.
// The local exchange must run the same campaign set (it assumes the
// transferred budget commitments) and the fleet's impression-id
// namespacing must hold (ids must not collide with local books). A
// client already present errors — a double adoption means the
// control plane lost track of ownership.
func (s *Server) AdoptClients(states []ClientState) error {
	for _, cs := range states {
		if _, dup := s.predictors[cs.Client]; dup {
			return fmt.Errorf("adserver: adopt: client %d already present", cs.Client)
		}
	}
	for _, cs := range states {
		if err := s.ex.AbsorbImpressions(cs.Impressions); err != nil {
			return err
		}
		pred := s.mkPredictor(cs.Client)
		if len(cs.Predictor) > 0 {
			if snap, ok := pred.(predict.Snapshotter); ok {
				if err := snap.Restore(cs.Predictor); err != nil {
					return fmt.Errorf("adserver: adopt: restoring client %d predictor: %w", cs.Client, err)
				}
			}
		}
		s.predictors[cs.Client] = pred
		s.clientIDs = append(s.clientIDs, cs.Client)
		if cs.SlotCount != 0 {
			s.slotCounts[cs.Client] = cs.SlotCount
		}
		for _, f := range cs.FreqCounts {
			s.freqCount[freqKey{f.Client, f.Campaign, f.Day}] = f.Count
		}
		// Record fields first: linking an entry into a book reads them.
		for _, c := range cs.Claims {
			r := s.record(c.ID)
			r.claim(c.Learned)
			r.learned = c.Learned // the source's claim supersedes a stray local one
		}
		for _, rh := range cs.ReplicaHolders {
			s.record(rh.ID).holders = append([]int(nil), rh.Holders...)
		}
		for _, ic := range cs.ImpCampaigns {
			s.markSold(s.record(ic.ID), ic.Campaign)
		}
		for _, p := range cs.Pending {
			r := s.record(p.ID)
			if r.book != nil {
				return fmt.Errorf("adserver: adopt: impression %d is already pending here", p.ID)
			}
			// Route to the owning tenant's book: the impression id's
			// namespace identifies the tenant regardless of which client
			// carried it over.
			b := s.bookOf(s.ex.TenantOfImpression(p.ID))
			b.link(r)
			b.heap = append(b.heap, pendingImp{id: p.ID, deadline: p.Deadline, rec: r})
		}
	}
	sort.Ints(s.clientIDs)
	for _, b := range s.books() {
		minheap.Init(b.heap, pendingLess)
	}
	return nil
}

// Clients returns the server's current client ids, sorted.
func (s *Server) Clients() []int {
	return append([]int(nil), s.clientIDs...)
}
