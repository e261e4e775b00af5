package adserver

import (
	"testing"
	"time"

	"repro/internal/auction"
	"repro/internal/predict"
	"repro/internal/simclock"
	"repro/internal/trace"
)

// rescueServer builds a server with sold, bundled inventory in flight.
func rescueServer(t *testing.T, topUpCap int) (*Server, *auction.Exchange, []Bundle) {
	t.Helper()
	cfg := DefaultConfig()
	cfg.Period = time.Hour
	cfg.TopUpCap = topUpCap
	cfg.Overbook.FixedReplicas = 1
	cfg.Overbook.AdmissionEpsilon = 0.45
	ex := deepDemand(t)
	s, _ := newServer(t, cfg, ex, 4, predict.Estimate{Slots: 5, Mean: 5, NoShowProb: 0.2})
	bundles, stats := s.StartPeriod(0, predict.Period{})
	if stats.Sold == 0 || len(bundles) == 0 {
		t.Fatalf("no inventory sold: %+v", stats)
	}
	return s, ex, bundles
}

func TestRescueOpenServesEDF(t *testing.T) {
	s, ex, _ := rescueServer(t, 0)
	id, ok := s.RescueOpen(simclock.At(time.Minute), 0)
	if !ok || id == 0 {
		t.Fatalf("rescue failed: %v %v", id, ok)
	}
	// Billed immediately, claim known immediately (server-side path).
	if ex.Ledger().Billed != 1 {
		t.Fatalf("ledger %+v", ex.Ledger())
	}
	if !s.CancellationKnown(id, simclock.At(time.Minute).Add(s.cfg.SyncDelay)) {
		t.Fatal("rescued impression should be claimable immediately")
	}
	// Rescuing again returns a different impression.
	id2, ok := s.RescueOpen(simclock.At(2*time.Minute), 0)
	if !ok || id2 == id {
		t.Fatalf("second rescue %v %v", id2, ok)
	}
}

func TestRescueOpenSkipsClaimedAndExpired(t *testing.T) {
	s, _, bundles := rescueServer(t, 0)
	// Claim the first bundle ad via a display report.
	first := bundles[0].Ads[0].ID
	if err := s.ReportDisplay(first, simclock.At(time.Minute)); err != nil {
		t.Fatal(err)
	}
	id, ok := s.RescueOpen(simclock.At(2*time.Minute), 0)
	if !ok || id == first {
		t.Fatalf("rescue should skip the claimed impression: %v", id)
	}
	// Past all deadlines nothing is rescuable.
	if _, ok := s.RescueOpen(simclock.At(100*time.Hour), 0); ok {
		t.Fatal("rescued an expired impression")
	}
}

func TestRescueOpenEmpty(t *testing.T) {
	ex := deepDemand(t)
	s, _ := newServer(t, DefaultConfig(), ex, 2, predict.Estimate{})
	if _, ok := s.RescueOpen(0, 0); ok {
		t.Fatal("rescue from empty pending set")
	}
}

func TestTopUpSizesToForecast(t *testing.T) {
	s, _, _ := rescueServer(t, 8)
	// Client 0 predicts 5 slots and has shown 2 already: wants 3 more.
	s.ObserveSlot(0)
	s.ObserveSlot(0)
	ads := s.TopUp(simclock.At(time.Minute), 0)
	if len(ads) != 3 {
		t.Fatalf("top-up gave %d ads, want 3", len(ads))
	}
	// No duplicates within the batch.
	seen := map[auction.ImpressionID]bool{}
	for _, ad := range ads {
		if seen[ad.ID] {
			t.Fatal("duplicate impression in top-up batch")
		}
		seen[ad.ID] = true
		if ad.Tie == 0 {
			t.Fatal("top-up ads must carry a display tie-break")
		}
	}
}

// TestTopUpAllocationBudget is the rescue path's allocation gate: a
// top-up costs exactly its result slice — no closure, no boxing, no
// scratch — whether the book is untouched or half claimed.
func TestTopUpAllocationBudget(t *testing.T) {
	s, _, bundles := rescueServer(t, 8)
	now := simclock.At(time.Minute)
	for _, name := range []string{"nothing claimed", "half claimed"} {
		if name == "half claimed" {
			for i, ad := range bundles[0].Ads {
				if i%2 == 0 {
					if err := s.ReportDisplay(ad.ID, now); err != nil {
						t.Fatal(err)
					}
				}
			}
		}
		if got := s.TopUp(now, 1); len(got) == 0 {
			t.Fatalf("%s: top-up returned nothing", name)
		}
		if n := testing.AllocsPerRun(200, func() { s.TopUp(now, 1) }); n != 1 {
			t.Errorf("%s: TopUp allocates %v objects per call, want exactly 1 (the result slice)", name, n)
		}
	}
}

func TestTopUpCapAndDisable(t *testing.T) {
	s, _, _ := rescueServer(t, 2)
	ads := s.TopUp(simclock.At(time.Minute), 1)
	if len(ads) > 2 {
		t.Fatalf("top-up exceeded cap: %d", len(ads))
	}
	s2, _, _ := rescueServer(t, 0)
	if got := s2.TopUp(simclock.At(time.Minute), 1); got != nil {
		t.Fatalf("disabled top-up returned %v", got)
	}
}

func TestTopUpUnknownClientAndSatisfied(t *testing.T) {
	s, _, _ := rescueServer(t, 8)
	if got := s.TopUp(simclock.At(time.Minute), 999); got != nil {
		t.Fatalf("unknown client got %v", got)
	}
	// A client that already saw >= forecast slots wants nothing.
	for i := 0; i < 6; i++ {
		s.ObserveSlot(2)
	}
	if got := s.TopUp(simclock.At(time.Minute), 2); got != nil {
		t.Fatalf("satisfied client got %v", got)
	}
}

func TestTopUpSkipsClaimed(t *testing.T) {
	s, _, bundles := rescueServer(t, 8)
	claimed := map[auction.ImpressionID]bool{}
	// Claim every ad of the first bundle.
	for _, ad := range bundles[0].Ads {
		if err := s.ReportDisplay(ad.ID, simclock.At(time.Minute)); err != nil {
			t.Fatal(err)
		}
		claimed[ad.ID] = true
	}
	ads := s.TopUp(simclock.At(2*time.Minute), 0)
	for _, ad := range ads {
		if claimed[ad.ID] {
			t.Fatalf("top-up handed out claimed impression %d", ad.ID)
		}
	}
}

func TestTopUpPrefersThinlyReplicated(t *testing.T) {
	// Build a server where some impressions are unplaced (no capacity):
	// FixedReplicas 1 but tiny cache cap forces unplaced inventory.
	cfg := DefaultConfig()
	cfg.Period = time.Hour
	cfg.TopUpCap = 4
	cfg.Overbook.FixedReplicas = 1
	cfg.Overbook.AdmissionEpsilon = 0.45
	cfg.Overbook.CacheCap = 2 // each client holds at most 2 replicas per round
	ex := deepDemand(t)
	s, _ := newServer(t, cfg, ex, 2, predict.Estimate{Slots: 6, Mean: 6, NoShowProb: 0.2})
	_, stats := s.StartPeriod(0, predict.Period{})
	if stats.Sold <= stats.Placed {
		t.Fatalf("expected unplaced inventory: %+v", stats)
	}
	ads := s.TopUp(simclock.At(time.Minute), 0)
	if len(ads) == 0 {
		t.Fatal("no top-up")
	}
	// The preferred hand-outs are impressions with <= 1 holders; with cap
	// 2x2=4 placed replicas and > 4 sold, unplaced impressions exist and
	// must be among the first handed out.
	unplacedSeen := false
	for _, ad := range ads {
		if len(s.ReplicaHolders(ad.ID)) == 0 {
			unplacedSeen = true
		}
	}
	if !unplacedSeen {
		t.Fatal("top-up did not prioritize unplaced impressions")
	}
}

func TestEndPeriodAfterRescueNoDoubleCount(t *testing.T) {
	s, ex, _ := rescueServer(t, 0)
	id, ok := s.RescueOpen(simclock.At(time.Minute), 0)
	if !ok {
		t.Fatal("rescue failed")
	}
	s.EndPeriod(simclock.At(100*time.Hour), predict.Period{})
	l := ex.Ledger()
	if l.Billed != 1 {
		t.Fatalf("ledger %+v", l)
	}
	if int64(l.Violations) != l.Sold-1 {
		t.Fatalf("violations %d want %d", l.Violations, l.Sold-1)
	}
	_ = id
}

func TestServeMissRescuesOpenImpression(t *testing.T) {
	s, ex, _ := rescueServer(t, 0)
	sold := ex.Ledger().Sold
	m := s.ServeMiss(simclock.At(time.Minute), 0, nil, true)
	if !m.Rescued || m.Impression == 0 || m.TopUp != nil {
		t.Fatalf("miss %+v", m)
	}
	// The rescue bills sold inventory; it sells nothing fresh.
	if l := ex.Ledger(); l.Sold != sold || l.Billed != 1 {
		t.Fatalf("ledger %+v, sold before %d", l, sold)
	}
}

func TestServeMissWithoutRescueSellsFresh(t *testing.T) {
	s, ex, _ := rescueServer(t, 8)
	sold := ex.Ledger().Sold
	// Open impressions are pending, but without rescue the fallback
	// sells fresh inventory and carries no top-up.
	m := s.ServeMiss(simclock.At(time.Minute), 0, []trace.Category{trace.CatGame}, false)
	if m.Rescued || m.Impression == 0 || m.TopUp != nil {
		t.Fatalf("miss %+v", m)
	}
	if l := ex.Ledger(); l.Sold != sold+1 || l.Billed != 1 {
		t.Fatalf("ledger %+v, sold before %d", l, sold)
	}
}

func TestServeMissTopsUpOnRescue(t *testing.T) {
	s, _, _ := rescueServer(t, 8)
	m := s.ServeMiss(simclock.At(time.Minute), 0, nil, true)
	if !m.Rescued {
		t.Fatalf("miss %+v", m)
	}
	// Client 0 forecasts 5 slots and has shown none: up to 5 top-ups,
	// never the impression just rescued.
	if len(m.TopUp) == 0 || len(m.TopUp) > 5 {
		t.Fatalf("top-up of %d ads, want 1..5", len(m.TopUp))
	}
	for _, ad := range m.TopUp {
		if ad.ID == m.Impression {
			t.Fatalf("rescued impression %d handed out as a top-up", ad.ID)
		}
	}
	// Past every deadline nothing is open: the rescue falls through to
	// a fresh sale, with no top-up.
	m = s.ServeMiss(simclock.At(100*time.Hour), 0, nil, true)
	if m.Rescued || m.Impression == 0 || m.TopUp != nil {
		t.Fatalf("miss past every deadline %+v", m)
	}
}

func TestServeMissHouseAdWhenNothingBids(t *testing.T) {
	ex, err := auction.NewExchange(nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	s, _ := newServer(t, DefaultConfig(), ex, 2, predict.Estimate{})
	for _, rescue := range []bool{false, true} {
		if m := s.ServeMiss(simclock.At(time.Minute), 0, nil, rescue); m.Impression != 0 || m.Rescued || m.TopUp != nil {
			t.Fatalf("rescue=%v: miss %+v, want a house ad", rescue, m)
		}
	}
	if l := ex.Ledger(); l.Sold != 0 || l.Billed != 0 {
		t.Fatalf("ledger %+v", l)
	}
}
