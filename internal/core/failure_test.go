package core

import (
	"testing"
	"time"

	"repro/internal/auction"
	"repro/internal/predict"
	"repro/internal/simclock"
)

func TestOfflineDefersScheduledDelivery(t *testing.T) {
	sys, _ := naiveSystem(t, DeliverScheduled)
	sys.SetOfflineFn(func(clientID int, _ simclock.Time) bool {
		return clientID == 0 // client 0 is unreachable at the boundary
	})
	deliveries, stats := sys.StartPeriod(0, predict.Period{})
	if stats.Sold == 0 {
		t.Fatal("nothing sold")
	}
	for _, d := range deliveries {
		if d.Client == 0 {
			t.Fatal("scheduled delivery to an offline client")
		}
	}
	// The offline client's bundle waits in Pending and arrives at its
	// next contact.
	dev := sys.Device(0)
	if len(dev.Pending) == 0 {
		t.Fatal("offline client's bundle not deferred")
	}
	// Online clients got theirs immediately.
	if sys.Device(1).Cache.Len() == 0 {
		t.Fatal("online client not served")
	}
}

func TestReportHookDropsBilling(t *testing.T) {
	sys, ex := naiveSystem(t, DeliverScheduled)
	sys.SetReportHook(func(auction.ImpressionID, simclock.Time) bool { return false })
	sys.StartPeriod(0, predict.Period{})
	out, err := sys.HandleSlot(simclock.At(time.Minute), 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !out.CacheHit {
		t.Fatalf("outcome %+v", out)
	}
	// Displayed but never reported: nothing billed.
	if l := ex.Ledger(); l.Billed != 0 {
		t.Fatalf("ledger %+v", l)
	}
}

func TestNoRescueFallsBackToFreshSale(t *testing.T) {
	cfg := DefaultConfig(ModeNaiveBulk)
	cfg.NaiveK = 1
	cfg.NoRescue = true
	ex := deepExchange(t)
	sys, err := New(cfg, ex, ids(2), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	sys.StartPeriod(0, predict.Period{})
	// Exhaust the cache, then miss: with NoRescue the fallback sells
	// fresh inventory even though sold impressions are pending.
	sys.HandleSlot(simclock.At(time.Minute), 0, nil)
	out, err := sys.HandleSlot(simclock.At(2*time.Minute), 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !out.Fetched || out.Rescued {
		t.Fatalf("outcome %+v", out)
	}
	if out.Impression == 0 {
		t.Fatal("fresh sale expected")
	}
}

func TestRescuePathServesOpenImpression(t *testing.T) {
	cfg := DefaultConfig(ModeNaiveBulk)
	cfg.NaiveK = 2
	ex := deepExchange(t)
	sys, err := New(cfg, ex, ids(2), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	_, stats := sys.StartPeriod(0, predict.Period{})
	// Drain client 0's cache (2 ads), then miss: rescue serves one of
	// client 1's still-open impressions.
	sys.HandleSlot(simclock.At(time.Minute), 0, nil)
	sys.HandleSlot(simclock.At(2*time.Minute), 0, nil)
	out, err := sys.HandleSlot(simclock.At(3*time.Minute), 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !out.Rescued || out.Impression == 0 {
		t.Fatalf("outcome %+v", out)
	}
	l := ex.Ledger()
	if int(l.Sold) != stats.Sold {
		t.Fatalf("rescue should not sell fresh inventory: %+v vs %+v", l, stats)
	}
	if l.Billed != 3 {
		t.Fatalf("billed %d want 3", l.Billed)
	}
}

func TestPiggybackWithTopUpCharging(t *testing.T) {
	// Piggyback delivery + a rescue with top-up: all outcome fields that
	// carry energy charges must be populated consistently.
	cfg := DefaultConfig(ModeNaiveBulk)
	cfg.NaiveK = 1
	cfg.Delivery = DeliverPiggyback
	cfg.Server.TopUpCap = 4
	ex := deepExchange(t)
	sys, err := New(cfg, ex, ids(3), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	sys.StartPeriod(0, predict.Period{})
	out, err := sys.HandleSlot(simclock.At(time.Minute), 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if out.PiggybackAds != 1 || !out.CacheHit {
		t.Fatalf("first slot %+v", out)
	}
	// Cache now empty; next slot misses, rescues, and tops up from the
	// other clients' still-open impressions.
	out, err = sys.HandleSlot(simclock.At(2*time.Minute), 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !out.Rescued {
		t.Fatalf("second slot %+v", out)
	}
	// NaiveK=1 per client and client 0 already showed its own; forecast
	// satisfied, so no top-up is due — but the field must be consistent.
	if out.TopUpAds < 0 || (out.TopUpAds > 0 && sys.Device(0).Cache.Len() == 0) {
		t.Fatalf("top-up accounting inconsistent: %+v cache=%d", out, sys.Device(0).Cache.Len())
	}
}
