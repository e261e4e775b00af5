// Exchange: the advertiser's view of prefetching.
//
// It builds an ad exchange with explicit campaigns, an ad server and a
// device per client, and walks through a prefetch period step by step:
// forecasts, admission, second-price sales, overbooked replication,
// displays, a racing duplicate, and the final ledger — showing exactly
// where "revenue loss" and "SLA violations" come from.
//
// Run with: go run ./examples/exchange
package main

import (
	"fmt"
	"log"
	"time"

	adprefetch "repro"
	"repro/internal/adserver"
	"repro/internal/auction"
	"repro/internal/client"
	"repro/internal/predict"
)

func main() {
	log.SetFlags(0)

	// Advertisers: two campaigns bidding $2 and $1 CPM.
	campaigns := []adprefetch.Campaign{
		{ID: 0, Name: "acme-spring-sale", BidCPM: 2.0, BudgetUSD: 50},
		{ID: 1, Name: "globex-brand", BidCPM: 1.0, BudgetUSD: 50},
	}
	ex, err := adprefetch.NewExchange(campaigns, auction.DefaultReserveUSD)
	if err != nil {
		log.Fatal(err)
	}

	// The system: an ad server and 4 devices, predictive mode, 1-hour
	// periods, fixed 2x replication so the mechanics are visible.
	cfg := adprefetch.DefaultSystemConfig(adprefetch.ModePredictive)
	cfg.Server.Period = time.Hour
	cfg.Server.Overbook.FixedReplicas = 2
	cfg.Server.Overbook.AdmissionEpsilon = 0.45 // tiny population: keep admission > 0
	cfg.Server.SyncDelay = 30 * time.Minute     // slow sync so we can show a race
	srv, err := adserver.New(cfg.Server, ex, []int{0, 1, 2, 3}, func(id int) predict.Predictor {
		return cfg.NewPredictor(id, nil)
	}, nil)
	if err != nil {
		log.Fatal(err)
	}
	devices := make([]*client.Device, 4)
	for c := range devices {
		if devices[c], err = client.NewDevice(c, cfg.Server.Overbook.CacheCap); err != nil {
			log.Fatal(err)
		}
	}
	// A slot is served from the device's cache, skipping impressions it
	// knows were claimed elsewhere, and the display is reported; on a
	// miss the server's fallback rescues an open sold impression or
	// sells a fresh one.
	slot := func(at adprefetch.Time, c int) (hit, rescued bool, imp auction.ImpressionID) {
		srv.ObserveSlot(c)
		ad, hit := devices[c].ServeSlot(at, func(id auction.ImpressionID) bool {
			return srv.CancellationKnown(id, at)
		})
		if hit {
			if err := srv.ReportDisplay(ad.ID, at); err != nil {
				log.Fatal(err)
			}
			return true, false, ad.ID
		}
		m := srv.ServeMiss(at, c, nil, cfg.Rescue())
		devices[c].Assign(m.TopUp, true)
		return false, m.Rescued, m.Impression
	}

	// Warm up the per-client predictors: each client historically shows
	// 2 ads in this hour-of-day.
	for day := 0; day < 5; day++ {
		p := adprefetch.Period{Index: day * 24, OfDay: 0}
		for c := 0; c < 4; c++ {
			srv.ObserveSlot(c)
			srv.ObserveSlot(c)
		}
		srv.EndPeriod(adprefetch.Time(day)*adprefetch.Day+adprefetch.Hour, p)
	}

	// Period opens: the server sells predicted slots BEFORE they exist,
	// and each device downloads its bundle.
	now := 5 * adprefetch.Day
	p := adprefetch.Period{Index: 5 * 24, OfDay: 0}
	bundles, stats := srv.StartPeriod(now, p)
	fmt.Printf("period opened at %v\n", now)
	fmt.Printf("  aggregate forecast %.0f slots -> admitted %d -> sold %d impressions (mean k %.1f)\n",
		stats.PredictedSlots, stats.Admitted, stats.Sold, stats.MeanK())
	for _, b := range bundles {
		devices[b.Client].Assign(b.Ads, true)
		fmt.Printf("  client %d prefetches a bundle of %d ads\n", b.Client, len(b.Ads))
	}

	// Slots fire; ads are served from local caches with no network fetch.
	fmt.Println("\nslots fire:")
	for c := 0; c < 4; c++ {
		at := now + adprefetch.Time(c+1)*adprefetch.Minute
		hit, _, imp := slot(at, c)
		fmt.Printf("  client %d at %v: cacheHit=%v impression=%d\n", c, at, hit, imp)
	}

	// A racing duplicate: with slow sync, another client may display a
	// replica of an impression already claimed.
	fmt.Println("\nmore slots (replicas may race before cancellation propagates):")
	for c := 0; c < 4; c++ {
		hit, rescued, imp := slot(now+adprefetch.Time(10+c)*adprefetch.Minute, c)
		fmt.Printf("  client %d: cacheHit=%v rescued=%v impression=%d\n", c, hit, rescued, imp)
	}

	// Close the period and read the books.
	srv.EndPeriod(now+2*adprefetch.Hour, p)
	l := ex.Ledger()
	fmt.Println("\nledger:")
	fmt.Printf("  sold %d, billed %d ($%.4f)\n", l.Sold, l.Billed, l.BilledUSD)
	fmt.Printf("  free duplicate shows %d ($%.4f revenue loss, %.2f%% of billed)\n",
		l.FreeShows, l.FreeUSD, 100*l.RevenueLossFrac())
	fmt.Printf("  SLA violations %d (%.2f%% of sold)\n", l.Violations, 100*l.ViolationRate())
	for _, c := range campaigns {
		billed, committed, err := ex.CampaignSpend(c.ID)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  campaign %-18s billed $%.4f (committed $%.4f)\n", c.Name, billed, committed)
	}
}
