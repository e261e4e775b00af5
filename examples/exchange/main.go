// Exchange: the advertiser's view of prefetching.
//
// It builds an ad exchange with explicit campaigns, assembles the
// prefetching system over a handful of clients, and walks through two
// prefetch periods step by step: forecasts, admission, second-price
// sales, overbooked replication, displays, a racing duplicate, and the
// final ledger — showing exactly where "revenue loss" and "SLA
// violations" come from.
//
// Run with: go run ./examples/exchange
package main

import (
	"fmt"
	"log"
	"time"

	adprefetch "repro"
)

func main() {
	log.SetFlags(0)

	// Advertisers: two campaigns bidding $2 and $1 CPM.
	campaigns := []adprefetch.Campaign{
		{ID: 0, Name: "acme-spring-sale", BidCPM: 2.0, BudgetUSD: 50},
		{ID: 1, Name: "globex-brand", BidCPM: 1.0, BudgetUSD: 50},
	}
	ex, err := adprefetch.NewExchange(campaigns, 0.0002)
	if err != nil {
		log.Fatal(err)
	}

	// The system: 4 clients, predictive mode, 1-hour periods, fixed
	// 2x replication so the mechanics are visible.
	cfg := adprefetch.DefaultSystemConfig(adprefetch.ModePredictive)
	cfg.Server.Period = time.Hour
	cfg.Server.Overbook.FixedReplicas = 2
	cfg.Server.Overbook.AdmissionEpsilon = 0.45 // tiny population: keep admission > 0
	cfg.Server.SyncDelay = 30 * time.Minute     // slow sync so we can show a race
	sys, err := adprefetch.NewSystem(cfg, ex, []int{0, 1, 2, 3}, nil, nil)
	if err != nil {
		log.Fatal(err)
	}

	// Warm up the per-client predictors: each client historically shows
	// 2 ads in this hour-of-day.
	for day := 0; day < 5; day++ {
		p := adprefetch.Period{Index: day * 24, OfDay: 0}
		for c := 0; c < 4; c++ {
			sys.Server().ObserveSlot(c)
			sys.Server().ObserveSlot(c)
		}
		sys.EndPeriod(adprefetch.Time(day)*adprefetch.Day+adprefetch.Hour, p)
	}

	// Period opens: the server sells predicted slots BEFORE they exist.
	now := 5 * adprefetch.Day
	p := adprefetch.Period{Index: 5 * 24, OfDay: 0}
	deliveries, stats := sys.StartPeriod(now, p)
	fmt.Printf("period opened at %v\n", now)
	fmt.Printf("  aggregate forecast %.0f slots -> admitted %d -> sold %d impressions (mean k %.1f)\n",
		stats.PredictedSlots, stats.Admitted, stats.Sold, stats.MeanK())
	for _, d := range deliveries {
		fmt.Printf("  client %d prefetches a bundle of %d ads\n", d.Client, d.Ads)
	}

	// Slots fire; ads are served from local caches with no network fetch.
	fmt.Println("\nslots fire:")
	for c := 0; c < 4; c++ {
		at := now + adprefetch.Time(c+1)*adprefetch.Minute
		out, err := sys.HandleSlot(at, c, nil)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  client %d at %v: cacheHit=%v impression=%d\n", c, at, out.CacheHit, out.Impression)
	}

	// A racing duplicate: with slow sync, another client may display a
	// replica of an impression already claimed.
	fmt.Println("\nmore slots (replicas may race before cancellation propagates):")
	for c := 0; c < 4; c++ {
		at := now + adprefetch.Time(10+c)*adprefetch.Minute
		out, err := sys.HandleSlot(at, c, nil)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  client %d: cacheHit=%v rescued=%v impression=%d\n", c, out.CacheHit, out.Rescued, out.Impression)
	}

	// Close the period and read the books.
	sys.EndPeriod(now+2*adprefetch.Hour, p)
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
