// HTTPDemo: the deployable split in action.
//
// It starts the ad service in-process on a loopback listener (the same
// handler cmd/adserverd serves), then drives three phone-side devices
// through two prefetch periods over real HTTP: bundle downloads, cache
// hits, a skipped bundle that exercises the rescue path, display
// reports, cancellation queries, and the final ledger.
//
// Run with: go run ./examples/httpdemo
package main

import (
	"fmt"
	"log"
	"net/http/httptest"
	"time"

	adprefetch "repro"
	"repro/internal/adserver"
	"repro/internal/auction"
	"repro/internal/predict"
	"repro/internal/transport"
)

func main() {
	log.SetFlags(0)

	// The ad service: two campaigns, 3 clients, 1-hour periods.
	ex, err := adprefetch.NewExchange([]adprefetch.Campaign{
		{ID: 0, Name: "acme", BidCPM: 2.0, BudgetUSD: 100},
		{ID: 1, Name: "globex", BidCPM: 1.0, BudgetUSD: 100},
	}, auction.DefaultReserveUSD)
	if err != nil {
		log.Fatal(err)
	}
	cfg := adserver.DefaultConfig()
	cfg.Period = time.Hour
	cfg.Overbook.FixedReplicas = 2
	cfg.Overbook.AdmissionEpsilon = 0.45
	srv, err := adserver.New(cfg, ex, []int{0, 1, 2}, func(int) predict.Predictor {
		return predict.NewPercentileHistogram(0.9)
	}, nil)
	if err != nil {
		log.Fatal(err)
	}
	ts := httptest.NewServer(transport.NewServer(srv).Handler())
	defer ts.Close()
	fmt.Println("ad service listening on", ts.URL)

	// Warm up the forecasts: 2 slots per client in this hour-of-day.
	coord := transport.NewCoordinator(ts.URL, transport.WithHTTPClient(ts.Client()))
	for day := 0; day < 5; day++ {
		for c := 0; c < 3; c++ {
			srv.ObserveSlot(c)
			srv.ObserveSlot(c)
		}
		at := adprefetch.Time(day)*adprefetch.Day + adprefetch.Hour
		if _, err := coord.EndPeriod(at, day*24, 0, false); err != nil {
			log.Fatal(err)
		}
	}

	devices := make([]*transport.Device, 3)
	for i := range devices {
		d, err := transport.NewDevice(i, 32, ts.URL, transport.WithHTTPClient(ts.Client()))
		if err != nil {
			log.Fatal(err)
		}
		devices[i] = d
	}

	now := 5 * adprefetch.Day
	reply, err := coord.StartPeriod(now, 5*24, 0, false)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nperiod opened: forecast %.0f slots, sold %d impressions across %d bundles (k=%d replicas total)\n",
		reply.PredictedSlots, reply.Sold, reply.BundledClients, reply.Replicas)

	// Devices 0 and 1 download their bundles; device 2 "sleeps" through
	// the boundary and will rely on the rescue path.
	for i := 0; i < 2; i++ {
		n, err := devices[i].FetchBundle(now + adprefetch.Minute)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("device %d downloaded a bundle of %d ads\n", i, n)
	}

	// Slots fire across the period.
	for i, d := range devices {
		at := now + adprefetch.Time(5+i)*adprefetch.Minute
		out, err := d.HandleSlot(at, []adprefetch.Category{"game"})
		if err != nil {
			log.Fatal(err)
		}
		switch {
		case out.CacheHit:
			fmt.Printf("device %d: served impression %d from cache (no radio wake)\n", i, out.Impression)
		case out.Rescued:
			fmt.Printf("device %d: cache miss -> rescued open impression %d (+%d top-up ads)\n",
				i, out.Impression, out.TopUpAds)
		default:
			fmt.Printf("device %d: cache miss -> fresh on-demand sale %d\n", i, out.Impression)
		}
	}

	if _, err := coord.EndPeriod(now+2*adprefetch.Hour, 5*24, 0, false); err != nil {
		log.Fatal(err)
	}
	l, err := coord.Ledger()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nledger: sold %d, billed %d ($%.4f), violations %d, free shows %d\n",
		l.Sold, l.Billed, l.BilledUSD, l.Violations, l.FreeShows)

}
