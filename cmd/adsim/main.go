// Command adsim runs one end-to-end simulation of the ad-prefetching
// system over a synthetic (or loaded) usage trace and prints the
// energy / SLA / revenue report.
//
// Examples:
//
//	adsim -mode predictive -users 300 -days 14 -period 4h
//	adsim -mode ondemand -users 300 -days 14          # status-quo baseline
//	adsim -mode predictive -trace traces.jsonl        # replay a real trace
//	adsim -compare -users 200 -days 10                # all four modes side by side
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"time"

	adprefetch "repro"
	"repro/internal/core"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("adsim: ")

	var (
		mode      = flag.String("mode", "predictive", "delivery mode: ondemand | naive | predictive | oracle")
		users     = flag.Int("users", 200, "synthetic population size")
		days      = flag.Int("days", 10, "trace span in days")
		warmup    = flag.Int("warmup", 5, "predictor warm-up days (excluded from metrics)")
		period    = flag.Duration("period", 4*time.Hour, "prefetch period")
		pctile    = flag.Float64("percentile", 0.9, "percentile-histogram operating point")
		k         = flag.Int("k", 0, "fixed replication factor (0 = adaptive)")
		seed      = flag.Int64("seed", 1, "root random seed")
		radioName = flag.String("radio", "3g", "radio profile: 3g | lte | wifi")
		delivery  = flag.String("delivery", "scheduled", "bundle delivery: scheduled | piggyback")
		tracePath = flag.String("trace", "", "JSON-lines trace file to replay instead of synthesizing")
		compare   = flag.Bool("compare", false, "run all four modes and print a comparison table")
		csv       = flag.Bool("csv", false, "emit CSV instead of aligned text (with -compare)")
	)
	flag.Parse()

	m, err := core.ParseMode(*mode)
	if err != nil {
		log.Fatal(err)
	}
	cfg := adprefetch.DefaultSimConfig(m)
	cfg.TraceCfg.Users = *users
	cfg.TraceCfg.Days = *days
	cfg.TraceCfg.Seed = *seed
	cfg.WarmupDays = *warmup
	cfg.Seed = *seed
	cfg.Core.Server.Period = *period
	cfg.Core.Percentile = *pctile
	if *k > 0 {
		cfg.Core.Server.Overbook.FixedReplicas = *k
	}
	switch *radioName {
	case "3g":
		cfg.Radio = adprefetch.Profile3G()
	case "lte":
		cfg.Radio = adprefetch.ProfileLTE()
	case "wifi":
		cfg.Radio = adprefetch.ProfileWiFi()
	default:
		log.Fatalf("unknown radio %q", *radioName)
	}
	switch *delivery {
	case "scheduled":
		cfg.Core.Delivery = adprefetch.DeliverScheduled
	case "piggyback":
		cfg.Core.Delivery = adprefetch.DeliverPiggyback
	default:
		log.Fatalf("unknown delivery %q", *delivery)
	}
	if *tracePath != "" {
		f, err := os.Open(*tracePath)
		if err != nil {
			log.Fatal(err)
		}
		pop, err := adprefetch.ReadTrace(f)
		f.Close()
		if err != nil {
			log.Fatal(err)
		}
		cfg.Population = pop
	}

	if *compare {
		modes := []adprefetch.Mode{
			adprefetch.ModeOnDemand, adprefetch.ModeNaiveBulk,
			adprefetch.ModePredictive, adprefetch.ModeOracle,
		}
		results, err := adprefetch.CompareModes(cfg, modes)
		if err != nil {
			log.Fatal(err)
		}
		tbl := adprefetch.CompareTable(fmt.Sprintf("mode comparison (%d users, %d days, period %v)",
			*users, *days, *period), results)
		if *csv {
			fmt.Print(tbl.CSV())
		} else {
			fmt.Print(tbl.String())
		}
		return
	}

	res, err := adprefetch.RunSimulation(cfg)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(res)
	fmt.Printf("  users %d, measured days %d, period %v\n", res.Users, res.Days, *period)
	fmt.Printf("  ad energy      %.1f J total (%.1f J/user/day)\n", res.AdEnergyJ, res.AdEnergyPerUserDay())
	fmt.Printf("  app energy     %.1f J total\n", res.AppEnergyJ)
	fmt.Printf("  slots          %d (%d cache hits, %d fallback fetches)\n",
		res.Counters.SlotsServed, res.Counters.CacheHits, res.Counters.OnDemandFetches)
	fmt.Printf("  sold           %d prefetch impressions, mean k %.2f\n", res.SoldTotal, res.MeanReplication())
	fmt.Printf("  billed         $%.2f (%d impressions)\n", res.Ledger.BilledUSD, res.Ledger.Billed)
	fmt.Printf("  SLA violations %d (%.3g%%)\n", res.Ledger.Violations, 100*res.Ledger.ViolationRate())
	fmt.Printf("  revenue loss   $%.4f (%.3g%% of billed, %d free shows)\n",
		res.Ledger.FreeUSD, 100*res.Ledger.RevenueLossFrac(), res.Ledger.FreeShows)
}
