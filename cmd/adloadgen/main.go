// Command adloadgen drives a population-scale load test through the
// deployable serving path without ever materializing the population:
// traces are derived lazily from per-client seeds and scheduled by the
// event-driven streaming replay (sim.RunTransportStream), so a million
// simulated devices — with the trace generator's two-peak diurnal
// rhythm — pay only for their serving state (dedup window, cache, open
// impressions) while speaking real HTTP to the sharded server (or a
// multi-node cluster with -nodes). See README "Million-device runs"
// for the measured envelope.
//
// The report is per-period: device wake-ups, requests, wall-clock
// throughput and client-observed latency quantiles for each simulated
// period, followed by the peak-hour tail, the ledger line, and (with
// -energy) the per-device radio cost per day.
//
// Examples:
//
//	adloadgen                           # 1M devices, 1 day, 6h periods
//	adloadgen -users 100000 -shards 2   # smaller sweep
//	adloadgen -nodes 3 -users 500000    # through the cluster router
//	adloadgen -target http://127.0.0.1:8480 -users 100000  # drive a live deployment
//	adloadgen -json > run.json          # machine-readable result
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"time"

	"repro/internal/core"
	"repro/internal/sim"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("adloadgen: ")

	var (
		users    = flag.Int("users", 1_000_000, "simulated device population")
		days     = flag.Int("days", 1, "trace span in days")
		warmup   = flag.Int("warmup", 0, "predictor warm-up days (excluded from metrics)")
		period   = flag.Duration("period", 6*time.Hour, "prefetch period")
		refresh  = flag.Duration("refresh", 5*time.Minute, "in-app ad slot refresh interval")
		sessions = flag.Float64("sessions", 1.5, "median app sessions per device per day")
		mode     = flag.String("mode", "naive", "delivery mode: ondemand | naive | predictive | oracle")
		shards   = flag.Int("shards", 4, "server shard count (single-process)")
		nodes    = flag.Int("nodes", 0, "cluster node count (0 = single process)")
		target   = flag.String("target", "", "base URL of an already-running server or router (e.g. http://127.0.0.1:8480); drives it instead of booting one in-process")
		workers  = flag.Int("workers", 0, "device worker goroutines (0 = GOMAXPROCS)")
		batched  = flag.Bool("batched", true, "use the coalesced batch wire")
		binary   = flag.Bool("binary", false, "use the binary batch codec (implies -batched)")
		energy   = flag.Bool("energy", true, "charge transfer bytes through per-device radios")
		lean     = flag.Bool("lean", true, "drop O(population) result fields")
		seed     = flag.Int64("seed", 1, "root random seed")
		jsonOut  = flag.Bool("json", false, "emit the result as JSON instead of the report")
	)
	flag.Parse()

	m, err := core.ParseMode(*mode)
	if err != nil {
		log.Fatal(err)
	}
	cfg := sim.DefaultConfig(m)
	cfg.TraceCfg.Users = *users
	cfg.TraceCfg.Days = *days
	cfg.TraceCfg.Seed = *seed
	cfg.TraceCfg.SessionsPerDayMedian = *sessions
	cfg.Seed = *seed
	cfg.WarmupDays = *warmup
	cfg.Core.Server.Period = *period
	cfg.RefreshInterval = *refresh
	o := sim.TransportOpts{
		Shards:      *shards,
		Nodes:       *nodes,
		Workers:     *workers,
		Batched:     *batched || *binary,
		BinaryBatch: *binary,
		Energy:      *energy,
		Lean:        *lean,
		TargetURL:   *target,
	}
	if *nodes > 0 {
		o.Shards = 0
	}
	if *target != "" {
		// The external deployment decides its own topology; the generator
		// only drives devices at it.
		o.Shards, o.Nodes = 0, 0
	}

	start := time.Now()
	res, err := sim.RunTransportStream(cfg, o)
	if err != nil {
		log.Fatal(err)
	}
	wall := time.Since(start)

	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(report(res, wall)); err != nil {
			log.Fatal(err)
		}
		return
	}
	printReport(res, wall)
}

// runReport is the machine-readable summary -json emits.
type runReport struct {
	Users        int                    `json:"users"`
	WallSeconds  float64                `json:"wall_seconds"`
	TotalOps     int64                  `json:"total_ops"`
	TotalWakeups int64                  `json:"total_wakeups"`
	OpsPerSec    float64                `json:"ops_per_sec"`
	PeakHour     int                    `json:"peak_hour"`
	PeakP99MS    float64                `json:"peak_p99_ms"`
	AdJPerUser   float64                `json:"ad_j_per_user_day"`
	AppJPerUser  float64                `json:"app_j_per_user_day"`
	HitRate      float64                `json:"hit_rate"`
	Ledger       string                 `json:"ledger"`
	Periods      []sim.StreamPeriodStat `json:"periods"`
}

func report(res *sim.Result, wall time.Duration) runReport {
	r := runReport{
		Users:       res.Users,
		WallSeconds: wall.Seconds(),
		Ledger:      sim.LedgerJSON(res.Ledger),
		HitRate:     res.Counters.HitRate(),
		AdJPerUser:  res.AdEnergyPerUserDay(),
		Periods:     res.StreamPeriods,
	}
	if res.Users > 0 && res.Days > 0 {
		r.AppJPerUser = res.AppEnergyJ / float64(res.Users) / float64(res.Days)
	}
	for _, p := range res.StreamPeriods {
		r.TotalOps += p.Ops
		r.TotalWakeups += p.Wakeups
		if p.P99NS/1e6 > r.PeakP99MS {
			r.PeakP99MS = p.P99NS / 1e6
			r.PeakHour = p.HourOfDay
		}
	}
	if wall > 0 {
		r.OpsPerSec = float64(r.TotalOps) / wall.Seconds()
	}
	return r
}

func printReport(res *sim.Result, wall time.Duration) {
	fmt.Printf("%d devices, %d measured day(s), %v wall\n\n", res.Users, res.Days, wall.Round(time.Second))
	fmt.Printf("%7s %5s %12s %12s %9s %10s %9s %9s %9s\n",
		"period", "hour", "wakeups", "ops", "wall", "ops/s", "p50 ms", "p95 ms", "p99 ms")
	for _, p := range res.StreamPeriods {
		fmt.Printf("%7d %5d %12d %12d %8.1fs %10.0f %9.2f %9.2f %9.2f\n",
			p.Index, p.HourOfDay, p.Wakeups, p.Ops,
			float64(p.WallNS)/1e9, p.OpsPerSec(),
			p.P50NS/1e6, p.P95NS/1e6, p.P99NS/1e6)
	}
	r := report(res, wall)
	fmt.Printf("\ntotal: %d ops, %d wake-ups, %.0f ops/s overall\n", r.TotalOps, r.TotalWakeups, r.OpsPerSec)
	fmt.Printf("peak-hour tail: p99 %.2f ms at hour %02d\n", r.PeakP99MS, r.PeakHour)
	if res.AdEnergyJ > 0 || res.AppEnergyJ > 0 {
		fmt.Printf("energy: %.2f J/device/day ads, %.2f J/device/day app\n", r.AdJPerUser, r.AppJPerUser)
	}
	fmt.Printf("serving: hit rate %.1f%%, %s\n", 100*r.HitRate, res.String())
	fmt.Printf("ledger: %s\n", r.Ledger)
}
