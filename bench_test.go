// Benchmarks regenerating every table and figure of the evaluation
// (one per experiment, run at a reduced scale so `go test -bench=.`
// finishes in minutes), plus micro-benchmarks of the hot paths the T2
// scalability table rests on.
//
// Shape, not absolute numbers, is the reproduction target; run
// `go run ./cmd/experiments -exp all -scale medium` for the real tables.
package adprefetch_test

import (
	"testing"
	"time"

	adprefetch "repro"
	"repro/internal/adserver"
	"repro/internal/auction"
	"repro/internal/overbook"
	"repro/internal/predict"
	"repro/internal/radio"
	"repro/internal/sim"
	"repro/internal/simclock"
	"repro/internal/trace"
)

// benchScale is smaller than experiments.Small so every figure can run
// inside a benchmark iteration.
func benchScale() adprefetch.Scale {
	s := adprefetch.ScaleSmall()
	s.Users = 30
	s.Days = 6
	s.WarmupDays = 3
	return s
}

// runExperiment is the shared driver: regenerate one table per iteration.
func runExperiment(b *testing.B, id string) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		tbl, err := adprefetch.RunExperiment(id, benchScale())
		if err != nil {
			b.Fatal(err)
		}
		if len(tbl.Rows) == 0 {
			b.Fatalf("%s produced no rows", id)
		}
	}
}

func BenchmarkTable1AdEnergyShare(b *testing.B)  { runExperiment(b, "t1") }
func BenchmarkFigure1TailEnergy(b *testing.B)    { runExperiment(b, "f1") }
func BenchmarkFigure2TraceStats(b *testing.B)    { runExperiment(b, "f2") }
func BenchmarkFigure3Predictors(b *testing.B)    { runExperiment(b, "f3") }
func BenchmarkFigure4Percentile(b *testing.B)    { runExperiment(b, "f4") }
func BenchmarkFigure5SLA(b *testing.B)           { runExperiment(b, "f5") }
func BenchmarkFigure6RevenueLoss(b *testing.B)   { runExperiment(b, "f6") }
func BenchmarkFigure7EnergySavings(b *testing.B) { runExperiment(b, "f7") }
func BenchmarkFigure8Tradeoff(b *testing.B)      { runExperiment(b, "f8") }
func BenchmarkFigure9Deadline(b *testing.B)      { runExperiment(b, "f9") }
func BenchmarkTable2Throughput(b *testing.B)     { runExperiment(b, "t2") }

// Extension experiments (see DESIGN.md §4).
func BenchmarkExtPerUserDistribution(b *testing.B) { runExperiment(b, "x1") }
func BenchmarkExtRadioGenerality(b *testing.B)     { runExperiment(b, "x2") }
func BenchmarkExtRobustness(b *testing.B)          { runExperiment(b, "x3") }
func BenchmarkExtRegularity(b *testing.B)          { runExperiment(b, "x4") }
func BenchmarkExtFACHAblation(b *testing.B)        { runExperiment(b, "x5") }
func BenchmarkExtAuctionFidelity(b *testing.B)     { runExperiment(b, "x6") }
func BenchmarkExtMixedConnectivity(b *testing.B)   { runExperiment(b, "x7") }
func BenchmarkExtShardScaling(b *testing.B)        { runExperiment(b, "x8") }

// ---------------------------------------------------------------------
// Hot-path micro-benchmarks (the substance behind Table 2).

func BenchmarkRadioTransfer(b *testing.B) {
	r := radio.New(radio.Profile3G())
	at := simclock.Time(0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		end := r.Transfer(at, 2048, "ads")
		at = end.Add(3 * time.Second)
	}
}

func BenchmarkAuctionSellSlot(b *testing.B) {
	demand := auction.DefaultDemand()
	demand.BudgetImpressions = int64(b.N) + 1000
	ex, err := auction.NewExchange(demand.Generate(simclock.NewRand(1)), 0.0001)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if sold := ex.SellSlots(simclock.Time(i), 1, nil, time.Hour); len(sold) == 0 {
			b.Fatal("demand exhausted")
		}
	}
}

func BenchmarkAuctionBillingCycle(b *testing.B) {
	demand := auction.DefaultDemand()
	demand.BudgetImpressions = int64(b.N) + 1000
	ex, err := auction.NewExchange(demand.Generate(simclock.NewRand(1)), 0.0001)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sold := ex.SellSlots(simclock.Time(i), 1, nil, time.Hour)
		if err := ex.RecordDisplay(sold[0].ID, sold[0].SoldAt.Add(time.Minute)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPlannerPlanOne(b *testing.B) {
	r := simclock.NewRand(1)
	cands := make([]*overbook.Candidate, 200)
	for i := range cands {
		cands[i] = &overbook.Candidate{
			Client:         i,
			PredictedSlots: 1 + 10*r.Float64(),
			ExpectedSlots:  1 + 8*r.Float64(),
			NoShowProb:     0.05 + 0.4*r.Float64(),
		}
	}
	cfg := overbook.DefaultConfig()
	cfg.CacheCap = 1 << 30
	p, err := overbook.NewPlanner(cfg, cands)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.PlanOne()
	}
}

// benchPredictor forecasts a constant slot count.
type benchPredictor float64

func (benchPredictor) Name() string                { return "const" }
func (benchPredictor) Observe(predict.Period, int) {}
func (p benchPredictor) Predict(predict.Period) predict.Estimate {
	return predict.Estimate{Slots: float64(p), Mean: float64(p)}
}

// BenchmarkTopUp is the rescue path's top-up scan over an open book of
// paper_inproc's size (600 clients, ≈10 impressions sold per client per
// period, default overbooking), untouched and with every second
// impression already claimed.
func BenchmarkTopUp(b *testing.B) {
	const users = 600
	for _, claimed := range []bool{false, true} {
		name := "nothing-claimed"
		if claimed {
			name = "half-claimed"
		}
		b.Run(name, func(b *testing.B) {
			demand := auction.DefaultDemand()
			demand.BudgetImpressions = 1 << 40
			ex, err := auction.NewExchange(demand.Generate(simclock.NewRand(1)), 0.0002)
			if err != nil {
				b.Fatal(err)
			}
			ids := make([]int, users)
			for i := range ids {
				ids[i] = i
			}
			srv, err := adserver.New(adserver.DefaultConfig(), ex, ids,
				func(int) predict.Predictor { return benchPredictor(10) }, nil)
			if err != nil {
				b.Fatal(err)
			}
			bundles, stats := srv.StartPeriod(0, predict.Period{})
			if stats.Sold < 5*users {
				b.Fatalf("book too small: %+v", stats)
			}
			if claimed {
				for _, bd := range bundles {
					for i, ad := range bd.Ads {
						if i%2 == 0 {
							_ = srv.ReportDisplay(ad.ID, simclock.At(time.Minute)) // replicas of one impression: later reports are free shows
						}
					}
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if len(srv.TopUp(simclock.Hour, i%users)) == 0 {
					b.Fatal("empty top-up")
				}
			}
		})
	}
}

func BenchmarkPredictorObservePredict(b *testing.B) {
	p := predict.NewPercentileHistogram(0.9)
	r := simclock.NewRand(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		per := predict.Period{Index: i, OfDay: i % 6, Weekend: i%7 >= 5}
		p.Observe(per, r.Poisson(5))
		if est := p.Predict(per); est.Slots < 0 {
			b.Fatal("negative estimate")
		}
	}
}

func BenchmarkTraceGeneration(b *testing.B) {
	cfg := trace.DefaultGenConfig()
	cfg.Users = 50
	cfg.Days = 7
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cfg.Seed = int64(i + 1)
		if _, err := trace.Generate(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPaperInproc is one sim.Run at the size of the benchmark's
// paper_inproc workload (600 users, 6 days, predictive mode). It exists
// to be profiled: `make prof-inproc` runs it once under -cpuprofile and
// -memprofile so an engine change starts from a profile.
func BenchmarkPaperInproc(b *testing.B) {
	cfg := adprefetch.DefaultSimConfig(adprefetch.ModePredictive)
	cfg.TraceCfg.Users = 600
	cfg.TraceCfg.Days = 6
	cfg.WarmupDays = 3
	cfg.Core.Server.Period = 4 * time.Hour
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := adprefetch.RunSimulation(cfg)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(res.Counters.SlotsServed+res.Counters.BundleFetches), "ops")
	}
}

// The three wire benchmarks below are one sim.RunTransportStream each
// at the size of the benchmark workload of the same name: streamed
// devices over one day of 6 h periods in naive-bulk mode, spoken to
// over loopback HTTP, energy metering on, lean results. Like
// BenchmarkPaperInproc they exist to be profiled: `make prof-wire
// WIRE=<name>` runs one under -cpuprofile and -memprofile so a change to
// the wire path starts from a profile.

// BenchmarkDiurnalBatched: 6 000 devices at a 5 min refresh and 1.5
// sessions a day on two shards, over the JSON batch wire.
func BenchmarkDiurnalBatched(b *testing.B) {
	runWireBench(b, 6000, 5*time.Minute, 1.5, func() sim.TransportOpts {
		return sim.TransportOpts{Shards: 2, Batched: true, Energy: true, Lean: true}
	})
}

// BenchmarkSlotsSequentialWAL: 1 400 devices at the SDK's 30 s refresh
// and 4 sessions a day on two shards, over the per-op JSON endpoints,
// with a WAL (no fsync) checkpointed every two periods.
func BenchmarkSlotsSequentialWAL(b *testing.B) {
	runWireBench(b, 1400, 30*time.Second, 4, func() sim.TransportOpts {
		return sim.TransportOpts{Shards: 2, Energy: true, Lean: true,
			WALDir: b.TempDir(), SnapshotEvery: 2}
	})
}

// BenchmarkRoutedBinary: 1 200 devices at a 30 s refresh and 4 sessions
// a day through cluster.Router over three one-shard nodes, over the
// APB1 binary batch wire.
func BenchmarkRoutedBinary(b *testing.B) {
	runWireBench(b, 1200, 30*time.Second, 4, func() sim.TransportOpts {
		return sim.TransportOpts{Nodes: 3, Batched: true, BinaryBatch: true, Energy: true, Lean: true}
	})
}

// runWireBench replays users devices once per iteration, with the
// options opts returns for that iteration, and reports the ops served.
func runWireBench(b *testing.B, users int, refresh time.Duration, sessions float64, opts func() sim.TransportOpts) {
	cfg := adprefetch.DefaultSimConfig(adprefetch.ModeNaiveBulk)
	cfg.TraceCfg.Users = users
	cfg.TraceCfg.Days = 1
	cfg.TraceCfg.SessionsPerDayMedian = sessions
	cfg.WarmupDays = 0
	cfg.Core.Server.Period = 6 * time.Hour
	cfg.RefreshInterval = refresh
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := sim.RunTransportStream(cfg, opts())
		if err != nil {
			b.Fatal(err)
		}
		var ops int64
		for _, p := range res.StreamPeriods {
			ops += p.Ops
		}
		b.ReportMetric(float64(ops), "ops")
	}
}

func BenchmarkEndToEndSimulation(b *testing.B) {
	cfg := adprefetch.DefaultSimConfig(adprefetch.ModePredictive)
	cfg.TraceCfg.Users = 30
	cfg.TraceCfg.Days = 6
	cfg.WarmupDays = 3
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := adprefetch.RunSimulation(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(res.AdEnergyPerUserDay(), "adJ/user/day")
			b.ReportMetric(100*res.Ledger.ViolationRate(), "SLAviol%")
		}
	}
}
