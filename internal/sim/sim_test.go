package sim

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/auction"
	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/radio"
	"repro/internal/simclock"
	"repro/internal/trace"
)

// quickConfig returns a small, fast configuration.
func quickConfig(mode core.Mode) Config {
	cfg := DefaultConfig(mode)
	cfg.TraceCfg.Users = 40
	cfg.TraceCfg.Days = 8
	cfg.WarmupDays = 4
	return cfg
}

func run(t *testing.T, cfg Config) *Result {
	t.Helper()
	r, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestRunOnDemandBaseline(t *testing.T) {
	r := run(t, quickConfig(core.ModeOnDemand))
	if r.Counters.CacheHits != 0 {
		t.Fatalf("on-demand should never hit a cache: %+v", r.Counters)
	}
	if r.Counters.OnDemandFetches != r.Counters.SlotsServed {
		t.Fatalf("every slot should fetch: %+v", r.Counters)
	}
	if r.AdEnergyJ <= 0 || r.AppEnergyJ <= 0 {
		t.Fatalf("energy missing: %+v", r)
	}
	if r.Ledger.ViolationRate() != 0 {
		t.Fatalf("on-demand has no deadlines to violate: %+v", r.Ledger)
	}
	if r.Ledger.RevenueLossFrac() != 0 {
		t.Fatalf("on-demand has no replicas to race: %+v", r.Ledger)
	}
	if r.Ledger.BilledUSD <= 0 {
		t.Fatalf("no revenue: %+v", r.Ledger)
	}
	if r.Days != 4 || r.Users != 40 {
		t.Fatalf("window wrong: %+v", r)
	}
}

func TestRunDeterministic(t *testing.T) {
	a := run(t, quickConfig(core.ModePredictive))
	b := run(t, quickConfig(core.ModePredictive))
	if a.AdEnergyJ != b.AdEnergyJ || a.Ledger != b.Ledger || a.Counters != b.Counters {
		t.Fatalf("nondeterministic:\n%+v\n%+v", a, b)
	}
}

// TestPredictiveRunGolden pins the predictive engine's outcomes to the
// numbers the engine produced before its rescue path was re-indexed
// (ISSUE 18): default overbooking, rescue on, default TopUpCap. The
// hand-out order of RescueOpen/TopUp and the planner's replica choice
// are part of the determinism contract; an engine change that is meant
// to be behaviour-preserving must leave every value here untouched.
func TestPredictiveRunGolden(t *testing.T) {
	type golden struct {
		ledger                auction.Ledger
		counters              client.Counters
		adEnergyJ             float64
		sold, replica, placed int64
	}
	want := map[int64]golden{
		1: {
			ledger: auction.Ledger{Sold: 11088, BilledUSD: 30.950048685991067, Billed: 11046,
				FreeUSD: 0.14289810637207373, FreeShows: 51, Violations: 42,
				ViolatedUSD: 0.11768079348288425, PotentialUSD: 31.067729479473886},
			counters: client.Counters{SlotsServed: 11097, CacheHits: 6967, OnDemandFetches: 4130,
				BundleFetches: 1115, BundledAds: 25822, DroppedOverflow: 2086, DroppedExpired: 16234},
			adEnergyJ: 47564.40306162467,
			sold:      8476, replica: 24141, placed: 8433,
		},
		7: {
			ledger: auction.Ledger{Sold: 10834, BilledUSD: 30.590889265825677, Billed: 10834,
				FreeUSD: 0.20047564499483161, FreeShows: 71, Violations: 0,
				ViolatedUSD: 0, PotentialUSD: 30.590889265825677},
			counters: client.Counters{SlotsServed: 10905, CacheHits: 6997, OnDemandFetches: 3908,
				BundleFetches: 1122, BundledAds: 26409, DroppedOverflow: 2509, DroppedExpired: 16308},
			adEnergyJ: 43316.247499089586,
			sold:      8583, replica: 24491, placed: 8583,
		},
	}
	for seed, w := range want {
		cfg := quickConfig(core.ModePredictive)
		cfg.Seed = seed
		cfg.TraceCfg.Seed = seed
		r := run(t, cfg)
		got := golden{r.Ledger, r.Counters, r.AdEnergyJ, r.SoldTotal, r.ReplicaTotal, r.PlacedTotal}
		if got != w {
			t.Errorf("seed %d: predictive outcomes moved\n got %+v\nwant %+v", seed, got, w)
		}
	}
}

// TestRunGoldenTable pins sim.Run's outcomes, one row per feature its
// event loop touches: every mode, both delivery policies, churn, report
// loss, the WiFi schedule, NoRescue, and a period that does not divide
// the trace span (its trailing events replay after the last boundary).
// A scheduler change meant to be behaviour-preserving must leave every
// row untouched.
func TestRunGoldenTable(t *testing.T) {
	mode := func(m core.Mode, edit func(*Config)) Config {
		cfg := quickConfig(m)
		if edit != nil {
			edit(&cfg)
		}
		return cfg
	}
	rows := []struct {
		name string
		cfg  Config
		want string
	}{
		{"on-demand", mode(core.ModeOnDemand, nil),
			`{"sold":11097,"billed":11097,"billed_usd":31.092946792,"free_shows":0,"free_usd":0.000000000,"violations":0,"violated_usd":0.000000000,"potential_usd":31.092946792} counters={SlotsServed:11097 CacheHits:0 OnDemandFetches:11097 BundleFetches:0 BundledAds:0 DroppedOverflow:0 DroppedExpired:0} ad=100533.63323335949 app=52616.367884463165 sold=0 replicas=0 placed=0 periods=24`},
		{"naive bulk", mode(core.ModeNaiveBulk, nil),
			`{"sold":11284,"billed":11080,"billed_usd":31.045314090,"free_shows":17,"free_usd":0.047632702,"violations":204,"violated_usd":0.571592425,"potential_usd":31.616906516} counters={SlotsServed:11097 CacheHits:1418 OnDemandFetches:9679 BundleFetches:1055 BundledAds:3995 DroppedOverflow:0 DroppedExpired:2497} ad=98525.01722970643 app=59005.45721199905 sold=3840 replicas=3840 placed=3840 periods=24`},
		{"oracle", mode(core.ModeOracle, nil),
			`{"sold":11097,"billed":11095,"billed_usd":31.087342945,"free_shows":2,"free_usd":0.005603847,"violations":2,"violated_usd":0.005603847,"potential_usd":31.092946792} counters={SlotsServed:11097 CacheHits:10992 OnDemandFetches:105 BundleFetches:759 BundledAds:11101 DroppedOverflow:0 DroppedExpired:109} ad=8877.282993538221 app=91125.10514282275 sold=11097 replicas=10816 placed=10816 periods=24`},
		{"predictive scheduled", mode(core.ModePredictive, nil),
			`{"sold":11088,"billed":11046,"billed_usd":30.950048686,"free_shows":51,"free_usd":0.142898106,"violations":42,"violated_usd":0.117680793,"potential_usd":31.067729479} counters={SlotsServed:11097 CacheHits:6967 OnDemandFetches:4130 BundleFetches:1115 BundledAds:25822 DroppedOverflow:2086 DroppedExpired:16234} ad=47564.40306162467 app=78181.01221730949 sold=8476 replicas=24141 placed=8433 periods=24`},
		{"predictive piggyback", mode(core.ModePredictive, func(c *Config) { c.Core.Delivery = core.DeliverPiggyback }),
			`{"sold":11088,"billed":11046,"billed_usd":30.950048686,"free_shows":51,"free_usd":0.142898106,"violations":42,"violated_usd":0.117680793,"potential_usd":31.067729479} counters={SlotsServed:11097 CacheHits:6967 OnDemandFetches:4130 BundleFetches:939 BundledAds:25539 DroppedOverflow:2025 DroppedExpired:16234} ad=43148.71656144101 app=73436.99645458386 sold=8476 replicas=24141 placed=8433 periods=24`},
		{"churn", mode(core.ModePredictive, func(c *Config) { c.ChurnProb = 0.3 }),
			`{"sold":8031,"billed":7832,"billed_usd":21.944666061,"free_shows":22,"free_usd":0.061642320,"violations":199,"violated_usd":0.557582807,"potential_usd":22.502248868} counters={SlotsServed:7854 CacheHits:3731 OnDemandFetches:4123 BundleFetches:732 BundledAds:12198 DroppedOverflow:602 DroppedExpired:7556} ad=43606.139801270576 app=51979.08115196727 sold=5415 replicas=15821 placed=5367 periods=24`},
		{"report loss", mode(core.ModePredictive, func(c *Config) { c.ReportLossProb = 0.5 }),
			`{"sold":8696,"billed":6625,"billed_usd":18.562744210,"free_shows":9,"free_usd":0.025217313,"violations":2071,"violated_usd":5.802783888,"potential_usd":24.365528098} counters={SlotsServed:11097 CacheHits:8920 OnDemandFetches:2177 BundleFetches:1021 BundledAds:25201 DroppedOverflow:3848 DroppedExpired:11444} ad=29480.19608181616 app=85044.55394606137 sold=8476 replicas=24141 placed=8433 periods=24`},
		{"wifi schedule", mode(core.ModePredictive, func(c *Config) { c.WiFiSchedule = DefaultWiFiSchedule() }),
			`{"sold":11088,"billed":11046,"billed_usd":30.950048686,"free_shows":51,"free_usd":0.142898106,"violations":42,"violated_usd":0.117680793,"potential_usd":31.067729479} counters={SlotsServed:11097 CacheHits:6967 OnDemandFetches:4130 BundleFetches:1115 BundledAds:25822 DroppedOverflow:2086 DroppedExpired:16234} ad=29588.53978358929 app=55200.072030126124 sold=8476 replicas=24141 placed=8433 periods=24`},
		{"no rescue", mode(core.ModePredictive, func(c *Config) { c.Core.NoRescue = true }),
			`{"sold":11840,"billed":11078,"billed_usd":31.039710243,"free_shows":19,"free_usd":0.053236549,"violations":762,"violated_usd":2.135065825,"potential_usd":33.174776068} counters={SlotsServed:11097 CacheHits:7733 OnDemandFetches:3364 BundleFetches:847 BundledAds:24141 DroppedOverflow:3287 DroppedExpired:12374} ad=40713.163289728844 app=82032.01101013894 sold=8476 replicas=24141 placed=8433 periods=24`},
		{"5h period", mode(core.ModePredictive, func(c *Config) { c.Core.Server.Period = 5 * time.Hour }),
			`{"sold":11178,"billed":10964,"billed_usd":30.720290946,"free_shows":59,"free_usd":0.165313496,"violations":214,"violated_usd":0.599611662,"potential_usd":31.319902608} counters={SlotsServed:11023 CacheHits:5625 OnDemandFetches:5398 BundleFetches:909 BundledAds:21447 DroppedOverflow:2712 DroppedExpired:12935} ad=57242.89244128667 app=72744.60497454616 sold=6901 replicas=19905 placed=6702 periods=18`},
	}
	for _, row := range rows {
		r := run(t, row.cfg)
		got := fmt.Sprintf("%s counters=%+v ad=%v app=%v sold=%d replicas=%d placed=%d periods=%d",
			LedgerJSON(r.Ledger), r.Counters, r.AdEnergyJ, r.AppEnergyJ,
			r.SoldTotal, r.ReplicaTotal, r.PlacedTotal, r.Periods)
		if got != row.want {
			t.Errorf("%s: outcomes moved\n got %s\nwant %s", row.name, got, row.want)
		}
	}
}

func TestPredictiveSavesEnergy(t *testing.T) {
	base := run(t, quickConfig(core.ModeOnDemand))
	pred := run(t, quickConfig(core.ModePredictive))
	if pred.AdEnergyJ >= base.AdEnergyJ {
		t.Fatalf("predictive (%.0f J) should beat on-demand (%.0f J)",
			pred.AdEnergyJ, base.AdEnergyJ)
	}
	// The headline: >50% ad energy reduction at the default operating point.
	saving := 1 - pred.AdEnergyJ/base.AdEnergyJ
	if saving < 0.5 {
		t.Fatalf("headline saving %.1f%% below 50%%", 100*saving)
	}
	// With negligible SLA violations and revenue loss.
	if v := pred.Ledger.ViolationRate(); v > 0.03 {
		t.Fatalf("SLA violation rate %.3f not negligible", v)
	}
	if l := pred.Ledger.RevenueLossFrac(); l > 0.05 {
		t.Fatalf("revenue loss %.3f not negligible", l)
	}
	if pred.Counters.CacheHits == 0 || pred.SoldTotal == 0 {
		t.Fatalf("predictive pipeline inert: %+v", pred)
	}
}

func TestOracleBoundsPredictive(t *testing.T) {
	pred := run(t, quickConfig(core.ModePredictive))
	oracle := run(t, quickConfig(core.ModeOracle))
	if oracle.AdEnergyJ > pred.AdEnergyJ*1.05 {
		t.Fatalf("oracle (%.0f J) should not lose to predictive (%.0f J)",
			oracle.AdEnergyJ, pred.AdEnergyJ)
	}
	if oracle.Counters.HitRate() < pred.Counters.HitRate() {
		t.Fatalf("oracle hit rate %.2f below predictive %.2f",
			oracle.Counters.HitRate(), pred.Counters.HitRate())
	}
}

func TestNaiveBulkIsNoWin(t *testing.T) {
	// The motivation for prediction: blindly prefetching K ads per period
	// wakes every client's radio every period — including overnight — so
	// it barely beats (or even loses to) the status quo, and it wastes a
	// large share of the impressions it bought.
	naive := run(t, quickConfig(core.ModeNaiveBulk))
	base := run(t, quickConfig(core.ModeOnDemand))
	pred := run(t, quickConfig(core.ModePredictive))
	if naive.AdEnergyJ < 0.8*base.AdEnergyJ {
		t.Fatalf("naive prefetch should not be a clear energy win: %.0f vs %.0f J",
			naive.AdEnergyJ, base.AdEnergyJ)
	}
	if naive.Ledger.ViolationRate() < 0.01 {
		t.Fatalf("naive violation rate %.3f suspiciously low — unused ads should expire",
			naive.Ledger.ViolationRate())
	}
	if pred.AdEnergyJ >= naive.AdEnergyJ {
		t.Fatalf("prediction should clearly beat naive bulk: %.0f vs %.0f J",
			pred.AdEnergyJ, naive.AdEnergyJ)
	}
	if pred.Ledger.ViolationRate() >= naive.Ledger.ViolationRate() {
		t.Fatal("prediction should reduce violations vs naive bulk")
	}
}

func TestPiggybackBeatsScheduled(t *testing.T) {
	sched := quickConfig(core.ModePredictive)
	sched.Core.Delivery = core.DeliverScheduled
	pig := quickConfig(core.ModePredictive)
	pig.Core.Delivery = core.DeliverPiggyback
	rs := run(t, sched)
	rp := run(t, pig)
	if rp.AdEnergyJ >= rs.AdEnergyJ {
		t.Fatalf("piggyback (%.0f J) should beat scheduled (%.0f J): it never wakes the radio",
			rp.AdEnergyJ, rs.AdEnergyJ)
	}
}

func TestSlotConservation(t *testing.T) {
	for _, mode := range []core.Mode{core.ModeOnDemand, core.ModeNaiveBulk, core.ModePredictive, core.ModeOracle} {
		r := run(t, quickConfig(mode))
		if r.Counters.SlotsServed != r.Counters.CacheHits+r.Counters.OnDemandFetches {
			t.Fatalf("%v: slots %d != hits %d + fetches %d", mode,
				r.Counters.SlotsServed, r.Counters.CacheHits, r.Counters.OnDemandFetches)
		}
		l := r.Ledger
		if l.Sold != l.Billed+l.Violations {
			t.Fatalf("%v: ledger not settled: %+v", mode, l)
		}
	}
}

func TestWiFiMakesPrefetchPointless(t *testing.T) {
	base := quickConfig(core.ModeOnDemand)
	base.Radio = radio.ProfileWiFi()
	pred := quickConfig(core.ModePredictive)
	pred.Radio = radio.ProfileWiFi()
	rb := run(t, base)
	rp := run(t, pred)
	// On WiFi the absolute ad energy is tiny either way; the paper's
	// point is that the tail problem is a cellular phenomenon.
	if rb.AdEnergyPerUserDay() > 20 {
		t.Fatalf("WiFi ad energy implausibly high: %.1f J/user/day", rb.AdEnergyPerUserDay())
	}
	// Prefetch on WiFi brings no meaningful benefit (and replication can
	// even cost a little extra in bytes) — the paper's savings are a
	// cellular-tail phenomenon. Assert the difference is marginal.
	if rp.AdEnergyPerUserDay() > rb.AdEnergyPerUserDay()+5 {
		t.Fatalf("prefetch on WiFi should be near-neutral: %.1f vs %.1f J/user/day",
			rp.AdEnergyPerUserDay(), rb.AdEnergyPerUserDay())
	}
}

func TestReportLossCausesViolations(t *testing.T) {
	clean := quickConfig(core.ModePredictive)
	lossy := quickConfig(core.ModePredictive)
	lossy.ReportLossProb = 0.5
	rc := run(t, clean)
	rl := run(t, lossy)
	if rl.Ledger.ViolationRate() <= rc.Ledger.ViolationRate() {
		t.Fatalf("lost reports should raise violations: %.4f vs %.4f",
			rl.Ledger.ViolationRate(), rc.Ledger.ViolationRate())
	}
	if rl.Ledger.BilledUSD >= rc.Ledger.BilledUSD {
		t.Fatal("lost reports should reduce billed revenue")
	}
}

func TestSyncDelaySweepRaisesRevenueLoss(t *testing.T) {
	fast := quickConfig(core.ModePredictive)
	fast.Core.Server.SyncDelay = time.Minute
	slow := quickConfig(core.ModePredictive)
	slow.Core.Server.SyncDelay = 6 * time.Hour
	rf := run(t, fast)
	rs := run(t, slow)
	if rs.Ledger.FreeShows < rf.Ledger.FreeShows {
		t.Fatalf("slower sync should not reduce free shows: %d vs %d",
			rs.Ledger.FreeShows, rf.Ledger.FreeShows)
	}
}

func TestConfigValidation(t *testing.T) {
	bad := []func(*Config){
		func(c *Config) { c.ReportBytes = -1 },
		func(c *Config) { c.RefreshInterval = 0 },
		func(c *Config) { c.WarmupDays = -1 },
		func(c *Config) { c.ReportLossProb = 2 },
		func(c *Config) { c.Radio = radio.Profile{} },
		func(c *Config) { c.Core.Server.Overbook.CacheCap = 0 },
	}
	for i, mutate := range bad {
		cfg := quickConfig(core.ModeOnDemand)
		mutate(&cfg)
		if _, err := Run(cfg); err == nil {
			t.Errorf("case %d: expected error", i)
		}
	}
	// Warm-up exceeding the trace span must error.
	cfg := quickConfig(core.ModeOnDemand)
	cfg.WarmupDays = 100
	if _, err := Run(cfg); err == nil {
		t.Error("warm-up beyond span accepted")
	}
}

func TestCompareAndTable(t *testing.T) {
	results, err := Compare(quickConfig(core.ModeOnDemand),
		[]core.Mode{core.ModeOnDemand, core.ModePredictive})
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 2 {
		t.Fatalf("results %d", len(results))
	}
	tbl := CompareTable("test", results).String()
	for _, want := range []string{"on-demand", "predictive", "saving"} {
		if !strings.Contains(tbl, want) {
			t.Fatalf("table missing %q:\n%s", want, tbl)
		}
	}
	if CompareTable("empty", nil).String() == "" {
		t.Fatal("empty table should still render headers")
	}
	if !strings.Contains(results[0].String(), "on-demand") {
		t.Fatal("result String missing mode")
	}
}

func TestChurnInjection(t *testing.T) {
	clean := quickConfig(core.ModePredictive)
	churny := quickConfig(core.ModePredictive)
	churny.ChurnProb = 0.3
	rc := run(t, clean)
	rh := run(t, churny)
	// Offline periods remove both supply and demand: fewer slots served.
	if rh.Counters.SlotsServed >= rc.Counters.SlotsServed {
		t.Fatalf("churn should remove slots: %d vs %d",
			rh.Counters.SlotsServed, rc.Counters.SlotsServed)
	}
	// The system must degrade gracefully: violations stay bounded because
	// replicas on online clients and the rescue path cover offline ones.
	if v := rh.Ledger.ViolationRate(); v > 0.10 {
		t.Fatalf("churn violation rate %.3f — system did not degrade gracefully", v)
	}
	// Validation.
	bad := quickConfig(core.ModePredictive)
	bad.ChurnProb = 1.5
	if _, err := Run(bad); err == nil {
		t.Fatal("invalid ChurnProb accepted")
	}
}

func TestChurnRequiresReplication(t *testing.T) {
	// Ablation: with churn, disabling both replication and the rescue
	// path must hurt the SLA far more than the full system.
	full := quickConfig(core.ModePredictive)
	full.ChurnProb = 0.3
	bare := quickConfig(core.ModePredictive)
	bare.ChurnProb = 0.3
	bare.Core.NoRescue = true
	bare.Core.Server.TopUpCap = 0
	bare.Core.Server.Overbook.FixedReplicas = 1
	bare.Core.Server.Overbook.MaxReplicas = 1
	rf := run(t, full)
	rb := run(t, bare)
	if rb.Ledger.ViolationRate() <= rf.Ledger.ViolationRate()*2 {
		t.Fatalf("bare system under churn (%.3f) should violate far more than full (%.3f)",
			rb.Ledger.ViolationRate(), rf.Ledger.ViolationRate())
	}
}

func TestRunParallelMatchesSequential(t *testing.T) {
	cfgA := quickConfig(core.ModeOnDemand)
	cfgB := quickConfig(core.ModePredictive)
	seqA := run(t, cfgA)
	seqB := run(t, cfgB)
	par, err := RunParallel([]Config{cfgA, cfgB})
	if err != nil {
		t.Fatal(err)
	}
	if par[0].AdEnergyJ != seqA.AdEnergyJ || par[0].Ledger != seqA.Ledger {
		t.Fatal("parallel run 0 diverged from sequential")
	}
	if par[1].AdEnergyJ != seqB.AdEnergyJ || par[1].Ledger != seqB.Ledger {
		t.Fatal("parallel run 1 diverged from sequential")
	}
}

func TestRunParallelSharedPopulation(t *testing.T) {
	cfg := quickConfig(core.ModePredictive)
	pop, err := trace.Generate(cfg.TraceCfg)
	if err != nil {
		t.Fatal(err)
	}
	a := cfg
	a.Population = pop
	b := cfg
	b.Population = pop
	b.Core.Server.SyncDelay = time.Hour
	results, err := RunParallel([]Config{a, b, a, b})
	if err != nil {
		t.Fatal(err)
	}
	// Identical configs sharing a population must be identical (the
	// population is read-only during runs).
	if results[0].Ledger != results[2].Ledger || results[1].Ledger != results[3].Ledger {
		t.Fatal("shared-population runs nondeterministic")
	}
}

func TestRunParallelErrors(t *testing.T) {
	bad := quickConfig(core.ModeOnDemand)
	bad.RefreshInterval = 0
	if _, err := RunParallel([]Config{quickConfig(core.ModeOnDemand), bad}); err == nil {
		t.Fatal("expected error from bad config")
	}
	if res, err := RunParallel(nil); err != nil || res != nil {
		t.Fatal("empty batch should be a no-op")
	}
}

func TestWiFiScheduleMixedConnectivity(t *testing.T) {
	cellular := quickConfig(core.ModeOnDemand)
	mixed := quickConfig(core.ModeOnDemand)
	mixed.WiFiSchedule = DefaultWiFiSchedule()
	rc := run(t, cellular)
	rm := run(t, mixed)
	// Evenings are peak usage; moving them to WiFi must cut ad energy a lot.
	if rm.AdEnergyJ >= 0.8*rc.AdEnergyJ {
		t.Fatalf("home WiFi should cut ad energy: %.0f vs %.0f J", rm.AdEnergyJ, rc.AdEnergyJ)
	}
	// Prefetching still helps the mixed population (daytime is cellular).
	pred := quickConfig(core.ModePredictive)
	pred.WiFiSchedule = DefaultWiFiSchedule()
	rp := run(t, pred)
	if rp.AdEnergyJ >= rm.AdEnergyJ {
		t.Fatalf("prefetching should still save under mixed connectivity: %.0f vs %.0f J",
			rp.AdEnergyJ, rm.AdEnergyJ)
	}
	// Determinism with the schedule on.
	rm2 := run(t, mixed)
	if rm.AdEnergyJ != rm2.AdEnergyJ {
		t.Fatal("mixed-connectivity run nondeterministic")
	}
}

func TestWiFiScheduleWindowLogic(t *testing.T) {
	w := WiFiSchedule{Enabled: true, HomeStartHour: 19, HomeEndHour: 8, Coverage: 1}
	cases := []struct {
		hour int
		want bool
	}{{19, true}, {23, true}, {0, true}, {7, true}, {8, false}, {12, false}, {18, false}}
	for _, c := range cases {
		at := simclock.Time(c.hour) * simclock.Hour
		if got := w.onWiFi(true, 0, at); got != c.want {
			t.Errorf("hour %d: %v want %v", c.hour, got, c.want)
		}
	}
	if w.onWiFi(false, 0, 20*simclock.Hour) {
		t.Error("user without WiFi reported on WiFi")
	}
	if (WiFiSchedule{}).onWiFi(true, 0, 20*simclock.Hour) {
		t.Error("disabled schedule reported on WiFi")
	}
	// Non-wrapping window.
	day := WiFiSchedule{Enabled: true, HomeStartHour: 9, HomeEndHour: 17}
	if !day.onWiFi(true, 0, 10*simclock.Hour) || day.onWiFi(true, 0, 18*simclock.Hour) {
		t.Error("non-wrapping window logic wrong")
	}
}
