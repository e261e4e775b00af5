package sim

import (
	"fmt"
	"math"
	"net"
	"testing"
	"time"

	"repro/internal/auction"
	"repro/internal/core"
	"repro/internal/link"
	"repro/internal/simclock"
	"repro/internal/transport"
)

// transportConfig returns a small run whose monetary outcome is
// provably independent of shard count and request interleaving:
// ModeNaiveBulk pins FixedReplicas=1 and AdmissionEpsilon=0.5 (additive
// admission with integral per-client means), NoRescue removes
// cross-client claim stealing, and untargeted campaigns with huge
// budgets make every sale price constant. Under that contract the total
// is a sum of per-client outcomes, and partitioning clients across
// shards cannot change it.
func transportConfig() Config {
	cfg := DefaultConfig(core.ModeNaiveBulk)
	cfg.TraceCfg.Users = 40
	cfg.TraceCfg.Days = 4
	cfg.WarmupDays = 1
	cfg.Core.NoRescue = true
	cfg.Demand.TargetedFrac = 0
	cfg.Demand.BudgetImpressions = 1_000_000_000
	return cfg
}

// The tentpole's end-to-end acceptance: the same trace replayed through
// the HTTP serving path with 1 shard and with 4 shards must produce
// byte-identical ledgers and SLA outcomes.
func TestTransportShardCountInvariance(t *testing.T) {
	if testing.Short() {
		t.Skip("full HTTP replay")
	}
	cfg := transportConfig()

	r1, err := RunTransportStream(cfg, TransportOpts{Shards: 1, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	r4, err := RunTransportStream(cfg, TransportOpts{Shards: 4, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}

	if r1.Ledger.Sold == 0 || r1.Ledger.Billed == 0 {
		t.Fatalf("inert run: %+v", r1.Ledger)
	}
	if got, want := LedgerJSON(r4.Ledger), LedgerJSON(r1.Ledger); got != want {
		t.Fatalf("ledger depends on shard count:\n 1 shard: %s\n 4 shards: %s", want, got)
	}
	if r1.Ledger.Violations != r4.Ledger.Violations {
		t.Fatalf("SLA violations differ: %d vs %d", r1.Ledger.Violations, r4.Ledger.Violations)
	}
	if r1.SoldTotal != r4.SoldTotal || r1.Counters.SlotsServed != r4.Counters.SlotsServed {
		t.Fatalf("replay drift: sold %d/%d slots %d/%d",
			r1.SoldTotal, r4.SoldTotal, r1.Counters.SlotsServed, r4.Counters.SlotsServed)
	}
	// Per-campaign revenue must agree too, not just the totals. The
	// same displays are billed at the same prices; only the float
	// summation order differs across shards, so allow that much.
	for id, b1 := range r1.CampaignBilled {
		if b4 := r4.CampaignBilled[id]; math.Abs(b4-b1) > 1e-9*(1+math.Abs(b1)) {
			t.Fatalf("campaign %d billed %v (1 shard) vs %v (4 shards)", id, b1, b4)
		}
	}
}

// Run-to-run repeatability: the concurrent replay must not let
// scheduling leak into results (per-device order is preserved and the
// contract above makes cross-device order irrelevant).
func TestTransportRepeatable(t *testing.T) {
	if testing.Short() {
		t.Skip("full HTTP replay")
	}
	cfg := transportConfig()
	a, err := RunTransportStream(cfg, TransportOpts{Shards: 2, Workers: 8})
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunTransportStream(cfg, TransportOpts{Shards: 2, Workers: 8})
	if err != nil {
		t.Fatal(err)
	}
	if LedgerJSON(a.Ledger) != LedgerJSON(b.Ledger) {
		t.Fatalf("nondeterministic replay:\n%s\n%s", LedgerJSON(a.Ledger), LedgerJSON(b.Ledger))
	}
}

// The HTTP path must agree with the in-process engine. At Shards=2,
// Workers=4 it agrees on the physical counters that don't depend on
// policy internals: slots served is a property of the trace alone. At
// Workers=1, Shards=1 the replay walks sim.Run's exact event order, so
// it agrees on everything: ledger, counters, book totals and energy —
// the order-free naive config on both wire modes, and the paper's
// predictive mechanism (rescue on, overbooked replicas) per-op. Every
// row runs at the default period and at a 5 h one that leaves a partial
// period after the last boundary (its events replay too, on both paths)
// and an hour between warm-up end and the first selling boundary.
func TestTransportMatchesInProcessSlots(t *testing.T) {
	if testing.Short() {
		t.Skip("full HTTP replay")
	}
	predictive := DefaultConfig(core.ModePredictive)
	predictive.TraceCfg.Users = 40
	predictive.TraceCfg.Days = 4
	predictive.WarmupDays = 1
	exact := []struct {
		name    string
		cfg     Config
		batched bool
	}{
		{"naive per-op", transportConfig(), false},
		{"naive batched", transportConfig(), true},
		{"predictive per-op", predictive, false},
	}
	for _, period := range []time.Duration{0, 5 * time.Hour} {
		cfg := transportConfig()
		if period > 0 {
			cfg.Core.Server.Period = period
		}
		ip, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, batched := range []bool{false, true} {
			ht, err := RunTransportStream(cfg, TransportOpts{Shards: 2, Workers: 4, Batched: batched})
			if err != nil {
				t.Fatalf("period=%v batched=%v: %v", cfg.Core.Server.Period, batched, err)
			}
			if ht.Counters.SlotsServed != ip.Counters.SlotsServed {
				t.Fatalf("period=%v batched=%v: slots served: HTTP %d vs in-process %d",
					cfg.Core.Server.Period, batched, ht.Counters.SlotsServed, ip.Counters.SlotsServed)
			}
			if ht.Users != ip.Users || ht.Days != ip.Days {
				t.Fatalf("period=%v batched=%v: population drift: %d/%d users, %v/%v days",
					cfg.Core.Server.Period, batched, ht.Users, ip.Users, ht.Days, ip.Days)
			}
		}

		for _, row := range exact {
			cfg := row.cfg
			if period > 0 {
				cfg.Core.Server.Period = period
			}
			label := fmt.Sprintf("%s, period=%v", row.name, cfg.Core.Server.Period)
			ip, err := Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			ht, err := RunTransportStream(cfg, TransportOpts{Shards: 1, Workers: 1, Batched: row.batched, Energy: true})
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			if ip.Ledger.Billed == 0 {
				t.Fatalf("%s: inert run: %+v", label, ip.Ledger)
			}
			if got, want := LedgerJSON(ht.Ledger), LedgerJSON(ip.Ledger); got != want {
				t.Errorf("%s: ledger:\n HTTP       %s\n in-process %s", label, got, want)
			}
			if ht.Counters != ip.Counters {
				t.Errorf("%s: counters:\n HTTP       %+v\n in-process %+v", label, ht.Counters, ip.Counters)
			}
			if ht.SoldTotal != ip.SoldTotal || ht.ReplicaTotal != ip.ReplicaTotal ||
				ht.PlacedTotal != ip.PlacedTotal || ht.Periods != ip.Periods {
				t.Errorf("%s: sold/replicas/placed/periods: HTTP %d/%d/%d/%d vs in-process %d/%d/%d/%d", label,
					ht.SoldTotal, ht.ReplicaTotal, ht.PlacedTotal, ht.Periods,
					ip.SoldTotal, ip.ReplicaTotal, ip.PlacedTotal, ip.Periods)
			}
			if ht.AdEnergyJ != ip.AdEnergyJ || ht.AppEnergyJ != ip.AppEnergyJ {
				t.Errorf("%s: energy ad/app: HTTP %.3f/%.3f J vs in-process %.3f/%.3f J",
					label, ht.AdEnergyJ, ht.AppEnergyJ, ip.AdEnergyJ, ip.AppEnergyJ)
			}
		}
	}
}

func TestTransportValidation(t *testing.T) {
	cfg := transportConfig()
	if _, err := RunTransportStream(cfg, TransportOpts{Shards: 0, Workers: 1}); err == nil {
		t.Fatal("zero shards accepted")
	}
	cfg.ChurnProb = 0.5
	if _, err := RunTransportStream(cfg, TransportOpts{Shards: 1, Workers: 1}); err == nil {
		t.Fatal("failure injection accepted on the transport path")
	}
	cfg = transportConfig()
	cfg.Core.Delivery = core.DeliverPiggyback
	if _, err := RunTransportStream(cfg, TransportOpts{Shards: 1, Workers: 1}); err == nil {
		t.Fatal("piggyback delivery accepted on the transport path")
	}
}

// A campaign's budget is a deployment-wide cap, not a per-shard one.
// With budgets that bind (X6's regime: total demand about three times
// the inventory, so the top bidders run dry), the replay must never
// bill a campaign past its budget, at one shard or at four.
func TestTransportBudgetBindsAcrossShards(t *testing.T) {
	if testing.Short() {
		t.Skip("full HTTP replay")
	}
	cfg := transportConfig()
	expImps := int64(cfg.TraceCfg.Users) * int64(cfg.TraceCfg.Days-cfg.WarmupDays) * 60
	cfg.Demand.BudgetImpressions = 3 * expImps / int64(cfg.Demand.Campaigns)
	budget := map[auction.CampaignID]float64{}
	for _, c := range cfg.Demand.Generate(simclock.NewRand(cfg.Seed).Stream("sim").Stream("demand")) {
		budget[c.ID] = c.BudgetUSD
	}
	for _, shards := range []int{1, 4} {
		res, err := RunTransportStream(cfg, TransportOpts{Shards: shards, Workers: 4})
		if err != nil {
			t.Fatal(err)
		}
		capped := 0
		for id, billed := range res.CampaignBilled {
			if billed > budget[id]+1e-9 {
				t.Errorf("shards=%d: campaign %d billed %.6f USD, budget %.6f USD", shards, id, billed, budget[id])
			}
			if billed > budget[id]/2 {
				capped++
			}
		}
		if capped == 0 {
			t.Fatalf("shards=%d: no campaign spent half its budget; the budgets do not bind", shards)
		}
	}
}

// The -target path drives a node it did not boot: a node built as the
// local backend builds one (the same pool, booted by transport.BootNode)
// serves behind a link.Server, as adserverd serves it, and the replay
// reaches it only through TargetURL. At one worker the devices'
// counters, the selling totals and the energy equal the local
// backend's; the ledger the run reads over GET /v1/ledger is the node's
// own, and once the node sweeps its trailing expiries — as the local
// backend's finish does — it equals the local run's ledger.
func TestTransportTargetMatchesLocal(t *testing.T) {
	if testing.Short() {
		t.Skip("full HTTP replay")
	}
	cfg := transportConfig()
	local, err := RunTransportStream(cfg, TransportOpts{Shards: 1, Workers: 1, Energy: true})
	if err != nil {
		t.Fatal(err)
	}
	env, err := newStreamEnv(cfg, TransportOpts{Shards: 1, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	pool, err := env.makePool(1, env.ids)
	if err != nil {
		t.Fatal(err)
	}
	node, _, err := transport.BootNode(pool, -1, "", nil, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := link.NewServer(node.Handler())
	go srv.Serve(ln)
	defer srv.Close()

	remote, err := RunTransportStream(cfg, TransportOpts{TargetURL: "http://" + ln.Addr().String(), Workers: 1, Energy: true})
	if err != nil {
		t.Fatal(err)
	}
	if local.Ledger.Billed == 0 {
		t.Fatalf("inert run: %+v", local.Ledger)
	}
	if got, want := LedgerJSON(remote.Ledger), LedgerJSON(pool.Ledger()); got != want {
		t.Errorf("ledger read over HTTP:\n %s\nthe node's own:\n %s", got, want)
	}
	pool.Shard(0).Exchange().SweepExpired(env.span + simclock.Week)
	if got, want := LedgerJSON(pool.Ledger()), LedgerJSON(local.Ledger); got != want {
		t.Errorf("ledger: target %s vs local %s", got, want)
	}
	if remote.Counters != local.Counters || remote.Net != local.Net {
		t.Errorf("counters: target %+v %+v vs local %+v %+v", remote.Counters, remote.Net, local.Counters, local.Net)
	}
	if remote.SoldTotal != local.SoldTotal || remote.PlacedTotal != local.PlacedTotal || remote.Periods != local.Periods {
		t.Errorf("sold/placed/periods: target %d/%d/%d vs local %d/%d/%d", remote.SoldTotal, remote.PlacedTotal,
			remote.Periods, local.SoldTotal, local.PlacedTotal, local.Periods)
	}
	if remote.AdEnergyJ != local.AdEnergyJ || remote.AppEnergyJ != local.AppEnergyJ {
		t.Errorf("energy ad/app: target %.3f/%.3f J vs local %.3f/%.3f J",
			remote.AdEnergyJ, remote.AppEnergyJ, local.AdEnergyJ, local.AppEnergyJ)
	}
}
