package sim

import (
	"fmt"
	"math"
	"testing"
	"time"

	"repro/internal/core"
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
	cfg.MaxUsers = 40
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
