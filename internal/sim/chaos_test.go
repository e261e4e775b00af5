package sim

import (
	"math"
	"testing"

	"repro/internal/faults"
	"repro/internal/simclock"
)

// chaosPlan is the seeded chaos schedule for the `make chaos` tier:
// 5% drops, 5% synthesized 5xx, 3% lost replies (side effects applied,
// the dedup window must absorb the retry), 2% resets, 2% truncated
// bodies — and, when asked, one timed blackout of shard 0 during the
// second selling day. MaxFaults=2 against the clients' 4 attempts
// guarantees every request outside the partition eventually lands, so
// the run always terminates.
func chaosPlan(seed int64, withPartition bool) *faults.Plan {
	p := &faults.Plan{
		Seed: seed,
		Default: faults.Rule{
			Drop:      0.05,
			ServerErr: 0.05,
			Delay:     0.03,
			Reset:     0.02,
			Truncate:  0.02,
			MaxFaults: 2,
		},
	}
	if withPartition {
		// Midday of the second day: the diurnal trace is busy, so the
		// blackout lands on live slot traffic, not just bundle fetches.
		p.Partitions = []faults.Partition{{
			Shard: 0,
			From:  simclock.Day + 10*simclock.Hour,
			To:    simclock.Day + 14*simclock.Hour,
		}}
	}
	return p
}

// TestChaosConservation is the chaos tier's core acceptance: under
// drops, 5xx, lost replies and a timed shard partition, at 1 shard and
// at 4, the money conserves exactly — billed + violations == sold (no
// impression vanishes), no display is ever billed twice (FreeShows
// would count it), and campaign spend equals ledger revenue.
func TestChaosConservation(t *testing.T) {
	if testing.Short() {
		t.Skip("full HTTP chaos replay")
	}
	cfg := transportConfig()
	for _, shards := range []int{1, 4} {
		plan := chaosPlan(1234, true)
		res, err := RunTransportStream(cfg, TransportOpts{Shards: shards, Workers: 4, Plan: plan})
		if err != nil {
			t.Fatalf("shards=%d: %v", shards, err)
		}
		l := res.Ledger
		if l.Sold == 0 || l.Billed == 0 {
			t.Fatalf("shards=%d: inert chaos run: %+v", shards, l)
		}
		if plan.Injected(faults.Drop) == 0 || plan.Injected(faults.ServerErr) == 0 {
			t.Fatalf("shards=%d: chaos did not fire: drops=%d 5xx=%d",
				shards, plan.Injected(faults.Drop), plan.Injected(faults.ServerErr))
		}
		if res.Net.Retries == 0 {
			t.Fatalf("shards=%d: no retries under chaos: %+v", shards, res.Net)
		}
		// Conservation: every sold impression is billed or violated.
		if l.Billed+l.Violations != l.Sold {
			t.Fatalf("shards=%d: conservation broken: billed %d + violations %d != sold %d",
				shards, l.Billed, l.Violations, l.Sold)
		}
		// No double billing: FixedReplicas=1 means any duplicate display
		// (a replayed report that executed twice) would surface as a free
		// show.
		if l.FreeShows != 0 || l.FreeUSD != 0 {
			t.Fatalf("shards=%d: duplicate displays under retries: %d shows, %v USD",
				shards, l.FreeShows, l.FreeUSD)
		}
		// Campaign spend must equal ledger revenue.
		var spend float64
		for _, b := range res.CampaignBilled {
			spend += b
		}
		if math.Abs(spend-l.BilledUSD) > 1e-6*(1+math.Abs(l.BilledUSD)) {
			t.Fatalf("shards=%d: campaign spend %v != ledger revenue %v", shards, spend, l.BilledUSD)
		}
		// The robustness cost is visible: retries burned energy.
		if res.RetryEnergyJ <= 0 {
			t.Fatalf("shards=%d: retries cost no energy: %+v", shards, res.Net)
		}
	}
}

// TestChaosDeterminism pins reproducibility: two runs under the same
// seed must agree byte-for-byte on the ledger, the injected-fault
// count, the retry energy, and every transport counter, even though the
// HTTP requests race across workers.
func TestChaosDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("full HTTP chaos replay")
	}
	cfg := transportConfig()
	planA, planB := chaosPlan(99, true), chaosPlan(99, true)
	a, err := RunTransportStream(cfg, TransportOpts{Shards: 4, Workers: 8, Plan: planA})
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunTransportStream(cfg, TransportOpts{Shards: 4, Workers: 8, Plan: planB})
	if err != nil {
		t.Fatal(err)
	}
	if LedgerJSON(a.Ledger) != LedgerJSON(b.Ledger) {
		t.Fatalf("chaos ledger not deterministic:\n%s\n%s", LedgerJSON(a.Ledger), LedgerJSON(b.Ledger))
	}
	if a.FaultsInjected != b.FaultsInjected {
		t.Fatalf("injected faults differ: %d vs %d", a.FaultsInjected, b.FaultsInjected)
	}
	if a.RetryEnergyJ != b.RetryEnergyJ {
		t.Fatalf("retry energy differs: %v vs %v", a.RetryEnergyJ, b.RetryEnergyJ)
	}
	if a.Net != b.Net {
		t.Fatalf("transport counters differ:\n%+v\n%+v", a.Net, b.Net)
	}
	// A different seed must actually change the fault schedule.
	c, err := RunTransportStream(cfg, TransportOpts{Shards: 4, Workers: 8, Plan: chaosPlan(100, true)})
	if err != nil {
		t.Fatal(err)
	}
	if c.Net == a.Net && c.RetryEnergyJ == a.RetryEnergyJ {
		t.Fatal("different seeds produced identical chaos outcomes")
	}
}

// TestChaosShardCountInvariance extends PR 1's invariance contract into
// the fault domain: with a partition-free plan (fault decisions are
// pure hashes of request identity, blind to shard layout), the ledger
// and the retry energy must not depend on the shard count.
func TestChaosShardCountInvariance(t *testing.T) {
	if testing.Short() {
		t.Skip("full HTTP chaos replay")
	}
	cfg := transportConfig()
	r1, err := RunTransportStream(cfg, TransportOpts{Shards: 1, Workers: 4, Plan: chaosPlan(7, false)})
	if err != nil {
		t.Fatal(err)
	}
	r4, err := RunTransportStream(cfg, TransportOpts{Shards: 4, Workers: 4, Plan: chaosPlan(7, false)})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := LedgerJSON(r4.Ledger), LedgerJSON(r1.Ledger); got != want {
		t.Fatalf("chaos ledger depends on shard count:\n 1 shard: %s\n 4 shards: %s", want, got)
	}
	// Retry counts are identical, but retry *bytes* differ slightly
	// across shard counts: per-shard exchanges mint their own impression
	// IDs, so JSON bodies carry different digit widths. Allow that much.
	if math.Abs(r1.RetryEnergyJ-r4.RetryEnergyJ) > 1e-6*(1+math.Abs(r1.RetryEnergyJ)) {
		t.Fatalf("retry energy depends on shard count: %v vs %v", r1.RetryEnergyJ, r4.RetryEnergyJ)
	}
	if r1.Net != r4.Net {
		t.Fatalf("transport counters depend on shard count:\n%+v\n%+v", r1.Net, r4.Net)
	}
}

// TestChaosPartitionDegrades verifies the graceful-degradation story
// end to end: the partition forces devices into cache-only operation
// (degraded slots, deferred reports), and the fault-free baseline pays
// zero retry energy while the chaos run pays a positive delta.
func TestChaosPartitionDegrades(t *testing.T) {
	if testing.Short() {
		t.Skip("full HTTP chaos replay")
	}
	cfg := transportConfig()
	clean, err := RunTransportStream(cfg, TransportOpts{Shards: 4, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if clean.RetryEnergyJ != 0 || clean.Net.Retries != 0 {
		t.Fatalf("fault-free run shows chaos residue: %+v", clean.Net)
	}
	chaos, err := RunTransportStream(cfg, TransportOpts{Shards: 4, Workers: 4, Plan: chaosPlan(1234, true)})
	if err != nil {
		t.Fatal(err)
	}
	if chaos.Net.DegradedSlots == 0 {
		t.Fatalf("partition degraded nothing: %+v", chaos.Net)
	}
	if chaos.RetryEnergyJ <= clean.RetryEnergyJ {
		t.Fatalf("chaos energy delta not positive: %v vs %v", chaos.RetryEnergyJ, clean.RetryEnergyJ)
	}
	// Degradation costs money (house ads, lost observations) but never
	// correctness: the clean run and the chaos run both conserve.
	if chaos.Ledger.Billed+chaos.Ledger.Violations != chaos.Ledger.Sold {
		t.Fatalf("chaos conservation broken: %+v", chaos.Ledger)
	}
	if clean.Ledger.Billed+clean.Ledger.Violations != clean.Ledger.Sold {
		t.Fatalf("clean conservation broken: %+v", clean.Ledger)
	}
}
