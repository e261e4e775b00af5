package sim

import (
	"testing"
)

// assertCodecEquivalence compares a JSON-envelope batched run against a
// binary-envelope batched run of the same trace. The codec is a pure
// wire encoding — decoded envelopes are value-identical, idempotency
// fingerprints hash the codec-independent sequential form, and WAL
// records re-marshal the decoded envelope — so unlike the
// sequential-vs-batched comparison, *everything* must match here,
// including the resilience counters: the same wake-ups, the same
// retries, the same attempts, just fewer bytes per envelope.
func assertCodecEquivalence(t *testing.T, label string, js, bin *Result) {
	t.Helper()
	if js.Ledger.Sold == 0 || js.Ledger.Billed == 0 {
		t.Fatalf("%s: inert JSON run: %+v", label, js.Ledger)
	}
	if got, want := LedgerJSON(bin.Ledger), LedgerJSON(js.Ledger); got != want {
		t.Fatalf("%s: ledger differs across codecs:\n json:   %s\n binary: %s", label, want, got)
	}
	if js.Ledger.Violations != bin.Ledger.Violations {
		t.Fatalf("%s: SLA violations differ: %d json vs %d binary",
			label, js.Ledger.Violations, bin.Ledger.Violations)
	}
	if js.Counters != bin.Counters {
		t.Fatalf("%s: aggregate counters differ:\n json:   %+v\n binary: %+v",
			label, js.Counters, bin.Counters)
	}
	if js.SoldTotal != bin.SoldTotal || js.Periods != bin.Periods {
		t.Fatalf("%s: server totals differ: sold %d/%d periods %d/%d",
			label, js.SoldTotal, bin.SoldTotal, js.Periods, bin.Periods)
	}
	if js.Net != bin.Net {
		t.Fatalf("%s: resilience counters differ:\n json:   %+v\n binary: %+v",
			label, js.Net, bin.Net)
	}
	if len(js.PerClient) != len(bin.PerClient) {
		t.Fatalf("%s: device count differs: %d vs %d", label, len(js.PerClient), len(bin.PerClient))
	}
	for id, jc := range js.PerClient {
		if bc := bin.PerClient[id]; bc != jc {
			t.Fatalf("%s: client %d counters differ:\n json:   %+v\n binary: %+v", label, id, jc, bc)
		}
	}
	for id, s := range js.CampaignBilled {
		if b := bin.CampaignBilled[id]; b != s {
			t.Fatalf("%s: campaign %d billed %v json vs %v binary", label, id, s, b)
		}
	}
}

// TestBinaryCodecEquivalence is the differential acceptance for the
// binary /v1/batch codec: the same seeded trace over JSON envelopes and
// over binary envelopes, at 1 shard and at 4, must produce identical
// outcomes on every axis — ledger, violations, per-client counters,
// resilience counters.
func TestBinaryCodecEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("full HTTP replay x4")
	}
	cfg := transportConfig()
	for _, shards := range []int{1, 4} {
		js, err := RunTransportStream(cfg, TransportOpts{Shards: shards, Workers: 4, Batched: true})
		if err != nil {
			t.Fatalf("shards=%d json: %v", shards, err)
		}
		bin, err := RunTransportStream(cfg, TransportOpts{Shards: shards, Workers: 4, Batched: true, BinaryBatch: true})
		if err != nil {
			t.Fatalf("shards=%d binary: %v", shards, err)
		}
		label := map[int]string{1: "codec shards=1", 4: "codec shards=4"}[shards]
		assertCodecEquivalence(t, label, js, bin)
		if bin.Obs.CounterTotal("batch_round_trips_saved_total") == 0 {
			t.Fatalf("%s: binary run never used /v1/batch", label)
		}
	}
}

// TestBinaryCodecEquivalenceUnderChaos replays the codec differential
// under the partition-free chaos plan: drops, 5xx, lost replies, resets
// and truncations hit both codecs, and because the fault layer draws
// per-sub-op identities from the frame itself (through the same
// internal/envelope decoder the server uses), the fault schedules — and
// therefore the outcomes — must stay aligned exactly.
func TestBinaryCodecEquivalenceUnderChaos(t *testing.T) {
	if testing.Short() {
		t.Skip("full HTTP chaos replay x4")
	}
	cfg := transportConfig()
	for _, shards := range []int{1, 4} {
		jsPlan, binPlan := chaosPlan(4242, false), chaosPlan(4242, false)
		js, err := RunTransportStream(cfg, TransportOpts{Shards: shards, Workers: 4, Plan: jsPlan, Batched: true})
		if err != nil {
			t.Fatalf("shards=%d json: %v", shards, err)
		}
		bin, err := RunTransportStream(cfg, TransportOpts{Shards: shards, Workers: 4, Plan: binPlan, Batched: true, BinaryBatch: true})
		if err != nil {
			t.Fatalf("shards=%d binary: %v", shards, err)
		}
		label := map[int]string{1: "codec chaos shards=1", 4: "codec chaos shards=4"}[shards]
		if jsPlan.InjectedTotal() == 0 || binPlan.InjectedTotal() == 0 {
			t.Fatalf("%s: chaos did not fire: %d json, %d binary faults",
				label, jsPlan.InjectedTotal(), binPlan.InjectedTotal())
		}
		assertCodecEquivalence(t, label, js, bin)
	}
}
