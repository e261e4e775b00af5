package sim

import (
	"testing"
)

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
		assertSameOutcome(t, label, js, bin, netEqual)
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
		assertSameOutcome(t, label, js, bin, netEqual)
	}
}
