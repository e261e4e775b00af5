package sim

import (
	"fmt"
	"testing"
)

// netPromise is what a differential pair promises about Result.Net, the
// wire economics. Every other outcome must match in every pair.
type netPromise int

const (
	// netMayDiffer: kill/restart, migration and hop pairs burn retries
	// riding out outages, and Result.Restarts differs with them.
	netMayDiffer netPromise = iota
	// netEqual: JSON vs binary envelopes, and the link hop vs an HTTP
	// hop, make the same wake-ups, retries and attempts.
	netEqual
	// netCheaper: batched vs sequential must take strictly fewer HTTP
	// attempts for the same outcomes.
	netCheaper
)

// assertSameOutcome compares run b against the reference run a of the
// same trace. The variant under test (wire mode, codec, kills, routing,
// migration) must be invisible to every accounting observable: the
// money ledger, SLA violations, aggregate and per-device client
// counters, server sales totals and per-campaign spend. Result.Net must
// keep the pair's promise.
func assertSameOutcome(t *testing.T, label string, a, b *Result, net netPromise) {
	t.Helper()
	if a.Ledger.Sold == 0 || a.Ledger.Billed == 0 {
		t.Fatalf("%s: inert reference run: %+v", label, a.Ledger)
	}
	if got, want := LedgerJSON(b.Ledger), LedgerJSON(a.Ledger); got != want {
		t.Fatalf("%s: ledger differs:\n reference: %s\n compared:  %s", label, want, got)
	}
	if a.Ledger.Violations != b.Ledger.Violations {
		t.Fatalf("%s: SLA violations differ: %d reference vs %d compared",
			label, a.Ledger.Violations, b.Ledger.Violations)
	}
	if a.Counters != b.Counters {
		t.Fatalf("%s: aggregate counters differ:\n reference: %+v\n compared:  %+v",
			label, a.Counters, b.Counters)
	}
	if a.SoldTotal != b.SoldTotal || a.Periods != b.Periods {
		t.Fatalf("%s: server totals differ: sold %d/%d periods %d/%d",
			label, a.SoldTotal, b.SoldTotal, a.Periods, b.Periods)
	}
	if len(a.PerClient) != len(b.PerClient) {
		t.Fatalf("%s: device count differs: %d vs %d", label, len(a.PerClient), len(b.PerClient))
	}
	for id, ac := range a.PerClient {
		bc, ok := b.PerClient[id]
		if !ok {
			t.Fatalf("%s: client %d missing from compared run", label, id)
		}
		if ac != bc {
			t.Fatalf("%s: client %d counters differ:\n reference: %+v\n compared:  %+v", label, id, ac, bc)
		}
	}
	if len(a.CampaignBilled) != len(b.CampaignBilled) {
		t.Fatalf("%s: campaign count differs: %d vs %d",
			label, len(a.CampaignBilled), len(b.CampaignBilled))
	}
	for id, x := range a.CampaignBilled {
		// Quantized at the nano-dollar like LedgerJSON: a campaign's
		// spend is a float sum grouped by whichever exchange billed each
		// impression, and a live migration regroups that sum — the
		// addends are identical but association-order jitter at ~1e-14
		// is not an accounting difference.
		y := b.CampaignBilled[id]
		if fmt.Sprintf("%.9f", x) != fmt.Sprintf("%.9f", y) {
			t.Fatalf("%s: campaign %d billed %v reference vs %v compared", label, id, x, y)
		}
	}
	switch net {
	case netEqual:
		if a.Net != b.Net {
			t.Fatalf("%s: resilience counters differ:\n reference: %+v\n compared:  %+v", label, a.Net, b.Net)
		}
	case netCheaper:
		if b.Net.Attempts >= a.Net.Attempts {
			t.Fatalf("%s: saved nothing: %d attempts vs %d reference", label, b.Net.Attempts, a.Net.Attempts)
		}
		t.Logf("%s: attempts %d -> %d (%.2fx fewer)", label, a.Net.Attempts, b.Net.Attempts,
			float64(a.Net.Attempts)/float64(b.Net.Attempts))
	}
}
