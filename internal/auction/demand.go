package auction

import (
	"time"

	"repro/internal/simclock"
	"repro/internal/tenant"
	"repro/internal/trace"
)

// DemandConfig parameterizes synthetic advertiser demand for the
// experiments: how many campaigns, their bid distribution, and how
// deep their budgets run relative to the simulated inventory.
type DemandConfig struct {
	Campaigns int

	// CPMMedianUSD and CPMSigma shape the lognormal bid distribution;
	// mobile banner CPMs in the paper's era clustered around $0.5-$2.
	CPMMedianUSD float64
	CPMSigma     float64

	// BudgetImpressions sizes each campaign's budget as roughly this
	// many impressions at its own bid.
	BudgetImpressions int64

	// Deadline is the display SLA campaigns buy. Zero means campaigns
	// accept the server's prefetch-window cap.
	Deadline time.Duration

	// TargetedFrac of campaigns target a random single category; the
	// rest are run-of-network.
	TargetedFrac float64
}

// DefaultReserveUSD is the evaluation's per-impression reserve price:
// a $0.20 CPM floor, well under the ~$1 CPM bid median of DefaultDemand.
const DefaultReserveUSD = 0.0002

// DefaultDemand returns demand deep enough that auctions stay
// competitive for the whole simulation.
func DefaultDemand() DemandConfig {
	return DemandConfig{
		Campaigns:         40,
		CPMMedianUSD:      1.0,
		CPMSigma:          0.5,
		BudgetImpressions: 2_000_000,
		Deadline:          0,
		TargetedFrac:      0.3,
	}
}

// Generate synthesizes the campaign set deterministically from r.
func (d DemandConfig) Generate(r *simclock.Rand) []Campaign {
	cats := []trace.Category{
		trace.CatSocial, trace.CatGame, trace.CatNews,
		trace.CatWeather, trace.CatMedia, trace.CatUtility,
	}
	out := make([]Campaign, d.Campaigns)
	for i := range out {
		cpm := r.LogNormalMeanMedian(d.CPMMedianUSD, d.CPMSigma)
		c := Campaign{
			ID:         CampaignID(i),
			Advertiser: AdvertiserID(i / 2), // advertisers run ~2 campaigns each
			Name:       campaignName(i),
			BidCPM:     cpm,
			BudgetUSD:  cpm / 1000 * float64(d.BudgetImpressions),
			Deadline:   d.Deadline,
		}
		if r.Bernoulli(d.TargetedFrac) {
			c.Categories = []trace.Category{cats[r.Intn(len(cats))]}
		}
		out[i] = c
	}
	return out
}

// NodeCampaigns is the campaign set one shard of a node sells, drawn
// from r; every engine builder calls it. The legacy set comes from
// r.Stream("demand") with ids 0..Campaigns-1 and no tenant tag, so a
// multi-tenant run's aggregate books stay comparable with a
// single-tenant run's. Each named tenant's set comes from
// r.Stream("demand:"+id), ids offset past every set before it and
// tagged with the tenant. Every budget is divided by the node's shard
// count, so its shards together never spend more than one budget. A
// cluster node holds its own budget: sharing one across nodes would
// need a cross-node ledger. Generation is pure, so the same arguments
// always give the same campaigns.
func (d DemandConfig) NodeCampaigns(r *simclock.Rand, tenants []tenant.Config, shards int) []Campaign {
	all := d.Generate(r.Stream("demand"))
	for ti, tc := range tenants {
		set := d.Generate(r.Stream("demand:" + tc.ID))
		for i := range set {
			set[i].ID += CampaignID((ti + 1) * d.Campaigns)
			set[i].Tenant = tc.ID
		}
		all = append(all, set...)
	}
	for i := range all {
		all[i].BudgetUSD /= float64(shards)
	}
	return all
}

func campaignName(i int) string {
	names := []string{"acme", "globex", "initech", "umbrella", "hooli", "stark", "wayne", "tyrell"}
	return names[i%len(names)]
}
