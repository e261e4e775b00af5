// Package auction implements the ad-exchange substrate: advertisers run
// campaigns with bids, budgets, impression goals, and targeting; display
// opportunities ("slots") are sold through sealed-bid second-price
// auctions; and a ledger tracks what is billed versus given away.
//
// The paper's architectural point is that modern ad systems sell each
// slot through a real-time auction at display time, which is exactly
// what prefetching breaks. This exchange therefore supports selling
// slots *before* they exist (the ad server offers predicted future
// inventory) and bills at display-confirmation time, so the revenue
// consequences of prediction error and replication are accounted
// faithfully: an impression displayed by more than one replica is paid
// only once, and an impression never displayed before its deadline is an
// SLA violation that releases its budget commitment.
package auction

import (
	"fmt"
	"math"
	"sort"
	"time"

	"repro/internal/simclock"
	"repro/internal/trace"
)

// AdvertiserID identifies a bidder.
type AdvertiserID int

// CampaignID identifies a campaign within an exchange.
type CampaignID int

// ImpressionID identifies one sold impression.
type ImpressionID int64

// Campaign is an advertiser's standing order for impressions.
type Campaign struct {
	ID         CampaignID
	Advertiser AdvertiserID
	Name       string

	// BidCPM is the bid per thousand impressions (USD). Per-impression
	// willingness to pay is BidCPM/1000.
	BidCPM float64

	// BudgetUSD caps total spend; the campaign stops bidding once its
	// committed spend reaches the budget.
	BudgetUSD float64

	// Goal caps total impressions purchased (0 = unlimited).
	Goal int64

	// Deadline is the display SLA the advertiser buys: a sold impression
	// must be shown within this long or it counts as a violation.
	Deadline time.Duration

	// Categories restricts the app categories this campaign will buy
	// (empty = run of network).
	Categories []trace.Category

	// FreqCapPerUserDay caps how many impressions of this campaign one
	// user may see per day (0 = uncapped). The exchange itself cannot
	// enforce it — it does not know which user a prefetched slot will
	// materialize on — so the ad server enforces it at replica
	// assignment and on-demand sale time via SellSlots' allow filter.
	FreqCapPerUserDay int

	// Tenant scopes the campaign to one publisher's namespace. Empty is
	// the legacy single-publisher deployment. The ad server only sells a
	// tenant's inventory to that tenant's campaigns, and the exchange
	// mints the tenant's impression ids from a disjoint namespace so one
	// tenant's traffic never perturbs another's id sequence or ledger.
	Tenant string `json:"Tenant,omitempty"`
}

// perImp returns the campaign's per-impression bid.
func (c Campaign) perImp() float64 { return c.BidCPM / 1000 }

// matches reports whether the campaign may buy a slot offered with the
// given category hints (nil hints = untargetable inventory, which only
// run-of-network campaigns buy).
func (c Campaign) matches(hints []trace.Category) bool {
	if len(c.Categories) == 0 {
		return true
	}
	for _, h := range hints {
		for _, want := range c.Categories {
			if h == want {
				return true
			}
		}
	}
	return false
}

// Impression is one sold display obligation.
type Impression struct {
	ID       ImpressionID
	Campaign CampaignID
	PriceUSD float64 // second-price outcome, per impression
	SoldAt   simclock.Time
	Deadline simclock.Time // display SLA expiry
}

// Ledger aggregates the money and SLA outcomes of an exchange.
type Ledger struct {
	Sold         int64
	BilledUSD    float64
	Billed       int64   // impressions billed (displayed at least once in time)
	FreeUSD      float64 // value of duplicate displays given away (revenue loss)
	FreeShows    int64   // duplicate display count
	Violations   int64   // sold impressions never displayed in time
	ViolatedUSD  float64 // their released value
	PotentialUSD float64 // total value sold (billed + violated upper bound)
}

// Add accumulates o into l, field by field. It is the one ledger sum:
// shard pools, tenant views, the router's merged replies and the replay
// harness all total ledgers through it, so a new field is summed
// everywhere or nowhere. Summing in a fixed order keeps merged float
// totals bit-identical run to run.
func (l *Ledger) Add(o Ledger) {
	l.Sold += o.Sold
	l.BilledUSD += o.BilledUSD
	l.Billed += o.Billed
	l.FreeUSD += o.FreeUSD
	l.FreeShows += o.FreeShows
	l.Violations += o.Violations
	l.ViolatedUSD += o.ViolatedUSD
	l.PotentialUSD += o.PotentialUSD
}

// RevenueLossFrac returns the paper's revenue-loss metric: the value of
// free (duplicate) impressions relative to billed revenue.
func (l Ledger) RevenueLossFrac() float64 {
	if l.BilledUSD == 0 {
		return 0
	}
	return l.FreeUSD / l.BilledUSD
}

// ViolationRate returns violated impressions / sold impressions.
func (l Ledger) ViolationRate() float64 {
	if l.Sold == 0 {
		return 0
	}
	return float64(l.Violations) / float64(l.Sold)
}

// campaignState tracks the mutable side of a campaign.
type campaignState struct {
	c            Campaign
	soldCount    int64
	committedUSD float64
	billedUSD    float64
	billedCount  int64
}

// remainingImps returns how many more impressions the campaign can buy.
func (s *campaignState) canBuy() bool {
	if s.c.Goal > 0 && s.soldCount >= s.c.Goal {
		return false
	}
	return s.committedUSD+s.c.perImp() <= s.c.BudgetUSD+1e-12
}

// Exchange runs auctions over a fixed campaign set. Not safe for
// concurrent use; the simulator is single-threaded.
type Exchange struct {
	states map[CampaignID]*campaignState
	order  []CampaignID // deterministic iteration order
	// byBid is every campaign by per-impression bid, highest first, ties
	// by ascending id: the order in which SellSlotFiltered meets the bidders.
	// Campaign definitions never change, so it is built once per
	// campaign set (NewExchange, Restore).
	byBid   []*campaignState
	reserve float64 // reserve price per impression
	nextID  ImpressionID
	ledger  Ledger
	open    map[ImpressionID]Impression // sold, not yet settled
	// settled holds the price of every billed or violated impression:
	// a present key means settled, so extra shows are free and are
	// valued at that price as revenue loss.
	settled map[ImpressionID]float64

	// Multi-tenant state (see tenant.go): distinct campaign tenants in
	// sorted order, per-tenant impression-id cursors, per-tenant ledger
	// views, and open-impression counts keyed by tenant ("" = legacy).
	tenants      []string
	tenantNext   map[string]ImpressionID
	tenantLedger map[string]*Ledger
}

// NewExchange creates an exchange over the campaign set with the given
// per-impression reserve price. Campaign IDs must be unique.
func NewExchange(campaigns []Campaign, reserveUSD float64) (*Exchange, error) {
	if reserveUSD < 0 {
		return nil, fmt.Errorf("auction: negative reserve %v", reserveUSD)
	}
	e := &Exchange{
		states:  make(map[CampaignID]*campaignState, len(campaigns)),
		reserve: reserveUSD,
		open:    make(map[ImpressionID]Impression),
		settled: make(map[ImpressionID]float64),
	}
	for _, c := range campaigns {
		if _, dup := e.states[c.ID]; dup {
			return nil, fmt.Errorf("auction: duplicate campaign id %d", c.ID)
		}
		if c.BidCPM < 0 || c.BudgetUSD < 0 || c.Goal < 0 || c.Deadline < 0 {
			return nil, fmt.Errorf("auction: campaign %d has negative parameters", c.ID)
		}
		// A NaN bid has no place in the bid order (every comparison with
		// it is false), and an infinite one could never be priced.
		if math.IsNaN(c.BidCPM) || math.IsInf(c.BidCPM, 0) || math.IsNaN(c.BudgetUSD) {
			return nil, fmt.Errorf("auction: campaign %d has a non-finite bid or budget", c.ID)
		}
		e.states[c.ID] = &campaignState{c: c}
		e.order = append(e.order, c.ID)
	}
	sort.Slice(e.order, func(i, j int) bool { return e.order[i] < e.order[j] })
	e.indexBids()
	e.initTenants()
	return e, nil
}

// indexBids builds byBid from the id-sorted order: a stable sort by bid
// keeps equal bids in ascending id order.
func (e *Exchange) indexBids() {
	e.byBid = make([]*campaignState, len(e.order))
	for i, id := range e.order {
		e.byBid[i] = e.states[id]
	}
	sort.SliceStable(e.byBid, func(i, j int) bool { return e.byBid[i].c.perImp() > e.byBid[j].c.perImp() })
}

// Ledger returns a copy of the current ledger.
func (e *Exchange) Ledger() Ledger { return e.ledger }

// Open returns the number of sold-but-unsettled impressions.
func (e *Exchange) Open() int { return len(e.open) }

// CampaignSpend returns (billed, committed) dollars for one campaign.
func (e *Exchange) CampaignSpend(id CampaignID) (billed, committed float64, err error) {
	s, ok := e.states[id]
	if !ok {
		return 0, 0, fmt.Errorf("auction: unknown campaign %d", id)
	}
	return s.billedUSD, s.committedUSD, nil
}

// CampaignSold returns impressions sold to one campaign.
func (e *Exchange) CampaignSold(id CampaignID) (int64, error) {
	s, ok := e.states[id]
	if !ok {
		return 0, fmt.Errorf("auction: unknown campaign %d", id)
	}
	return s.soldCount, nil
}

// SellSlots auctions up to n slots at instant now, offered with the
// given category hints (nil = untargetable predicted inventory). Each
// slot runs an independent sealed-bid second-price auction among
// eligible campaigns: the highest bid wins, a tie goes to the lowest
// campaign id, and the price is the max of the runner-up bid and the
// reserve. Slots that attract no bid at or above reserve go unsold, and
// selling stops early once demand is exhausted.
//
// deadlineCap, if positive, tightens every sold impression's deadline to
// at most that duration (the server may need ads displayable within the
// prefetch window regardless of what the campaign bought).
func (e *Exchange) SellSlots(now simclock.Time, n int, hints []trace.Category, deadlineCap time.Duration) []Impression {
	return e.SellSlotsFiltered(now, n, hints, deadlineCap, nil)
}

// SellSlotsFiltered is SellSlots with an additional per-slot eligibility
// filter: campaigns for which allow returns false do not bid. The ad
// server uses it to enforce per-user frequency caps, which only it can
// evaluate. allow is asked only about campaigns that could otherwise
// win or set the price, in bid order, and never again once the
// runner-up is found.
func (e *Exchange) SellSlotsFiltered(now simclock.Time, n int, hints []trace.Category,
	deadlineCap time.Duration, allow func(CampaignID) bool) []Impression {
	var sold []Impression
	for i := 0; i < n; i++ {
		imp, ok := e.SellSlotFiltered(now, hints, deadlineCap, allow)
		if !ok {
			break
		}
		sold = append(sold, imp)
	}
	return sold
}

// SellSlotFiltered sells one slot, as SellSlotsFiltered(now, 1, …) does
// but without a result slice: ok is false when no campaign bid. The
// on-demand path sells this way, one slot per cache miss. It walks the
// campaigns in bid order. The first eligible one wins and the second
// sets the price, so the walk stops there, or at the first bid below
// the reserve, past which no campaign may buy.
func (e *Exchange) SellSlotFiltered(now simclock.Time, hints []trace.Category, deadlineCap time.Duration, allow func(CampaignID) bool) (Impression, bool) {
	var best *campaignState
	price := e.reserve
	for _, s := range e.byBid {
		bid := s.c.perImp()
		if bid < e.reserve {
			break
		}
		if !s.canBuy() || !s.c.matches(hints) || (allow != nil && !allow(s.c.ID)) {
			continue
		}
		if best != nil {
			price = bid // runner-up; at or above the reserve
			break
		}
		best = s
	}
	if best == nil {
		return Impression{}, false
	}
	return e.award(now, best, price, deadlineCap), true
}

// award sells one impression to the auction's winner at price: it mints
// the id, commits the price against the campaign's budget and goal,
// books the sale in the ledgers and opens the display obligation.
func (e *Exchange) award(now simclock.Time, best *campaignState, price float64, deadlineCap time.Duration) Impression {
	deadline := best.c.Deadline
	if deadlineCap > 0 && (deadline == 0 || deadline > deadlineCap) {
		deadline = deadlineCap
	}
	imp := Impression{
		ID:       e.mintID(best.c.Tenant),
		Campaign: best.c.ID,
		PriceUSD: price,
		SoldAt:   now,
		Deadline: now.Add(deadline),
	}
	best.soldCount++
	best.committedUSD += price
	e.ledger.Sold++
	e.ledger.PotentialUSD += price
	if tl := e.tenantLedger[best.c.Tenant]; tl != nil {
		tl.Sold++
		tl.PotentialUSD += price
	}
	e.open[imp.ID] = imp
	return imp
}

// RecordDisplay reports that a replica displayed impression id at
// instant at. The first in-deadline display bills the advertiser; any
// further display (racing replicas, or a display after settlement) is a
// free impression counted as revenue loss. A first display *after* the
// deadline is both a violation (settled by RecordExpiry) and a free
// show. Unknown impressions error.
func (e *Exchange) RecordDisplay(id ImpressionID, at simclock.Time) error {
	imp, openOK := e.open[id]
	if !openOK {
		if price, ok := e.settled[id]; ok {
			// Late duplicate from a replica that didn't hear the news.
			e.ledger.FreeShows++
			e.ledger.FreeUSD += price
			if tl := e.ledgerOfID(id); tl != nil {
				tl.FreeShows++
				tl.FreeUSD += price
			}
			return nil
		}
		return fmt.Errorf("auction: display report for unknown impression %d", id)
	}
	if at.After(imp.Deadline) {
		// Too late to bill; the violation is recorded at expiry sweep,
		// but the eyeballs were given away for free.
		e.ledger.FreeShows++
		e.ledger.FreeUSD += imp.PriceUSD
		if tl := e.ledgerOfID(id); tl != nil {
			tl.FreeShows++
			tl.FreeUSD += imp.PriceUSD
		}
		return nil
	}
	s := e.states[imp.Campaign]
	s.billedUSD += imp.PriceUSD
	s.billedCount++
	e.ledger.Billed++
	e.ledger.BilledUSD += imp.PriceUSD
	if tl := e.ledgerOfID(id); tl != nil {
		tl.Billed++
		tl.BilledUSD += imp.PriceUSD
	}
	e.settle(id, imp.PriceUSD)
	return nil
}

// RecordExpiry reports that impression id passed its deadline without a
// billed display: an SLA violation. Its budget commitment is released.
// Expiring an already-settled impression is a no-op so sweeps can be
// idempotent.
func (e *Exchange) RecordExpiry(id ImpressionID) {
	imp, ok := e.open[id]
	if !ok {
		return
	}
	s := e.states[imp.Campaign]
	s.committedUSD -= imp.PriceUSD
	if s.c.Goal > 0 {
		s.soldCount-- // the unfilled slot returns to the goal
	}
	e.ledger.Violations++
	e.ledger.ViolatedUSD += imp.PriceUSD
	if tl := e.ledgerOfID(id); tl != nil {
		tl.Violations++
		tl.ViolatedUSD += imp.PriceUSD
	}
	e.settle(id, imp.PriceUSD)
}

// Campaign returns a campaign's definition by id.
func (e *Exchange) Campaign(id CampaignID) (Campaign, bool) {
	s, ok := e.states[id]
	if !ok {
		return Campaign{}, false
	}
	return s.c, true
}

// CampaignOf returns the campaign that bought an impression (ok=false
// for unknown or already-settled impressions whose record was dropped).
func (e *Exchange) CampaignOf(id ImpressionID) (CampaignID, bool) {
	if imp, ok := e.open[id]; ok {
		return imp.Campaign, true
	}
	return 0, false
}

// SweepExpired records an SLA violation for every open impression whose
// deadline has passed. It returns the number of impressions expired.
// Iteration is sorted so ledger arithmetic stays deterministic.
func (e *Exchange) SweepExpired(now simclock.Time) int {
	var ids []ImpressionID
	for id, imp := range e.open {
		if now.After(imp.Deadline) {
			ids = append(ids, id)
		}
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		e.RecordExpiry(id)
	}
	return len(ids)
}

func (e *Exchange) settle(id ImpressionID, price float64) {
	delete(e.open, id)
	e.settled[id] = price
}
