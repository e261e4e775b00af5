package auction

import (
	"fmt"
	"math"
	"reflect"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/simclock"
	"repro/internal/tenant"
	"repro/internal/trace"
)

func twoCampaigns() []Campaign {
	return []Campaign{
		{ID: 0, Name: "hi", BidCPM: 2000, BudgetUSD: 1000, Deadline: time.Hour}, // $2/imp
		{ID: 1, Name: "lo", BidCPM: 1000, BudgetUSD: 1000, Deadline: time.Hour}, // $1/imp
	}
}

func TestSecondPricePricing(t *testing.T) {
	e, err := NewExchange(twoCampaigns(), 0.10)
	if err != nil {
		t.Fatal(err)
	}
	sold := e.SellSlots(0, 1, nil, 0)
	if len(sold) != 1 {
		t.Fatalf("sold %d", len(sold))
	}
	imp := sold[0]
	if imp.Campaign != 0 {
		t.Fatalf("winner %d, want highest bidder 0", imp.Campaign)
	}
	if imp.PriceUSD != 1.0 {
		t.Fatalf("price %v, want runner-up bid 1.0", imp.PriceUSD)
	}
	if imp.Deadline != simclock.Time(time.Hour) {
		t.Fatalf("deadline %v", imp.Deadline)
	}
}

func TestReservePriceFloorsAndFilters(t *testing.T) {
	e, err := NewExchange([]Campaign{
		{ID: 0, BidCPM: 2000, BudgetUSD: 100, Deadline: time.Hour},
	}, 0.50)
	if err != nil {
		t.Fatal(err)
	}
	sold := e.SellSlots(0, 1, nil, 0)
	if len(sold) != 1 || sold[0].PriceUSD != 0.50 {
		t.Fatalf("lone bidder should pay reserve: %+v", sold)
	}
	// A bidder below reserve cannot buy.
	e2, _ := NewExchange([]Campaign{{ID: 0, BidCPM: 100, BudgetUSD: 100}}, 0.50)
	if sold := e2.SellSlots(0, 1, nil, 0); len(sold) != 0 {
		t.Fatalf("below-reserve bid bought a slot: %+v", sold)
	}
}

func TestBudgetExhaustionStopsSales(t *testing.T) {
	e, err := NewExchange([]Campaign{
		{ID: 0, BidCPM: 1000, BudgetUSD: 2.5, Deadline: time.Hour}, // $1/imp, budget 2.5
	}, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	sold := e.SellSlots(0, 10, nil, 0)
	if len(sold) != 2 {
		t.Fatalf("sold %d impressions on a $2.5 budget at $1 reserve", len(sold))
	}
}

func TestGoalCapsSales(t *testing.T) {
	e, err := NewExchange([]Campaign{
		{ID: 0, BidCPM: 1000, BudgetUSD: 1000, Goal: 3, Deadline: time.Hour},
	}, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	if sold := e.SellSlots(0, 10, nil, 0); len(sold) != 3 {
		t.Fatalf("sold %d, want goal 3", len(sold))
	}
	// Expiring releases the slot back to the goal.
	e.RecordExpiry(1)
	if sold := e.SellSlots(simclock.Hour*2, 10, nil, 0); len(sold) != 1 {
		t.Fatalf("after expiry, sold %d, want 1", len(sold))
	}
}

func TestTargeting(t *testing.T) {
	e, err := NewExchange([]Campaign{
		{ID: 0, BidCPM: 5000, BudgetUSD: 100, Categories: []trace.Category{trace.CatGame}, Deadline: time.Hour},
		{ID: 1, BidCPM: 1000, BudgetUSD: 100, Deadline: time.Hour},
	}, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	// Untargetable inventory: only the run-of-network campaign buys.
	sold := e.SellSlots(0, 1, nil, 0)
	if len(sold) != 1 || sold[0].Campaign != 1 {
		t.Fatalf("untargetable slot: %+v", sold)
	}
	// Game inventory: the targeted campaign wins and pays the runner-up.
	sold = e.SellSlots(0, 1, []trace.Category{trace.CatGame}, 0)
	if len(sold) != 1 || sold[0].Campaign != 0 || sold[0].PriceUSD != 1.0 {
		t.Fatalf("game slot: %+v", sold)
	}
	// Social inventory: targeted campaign ineligible.
	sold = e.SellSlots(0, 1, []trace.Category{trace.CatSocial}, 0)
	if len(sold) != 1 || sold[0].Campaign != 1 {
		t.Fatalf("social slot: %+v", sold)
	}
}

func TestDeadlineCap(t *testing.T) {
	e, _ := NewExchange([]Campaign{
		{ID: 0, BidCPM: 1000, BudgetUSD: 100, Deadline: 24 * time.Hour},
	}, 0.1)
	sold := e.SellSlots(0, 1, nil, time.Hour)
	if sold[0].Deadline != simclock.Time(time.Hour) {
		t.Fatalf("cap not applied: %v", sold[0].Deadline)
	}
	// Campaigns with zero deadline accept the cap as their deadline.
	e2, _ := NewExchange([]Campaign{{ID: 0, BidCPM: 1000, BudgetUSD: 100}}, 0.1)
	sold = e2.SellSlots(0, 1, nil, 2*time.Hour)
	if sold[0].Deadline != simclock.Time(2*time.Hour) {
		t.Fatalf("zero deadline should adopt cap: %v", sold[0].Deadline)
	}
}

func TestBillingLifecycle(t *testing.T) {
	e, _ := NewExchange(twoCampaigns(), 0.1)
	sold := e.SellSlots(0, 2, nil, 0)
	if len(sold) != 2 {
		t.Fatalf("sold %d", len(sold))
	}
	// First display in time: billed.
	if err := e.RecordDisplay(sold[0].ID, simclock.At(time.Minute)); err != nil {
		t.Fatal(err)
	}
	l := e.Ledger()
	if l.Billed != 1 || math.Abs(l.BilledUSD-sold[0].PriceUSD) > 1e-12 {
		t.Fatalf("ledger after billing: %+v", l)
	}
	// Duplicate display of the same impression: free show, same value.
	if err := e.RecordDisplay(sold[0].ID, simclock.At(2*time.Minute)); err != nil {
		t.Fatal(err)
	}
	l = e.Ledger()
	if l.FreeShows != 1 || math.Abs(l.FreeUSD-sold[0].PriceUSD) > 1e-12 {
		t.Fatalf("duplicate not counted free: %+v", l)
	}
	if math.Abs(l.RevenueLossFrac()-1.0) > 1e-12 {
		t.Fatalf("revenue loss frac: %v", l.RevenueLossFrac())
	}
	// Second impression expires unseen: violation, budget released.
	e.RecordExpiry(sold[1].ID)
	l = e.Ledger()
	if l.Violations != 1 || math.Abs(l.ViolatedUSD-sold[1].PriceUSD) > 1e-12 {
		t.Fatalf("violation not recorded: %+v", l)
	}
	if got := l.ViolationRate(); math.Abs(got-0.5) > 1e-12 {
		t.Fatalf("violation rate %v", got)
	}
	if e.Open() != 0 {
		t.Fatalf("open=%d", e.Open())
	}
	billed, committed, err := e.CampaignSpend(0)
	if err != nil {
		t.Fatal(err)
	}
	// Winner was campaign 0 both times (budget deep enough); one billed,
	// one released.
	if billed <= 0 || committed < billed-1e-9 {
		t.Fatalf("spend: billed=%v committed=%v", billed, committed)
	}
}

func TestLateDisplayIsFreeNotBilled(t *testing.T) {
	e, _ := NewExchange([]Campaign{
		{ID: 0, BidCPM: 1000, BudgetUSD: 100, Deadline: time.Minute},
	}, 0.1)
	sold := e.SellSlots(0, 1, nil, 0)
	if err := e.RecordDisplay(sold[0].ID, simclock.At(time.Hour)); err != nil {
		t.Fatal(err)
	}
	l := e.Ledger()
	if l.Billed != 0 || l.FreeShows != 1 {
		t.Fatalf("late display: %+v", l)
	}
	// Sweep then settles the violation.
	e.RecordExpiry(sold[0].ID)
	if e.Ledger().Violations != 1 {
		t.Fatal("expiry after late display should record violation")
	}
	// A further duplicate display after settlement is still free.
	if err := e.RecordDisplay(sold[0].ID, simclock.At(2*time.Hour)); err != nil {
		t.Fatal(err)
	}
	if e.Ledger().FreeShows != 2 {
		t.Fatalf("free shows %d", e.Ledger().FreeShows)
	}
}

func TestRecordDisplayUnknown(t *testing.T) {
	e, _ := NewExchange(twoCampaigns(), 0.1)
	if err := e.RecordDisplay(999, 0); err == nil {
		t.Fatal("unknown impression should error")
	}
}

func TestRecordExpiryIdempotent(t *testing.T) {
	e, _ := NewExchange(twoCampaigns(), 0.1)
	sold := e.SellSlots(0, 1, nil, 0)
	e.RecordExpiry(sold[0].ID)
	e.RecordExpiry(sold[0].ID)
	if e.Ledger().Violations != 1 {
		t.Fatalf("violations %d", e.Ledger().Violations)
	}
}

func TestNewExchangeValidation(t *testing.T) {
	if _, err := NewExchange([]Campaign{{ID: 0}, {ID: 0}}, 0); err == nil {
		t.Fatal("duplicate ids should error")
	}
	if _, err := NewExchange([]Campaign{{ID: 0, BidCPM: -1}}, 0); err == nil {
		t.Fatal("negative bid should error")
	}
	for _, bid := range []float64{math.NaN(), math.Inf(1)} {
		if _, err := NewExchange([]Campaign{{ID: 0, BidCPM: bid, BudgetUSD: 1}}, 0); err == nil {
			t.Fatalf("bid %v should error", bid)
		}
	}
	if _, err := NewExchange(nil, -1); err == nil {
		t.Fatal("negative reserve should error")
	}
	if _, err := e0(); err != nil {
		t.Fatal(err)
	}
}

func e0() (*Exchange, error) { return NewExchange(nil, 0) }

func TestEmptyExchangeSellsNothing(t *testing.T) {
	e, _ := e0()
	if sold := e.SellSlots(0, 5, nil, 0); len(sold) != 0 {
		t.Fatalf("sold %d from empty exchange", len(sold))
	}
}

func TestCampaignQueriesUnknown(t *testing.T) {
	e, _ := e0()
	if _, _, err := e.CampaignSpend(7); err == nil {
		t.Fatal("unknown campaign spend should error")
	}
	if _, err := e.CampaignSold(7); err == nil {
		t.Fatal("unknown campaign sold should error")
	}
}

// Property: second-price invariant — price never exceeds the winner's
// bid and never falls below reserve; committed spend never exceeds
// budget; ledger conservation Sold = Billed + Violations + Open.
func TestAuctionInvariantsProperty(t *testing.T) {
	f := func(seed int64, nSlots uint8) bool {
		r := simclock.NewRand(seed)
		d := DefaultDemand()
		d.Campaigns = 8
		d.BudgetImpressions = int64(r.Intn(50) + 1)
		d.Deadline = time.Hour
		camps := d.Generate(r)
		e, err := NewExchange(camps, 0.05)
		if err != nil {
			return false
		}
		byID := map[CampaignID]Campaign{}
		for _, c := range camps {
			byID[c.ID] = c
		}
		sold := e.SellSlots(0, int(nSlots), nil, 0)
		for _, imp := range sold {
			c := byID[imp.Campaign]
			if imp.PriceUSD > c.perImp()+1e-12 || imp.PriceUSD < 0.05-1e-12 {
				return false
			}
		}
		// Randomly display or expire.
		for _, imp := range sold {
			if r.Bernoulli(0.6) {
				if err := e.RecordDisplay(imp.ID, imp.SoldAt.Add(time.Minute)); err != nil {
					return false
				}
			} else {
				e.RecordExpiry(imp.ID)
			}
		}
		l := e.Ledger()
		if l.Sold != l.Billed+l.Violations+int64(e.Open()) {
			return false
		}
		for _, c := range camps {
			billed, committed, err := e.CampaignSpend(c.ID)
			if err != nil || billed > c.BudgetUSD+1e-9 || committed > c.BudgetUSD+1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

func TestDemandGenerate(t *testing.T) {
	r := simclock.NewRand(1)
	d := DefaultDemand()
	camps := d.Generate(r)
	if len(camps) != d.Campaigns {
		t.Fatalf("len=%d", len(camps))
	}
	targeted := 0
	for i, c := range camps {
		if c.ID != CampaignID(i) || c.BidCPM <= 0 || c.BudgetUSD <= 0 {
			t.Fatalf("bad campaign %+v", c)
		}
		if len(c.Categories) > 0 {
			targeted++
		}
	}
	if targeted == 0 || targeted == len(camps) {
		t.Fatalf("targeting mix degenerate: %d/%d", targeted, len(camps))
	}
	// Deterministic.
	camps2 := d.Generate(simclock.NewRand(1))
	if camps[0].BidCPM != camps2[0].BidCPM {
		t.Fatal("demand generation not deterministic")
	}
}

// NodeCampaigns is the one campaign set every engine builder sells: the
// legacy set from r.Stream("demand"), then one set per named tenant from
// its own stream, ids offset per tenant, and every budget split over the
// node's shards.
func TestNodeCampaigns(t *testing.T) {
	d := DefaultDemand()
	d.Campaigns = 5
	tenants := []tenant.Config{{ID: "pubA", Lo: 0, Hi: 10}, {ID: "pubB", Lo: 10, Hi: 20}}
	r := simclock.NewRand(7).Stream("sim")
	whole := d.NodeCampaigns(r, tenants, 1)
	if again := d.NodeCampaigns(simclock.NewRand(7).Stream("sim"), tenants, 1); !reflect.DeepEqual(whole, again) {
		t.Fatal("the same seed and tenant table gave different campaigns")
	}
	if len(whole) != 3*d.Campaigns {
		t.Fatalf("%d campaigns, want %d", len(whole), 3*d.Campaigns)
	}
	for k, id := range []string{"", "pubA", "pubB"} {
		stream := "demand"
		if id != "" {
			stream += ":" + id
		}
		want := d.Generate(r.Stream(stream))
		for j := range want {
			want[j].ID += CampaignID(k * d.Campaigns)
			want[j].Tenant = id
		}
		if got := whole[k*d.Campaigns : (k+1)*d.Campaigns]; !reflect.DeepEqual(got, want) {
			t.Fatalf("set %q is not %s's campaigns with ids from %d:\n got %+v\nwant %+v", id, stream, k*d.Campaigns, got, want)
		}
	}
	const shards = 4
	split := d.NodeCampaigns(r, tenants, shards)
	for i, c := range split {
		if math.Abs(c.BudgetUSD*shards-whole[i].BudgetUSD) > 1e-12*whole[i].BudgetUSD {
			t.Fatalf("campaign %d: %d shards x %v USD != undivided %v USD", c.ID, shards, c.BudgetUSD, whole[i].BudgetUSD)
		}
		c.BudgetUSD = whole[i].BudgetUSD
		if !reflect.DeepEqual(c, whole[i]) {
			t.Fatalf("campaign %d differs beyond its budget at %d shards: %+v vs %+v", c.ID, shards, c, whole[i])
		}
	}
}

func TestSellSlotsFiltered(t *testing.T) {
	e, err := NewExchange(twoCampaigns(), 0.1)
	if err != nil {
		t.Fatal(err)
	}
	// Filter out the high bidder: the runner-up wins at reserve.
	sold := e.SellSlotsFiltered(0, 1, nil, 0, func(id CampaignID) bool { return id != 0 })
	if len(sold) != 1 || sold[0].Campaign != 1 {
		t.Fatalf("sold %+v", sold)
	}
	if sold[0].PriceUSD != 0.1 {
		t.Fatalf("price %v want reserve", sold[0].PriceUSD)
	}
	// Filter out everyone: no sale.
	if sold := e.SellSlotsFiltered(0, 1, nil, 0, func(CampaignID) bool { return false }); len(sold) != 0 {
		t.Fatalf("sold %+v", sold)
	}
}

// The single-sale entry is SellSlotsFiltered at n = 1: over a run of
// sales with filters that drop the winner, everyone or no one, two
// exchanges sold through the two entries mint the same impressions and
// keep the same ledger.
func TestSellSlotFilteredMatchesSellSlots(t *testing.T) {
	d := DefaultDemand()
	d.Campaigns = 40
	camps := d.Generate(simclock.NewRand(3))
	one, _ := NewExchange(camps, DefaultReserveUSD)
	many, _ := NewExchange(camps, DefaultReserveUSD)
	hints := []trace.Category{trace.CatGame}
	for i := 0; i < 2000; i++ {
		allow := func(c CampaignID) bool { return (int(c)+i)%3 != 0 }
		switch i % 5 {
		case 0:
			allow = nil
		case 1:
			allow = func(CampaignID) bool { return false }
		}
		now := simclock.Time(i) * simclock.Second
		got, ok := one.SellSlotFiltered(now, hints, time.Hour, allow)
		want := many.SellSlotsFiltered(now, 1, hints, time.Hour, allow)
		if ok != (len(want) == 1) || (ok && got != want[0]) {
			t.Fatalf("sale %d: SellSlotFiltered %+v (ok %v), SellSlotsFiltered %+v", i, got, ok, want)
		}
	}
	if one.Ledger() != many.Ledger() {
		t.Fatalf("ledgers differ:\n one  %+v\n many %+v", one.Ledger(), many.Ledger())
	}
}

func TestCampaignAccessors(t *testing.T) {
	e, _ := NewExchange([]Campaign{
		{ID: 3, Name: "x", BidCPM: 1000, BudgetUSD: 10, FreqCapPerUserDay: 2},
	}, 0)
	c, ok := e.Campaign(3)
	if !ok || c.Name != "x" || c.FreqCapPerUserDay != 2 {
		t.Fatalf("campaign %+v ok=%v", c, ok)
	}
	if _, ok := e.Campaign(99); ok {
		t.Fatal("unknown campaign found")
	}
	sold := e.SellSlots(0, 1, nil, time.Hour)
	got, ok := e.CampaignOf(sold[0].ID)
	if !ok || got != 3 {
		t.Fatalf("CampaignOf %v ok=%v", got, ok)
	}
	e.RecordExpiry(sold[0].ID)
	if _, ok := e.CampaignOf(sold[0].ID); ok {
		t.Fatal("settled impression should not resolve")
	}
}

// refSellOne is the linear auction the exchange is checked against: it
// scans every campaign in id order, the highest bid wins, a tie goes to
// the lowest id (the first one met), and the runner-up bid, floored at
// the reserve, sets the price.
func refSellOne(e *Exchange, now simclock.Time, hints []trace.Category, deadlineCap time.Duration, allow func(CampaignID) bool) (Impression, bool) {
	var best, second *campaignState
	for _, id := range e.order {
		s := e.states[id]
		if !s.canBuy() || !s.c.matches(hints) || s.c.perImp() < e.reserve {
			continue
		}
		if allow != nil && !allow(id) {
			continue
		}
		switch {
		case best == nil || s.c.perImp() > best.c.perImp():
			second = best
			best = s
		case second == nil || s.c.perImp() > second.c.perImp():
			second = s
		}
	}
	if best == nil {
		return Impression{}, false
	}
	price := e.reserve
	if second != nil && second.c.perImp() > price {
		price = second.c.perImp()
	}
	return e.award(now, best, price, deadlineCap), true
}

// refSellSlots is SellSlotsFiltered over refSellOne.
func refSellSlots(e *Exchange, now simclock.Time, n int, hints []trace.Category, deadlineCap time.Duration, allow func(CampaignID) bool) []Impression {
	var sold []Impression
	for i := 0; i < n; i++ {
		imp, ok := refSellOne(e, now, hints, deadlineCap, allow)
		if !ok {
			break
		}
		sold = append(sold, imp)
	}
	return sold
}

// diffCampaigns draws a campaign set on which the auction's rules all
// bite: bids from a five-value set so ties are common, some below the
// reserve the caller draws, targeted categories, budgets and goals small
// enough to run out mid-run, and two tenants.
func diffCampaigns(r *simclock.Rand) []Campaign {
	bids := []float64{100, 200, 500, 1000, 2000} // $0.10 … $2 per impression
	cats := []trace.Category{trace.CatSocial, trace.CatGame, trace.CatNews, trace.CatWeather}
	n := 1 + r.Intn(400)
	camps := make([]Campaign, n)
	for i, id := range r.Perm(n) { // ids out of order, so the index sorts them
		bid := bids[r.Intn(len(bids))]
		c := Campaign{
			ID:        CampaignID(id),
			BidCPM:    bid,
			BudgetUSD: bid / 1000 * float64(1+r.Intn(12)),
			Deadline:  time.Duration(r.Intn(3)) * time.Hour,
			Tenant:    []string{"alpha", "beta"}[r.Intn(2)],
		}
		if r.Bernoulli(0.3) {
			c.Goal = int64(1 + r.Intn(6))
		}
		if r.Bernoulli(0.3) {
			c.Categories = []trace.Category{cats[r.Intn(len(cats))]}
		}
		camps[i] = c
	}
	return camps
}

// TestSellOneMatchesLinearReference drives two exchanges over the same
// seeded campaigns through the same sales, displays, expiries,
// snapshot restores and impression transfers: one sells with the
// exchange's own auction, the other with refSellOne. Every sold
// impression, both ledgers and the full state must stay equal, on a
// fresh exchange, after Snapshot → Restore and after ExtractImpressions
// → AbsorbImpressions.
func TestSellOneMatchesLinearReference(t *testing.T) {
	hintSets := [][]trace.Category{nil, {trace.CatGame}, {trace.CatSocial, trace.CatNews}, {trace.CatMedia}}
	for seed := int64(1); seed <= 60; seed++ {
		r := simclock.NewRand(seed)
		camps := diffCampaigns(r)
		reserve := []float64{0, 0.0002, 0.3, 0.6}[r.Intn(4)]
		got, err := NewExchange(camps, reserve)
		if err != nil {
			t.Fatal(err)
		}
		ref, _ := NewExchange(camps, reserve)
		now := simclock.Time(0)
		sellPhase := func(phase string) {
			for step := 0; step < 12; step++ {
				now = now.Add(10 * time.Minute)
				n := 1 + r.Intn(40)
				hints := hintSets[r.Intn(len(hintSets))]
				deadlineCap := []time.Duration{0, 30 * time.Minute, 2 * time.Hour}[r.Intn(3)]
				var allow func(CampaignID) bool
				switch r.Intn(3) {
				case 1: // one tenant's campaigns only
					tenant := []string{"alpha", "beta"}[r.Intn(2)]
					allow = func(id CampaignID) bool {
						c, _ := got.Campaign(id)
						return c.Tenant == tenant
					}
				case 2: // an arbitrary subset, as frequency caps would leave
					mod, salt := CampaignID(2+r.Intn(4)), CampaignID(r.Intn(7))
					allow = func(id CampaignID) bool { return (id*7+salt)%mod != 0 }
				}
				want := refSellSlots(ref, now, n, hints, deadlineCap, allow)
				sold := got.SellSlotsFiltered(now, n, hints, deadlineCap, allow)
				if !reflect.DeepEqual(sold, want) {
					t.Fatalf("seed %d %s step %d: sold\n%+v\nreference sold\n%+v", seed, phase, step, sold, want)
				}
				// Settle some of what was sold on both sides alike, so
				// budgets and goals free up and the late-duplicate book fills.
				for _, imp := range sold {
					switch r.Intn(4) {
					case 0:
						at := now.Add(time.Duration(r.Intn(90)) * time.Minute)
						if err := got.RecordDisplay(imp.ID, at); err != nil {
							t.Fatal(err)
						}
						if err := ref.RecordDisplay(imp.ID, at); err != nil {
							t.Fatal(err)
						}
					case 1:
						got.RecordExpiry(imp.ID)
						ref.RecordExpiry(imp.ID)
					}
				}
				if r.Intn(4) == 0 {
					got.SweepExpired(now)
					ref.SweepExpired(now)
				}
				if got.Ledger() != ref.Ledger() {
					t.Fatalf("seed %d %s step %d: ledger %+v, reference %+v", seed, phase, step, got.Ledger(), ref.Ledger())
				}
				for _, tenant := range []string{"", "alpha", "beta"} {
					if got.LedgerOf(tenant) != ref.LedgerOf(tenant) {
						t.Fatalf("seed %d %s step %d: tenant %q ledger differs", seed, phase, step, tenant)
					}
				}
			}
			if !reflect.DeepEqual(got.Snapshot(), ref.Snapshot()) {
				t.Fatalf("seed %d %s: exchange state differs from the reference", seed, phase)
			}
		}

		sellPhase("fresh")

		// Snapshot → Restore into empty exchanges on both sides.
		restore := func(x *Exchange) *Exchange {
			y, _ := NewExchange(nil, 0)
			if err := y.Restore(x.Snapshot()); err != nil {
				t.Fatal(err)
			}
			return y
		}
		got, ref = restore(got), restore(ref)
		sellPhase("restored")

		// ExtractImpressions → AbsorbImpressions: half the open book and
		// half the settled book leave and come back, on both sides alike.
		st := got.Snapshot()
		var openIDs, settledIDs []ImpressionID
		for i, imp := range st.Open {
			if i%2 == 0 {
				openIDs = append(openIDs, imp.ID)
			}
		}
		for i, s := range st.Settled {
			if i%2 == 0 {
				settledIDs = append(settledIDs, s.ID)
			}
		}
		for _, x := range []*Exchange{got, ref} {
			tr, err := x.ExtractImpressions(openIDs, settledIDs)
			if err != nil {
				t.Fatal(err)
			}
			if err := x.AbsorbImpressions(tr); err != nil {
				t.Fatal(err)
			}
		}
		sellPhase("transferred")
	}
}

// TestSellOneStopsAtRunnerUp pins the auction's early exit: with 400
// run-of-network campaigns, one sale asks allow about the winner and the
// runner-up only, and one more campaign when the top bidder is filtered.
func TestSellOneStopsAtRunnerUp(t *testing.T) {
	d := DefaultDemand()
	d.Campaigns = 400
	d.TargetedFrac = 0
	camps := d.Generate(simclock.NewRand(1))
	top := camps[0]
	for _, c := range camps {
		if c.BidCPM > top.BidCPM {
			top = c
		}
	}
	for _, tc := range []struct {
		name      string
		filterTop bool
		calls     int
	}{{"all allowed", false, 2}, {"top bidder filtered", true, 3}} {
		e, err := NewExchange(camps, DefaultReserveUSD)
		if err != nil {
			t.Fatal(err)
		}
		calls := 0
		sold := e.SellSlotsFiltered(0, 1, nil, time.Hour, func(id CampaignID) bool {
			calls++
			return !tc.filterTop || id != top.ID
		})
		if len(sold) != 1 || (sold[0].Campaign == top.ID) == tc.filterTop {
			t.Fatalf("%s: sold %+v, top bidder %d", tc.name, sold, top.ID)
		}
		if calls != tc.calls {
			t.Fatalf("%s: allow called %d times, want %d", tc.name, calls, tc.calls)
		}
	}
}

var benchSold Impression

// BenchmarkSellOne times one on-demand sale (SellSlotFiltered: one
// slot, category hints, a pass-all allow filter) over DefaultDemand campaign sets of growing
// size. Budgets never run out; the exchange is rebuilt every 4096 sales,
// off the clock, so the open book stays the size a period leaves.
func BenchmarkSellOne(b *testing.B) {
	hints := []trace.Category{trace.CatGame}
	allow := func(CampaignID) bool { return true }
	for _, n := range []int{40, 400, 4000} {
		b.Run(fmt.Sprintf("campaigns=%d", n), func(b *testing.B) {
			d := DefaultDemand()
			d.Campaigns = n
			d.BudgetImpressions = 1 << 40
			camps := d.Generate(simclock.NewRand(1))
			b.ReportAllocs()
			var e *Exchange
			for i := 0; i < b.N; i++ {
				if i%4096 == 0 {
					b.StopTimer()
					e, _ = NewExchange(camps, DefaultReserveUSD)
					b.StartTimer()
				}
				benchSold, _ = e.SellSlotFiltered(simclock.Time(i), hints, time.Hour, allow)
			}
		})
	}
}
