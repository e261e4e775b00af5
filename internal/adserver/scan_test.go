package adserver

import (
	"math"
	"reflect"
	"testing"
	"time"

	"repro/internal/auction"
	"repro/internal/client"
	"repro/internal/predict"
	"repro/internal/simclock"
)

// refTopUp is the documented hand-out rule (DESIGN §3.3.4) written the
// straightforward way, as a reference for the production scan: every
// fact about an entry is looked up by impression id, every walk covers
// the whole array, tiers are "at most this many holders" with an
// explicit duplicate check, and frequency caps come from the exchange.
// It mutates nothing: it returns what TopUp must return, the cursor and
// the frequency counts it must leave, and how many entries the caps
// turned away.
func refTopUp(s *Server, now simclock.Time, clientID int) (out []client.CachedAd, cursor int, freq map[freqKey]int, capped int) {
	freq = make(map[freqKey]int, len(s.freqCount))
	for k, v := range s.freqCount {
		freq[k] = v
	}
	b := s.bookOf(s.tenantOfClient(clientID))
	n := len(b.heap)
	pred, known := s.predictors[clientID]
	if s.cfg.TopUpCap <= 0 || n == 0 || !known {
		return nil, b.cursor, freq, 0
	}
	want := int(pred.Predict(s.curPeriod).Slots) - s.slotCounts[clientID]
	if want > s.cfg.TopUpCap {
		want = s.cfg.TopUpCap
	}
	if want <= 0 {
		return nil, b.cursor, freq, 0
	}
	day := now.DayIndex()
	for _, maxHolders := range []int{0, 1, math.MaxInt} {
		for i := 0; i < n && len(out) < want; i++ {
			e := b.heap[(b.cursor+i)%n]
			r := s.imps[e.id]
			if r.claimed || now.After(e.deadline) || len(r.holders) > maxHolders {
				continue
			}
			key := freqKey{clientID, r.campaign, day}
			camp, _ := s.ex.Campaign(r.campaign)
			if camp.FreqCapPerUserDay > 0 && freq[key] >= camp.FreqCapPerUserDay {
				capped++
				continue
			}
			dup := false
			for _, ad := range out {
				dup = dup || ad.ID == e.id
			}
			if dup {
				continue
			}
			if camp.FreqCapPerUserDay > 0 {
				freq[key]++
			}
			out = append(out, client.CachedAd{ID: e.id, Deadline: e.deadline, Tie: displayTie(clientID, e.id)})
		}
	}
	return out, (b.cursor + want) % n, freq, capped
}

// checkBooks verifies what the scan relies on: every heap entry points
// at its impression's record, the record points back at the book, the
// array is a heap, and the live counts equal a recount.
func checkBooks(t *testing.T, s *Server) {
	t.Helper()
	for _, b := range s.books() {
		var live [3]int
		for i, e := range b.heap {
			if s.imps[e.id] != e.rec || e.rec.book != b {
				t.Fatalf("entry %d (imp %d): record link broken", i, e.id)
			}
			if i > 0 && pendingLess(&b.heap[i], &b.heap[(i-1)/2]) {
				t.Fatalf("entry %d (imp %d) sorts before its parent", i, e.id)
			}
			if !e.rec.claimed {
				live[e.rec.tier()]++
			}
		}
		if live != b.live {
			t.Fatalf("live counts %v, recount %v", b.live, live)
		}
	}
	inHeap := 0
	for _, r := range s.imps {
		if r.book != nil {
			inHeap++
		}
	}
	if inHeap != s.OpenBook() {
		t.Fatalf("%d records linked to a book, %d heap entries", inHeap, s.OpenBook())
	}
}

// scanServer builds a two-tenant server whose StartPeriod rounds leave
// books with unplaced, singly and multiply held impressions, some bought
// by frequency-capped campaigns.
func scanServer(t *testing.T, r *simclock.Rand) *Server {
	t.Helper()
	ex, err := auction.NewExchange([]auction.Campaign{
		{ID: 0, BidCPM: 2000, BudgetUSD: 1e6},
		{ID: 1, BidCPM: 2100, BudgetUSD: 1e6, FreqCapPerUserDay: 1 + r.Intn(3), Goal: int64(10 + r.Intn(20))},
		{ID: 2, BidCPM: 1500, BudgetUSD: 1e6, Tenant: "pubB"},
		{ID: 3, BidCPM: 1600, BudgetUSD: 1e6, Tenant: "pubB", FreqCapPerUserDay: 2, Goal: int64(10 + r.Intn(20))},
	}, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.Period = time.Hour
	cfg.TopUpCap = 1 + r.Intn(8)
	cfg.Overbook.AdmissionEpsilon = 0.45
	if r.Intn(2) == 0 {
		cfg.Overbook.CacheCap = 2 + r.Intn(5) // small: later sales find no capacity
	}
	ids := make([]int, 12)
	for i := range ids {
		ids[i] = i
	}
	noShow := []float64{0.01, 0.3, 0.6} // k=1 suffices / k=3 / k=3 and still short
	s, err := New(cfg, ex, ids, func(int) predict.Predictor {
		slots := float64(3 + r.Intn(10))
		return &constPredictor{est: predict.Estimate{Slots: slots, Mean: slots, NoShowProb: noShow[r.Intn(3)]}}
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	s.SetTenancy(func(id int) string {
		if id >= 6 {
			return "pubB"
		}
		return ""
	})
	return s
}

// TestTopUpMatchesReference drives random books through interleaved
// sales, display reports, rescues, slot observations and clock jumps,
// and checks every TopUp — output, cursor and frequency counts — against
// refTopUp, and the books' invariants after every step.
func TestTopUpMatchesReference(t *testing.T) {
	var tiersTaken [3]int
	var pastEnd, capRejects, expiredSeen, skippedWalks int
	for seed := int64(1); seed <= 40; seed++ {
		r := simclock.NewRand(seed)
		s := scanServer(t, r)
		now := simclock.Time(0)
		var handed []auction.ImpressionID
		sell := func() {
			bundles, _ := s.StartPeriod(now, predict.PeriodOf(now, s.cfg.Period))
			for _, b := range bundles {
				for _, ad := range b.Ads {
					handed = append(handed, ad.ID)
				}
			}
		}
		sell()
		for step := 0; step < 120; step++ {
			c := r.Intn(12)
			switch op := r.Intn(10); {
			case op == 0:
				now = now.Add(time.Duration(r.Intn(50)) * time.Minute)
				if r.Intn(3) == 0 {
					s.EndPeriod(now, predict.PeriodOf(now, s.cfg.Period))
					sell()
				}
			case op == 1:
				s.ObserveSlot(c)
			case op <= 3 && len(handed) > 0:
				id := handed[r.Intn(len(handed))]
				if r.Intn(8) == 0 {
					id += 1 << 30 // an impression this server never sold
				}
				_ = s.ReportDisplay(id, now) // late or duplicate reports error; the claim still counts
			case op == 4:
				if id, ok := s.RescueOpen(now, c); ok {
					handed = append(handed, id)
				}
			case op == 5:
				// A cursor left beyond a heap that has since shrunk.
				b := s.bookOf(s.tenantOfClient(c))
				b.cursor = len(b.heap) + r.Intn(5)
			default:
				b := s.bookOf(s.tenantOfClient(c))
				if len(b.heap) > 0 && b.cursor >= len(b.heap) {
					pastEnd++
				}
				for _, e := range b.heap {
					if now.After(e.deadline) && !e.rec.claimed {
						expiredSeen++
						break
					}
				}
				for _, n := range b.live {
					if n == 0 {
						skippedWalks++
					}
				}
				want, wantCursor, wantFreq, capped := refTopUp(s, now, c)
				capRejects += capped
				got := s.TopUp(now, c)
				if len(got) != len(want) || (len(want) > 0 && !reflect.DeepEqual(got, want)) {
					t.Fatalf("seed %d step %d: TopUp(%v, %d)\n got %v\nwant %v", seed, step, now, c, got, want)
				}
				if b.cursor != wantCursor {
					t.Fatalf("seed %d step %d: cursor %d, want %d", seed, step, b.cursor, wantCursor)
				}
				if !reflect.DeepEqual(s.freqCount, wantFreq) {
					t.Fatalf("seed %d step %d: frequency counts diverged", seed, step)
				}
				for _, ad := range got {
					tiersTaken[s.imps[ad.ID].tier()]++
					handed = append(handed, ad.ID)
				}
			}
			checkBooks(t, s)
		}
	}
	// The generator must actually reach the cases the rule distinguishes.
	for tier, n := range tiersTaken {
		if n == 0 {
			t.Errorf("no top-up ever took a tier-%d impression", tier)
		}
	}
	for name, n := range map[string]int{"cursor past the heap": pastEnd, "entries turned away by a cap": capRejects,
		"expired entries in the book": expiredSeen, "empty tiers": skippedWalks} {
		if n == 0 {
			t.Errorf("case never generated: %s", name)
		}
	}
	t.Logf("tiers taken %v, cursor past end %d, cap rejects %d, expired seen %d, empty tiers %d", tiersTaken, pastEnd, capRejects, expiredSeen, skippedWalks)
}
