package adserver

import (
	"encoding/json"
	"fmt"
	"os"
	"strings"
	"testing"
	"time"

	"repro/internal/auction"
	"repro/internal/predict"
	"repro/internal/simclock"
)

// The seams: a server's per-impression records, book links and live
// counts are derived state that Snapshot/Restore and
// ExtractClients/AdoptClients must rebuild exactly. seamScenario runs
// one fixed RescueOpen/TopUp/ReportDisplay sequence with a hook in the
// middle of the book; whatever the hook does to the server, the
// transcript of every reply must not change.

func seamExchange(t *testing.T) *auction.Exchange {
	t.Helper()
	ex, err := auction.NewExchange([]auction.Campaign{
		{ID: 0, BidCPM: 2000, BudgetUSD: 1e6},
		{ID: 1, BidCPM: 2500, BudgetUSD: 1e6, FreqCapPerUserDay: 4, Goal: 5},
		{ID: 2, BidCPM: 1500, BudgetUSD: 1e6, Tenant: "pubB"},
	}, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	return ex
}

func seamServer(t *testing.T, ex *auction.Exchange, clients []int) *Server {
	t.Helper()
	cfg := DefaultConfig()
	cfg.Period = time.Hour
	cfg.TopUpCap = 3
	cfg.Overbook.AdmissionEpsilon = 0.45
	// Adaptive replication over reliable and flaky clients: impressions
	// get one holder or several, never none, so all of them can migrate.
	s, err := New(cfg, ex, clients, func(id int) predict.Predictor {
		noShow := 0.3
		if id%3 == 0 {
			noShow = 0.01
		}
		return &constPredictor{est: predict.Estimate{Slots: 4, Mean: 4, NoShowProb: noShow}}
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	s.SetTenancy(func(id int) string {
		if id >= 3 {
			return "pubB"
		}
		return ""
	})
	return s
}

var seamClients = []int{0, 1, 2, 3, 4, 5}

const secondSale = "-- second sale --"

// seamScenario returns the transcript and the server that finished the
// run. atSeam receives the server mid-book and returns the one to
// continue on.
func seamScenario(t *testing.T, atSeam func(*Server) *Server) ([]string, *Server) {
	t.Helper()
	var log []string
	logf := func(format string, args ...any) { log = append(log, fmt.Sprintf(format, args...)) }
	s := seamServer(t, seamExchange(t), seamClients)

	var ids []auction.ImpressionID
	sell := func(now simclock.Time) {
		bundles, stats := s.StartPeriod(now, predict.PeriodOf(now, time.Hour))
		logf("sold %+v", stats)
		for _, b := range bundles {
			for _, ad := range b.Ads {
				ids = append(ids, ad.ID)
			}
		}
	}
	serve := func(now simclock.Time, c int) {
		id, ok := s.RescueOpen(now, c)
		logf("rescue c%d -> %d %v", c, id, ok)
		if ok {
			logf("topup c%d -> %v", c, s.TopUp(now, c))
		}
	}
	report := func(i int, now simclock.Time) {
		logf("report %d -> %v", ids[i], s.ReportDisplay(ids[i], now) != nil)
	}

	sell(0)
	s.ObserveSlot(1)
	s.ObserveSlot(4)
	for i := 0; i < len(ids); i += 5 {
		report(i, simclock.At(time.Minute))
	}
	serve(simclock.At(2*time.Minute), 1)
	serve(simclock.At(2*time.Minute), 4)

	s = atSeam(s)

	for i := 0; i < len(ids); i += 4 { // some claimed before the seam, some fresh
		report(i, simclock.At(5*time.Minute))
	}
	for _, c := range []int{0, 1, 3, 4, 2, 5} {
		serve(simclock.At(6*time.Minute), c)
	}
	for _, id := range ids {
		logf("known %d -> %v", id, s.CancellationKnown(id, simclock.At(7*time.Minute)))
	}
	checkBooks(t, s)

	log = append(log, secondSale)
	logf("expired %d", s.EndPeriod(simclock.At(time.Hour), predict.PeriodOf(0, time.Hour)))
	sell(simclock.At(time.Hour))
	for _, c := range seamClients {
		serve(simclock.At(100*time.Minute), c) // the first sale's leftovers have expired
	}
	checkBooks(t, s)
	return log, s
}

func snapshotJSON(t *testing.T, s *Server) []byte {
	t.Helper()
	st, err := s.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	data, err := json.Marshal(st)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func TestStateSurvivesTheSeams(t *testing.T) {
	base, baseSrv := seamScenario(t, func(s *Server) *Server { return s })
	if !strings.Contains(strings.Join(base, "\n"), "true") || baseSrv.OpenBook() == 0 {
		t.Fatalf("scenario inert:\n%s", strings.Join(base, "\n"))
	}

	t.Run("snapshot-restore", func(t *testing.T) {
		got, srv := seamScenario(t, func(s *Server) *Server {
			data := snapshotJSON(t, s)
			var st State
			if err := json.Unmarshal(data, &st); err != nil {
				t.Fatal(err)
			}
			fresh := seamServer(t, seamExchange(t), seamClients)
			if err := fresh.Restore(&st); err != nil {
				t.Fatal(err)
			}
			checkBooks(t, fresh)
			if again := snapshotJSON(t, fresh); string(again) != string(data) {
				t.Fatalf("snapshot does not round-trip:\n got %s\nwant %s", again, data)
			}
			return fresh
		})
		if strings.Join(got, "\n") != strings.Join(base, "\n") {
			t.Fatalf("transcript diverged after restore:\n got %s\nwant %s", strings.Join(got, "\n"), strings.Join(base, "\n"))
		}
		if a, b := snapshotJSON(t, srv), snapshotJSON(t, baseSrv); string(a) != string(b) {
			t.Fatalf("final state diverged after restore:\n got %s\nwant %s", a, b)
		}
	})

	t.Run("extract-adopt", func(t *testing.T) {
		got, _ := seamScenario(t, func(s *Server) *Server {
			states, err := s.ExtractClients(seamClients)
			if err != nil {
				t.Fatal(err)
			}
			checkBooks(t, s)
			if s.OpenBook() != 0 {
				t.Fatalf("%d entries left behind on the source", s.OpenBook())
			}
			wire, err := json.Marshal(states)
			if err != nil {
				t.Fatal(err)
			}
			var moved []ClientState
			if err := json.Unmarshal(wire, &moved); err != nil {
				t.Fatal(err)
			}
			ex := seamExchange(t)
			ex.SeedMemberIDs(0) // another node's id namespace, from 1<<40
			target := seamServer(t, ex, nil)
			if err := target.AdoptClients(moved); err != nil {
				t.Fatal(err)
			}
			checkBooks(t, target)
			return target
		})
		// The target's exchange mints its own ids and keeps its own ledger,
		// so only the replies up to the next sale are comparable.
		cut := func(log []string) string {
			for i, l := range log {
				if l == secondSale {
					return strings.Join(log[:i], "\n")
				}
			}
			t.Fatal("transcript has no second sale")
			return ""
		}
		if cut(got) != cut(base) {
			t.Fatalf("transcript diverged after migration:\n got %s\nwant %s", cut(got), cut(base))
		}
	})
}

// TestSnapshotBytesUnchanged pins Snapshot's encoding of a mid-book
// server — legacy and named-tenant books, cursors, claims, holders,
// campaigns, frequency counts — to the bytes the three-map engine wrote
// for the same scenario: a WAL checkpoint written on either side of the
// per-impression record reads the same on the other (the restore half
// is TestStateSurvivesTheSeams).
func TestSnapshotBytesUnchanged(t *testing.T) {
	golden, err := os.ReadFile("testdata/snapshot_midbook.json") // written by the parent engine
	if err != nil {
		t.Fatal(err)
	}
	var got []byte
	seamScenario(t, func(s *Server) *Server {
		got = snapshotJSON(t, s)
		return s
	})
	if string(got) != string(golden) {
		t.Fatalf("snapshot encoding moved:\n got %s\nwant %s", got, golden)
	}
}
