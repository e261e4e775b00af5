package transport

import (
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/simclock"
)

// TestShardedStress hammers a live sharded server from 32 goroutines
// with a mixed workload — slot observations, display reports, bundle
// downloads, cancellation queries, on-demand sales, batch envelopes,
// stats, ledger, health and metrics scrapes — while a coordinator
// concurrently cycles period start/end with a WAL attached and a
// checkpoint after every round, and one more goroutine migrates a
// served client out of the node and back in, epoch after epoch.
// It exists for `go test -race ./internal/transport` (`make race`): any
// unsynchronized access on the serving path is a failure even if every
// response looks fine. Between them the scrapes' gauges, the
// checkpoint and the migration take every lock the serving path has.
func TestShardedStress(t *testing.T) {
	const (
		goroutines = 32
		iterations = 40
		clients    = 64
		shards     = 4
		migrating  = 3 // a client the workers below serve
	)
	ts, coord, _, ss, _, wlog := newDurableStack(t, t.TempDir(), shards, clients, 1)
	hc := ts.Client()

	// drain consumes a response regardless of status: under concurrent
	// period cycling a report can legitimately race an expiry sweep and
	// get a 400; the stress test only cares that the server stays
	// consistent, which the race detector and the final ledger check
	// decide.
	drain := func(resp *http.Response, err error) error {
		if err != nil {
			return err
		}
		_, _ = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode >= 500 {
			return fmt.Errorf("server error: %s", resp.Status)
		}
		return nil
	}

	if _, err := coord.StartPeriod(0, 0, 0, false); err != nil {
		t.Fatal(err)
	}

	var (
		wg         sync.WaitGroup
		stop       atomic.Bool
		migrations atomic.Uint64
		errs       = make([]error, goroutines+2)
	)

	// Coordinator goroutine: period churn concurrent with serving.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for p := 1; p <= 6; p++ {
			now := simclock.Time(p) * simclock.Hour
			if _, err := coord.EndPeriod(now, p-1, p-1, false); err != nil {
				errs[goroutines] = err
				return
			}
			if _, err := coord.StartPeriod(now, p, p, false); err != nil {
				errs[goroutines] = err
				return
			}
			if _, err := coord.Stats(); err != nil {
				errs[goroutines] = err
				return
			}
		}
		stop.Store(true)
	}()

	// Migration goroutine: hand one client away and take it back until
	// the coordinator is done. Requests for it meanwhile get 421.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for epoch := uint64(1); ; epoch++ {
			blob, err := ss.migrateOut(epoch, []int{migrating})
			if err == nil {
				err = ss.migrateIn(blob)
			}
			if err != nil {
				errs[goroutines+1] = err
				return
			}
			ss.migrateCommit(epoch)
			migrations.Store(epoch)
			if stop.Load() {
				return
			}
		}
	}()

	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			cid := g % clients
			for i := 0; i < iterations || !stop.Load(); i++ {
				if i > 4*iterations { // bound runtime once the coordinator lags
					break
				}
				now := simclock.Time(g*iterations+i) * simclock.Second
				var err error
				switch i % 10 {
				case 0:
					err = drain(hc.Post(ts.URL+"/v1/slot", "application/json",
						strings.NewReader(fmt.Sprintf(`{"client":%d,"now_ns":%d}`, cid, now))))
				case 1:
					err = drain(hc.Get(fmt.Sprintf("%s/v1/bundle?client=%d&now_ns=%d", ts.URL, cid, now)))
				case 2:
					// Impression ids are guesses; claims may 400, races are fine.
					err = drain(hc.Post(ts.URL+"/v1/report", "application/json",
						strings.NewReader(fmt.Sprintf(`{"client":%d,"impression":%d,"now_ns":%d}`, cid, i+1, now))))
				case 3:
					err = drain(hc.Get(fmt.Sprintf("%s/v1/cancelled?client=%d&ids=%d,%d&now_ns=%d", ts.URL, cid, i+1, i+2, now)))
				case 4:
					err = drain(hc.Post(ts.URL+"/v1/ondemand", "application/json",
						strings.NewReader(fmt.Sprintf(`{"client":%d,"now_ns":%d}`, cid, now))))
				case 5:
					err = drain(hc.Get(ts.URL + "/v1/stats"))
				case 6:
					err = drain(hc.Get(ts.URL + "/v1/ledger"))
				case 7:
					// A multi-kind envelope with keyed sub-ops: batch dedup and
					// group execution race the sequential endpoints above.
					err = drain(hc.Post(ts.URL+"/v1/batch", "application/json",
						strings.NewReader(fmt.Sprintf(
							`{"client":%d,"now_ns":%d,"ops":[{"op":"slot","key":"st-%d-%d"},{"op":"cancelled","ids":[%d,%d]},{"op":"ondemand","key":"od-%d-%d","no_rescue":true},{"op":"bundle"}]}`,
							cid, now, g, i, i+1, i+2, g, i))))
				case 8:
					err = drain(hc.Get(ts.URL + "/v1/health"))
				case 9:
					err = drain(hc.Get(ts.URL + "/v1/metrics"))
				}
				if err != nil {
					errs[g] = err
					return
				}
			}
		}(g)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}

	// The fleet survived; the merged ledger must still be internally
	// consistent (conservation holds under any interleaving).
	l, err := coord.Ledger()
	if err != nil {
		t.Fatal(err)
	}
	if l.Billed+l.Violations > l.Sold {
		t.Fatalf("conservation violated under stress: %+v", l)
	}
	if l.Sold == 0 {
		t.Fatal("stress run sold nothing; workload inert")
	}
	if gen := wlog.Stats().Gen; gen < 6 {
		t.Fatalf("log generation %d after 6 rounds; the checkpoints did not run", gen)
	}
	t.Logf("%d migrations, log generation %d", migrations.Load(), wlog.Stats().Gen)
}
