package cluster

import (
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/adserver"
	"repro/internal/auction"
	"repro/internal/predict"
	"repro/internal/shard"
	"repro/internal/simclock"
	"repro/internal/transport"
)

// BenchmarkClusterRoundTrip measures the routing tier's proxy overhead:
// one client-scoped request entering the router handler, forwarded to
// the owning node over a real loopback socket, and relayed back.
//
// nodes=1 and nodes=3 keep the hop plain HTTP (an injected client)
// against a minimal responder, so the number isolates the router's added
// cost — body buffering, client-id extraction, placement, the forward
// loop — plus one net/http round trip. nodes=3/hop=link and
// nodes=3/hop=http put the two hops side by side against the same real
// ShardedServer nodes: their difference in ns/op and allocs/op is what
// the persistent link buys per forward.
//
// Run: make bench
func BenchmarkClusterRoundTrip(b *testing.B) {
	stub := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.Copy(io.Discard, r.Body)
		w.Header().Set("Content-Type", "application/json")
		io.WriteString(w, `{"ads":[],"generation":1}`)
	})
	httpHop := func() []Option {
		return []Option{WithHTTPClient(&http.Client{Timeout: 10 * time.Second})}
	}
	for _, bc := range []struct {
		name  string
		nodes int
		real  bool
		opts  func() []Option
	}{
		{"nodes=1", 1, false, httpHop},
		{"nodes=3", 3, false, httpHop},
		{"nodes=3/hop=http", 3, true, httpHop},
		{"nodes=3/hop=link", 3, true, func() []Option { return nil }},
	} {
		b.Run(bc.name, func(b *testing.B) {
			const clients = 256
			place := func(id int) int { return shard.Route(id, bc.nodes) }
			urls := make([]string, bc.nodes)
			for i := range urls {
				h := http.Handler(stub)
				if bc.real {
					var owned []int
					for c := 0; c < clients; c++ {
						if place(c) == i {
							owned = append(owned, c)
						}
					}
					h = benchNode(b, owned).Handler()
				}
				urls[i] = serveNode(b, h).URL
			}
			rt, err := New(Membership{Nodes: urls}, append(bc.opts(), WithPlacement(place))...)
			if err != nil {
				b.Fatal(err)
			}
			defer rt.Close()
			h := rt.Handler()

			var seq atomic.Int64
			b.ReportAllocs()
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				for pb.Next() {
					cid := seq.Add(1) % clients
					r := httptest.NewRequest("GET", fmt.Sprintf("/v1/bundle?client=%d", cid), nil)
					rec := httptest.NewRecorder()
					h.ServeHTTP(rec, r)
					if rec.Code != 200 {
						b.Fatalf("round trip failed: %d %s", rec.Code, rec.Body)
					}
				}
			})
		})
	}
}

// benchNode is one real serving node over the given clients.
func benchNode(b *testing.B, owned []int) *transport.ShardedServer {
	b.Helper()
	pool, err := shard.New(1, adserver.DefaultConfig(), owned,
		func(int) (*auction.Exchange, error) {
			return auction.NewExchange(auction.DefaultDemand().Generate(simclock.NewRand(1)), 0.0002)
		},
		func(int) predict.Predictor { return predict.NewPercentileHistogram(0.9) }, nil)
	if err != nil {
		b.Fatal(err)
	}
	return transport.NewShardedServer(pool)
}

// BenchmarkMigrationHandoff measures the live-migration data path: one
// full client-group handoff — migrate-out on the source (state
// extraction under the serving locks, WAL-free here), the blob shipped
// to the target, migrate-in (adoption), commit — over real HTTP against
// real serving nodes, while a concurrent device load keeps hammering
// the router. Reported as clients/s transferred plus the serving p99
// observed during the handoffs, the number the "zero client-visible
// errors" guarantee is about: devices queue behind the quiesce instead
// of failing, and this pins how long that queue gets.
//
// Run: make bench
func BenchmarkMigrationHandoff(b *testing.B) {
	const clients = 64
	ids := make([]int, clients)
	for i := range ids {
		ids[i] = i
	}
	urls := make([]string, 2)
	for i := range urls {
		owned := ids
		if i == 1 {
			owned = nil // the target starts empty; the handoff populates it
		}
		urls[i] = serveNode(b, benchNode(b, owned).Handler()).URL
	}
	rt, err := New(Membership{Nodes: urls})
	if err != nil {
		b.Fatal(err)
	}
	defer rt.Close()
	h := rt.Handler()

	// Warm every client on the source so the blobs carry a dedup window,
	// not just bare ids.
	for _, id := range ids {
		r := httptest.NewRequest("GET", fmt.Sprintf("/v1/bundle?client=%d&now_ns=1", id), nil)
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, r)
		if rec.Code != 200 {
			b.Fatalf("warming client %d: %d %s", id, rec.Code, rec.Body)
		}
	}

	// Concurrent device load: latency samples taken while handoffs hold
	// the rebalance lock measure what a device actually waits.
	stop := make(chan struct{})
	var lat []time.Duration
	var loadWg sync.WaitGroup
	loadWg.Add(1)
	go func() {
		defer loadWg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			r := httptest.NewRequest("GET", fmt.Sprintf("/v1/bundle?client=%d&now_ns=%d", i%clients, i+2), nil)
			rec := httptest.NewRecorder()
			t0 := time.Now()
			h.ServeHTTP(rec, r)
			lat = append(lat, time.Since(t0))
			if rec.Code != 200 {
				panic(fmt.Sprintf("serving during handoff: %d %s", rec.Code, rec.Body))
			}
		}
	}()

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Ping-pong the whole client set: each iteration is one full
		// handoff in one direction, under the same lock discipline
		// execMoves uses.
		from, to := i%2, 1-i%2
		rt.rebalanceMu.Lock()
		rt.epochSeq++
		err := rt.transfer(rt.epochSeq, from, to, ids)
		rt.rebalanceMu.Unlock()
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	close(stop)
	loadWg.Wait()
	b.ReportMetric(float64(clients)*float64(b.N)/b.Elapsed().Seconds(), "clients/s")
	if len(lat) > 0 {
		sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
		p99 := lat[len(lat)*99/100]
		b.ReportMetric(float64(p99.Microseconds()), "p99-serve-µs")
	}
}
