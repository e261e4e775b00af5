package transport

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/adserver"
	"repro/internal/auction"
	"repro/internal/envelope"
	"repro/internal/link"
	"repro/internal/obs"
	"repro/internal/predict"
	"repro/internal/shard"
	"repro/internal/simclock"
)

// BenchmarkShardedServing measures serving-path throughput as the shard
// count grows. The workload is the expensive request in the protocol: a
// cache-miss hitting /v1/ondemand, whose rescue + top-up path scans the
// shard's open-impression book under the shard lock. Sharding helps
// twice: each shard's book is 1/N of the fleet's open inventory (the
// scan shrinks ~N×, visible even on one core), and the N locks let
// requests proceed concurrently on multi-core hosts (the T2 story:
// throughput bounds how many phones one process can carry). A 4-shard
// server must clear at least 2× the 1-shard requests/sec.
//
// Run: make bench
func BenchmarkShardedServing(b *testing.B) {
	const (
		clients   = 256
		campaigns = 50
		slotsEach = 400 // per-client period forecast; sizes the open book
	)
	demand := auction.DefaultDemand()
	demand.Campaigns = campaigns
	demand.TargetedFrac = 0
	demand.BudgetImpressions = 1_000_000_000 // never exhaust mid-benchmark

	for _, shards := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			h := benchHandler(b, shards, clients, campaigns, slotsEach, demand)

			var seq atomic.Int64
			b.ReportAllocs()
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				for pb.Next() {
					n := seq.Add(1)
					cid := int(n) % clients
					now := simclock.Time(n) * simclock.Time(time.Microsecond)
					path, body := "/v1/ondemand", fmt.Sprintf(`{"client":%d,"now_ns":%d}`, cid, int64(now))
					if n%8 == 0 {
						path, body = "/v1/slot", fmt.Sprintf(`{"client":%d,"now_ns":%d}`, cid, int64(now))
					}
					r := httptest.NewRequest("POST", path, strings.NewReader(body))
					rec := httptest.NewRecorder()
					h.ServeHTTP(rec, r)
					if rec.Code != 200 {
						b.Fatalf("%s: %d %s", path, rec.Code, rec.Body)
					}
				}
			})
		})
	}
}

// benchHandler builds a sharded stack with a filled open book, shared
// by the serving and wake-up benchmarks.
func benchHandler(b testing.TB, shards, clients, campaigns, slotsEach int, demand auction.DemandConfig) http.Handler {
	b.Helper()
	cfg := adserver.DefaultConfig()
	cfg.Period = time.Hour
	cfg.Overbook.FixedReplicas = 1
	cfg.Overbook.AdmissionEpsilon = 0.45
	cfg.Overbook.CacheCap = 2 * slotsEach
	ids := make([]int, clients)
	for i := range ids {
		ids[i] = i
	}
	pool, err := shard.New(shards, cfg, ids,
		func(int) (*auction.Exchange, error) {
			return auction.NewExchange(demand.Generate(simclock.NewRand(1)), 0.0001)
		},
		func(int) predict.Predictor {
			return constPredictor{est: predict.Estimate{Slots: float64(slotsEach), Mean: float64(slotsEach), NoShowProb: 0}}
		}, nil)
	if err != nil {
		b.Fatal(err)
	}
	// Fill the open book: one round sells ~clients*slotsEach
	// impressions fleet-wide, split across the shards.
	if _, stats := pool.StartPeriod(0, predict.Period{}); stats.Sold < clients*slotsEach/2 {
		b.Fatalf("thin open book: sold %d", stats.Sold)
	}
	return NewShardedServer(pool).Handler()
}

// BenchmarkWakeUp compares the wire cost of one device wake-up across
// the two transport modes. A wake-up is the protocol's common composite
// — a slot observation, a cancellation probe, and an on-demand rescue —
// which the sequential path spends three HTTP round trips on and the
// batched path folds into a single /v1/batch envelope. The benchmark
// reports rt/wakeup (HTTP round trips per wake-up) alongside ns/op; the
// batching acceptance is rt/wakeup dropping >= 2x with no throughput
// regression on the sequential rows.
//
// Run: make bench
func BenchmarkWakeUp(b *testing.B) {
	const (
		clients   = 256
		campaigns = 50
		slotsEach = 400
	)
	demand := auction.DefaultDemand()
	demand.Campaigns = campaigns
	demand.TargetedFrac = 0
	demand.BudgetImpressions = 1_000_000_000

	for _, shards := range []int{1, 2, 4} {
		for _, mode := range []string{"sequential", "batched"} {
			b.Run(fmt.Sprintf("shards=%d/%s", shards, mode), func(b *testing.B) {
				h := benchHandler(b, shards, clients, campaigns, slotsEach, demand)

				var seq, roundTrips atomic.Int64
				b.ReportAllocs()
				b.ResetTimer()
				b.RunParallel(func(pb *testing.PB) {
					for pb.Next() {
						n := seq.Add(1)
						cid := int(n) % clients
						now := int64(simclock.Time(n) * simclock.Time(time.Microsecond))
						post := func(path, body string) {
							r := httptest.NewRequest("POST", path, strings.NewReader(body))
							rec := httptest.NewRecorder()
							h.ServeHTTP(rec, r)
							roundTrips.Add(1)
							if rec.Code != 200 {
								b.Fatalf("%s: %d %s", path, rec.Code, rec.Body)
							}
						}
						if mode == "sequential" {
							post("/v1/slot", fmt.Sprintf(`{"client":%d,"now_ns":%d}`, cid, now))
							r := httptest.NewRequest("GET",
								fmt.Sprintf("/v1/cancelled?client=%d&ids=%d,%d&now_ns=%d", cid, n, n+1, now), nil)
							rec := httptest.NewRecorder()
							h.ServeHTTP(rec, r)
							roundTrips.Add(1)
							if rec.Code != 200 {
								b.Fatalf("/v1/cancelled: %d %s", rec.Code, rec.Body)
							}
							post("/v1/ondemand", fmt.Sprintf(`{"client":%d,"now_ns":%d}`, cid, now))
						} else {
							post("/v1/batch", fmt.Sprintf(
								`{"client":%d,"now_ns":%d,"ops":[{"op":"slot"},{"op":"cancelled","ids":[%d,%d]},{"op":"ondemand"}]}`,
								cid, now, n, n+1))
						}
					}
				})
				b.StopTimer()
				b.ReportMetric(float64(roundTrips.Load())/float64(b.N), "rt/wakeup")
			})
		}
	}
}

// benchNopWriter is the cheapest possible ResponseWriter: benchmarks
// that measure the serving path use it so recorder allocations don't
// drown the signal.
type benchNopWriter struct {
	h http.Header
	n int
}

func (w *benchNopWriter) Header() http.Header { return w.h }
func (w *benchNopWriter) WriteHeader(code int) {
	if code >= 300 {
		w.n = code
	}
}
func (w *benchNopWriter) Write(p []byte) (int, error) { return len(p), nil }

// reusableBody lets one request object carry a resettable body across
// benchmark iterations without re-allocating a closer per request.
type reusableBody struct{ *bytes.Reader }

func (reusableBody) Close() error { return nil }

// reusedPost returns a func that serves one POST of body through h and
// reports the error status (0 for 2xx), reusing one request, one body
// reader and one response writer across calls — what is left to
// allocate is the serving path's own.
func reusedPost(h http.Handler, path, contentType string) func(body []byte) int {
	rd := &reusableBody{bytes.NewReader(nil)}
	req := httptest.NewRequest("POST", path, nil)
	req.Body = rd
	if contentType != "" {
		req.Header.Set("Content-Type", contentType)
	}
	w := &benchNopWriter{h: make(http.Header, 4)}
	return func(body []byte) int {
		rd.Reset(body)
		req.ContentLength = int64(len(body))
		clear(w.h)
		h.ServeHTTP(w, req)
		return w.n
	}
}

// BenchmarkSequentialServing measures the sequential hot path end to
// end — mux, version gate, metrics middleware, pooled body read, shard
// execution, pre-marshaled reply — for the highest-volume request in
// the protocol (POST /v1/slot). This is the zero-alloc target the
// pooled buffers and constant replies exist for; allocs/op here is the
// number TestServingAllocationBudget pins.
//
// Run: make bench
func BenchmarkSequentialServing(b *testing.B) {
	const (
		clients   = 256
		campaigns = 50
		slotsEach = 400
	)
	demand := auction.DefaultDemand()
	demand.Campaigns = campaigns
	demand.TargetedFrac = 0
	demand.BudgetImpressions = 1_000_000_000
	h := benchHandler(b, 1, clients, campaigns, slotsEach, demand)

	bodies := make([][]byte, clients)
	for c := range bodies {
		bodies[c] = []byte(fmt.Sprintf(`{"client":%d,"now_ns":1000}`, c))
	}
	var seq atomic.Int64
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		post := reusedPost(h, "/v1/slot", "")
		for pb.Next() {
			if code := post(bodies[int(seq.Add(1))%clients]); code != 0 {
				b.Fatalf("/v1/slot: %d", code)
			}
		}
	})
}

// batchCodecEnvelopes pre-encodes one steady-state wake-up envelope per
// client — slot observation, cancellation probe, bundle poll; unkeyed,
// so the dedup window stays empty and iterations don't compound — in
// the requested codec.
func batchCodecEnvelopes(tb testing.TB, clients int, binary bool) [][]byte {
	bodies := make([][]byte, clients)
	for c := range bodies {
		env := batchMsg{Client: c, NowNS: 1000, Ops: []BatchOp{
			{Op: OpSlot},
			{Op: OpCancelled, IDs: []int64{int64(c), int64(c) + 1}},
			{Op: OpBundle},
		}}
		if binary {
			frame, err := envelope.AppendMsg(nil, env)
			if err != nil {
				tb.Fatal(err)
			}
			bodies[c] = frame
		} else {
			js, err := json.Marshal(env)
			if err != nil {
				tb.Fatal(err)
			}
			bodies[c] = js
		}
	}
	return bodies
}

// runBatchCodec drives b.N envelopes of one codec through the full
// handler stack.
func runBatchCodec(b *testing.B, h http.Handler, binary bool) {
	const clients = 256
	bodies := batchCodecEnvelopes(b, clients, binary)
	contentType := "application/json"
	if binary {
		contentType = BinaryBatchContentType
	}
	var seq atomic.Int64
	b.ReportAllocs()
	b.SetBytes(int64(len(bodies[0])))
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		post := reusedPost(h, "/v1/batch", contentType)
		for pb.Next() {
			if code := post(bodies[int(seq.Add(1))%clients]); code != 0 {
				b.Fatalf("/v1/batch: %d", code)
			}
		}
	})
}

// BenchmarkBatchCodec compares the two /v1/batch envelope codecs over
// identical steady-state wake-up envelopes. Both allocate the same
// (TestServingAllocationBudget pins each exactly); what the binary
// frame buys is bytes — B/op and the SetBytes throughput show the
// wire-size win.
//
// Run: make bench
func BenchmarkBatchCodec(b *testing.B) {
	const (
		clients   = 256
		campaigns = 50
		slotsEach = 400
	)
	demand := auction.DefaultDemand()
	demand.Campaigns = campaigns
	demand.TargetedFrac = 0
	demand.BudgetImpressions = 1_000_000_000
	for _, codec := range []string{"json", "binary"} {
		b.Run("codec="+codec, func(b *testing.B) {
			h := benchHandler(b, 1, clients, campaigns, slotsEach, demand)
			runBatchCodec(b, h, codec == "binary")
		})
	}
}

// BenchmarkFleetRoundTrip measures the replay's loopback rung: one
// device op (a slot observation, POST /v1/slot) from a transport.Device
// to a real ShardedServer node over a real loopback socket, under the
// two HTTP clients a fleet can use. client=nethttp is net/http's
// Transport, which runs a read and a write goroutine per connection and
// hands every exchange across channels; client=sync is link.Transport,
// which the wire replay uses, running the exchange on the device's own
// goroutine over the same kind of keep-alive pool. Their difference in
// ns/op and allocs/op is the client machinery a fleet with one request
// in flight per device does not need. Both rows include the node's
// serving cost (net/http's server side, the handler, the engine), which
// is the same in both.
//
// Run: make bench
func BenchmarkFleetRoundTrip(b *testing.B) {
	for _, bc := range []struct {
		name string
		rt   func() http.RoundTripper
	}{
		{"client=nethttp", func() http.RoundTripper { return &http.Transport{MaxIdleConnsPerHost: 64} }},
		{"client=sync", func() http.RoundTripper { return link.NewTransport(obs.NewRegistry()) }},
	} {
		b.Run(bc.name, func(b *testing.B) {
			const clients = 256
			srv := httptest.NewServer(benchHandler(b, 1, clients, 10, 4, auction.DefaultDemand()))
			defer srv.Close()
			rt := bc.rt()
			defer rt.(interface{ CloseIdleConnections() }).CloseIdleConnections()
			hc := &http.Client{Transport: rt}

			var seq atomic.Int64
			var lost atomic.Int64
			b.ReportAllocs()
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				d, err := NewDevice(int(seq.Add(1))%clients, 8, srv.URL, WithHTTPClient(hc))
				if err != nil {
					b.Error(err)
					return
				}
				now := simclock.Time(0)
				for pb.Next() {
					now += simclock.Time(time.Millisecond)
					if err := d.ObserveSlot(now); err != nil {
						b.Error(err)
						return
					}
				}
				lost.Add(d.Net().LostObservations)
			})
			if n := lost.Load(); n != 0 {
				b.Fatalf("%d slot observations lost", n)
			}
		})
	}
}
