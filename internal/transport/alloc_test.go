package transport

import (
	"bytes"
	"errors"
	"fmt"
	"net/http"
	"testing"

	"repro/internal/auction"
	"repro/internal/envelope"
	"repro/internal/simclock"
)

// TestServingAllocationBudget pins, exactly, what one request allocates
// on the serving path — mux, version gate, metrics middleware, pooled
// body read, the strict wire decoder, the envelope executor, the reply
// renderer — with the request, body reader and response writer reused
// (reusedPost), so a change that adds an allocation per op fails tier-1
// instead of waiting for a benchmark run. A lower number is an
// improvement: update it here.
//
// From alloc_objects profiles of BenchmarkSequentialServing and
// BenchmarkBatchCodec (-memprofilerate 1, -cpu 1):
//
// POST /v1/slot, unkeyed, allocates 1:
//
//	1  putBodyBuf: the request buffer's *[]byte boxed into bodyPool
//
// The three-op envelope (slot, cancellation probe of two ids, bundle
// poll; unkeyed) allocates 5 in either codec:
//
//	2  the decoded envelope: its []Op and the probe's []int64
//	   (envelope.ScanMsg for JSON, envelope.DecodeMsg for the frame)
//	1  cancelledReplyBody: the probe's reply, rendered at its exact size
//	2  putBodyBuf: the request buffer and the reply buffer
//
// Everything else stays off the heap: the header names are canonical
// constants and the constant header values shared slices, the decoded
// request and the one-op envelope live on the handler's stack (as do an
// envelope's results, wire results and group index up to wakeupOps ops),
// {} and the empty bundle are shared constants, and the WAL's op copy is
// made only when a log is attached. Before the wire codec (ISSUE 23)
// these were 11 · 30 · 17: encoding/json's decodeState, error context,
// scanner stack and reflective encoder, three header re-canonicalisations
// and two value slices per reply, and handleBatch's result, group and
// wire-result slices.
func TestServingAllocationBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops Puts at random under the race detector; the budget is exact only without it")
	}
	const (
		clients   = 256
		campaigns = 50
		slotsEach = 400
		runs      = 2000
	)
	demand := auction.DefaultDemand()
	demand.Campaigns = campaigns
	demand.TargetedFrac = 0
	demand.BudgetImpressions = 1_000_000_000
	h := benchHandler(t, 1, clients, campaigns, slotsEach, demand)

	slots := make([][]byte, clients)
	for c := range slots {
		slots[c] = []byte(fmt.Sprintf(`{"client":%d,"now_ns":1000}`, c))
	}
	for _, tc := range []struct {
		name, path, contentType string
		bodies                  [][]byte
		want                    float64
	}{
		{"slot unkeyed", "/v1/slot", "", slots, 1},
		{"three-op envelope, JSON", "/v1/batch", "application/json", batchCodecEnvelopes(t, clients, false), 5},
		{"three-op envelope, binary", "/v1/batch", envelope.ContentType, batchCodecEnvelopes(t, clients, true), 5},
	} {
		post, n := reusedPost(h, tc.path, tc.contentType), 0
		got := testing.AllocsPerRun(runs, func() {
			if code := post(tc.bodies[n%clients]); code != 0 {
				t.Fatalf("%s: status %d", tc.name, code)
			}
			n++
		})
		if got != tc.want {
			t.Errorf("%s: %v allocs per request, budget is exactly %v", tc.name, got, tc.want)
		}
	}
}

// cannedTransport is an in-memory http.RoundTripper that answers the
// requests of a scripted wake-up with pre-rendered 200 replies, in order,
// reusing one response and one body reader: what remains in a measured
// loop is the device and net/http's client wrapper, with no server and no
// recorder allocating beside them.
type cannedTransport struct {
	script [][]byte
	next   int
	ctype  []string
	resp   http.Response
	body   cannedBody
}

type cannedBody struct{ bytes.Reader }

func (*cannedBody) Close() error { return nil }

// play arms the transport with the replies of the next wake-up.
func (rt *cannedTransport) play(script [][]byte) { rt.script, rt.next = script, 0 }

func (rt *cannedTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	if rt.next >= len(rt.script) {
		return nil, errors.New("canned transport: script exhausted")
	}
	reply := rt.script[rt.next]
	rt.next++
	rt.body.Reset(reply)
	rt.resp = http.Response{
		Status: "200 OK", StatusCode: http.StatusOK,
		Proto: "HTTP/1.1", ProtoMajor: 1, ProtoMinor: 1,
		Header:        http.Header{"Content-Type": rt.ctype},
		Body:          &rt.body,
		ContentLength: int64(len(reply)),
		Request:       req,
	}
	return &rt.resp, nil
}

// TestDeviceWakeUpAllocationBudget is the device-side twin of
// TestServingAllocationBudget: it pins, exactly, what one wake-up
// allocates on the device in each wire form — building the ops, minting
// keys, rendering requests, reading and decoding the replies, cache and
// outbox bookkeeping — over canned replies (cannedTransport), so a change to how the device builds or
// carries a wake-up that adds an allocation fails tier-1 instead of
// showing up as a fraction of a percent of the benchmark's allocs_per_op.
// Recorded on the client that still carried every procedure once per wire
// form (ISSUE 24: per-op 19 · 39 · 73, JSON envelopes 29 · 51 · 59, binary
// 30 · 53 · 63 for fetch · miss · fetch+hit); writing the wake-up once
// took the on-demand body's growth steps, the outbox's settle closure and
// a heap copy per queued report with it; merging a bundle into the
// sorted cache instead of re-sorting it took the cache's dedup map out of
// every fetch (one each on the fetch and fetch+hit rows); handing each
// request straight to the RoundTripper instead of through http.Client.Do
// took 5 per request (per-op 18 · 37 · 72 → 13 · 27 · 52, JSON envelopes
// 26 · 47 · 53 → 21 · 37 · 43, binary 27 · 49 · 57 → 22 · 39 · 47). A
// lower number is an improvement: update it here.
//
// The three wake-ups, each in its steady state:
//
//	fetch      FetchBundle answered with a one-ad bundle the cache
//	           already holds (ingest runs, the cache does not grow)
//	miss       HandleSlot on an empty cache: slot observation, then the
//	           on-demand fetch (answered without a top-up)
//	fetch+hit  FetchBundle of one fresh ad, then the HandleSlot that
//	           displays it: slot observation, cancellation probe of the
//	           one cached id, display report — sent at once on the per-op
//	           wire, queued write-behind on the batched ones (where it
//	           rides the next round's fetch envelope)
func TestDeviceWakeUpAllocationBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates; the budget is exact only without it")
	}
	const (
		runs = 200
		now  = simclock.Time(60e9)
	)
	ad := AdMsg{ID: 4503599627370497, DeadlineNS: 5400e9, Tie: 7591864664363781332}
	var (
		ack       = []byte("{}\n")
		bundle    = bundleReplyBody(BundleReply{Ads: []AdMsg{ad}})
		cancelled = cancelledReplyBody(CancelledReply{})
		onDemand  = onDemandReplyBody(OnDemandReply{Impression: 9007199254740993})
	)
	ok := func(kind string, body []byte) BatchOpResult {
		return BatchOpResult{Op: kind, Status: http.StatusOK, Body: bytes.TrimSpace(body)}
	}
	for _, tc := range []struct {
		name  string
		opts  []Option
		ctype string
		// envelope renders one envelope's reply (nil on the per-op wire).
		envelope             func(results ...BatchOpResult) []byte
		fetch, miss, withHit float64
	}{
		{name: "sequential", ctype: "application/json", fetch: 13, miss: 27, withHit: 52},
		{name: "batch_json", opts: []Option{WithBatching()}, ctype: "application/json",
			envelope: func(results ...BatchOpResult) []byte {
				body, _ := envelope.AppendReplyJSON(nil, results)
				return append(body, '\n')
			}, fetch: 21, miss: 37, withHit: 43},
		{name: "batch_binary", opts: []Option{WithBatching(), WithBinaryBatch()}, ctype: envelope.ContentType,
			envelope: func(results ...BatchOpResult) []byte { return envelope.AppendReply(nil, results) },
			fetch:    22, miss: 39, withHit: 47},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rt := &cannedTransport{ctype: []string{tc.ctype}}
			opts := append(tc.opts, WithHTTPClient(&http.Client{Transport: rt}))
			newDevice := func() *Device {
				d, err := NewDevice(0, 32, "http://adserver.test/", opts...)
				if err != nil {
					t.Fatal(err)
				}
				return d
			}
			// The replies of each wake-up, per exchange: one request per
			// op, or one envelope (two for a miss).
			fetchScript := [][]byte{bundle}
			missScript := [][]byte{ack, onDemand}
			hitScript := [][]byte{bundle, ack, cancelled, ack}
			primeScript := hitScript
			if tc.envelope != nil {
				fetchScript = [][]byte{tc.envelope(ok(OpBundle, bundle))}
				missScript = [][]byte{tc.envelope(ok(OpSlot, ack)), tc.envelope(ok(OpOnDemand, onDemand))}
				hit := tc.envelope(ok(OpSlot, ack), ok(OpCancelled, cancelled))
				primeScript = [][]byte{fetchScript[0], hit}
				// In the steady state the previous round's display report
				// leads the fetch envelope.
				hitScript = [][]byte{tc.envelope(ok(OpReport, ack), ok(OpBundle, bundle)), hit}
			}
			fetchAndHit := func(d *Device, script [][]byte) {
				rt.play(script)
				if n, err := d.FetchBundle(now); err != nil || n != 1 {
					t.Fatalf("fetch: %d ads, %v", n, err)
				}
				if out, err := d.HandleSlot(now, nil); err != nil || !out.CacheHit || out.Degraded {
					t.Fatalf("hit: %+v, %v", out, err)
				}
			}

			d := newDevice()
			fetchAndHit(d, primeScript) // leaves the cache empty and, when batching, one report in the outbox
			check := func(name string, want float64, wakeUp func()) {
				t.Helper()
				if got := testing.AllocsPerRun(runs, wakeUp); got != want {
					t.Errorf("%s: %v allocs per wake-up, budget is exactly %v", name, got, want)
				}
				if n := d.Net(); n.Retries != 0 || n.Unreachable != 0 {
					t.Fatalf("%s: the canned wire was retried: %+v", name, n)
				}
			}
			check("fetch+hit", tc.withHit, func() { fetchAndHit(d, hitScript) })

			d = newDevice()
			check("miss", tc.miss, func() {
				rt.play(missScript)
				if out, err := d.HandleSlot(now, nil); err != nil || !out.Fetched || out.Degraded {
					t.Fatalf("miss: %+v, %v", out, err)
				}
			})
			check("fetch", tc.fetch, func() {
				rt.play(fetchScript)
				if n, err := d.FetchBundle(now); err != nil || n != 1 {
					t.Fatalf("fetch: %d ads, %v", n, err)
				}
			})
		})
	}
}
