package transport

import (
	"fmt"
	"testing"

	"repro/internal/auction"
	"repro/internal/envelope"
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
