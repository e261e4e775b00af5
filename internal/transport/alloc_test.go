package transport

import (
	"fmt"
	"testing"

	"repro/internal/auction"
	"repro/internal/envelope"
)

// TestServingAllocationBudget pins, exactly, what one request allocates
// on the serving path — mux, version gate, metrics middleware, pooled
// body read, the envelope executor, the pre-marshaled reply — with the
// request, body reader and response writer reused (reusedPost), so a
// change that adds an allocation per op fails tier-1 instead of waiting
// for a benchmark run. A lower number is an improvement: update it here.
//
// POST /v1/slot, unkeyed, allocates 11 (alloc_objects profile of
// BenchmarkSequentialServing, -memprofilerate 1):
//
//	3  textproto.canonicalMIMEHeaderKey: "X-AdPrefetch-Version" (set on
//	   the reply, then read off the request) and "X-AdPrefetch-Tenant"
//	   (read) are not in canonical MIME form, so every Header.Set/Get
//	   re-canonicalizes them into a fresh string
//	2  the []string value slices of the two reply headers
//	   (X-Adprefetch-Version, Content-Type)
//	1  jsonReq: the decoded slotMsg escapes through json.Unmarshal's `any`
//	1  json.Unmarshal's decodeState
//	2  decodeState.object: the errorContext and its FieldStack
//	1  the scanner's parse-state stack
//	1  putBodyBuf: the *[]byte boxed into the body pool
//
// The executor itself adds none: the one-op envelope lives on the
// handler's stack, {} is a shared constant, and the WAL's op copy is made
// only when a log is attached. (The 13 this path measured before it
// became a one-op envelope were these 11 plus the one-op WAL envelope
// and its interface box, built even with no WAL attached — the
// never-explained 12 → 13 of the BENCH_ trajectory was the tenant header
// read.)
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
		{"slot unkeyed", "/v1/slot", "", slots, 11},
		{"three-op envelope, JSON", "/v1/batch", "application/json", batchCodecEnvelopes(t, clients, false), 30},
		{"three-op envelope, binary", "/v1/batch", envelope.ContentType, batchCodecEnvelopes(t, clients, true), 17},
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
