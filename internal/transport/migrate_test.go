package transport

import (
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/internal/envelope"
	"repro/internal/tenant"
)

// TestMovedClientRefusedOnEveryForm: from the moment a client is
// extracted its old owner answers 421 for every op kind on every wire
// form — the engine state is gone, so nothing may execute or answer
// from what was handed away — and the refusal is never stored, so the
// retry that reaches the new owner is not pinned to it. (Before the
// per-op endpoints ran through the envelope executor, GET /v1/cancelled
// skipped the check and answered from the stale claim table.)
func TestMovedClientRefusedOnEveryForm(t *testing.T) {
	ss, _ := newBatchStack(t, 2, 4)
	h := ss.Handler()
	startPeriod(t, h)
	const moved, stays = 1, 2
	if _, err := ss.migrateOut(7, []int{moved}); err != nil {
		t.Fatal(err)
	}
	now := int64(60e9)
	for _, kind := range envelope.Kinds {
		for pass := 0; pass < 2; pass++ { // twice under one key: a stored 421 would replay
			rec := sendOp(h, moved, now, BatchOp{Op: kind}, idempotencyKeyHeader, "mv-"+kind)
			if rec.Code != http.StatusMisdirectedRequest || rec.Header().Get("Idempotency-Replayed") != "" {
				t.Fatalf("%s for a moved client on its endpoint (pass %d): %d %s", kind, pass, rec.Code, rec.Body)
			}
			for _, post := range []func(*testing.T, http.Handler, batchMsg) (int, BatchReply){postBatch, postBatchBinary} {
				code, reply := post(t, h, batchMsg{Client: moved, NowNS: now, Ops: []BatchOp{{Op: kind, Key: "mv-env-" + kind}}})
				if code != http.StatusOK || reply.Results[0].Status != http.StatusMisdirectedRequest || reply.Results[0].Replayed {
					t.Fatalf("%s for a moved client in an envelope (pass %d): %d %+v", kind, pass, code, reply.Results)
				}
			}
		}
		if rec := sendOp(h, stays, now, BatchOp{Op: kind}); rec.Code != http.StatusOK && kind != OpReport {
			t.Fatalf("%s for a client that stayed: %d %s", kind, rec.Code, rec.Body)
		}
	}
	if n := dedupLen(ss); n != 0 {
		t.Fatalf("421 refusals left %d dedup entries", n)
	}
}

// TestCancelledIsGuardedLikeEveryOp: the tenant guard is the envelope's,
// so the cancellation read — which had no guard of its own — refuses a
// contradicting X-AdPrefetch-Tenant like the other four endpoints do,
// and still ignores idempotency keys entirely, malformed ones included.
func TestCancelledIsGuardedLikeEveryOp(t *testing.T) {
	ss, h := newTenantStack(t, 1, 8)
	ss.SetTenants(mustRegistry(t, 1, []tenant.Config{
		{ID: "pubA", Lo: 0, Hi: 4},
		{ID: "pubB", Lo: 4, Hi: 8},
	}))
	startPeriod(t, h)
	for _, kind := range envelope.Kinds {
		if rec := sendOp(h, 0, 60e9, BatchOp{Op: kind}, TenantHeader, "pubB"); rec.Code != http.StatusForbidden {
			t.Fatalf("%s declaring the wrong tenant: %d, want 403", kind, rec.Code)
		}
	}
	for _, key := range []string{"", "a-key", "bad key"} {
		if rec := sendOp(h, 0, 60e9, BatchOp{Op: OpCancelled}, TenantHeader, "pubA", idempotencyKeyHeader, key); rec.Code != http.StatusOK {
			t.Fatalf("cancelled under key %q: %d %s", key, rec.Code, rec.Body)
		}
	}
	if n := dedupLen(ss); n != 0 {
		t.Fatalf("a keyed read left %d dedup entries", n)
	}
}

// TestShardRequestsCountOncePerRequest: shard_requests_total (and the
// health reply's per-shard requests) counts one per client-scoped
// request on every wire form — a per-op request, a one-op envelope and
// a three-op envelope each count once. (WAL replay counts nothing: the
// recovered health pinned by TestWALRecordStreamGolden reads 0.)
func TestShardRequestsCountOncePerRequest(t *testing.T) {
	ss, _ := newBatchStack(t, 1, 4)
	h := ss.Handler()
	startPeriod(t, h)
	requests := func() int64 { return getHealth(t, h).Shards[0].Requests }
	now := int64(60e9)
	want := requests()
	for _, kind := range envelope.Kinds {
		sendOp(h, 0, now, BatchOp{Op: kind}, idempotencyKeyHeader, "rq-"+kind)
		sendOp(h, 0, now, BatchOp{Op: kind}, idempotencyKeyHeader, "rq-"+kind) // the replay is a request too
		postBatch(t, h, batchMsg{Client: 0, NowNS: now, Ops: []BatchOp{{Op: kind}}})
		want += 3
		if got := requests(); got != want {
			t.Fatalf("after %s on three forms: shard counted %d requests, want %d", kind, got, want)
		}
	}
	postBatchBinary(t, h, batchMsg{Client: 0, NowNS: now, Ops: []BatchOp{{Op: OpSlot}, {Op: OpCancelled, IDs: []int64{1}}, {Op: OpBundle}}})
	sendOp(h, 0, now, BatchOp{Op: OpSlot}, idempotencyKeyHeader, "bad key") // refused after routing: still a request
	if got := requests(); got != want+2 {
		t.Fatalf("a three-op envelope and a malformed-key request: counted %d, want %d", got, want+2)
	}
	// A request refused at decode never reaches a shard, on any endpoint.
	for _, target := range []string{"/v1/cancelled?client=0&ids=1,x&now_ns=0", "/v1/bundle?client=abc"} {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("GET", target, nil))
		if rec.Code != http.StatusBadRequest {
			t.Fatalf("GET %s: %d, want 400", target, rec.Code)
		}
	}
	if got := requests(); got != want+2 {
		t.Fatalf("malformed queries were counted as shard requests: %d, want %d", got, want+2)
	}
}
