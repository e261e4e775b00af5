package transport

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/adserver"
	"repro/internal/auction"
	"repro/internal/envelope"
	"repro/internal/obs"
	"repro/internal/predict"
	"repro/internal/shard"
	"repro/internal/tenant"
)

// newBatchStack builds a sharded stack for batch-protocol property
// tests, returning the server and its pool (for ledger assertions).
func newBatchStack(t *testing.T, shards, clients int) (*ShardedServer, *shard.Pool) {
	t.Helper()
	return newBatchStackSlots(t, shards, clients, 2)
}

// newBatchStackSlots is newBatchStack with every client forecast to
// fire the given number of slots per period (the depth of its bundle).
func newBatchStackSlots(t *testing.T, shards, clients int, slots float64) (*ShardedServer, *shard.Pool) {
	t.Helper()
	cfg := adserver.DefaultConfig()
	cfg.Period = time.Hour
	cfg.Overbook.FixedReplicas = 1
	cfg.Overbook.AdmissionEpsilon = 0.45
	cfg.Overbook.CacheCap = max(cfg.Overbook.CacheCap, int(slots))
	cfg.ReportLatency = 0
	ids := make([]int, clients)
	for i := range ids {
		ids[i] = i
	}
	pool, err := shard.New(shards, cfg, ids,
		func(int) (*auction.Exchange, error) {
			return auction.NewExchange([]auction.Campaign{
				{ID: 0, Name: "acme", BidCPM: 2000, BudgetUSD: 1e6},
			}, 0.0001)
		},
		func(int) predict.Predictor {
			return constPredictor{est: predict.Estimate{Slots: slots, Mean: slots, NoShowProb: 0.1}}
		}, nil)
	if err != nil {
		t.Fatal(err)
	}
	return NewShardedServer(pool), pool
}

// postBatch sends one envelope straight at the handler.
func postBatch(t *testing.T, h http.Handler, env batchMsg) (int, BatchReply) {
	t.Helper()
	body, err := json.Marshal(env)
	if err != nil {
		t.Fatal(err)
	}
	req := httptest.NewRequest("POST", "/v1/batch", strings.NewReader(string(body)))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	var reply BatchReply
	if rec.Code == http.StatusOK {
		if err := json.Unmarshal(rec.Body.Bytes(), &reply); err != nil {
			t.Fatalf("decoding batch reply %q: %v", rec.Body.String(), err)
		}
	}
	return rec.Code, reply
}

// sendOp delivers op for client on its per-op endpoint — a GET for
// bundle and cancelled, the canonical JSON POST for the rest — with the
// given alternating header names and values (op.Key is not sent; pass
// the Idempotency-Key header).
func sendOp(h http.Handler, client int, nowNS int64, op BatchOp, hdr ...string) *httptest.ResponseRecorder {
	var req *http.Request
	switch op.Op {
	case OpBundle:
		req = httptest.NewRequest("GET", fmt.Sprintf("/v1/bundle?client=%d&now_ns=%d", client, nowNS), nil)
	case OpCancelled:
		ids := make([]string, len(op.IDs))
		for i, id := range op.IDs {
			ids[i] = fmt.Sprint(id)
		}
		req = httptest.NewRequest("GET", fmt.Sprintf("/v1/cancelled?client=%d&ids=%s&now_ns=%d", client, strings.Join(ids, ","), nowNS), nil)
	default:
		var body []byte
		switch op.Op {
		case OpSlot:
			body, _ = json.Marshal(slotMsg{Client: client, NowNS: nowNS})
		case OpReport:
			body, _ = json.Marshal(reportMsg{Client: client, Impression: op.Impression, NowNS: nowNS})
		case OpOnDemand:
			body, _ = json.Marshal(onDemandMsg{Client: client, NowNS: nowNS, Categories: op.Categories, NoRescue: op.NoRescue})
		}
		req = httptest.NewRequest("POST", "/v1/"+op.Op, bytes.NewReader(body))
	}
	for i := 0; i+1 < len(hdr); i += 2 {
		req.Header.Set(hdr[i], hdr[i+1])
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
}

// startPeriod opens a selling period so slots and reports have stock.
func startPeriod(t *testing.T, h http.Handler) {
	t.Helper()
	body := `{"now_ns":0,"index":0,"of_day":0,"weekend":false}`
	req := httptest.NewRequest("POST", "/v1/period/start", strings.NewReader(body))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("period start: %d %s", rec.Code, rec.Body.String())
	}
}

// fetchImpression downloads a client's bundle and returns its first
// staged impression id.
func fetchImpression(t *testing.T, h http.Handler, client int) int64 {
	t.Helper()
	req := httptest.NewRequest("GET", fmt.Sprintf("/v1/bundle?client=%d&now_ns=60000000000", client), nil)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("bundle: %d %s", rec.Code, rec.Body.String())
	}
	var b BundleReply
	if err := json.Unmarshal(rec.Body.Bytes(), &b); err != nil {
		t.Fatal(err)
	}
	if len(b.Ads) == 0 {
		t.Fatal("empty bundle")
	}
	return b.Ads[0].ID
}

// dedupLen sums the dedup entries across shards.
func dedupLen(ss *ShardedServer) int {
	n := 0
	for _, sh := range ss.shards {
		n += len(sh.dedup.entries)
	}
	return n
}

// TestBatchIntraBatchDuplicateKey pins the per-sub-op idempotency
// property inside a single envelope: a duplicate key replays the first
// result (billing exactly once), and a key reuse with a different
// payload answers 409 without executing.
func TestBatchIntraBatchDuplicateKey(t *testing.T) {
	ss, pool := newBatchStack(t, 2, 4)
	h := ss.Handler()
	startPeriod(t, h)
	imp := fetchImpression(t, h, 0)

	now := int64(3600 * 1e9)
	code, reply := postBatch(t, h, batchMsg{Client: 0, NowNS: now, Ops: []BatchOp{
		{Op: OpReport, Key: "dup-key", Impression: imp},
		{Op: OpReport, Key: "dup-key", Impression: imp},
		{Op: OpReport, Key: "dup-key", Impression: imp + 999}, // same key, different request
	}})
	if code != http.StatusOK {
		t.Fatalf("carrier status %d", code)
	}
	if reply.Results[0].Status != http.StatusOK || reply.Results[0].Replayed {
		t.Fatalf("first op: %+v", reply.Results[0])
	}
	if reply.Results[1].Status != http.StatusOK || !reply.Results[1].Replayed {
		t.Fatalf("duplicate key not replayed: %+v", reply.Results[1])
	}
	if reply.Results[2].Status != http.StatusConflict {
		t.Fatalf("key reuse with new payload: %+v, want 409", reply.Results[2])
	}
	l := pool.Ledger()
	if l.Billed != 1 || l.FreeShows != 0 {
		t.Fatalf("duplicate sub-op double-billed: %+v", l)
	}
	if dedupLen(ss) != 1 {
		t.Fatalf("dedup holds %d entries for one key", dedupLen(ss))
	}
}

// TestBatchResendReplaysPerOp pins the envelope-replay property: a
// resent batch (same ops, same keys) replays every keyed sub-op
// individually — no side effect runs twice, and the results match the
// originals byte-for-byte.
func TestBatchResendReplaysPerOp(t *testing.T) {
	ss, pool := newBatchStack(t, 2, 4)
	h := ss.Handler()
	startPeriod(t, h)
	imp := fetchImpression(t, h, 1)

	env := batchMsg{Client: 1, NowNS: int64(3600 * 1e9), Ops: []BatchOp{
		{Op: OpSlot, Key: "rs-slot"},
		{Op: OpReport, Key: "rs-report", Impression: imp},
		{Op: OpOnDemand, Key: "rs-od", NoRescue: true},
	}}
	code1, first := postBatch(t, h, env)
	after1 := pool.Ledger()
	code2, second := postBatch(t, h, env)
	if code1 != http.StatusOK || code2 != http.StatusOK {
		t.Fatalf("carrier statuses %d, %d", code1, code2)
	}
	for i := range env.Ops {
		f, s := first.Results[i], second.Results[i]
		if f.Replayed {
			t.Fatalf("op %d replayed on first send: %+v", i, f)
		}
		if !s.Replayed {
			t.Fatalf("op %d not replayed on resend: %+v", i, s)
		}
		if s.Status != f.Status || string(s.Body) != string(f.Body) || s.Error != f.Error {
			t.Fatalf("op %d replay drift:\n first: %+v\n again: %+v", i, f, s)
		}
	}
	// The resend changed nothing: every side effect ran on send one.
	if l := pool.Ledger(); l != after1 {
		t.Fatalf("envelope resend re-executed side effects:\n after 1st: %+v\n after 2nd: %+v", after1, l)
	}
}

// TestBatchCrossPathReplay is the equivalence of the wire forms as one
// table: every op kind, delivered first on its per-op endpoint and
// retried inside an envelope and the reverse, with the envelope in each
// codec (JSON, APB1, and APB2 declaring the tenant). A keyed op is
// recognized as the same logical request on the other form — replayed
// from the one stored response, byte-identical, never re-executed and
// never a 409 — because every form reaches the same executor and
// fingerprints the same sequential request; a device may switch forms
// mid-retry. The cancellation read is the exception that proves the
// rule: keyed or not, it is executed and never stored, on both forms.
func TestBatchCrossPathReplay(t *testing.T) {
	const clients = 24 // 18 cases consume one each
	ss, h := newTenantStack(t, 2, clients)
	ss.SetTenants(mustRegistry(t, 1, []tenant.Config{
		{ID: "pubA", Lo: 0, Hi: clients / 2},
		{ID: "pubB", Lo: clients / 2, Hi: clients},
	}))
	startPeriod(t, h)
	now := int64(3600 * 1e9)

	// sequential sends the op on its own endpoint under key.
	sequential := func(client int, op BatchOp, key string) (int, bool, []byte) {
		rec := sendOp(h, client, now, op, idempotencyKeyHeader, key)
		return rec.Code, rec.Header().Get(obs.ReplayedHeader) == "true", bytes.TrimSpace(rec.Body.Bytes())
	}
	codecs := []struct {
		name string
		post func(*testing.T, http.Handler, batchMsg) (int, BatchReply)
		apb2 bool
	}{
		{"json", postBatch, false},
		{"apb1", postBatchBinary, false},
		{"apb2", postBatchBinary, true},
	}
	client := 0 // a fresh client per case: undrained shelf, unbilled impressions
	for _, kind := range envelope.Kinds {
		for _, codec := range codecs {
			for _, seqFirst := range []bool{true, false} {
				name := fmt.Sprintf("%s/%s/sequential-first=%v", kind, codec.name, seqFirst)
				if client >= clients {
					t.Fatalf("%s: out of fresh clients", name)
				}
				c, key := client, "xp-"+name
				op := BatchOp{Op: kind, Key: key}
				switch kind {
				case OpReport:
					op.Impression = fetchImpression(t, h, c)
				case OpOnDemand:
					op.NoRescue, op.Categories = true, []string{"news"}
				case OpCancelled:
					op.IDs = []int64{fetchImpression(t, h, c), 424242}
				}
				if kind != OpSlot && kind != OpOnDemand {
					client++ // slot and on-demand leave the client as they found it
				}
				env := batchMsg{Client: c, NowNS: now, Ops: []BatchOp{op}}
				if codec.apb2 {
					env.Tenant = ss.Tenants().TenantOf(c)
				}
				enveloped := func() (int, bool, []byte) {
					code, reply := codec.post(t, h, env)
					if code != http.StatusOK || len(reply.Results) != 1 {
						t.Fatalf("%s: carrier %d, %d results", name, code, len(reply.Results))
					}
					r := reply.Results[0]
					return r.Status, r.Replayed, r.Body
				}
				first, second := enveloped, func() (int, bool, []byte) { return sequential(c, op, key) }
				if seqFirst {
					first, second = second, first
				}
				before := dedupLen(ss)
				code1, replayed1, body1 := first()
				entry := ss.shardFor(c).dedup.entries[key]
				ledger := ledgerJSON(t, legacyLedger(ss))
				code2, replayed2, body2 := second()
				if code1 != http.StatusOK || code2 != http.StatusOK || replayed1 {
					t.Fatalf("%s: first send %d (replayed=%v), second %d", name, code1, replayed1, code2)
				}
				if !bytes.Equal(body1, body2) {
					t.Fatalf("%s: the forms answered different bytes:\n first:  %s\n second: %s", name, body1, body2)
				}
				if kind == OpCancelled {
					if replayed2 || dedupLen(ss) != before {
						t.Fatalf("%s: keyed read was stored or replayed (replayed=%v, %d new entries)", name, replayed2, dedupLen(ss)-before)
					}
					continue
				}
				if !replayed2 {
					t.Fatalf("%s: retry on the other form was re-executed, not replayed", name)
				}
				after := ss.shardFor(c).dedup.entries[key]
				if dedupLen(ss) != before+1 || after.payloadHash != entry.payloadHash || !bytes.Equal(after.body, entry.body) ||
					!bytes.Equal(bytes.TrimSpace(entry.body), body2) {
					t.Fatalf("%s: stored response moved: %d new entries, %q -> %q, served %q", name, dedupLen(ss)-before, entry.body, after.body, body2)
				}
				if got := ledgerJSON(t, legacyLedger(ss)); got != ledger {
					t.Fatalf("%s: the retry moved money:\n before %s\n after  %s", name, ledger, got)
				}
			}
		}
	}
}

// TestBatchPartialFailure pins the envelope's partial-failure contract:
// invalid sub-ops fail per-op while the valid ones execute, and the
// carrier still answers 200.
func TestBatchPartialFailure(t *testing.T) {
	ss, _ := newBatchStack(t, 2, 4)
	h := ss.Handler()
	startPeriod(t, h)

	code, reply := postBatch(t, h, batchMsg{Client: 0, NowNS: int64(3600 * 1e9), Ops: []BatchOp{
		{Op: OpSlot},
		{Op: "transmogrify"},
		{Op: OpSlot, Key: "bad key with spaces"},
		{Op: OpReport, Impression: 123456789}, // unknown impression
		{Op: OpCancelled, IDs: []int64{1, 2}},
	}})
	if code != http.StatusOK {
		t.Fatalf("carrier status %d, want 200 with per-op failures", code)
	}
	want := []int{200, 400, 400, 400, 200}
	for i, w := range want {
		if reply.Results[i].Status != w {
			t.Fatalf("op %d: status %d (%q), want %d", i, reply.Results[i].Status, reply.Results[i].Error, w)
		}
	}
	if reply.Results[1].Error == "" || reply.Results[2].Error == "" {
		t.Fatalf("invalid ops carry no error message: %+v", reply.Results)
	}
	if dedupLen(ss) != 0 {
		t.Fatalf("rejected sub-ops left %d dedup entries", dedupLen(ss))
	}
}

// TestBatchEnvelopeValidation pins whole-envelope rejection: an empty
// or oversized envelope answers a clean 400 and commits nothing.
func TestBatchEnvelopeValidation(t *testing.T) {
	ss, pool := newBatchStack(t, 2, 4)
	h := ss.Handler()
	startPeriod(t, h)

	if code, _ := postBatch(t, h, batchMsg{Client: 0}); code != http.StatusBadRequest {
		t.Fatalf("empty envelope: %d, want 400", code)
	}
	big := make([]BatchOp, DefaultMaxBatchOps+1)
	for i := range big {
		big[i] = BatchOp{Op: OpSlot, Key: fmt.Sprintf("k%d", i)}
	}
	if code, _ := postBatch(t, h, batchMsg{Client: 0, Ops: big}); code != http.StatusBadRequest {
		t.Fatalf("oversized envelope: %d, want 400", code)
	}
	if dedupLen(ss) != 0 {
		t.Fatalf("rejected envelope committed %d dedup entries", dedupLen(ss))
	}
	if l := pool.Ledger(); l.Billed != 0 {
		t.Fatalf("rejected envelope billed: %+v", l)
	}

	// A raised limit admits the same envelope.
	ss.MaxBatchOps = DefaultMaxBatchOps + 8
	if code, _ := postBatch(t, h, batchMsg{Client: 0, Ops: big}); code != http.StatusOK {
		t.Fatalf("envelope under raised limit: %d, want 200", code)
	}
}

// legacyLedger reads the legacy tenant's ledger view (GET
// /v1/ledger?tenant=) in-process.
func legacyLedger(ss *ShardedServer) auction.Ledger {
	l, _ := ss.execLedger(ledgerReq{byTenant: true})
	return l
}
