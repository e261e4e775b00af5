package transport

import (
	"bytes"
	"encoding/json"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"
	"unicode/utf8"

	"repro/internal/adserver"
	"repro/internal/auction"
	"repro/internal/envelope"
	"repro/internal/predict"
	"repro/internal/shard"
)

// Fuzz targets for the wire layer: whatever bytes arrive, handlers must
// answer 2xx/4xx (never panic, never 5xx), and the DTOs must round-trip
// JSON losslessly. Seeds execute as regular unit tests; explore with
// `go test -fuzz=FuzzHandlers ./internal/transport`.

// fuzzHandler builds a small sharded stack once per fuzz process.
func fuzzHandler(f *testing.F) *ShardedServer {
	f.Helper()
	cfg := adserver.DefaultConfig()
	cfg.Period = time.Hour
	ids := []int{0, 1, 2, 3}
	pool, err := shard.New(2, cfg, ids,
		func(int) (*auction.Exchange, error) {
			return auction.NewExchange([]auction.Campaign{
				{ID: 0, Name: "acme", BidCPM: 2000, BudgetUSD: 1e6},
			}, 0.0001)
		},
		func(int) predict.Predictor {
			return constPredictor{est: predict.Estimate{Slots: 2, Mean: 2, NoShowProb: 0.1}}
		}, nil)
	if err != nil {
		f.Fatal(err)
	}
	return NewShardedServer(pool)
}

// FuzzHandlersPost throws arbitrary bodies at every POST endpoint.
func FuzzHandlersPost(f *testing.F) {
	ss := fuzzHandler(f)
	h := ss.Handler()
	paths := []string{"/v1/period/start", "/v1/period/end", "/v1/slot", "/v1/report", "/v1/ondemand"}

	f.Add(`{"client":0,"now_ns":60000000000}`)
	f.Add(`{"client":-1,"now_ns":-9223372036854775808}`)
	f.Add(`{"client":999999,"impression":99999,"now_ns":0}`)
	f.Add(`{"now_ns":0,"index":0,"of_day":0,"weekend":false}`)
	f.Add(`{"client":0,"categories":["social","zzz"],"no_rescue":true}`)
	f.Add(`{not json`)
	f.Add("")
	f.Add(`null`)
	f.Add(`{"client":1e300}`)

	f.Fuzz(func(t *testing.T, body string) {
		for _, p := range paths {
			req := httptest.NewRequest("POST", p, strings.NewReader(body))
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, req)
			if rec.Code >= 500 {
				t.Fatalf("POST %s with %q: status %d", p, body, rec.Code)
			}
		}
	})
}

// FuzzHandlersQuery throws arbitrary query strings at the GET endpoints.
func FuzzHandlersQuery(f *testing.F) {
	ss := fuzzHandler(f)
	h := ss.Handler()

	f.Add("client=0&now_ns=0&ids=1,2,3")
	f.Add("client=abc&now_ns=zzz&ids=,,")
	f.Add("ids=1&now_ns=0")
	f.Add("client=-9223372036854775808&now_ns=9223372036854775807&ids=-1")
	f.Add("")
	f.Add("client=2&now_ns=0&ids=" + strconv.FormatInt(1<<62, 10))

	f.Fuzz(func(t *testing.T, query string) {
		for _, p := range []string{"/v1/bundle", "/v1/cancelled"} {
			// Set RawQuery directly so arbitrary bytes reach the handler's
			// own parsing instead of panicking httptest's URL parser.
			req := httptest.NewRequest("GET", p, nil)
			req.URL.RawQuery = query
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, req)
			if rec.Code >= 500 {
				t.Fatalf("GET %s?%s: status %d", p, query, rec.Code)
			}
		}
	})
}

// FuzzIdempotencyKey throws arbitrary Idempotency-Key headers (and
// repeated sends under them) at the mutating endpoints: malformed keys
// must 400, valid keys must never 5xx, and a duplicate send must never
// apply its side effects twice — the slot-observation count is the
// witness.
func FuzzIdempotencyKey(f *testing.F) {
	f.Add("k1", `{"client":0,"now_ns":60000000000}`)
	f.Add("", `{"client":1,"now_ns":0}`)
	f.Add(strings.Repeat("x", 129), `{"client":0,"now_ns":0}`)
	f.Add("has space", `{"client":2,"now_ns":0}`)
	f.Add("tab\tkey", `{"client":3,"now_ns":0}`)
	f.Add("ünïcode", `{"client":0,"now_ns":0}`)
	f.Add("ok-key_123", `{not json`)
	f.Add("dup", `{"client":1,"impression":5,"now_ns":1}`)

	f.Fuzz(func(t *testing.T, key, body string) {
		// A fresh stack per input: slot counts must start from zero for
		// the double-effect check.
		ex, err := auction.NewExchange([]auction.Campaign{
			{ID: 0, Name: "acme", BidCPM: 2000, BudgetUSD: 1e6},
		}, 0.0001)
		if err != nil {
			t.Fatal(err)
		}
		cfg := adserver.DefaultConfig()
		cfg.Period = time.Hour
		srv, err := adserver.New(cfg, ex, []int{0, 1, 2, 3}, func(int) predict.Predictor {
			return constPredictor{est: predict.Estimate{Slots: 2, Mean: 2, NoShowProb: 0.1}}
		}, nil)
		if err != nil {
			t.Fatal(err)
		}
		ss := newSharded([]*adserver.Server{srv}, func(int) int { return 0 })
		h := ss.Handler()

		send := func(p string) int {
			req := httptest.NewRequest("POST", p, strings.NewReader(body))
			if key != "" {
				req.Header.Set(idempotencyKeyHeader, key)
			}
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, req)
			return rec.Code
		}
		for _, p := range []string{"/v1/slot", "/v1/report", "/v1/ondemand", "/v1/period/start", "/v1/period/end"} {
			first := send(p)
			if first >= 500 {
				t.Fatalf("POST %s key %q body %q: status %d", p, key, body, first)
			}
			if key != "" && !validIdemKey(key) && first != 400 {
				t.Fatalf("POST %s: malformed key %q accepted with %d", p, key, first)
			}
			// The duplicate must answer without re-executing; for keyed
			// requests the status must replay exactly.
			second := send(p)
			if second >= 500 {
				t.Fatalf("duplicate POST %s key %q: status %d", p, key, second)
			}
			if key != "" && validIdemKey(key) && second != first {
				t.Fatalf("POST %s key %q: replayed status %d != original %d", p, key, second, first)
			}
		}
		// Double-effect witness: however many sends happened, a valid
		// keyed slot observation counts at most once per distinct key —
		// here every endpoint reused one key, so at most one observation.
		var msg slotMsg
		if key != "" && validIdemKey(key) && json.Unmarshal([]byte(body), &msg) == nil {
			if got := srv.Predictor(msg.Client); got != nil {
				// Slot counts are internal; re-sending /v1/slot twice under
				// one key must not have counted twice. The dedup store is
				// the observable: exactly one entry per key.
				if n := len(ss.shards[0].dedup.entries); n > 1 {
					t.Fatalf("dedup store holds %d entries for one key", n)
				}
			}
		}
	})
}

// FuzzWireRoundTrip checks the DTOs survive an encode/decode cycle
// bit-for-bit: what the device sends is what the server acts on.
func FuzzWireRoundTrip(f *testing.F) {
	f.Add(0, int64(0), int64(0), 0, false, "social", true)
	f.Add(-1, int64(-1), int64(1<<62), 23, true, "", false)
	f.Add(1<<31, int64(1)<<62, int64(-1)<<62, -5, false, "zzz,weird", true)

	f.Fuzz(func(t *testing.T, clientID int, nowNS, imp int64, idx int, weekend bool, cat string, noRescue bool) {
		if !utf8.ValidString(cat) {
			// JSON carries text: an invalid byte is marshaled as U+FFFD and
			// comes back as that rune, so only valid UTF-8 is byte-stable
			// (found by the first `make fuzz`).
			t.Skip()
		}
		check := func(in, out any) {
			t.Helper()
			b, err := json.Marshal(in)
			if err != nil {
				t.Fatal(err)
			}
			if err := json.Unmarshal(b, out); err != nil {
				t.Fatalf("decoding %s: %v", b, err)
			}
			b2, err := json.Marshal(out)
			if err != nil {
				t.Fatal(err)
			}
			if string(b) != string(b2) {
				t.Fatalf("round trip drift: %s -> %s", b, b2)
			}
		}
		check(periodMsg{NowNS: nowNS, Index: idx, OfDay: idx % 24, Weekend: weekend}, &periodMsg{})
		check(slotMsg{Client: clientID, NowNS: nowNS}, &slotMsg{})
		check(reportMsg{Client: clientID, Impression: imp, NowNS: nowNS}, &reportMsg{})
		check(onDemandMsg{Client: clientID, NowNS: nowNS, Categories: []string{cat}, NoRescue: noRescue}, &onDemandMsg{})
		check(AdMsg{ID: imp, DeadlineNS: nowNS, Tie: uint64(imp)}, &AdMsg{})
	})
}

// FuzzBatchDecode throws arbitrary envelopes at POST /v1/batch: the
// server must answer per-op errors or a clean 400 — never panic, never
// 5xx — and a rejected envelope must commit nothing.
func FuzzBatchDecode(f *testing.F) {
	f.Add(`{"client":0,"now_ns":0,"ops":[{"op":"slot","key":"k1"},{"op":"bundle"}]}`)
	f.Add(`{"client":0,"ops":[]}`)
	f.Add(`{"ops":[{"op":"transmogrify"},{"op":"slot"},{"op":"report","impression":-1}]}`)
	f.Add(`{"ops":[{"op":"slot","key":"bad key"},{"op":"ondemand","categories":["x"],"no_rescue":true}]}`)
	f.Add(`{"client":1,"ops":[{"op":"cancelled","ids":[1,2,3]},{"op":"slot","client":-5,"now_ns":-1}]}`)
	f.Add(`{"ops":[` + strings.Repeat(`{"op":"slot"},`, 128) + `{"op":"slot"}]}`)
	f.Add(`{not json`)
	f.Add(`null`)
	f.Add(``)
	f.Add(`{"ops":[{"op":"report","key":"k","client":999999,"impression":1e300}]}`)

	f.Fuzz(func(t *testing.T, body string) {
		// A fresh stack per input: the no-partial-commit check needs a
		// dedup store that starts empty.
		ex, err := auction.NewExchange([]auction.Campaign{
			{ID: 0, Name: "acme", BidCPM: 2000, BudgetUSD: 1e6},
		}, 0.0001)
		if err != nil {
			t.Fatal(err)
		}
		cfg := adserver.DefaultConfig()
		cfg.Period = time.Hour
		srv, err := adserver.New(cfg, ex, []int{0, 1, 2, 3}, func(int) predict.Predictor {
			return constPredictor{est: predict.Estimate{Slots: 2, Mean: 2, NoShowProb: 0.1}}
		}, nil)
		if err != nil {
			t.Fatal(err)
		}
		ss := newSharded([]*adserver.Server{srv}, func(int) int { return 0 })
		h := ss.Handler()

		req := httptest.NewRequest("POST", "/v1/batch", strings.NewReader(body))
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code >= 500 {
			t.Fatalf("POST /v1/batch with %q: status %d", body, rec.Code)
		}
		if rec.Code != 200 {
			// A rejected envelope commits nothing: no dedup entries, no
			// money moved.
			if n := len(ss.shards[0].dedup.entries); n != 0 {
				t.Fatalf("rejected envelope (%d) left %d dedup entries", rec.Code, n)
			}
			if l := ex.Ledger(); l.Billed != 0 || l.Sold != 0 {
				t.Fatalf("rejected envelope (%d) moved money: %+v", rec.Code, l)
			}
			return
		}
		// A 200 carrier answers exactly one result per op, statuses in the
		// sequential endpoints' range.
		var env batchMsg
		if json.Unmarshal([]byte(body), &env) != nil {
			t.Fatalf("carrier 200 for an undecodable envelope %q", body)
		}
		var reply BatchReply
		if err := json.Unmarshal(rec.Body.Bytes(), &reply); err != nil {
			t.Fatalf("undecodable batch reply %q: %v", rec.Body.String(), err)
		}
		if len(reply.Results) != len(env.Ops) {
			t.Fatalf("%d results for %d ops", len(reply.Results), len(env.Ops))
		}
		for i, r := range reply.Results {
			if r.Status >= 500 {
				t.Fatalf("op %d answered %d: %+v", i, r.Status, r)
			}
		}
	})
}

// FuzzBinaryBatchDecode throws arbitrary bytes at POST /v1/batch under
// the binary Content-Type: whatever the frame decoder makes of them, the
// handler answers 2xx/4xx, never 5xx. (The decoders' own accept/reject
// and re-encode stability properties are fuzzed beside the codec:
// envelope.FuzzFrameDecode, same seeds.)
func FuzzBinaryBatchDecode(f *testing.F) {
	ss := fuzzHandler(f)
	h := ss.Handler()

	cl, now := 9, int64(70)
	if frame, err := envelope.AppendMsg(nil, batchMsg{Client: 5, NowNS: 60, Ops: []BatchOp{
		{Op: OpSlot, Key: "k1"},
		{Op: OpReport, Key: "k2", Client: &cl, Impression: 77},
		{Op: OpOnDemand, NowNS: &now, NoRescue: true, Categories: []string{"news"}},
		{Op: OpCancelled, IDs: []int64{1, 2}},
		{Op: OpBundle, Key: "k5"},
	}}); err == nil {
		f.Add(frame)
	}
	f.Add(envelope.AppendReply(nil, []BatchOpResult{{Op: OpSlot, Status: 200, Body: json.RawMessage(`{}`)}}))
	f.Add([]byte("APB1"))
	f.Add([]byte("APR1"))
	f.Add([]byte{})
	f.Add([]byte(`{"client":0,"now_ns":0,"ops":[{"op":"slot"}]}`))

	f.Fuzz(func(t *testing.T, data []byte) {
		req := httptest.NewRequest("POST", "/v1/batch", bytes.NewReader(data))
		req.Header.Set("Content-Type", BinaryBatchContentType)
		req.Header.Set(VersionHeader, "1;bin")
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code >= 500 {
			t.Fatalf("binary /v1/batch answered %d for %d-byte body", rec.Code, len(data))
		}
	})
}
