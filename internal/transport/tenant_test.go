package transport

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strconv"
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

// newTenantStack is newBatchStack with tenant-tagged campaigns, so
// per-tenant sales (and therefore per-tenant open books and ledgers)
// have stock to draw from. No registry is installed — tests install the
// table they need via SetTenants or the admin endpoint.
func newTenantStack(t *testing.T, shards, clients int) (*ShardedServer, http.Handler) {
	t.Helper()
	cfg := adserver.DefaultConfig()
	cfg.Period = time.Hour
	cfg.Overbook.FixedReplicas = 1
	cfg.Overbook.AdmissionEpsilon = 0.45
	cfg.ReportLatency = 0
	ids := make([]int, clients)
	for i := range ids {
		ids[i] = i
	}
	pool, err := shard.New(shards, cfg, ids,
		func(int) (*auction.Exchange, error) {
			return auction.NewExchange([]auction.Campaign{
				{ID: 0, Name: "acme", BidCPM: 2000, BudgetUSD: 1e6},
				{ID: 1, Name: "pubA-brand", BidCPM: 1500, BudgetUSD: 1e6, Tenant: "pubA"},
				{ID: 2, Name: "pubB-brand", BidCPM: 1000, BudgetUSD: 1e6, Tenant: "pubB"},
			}, 0.0001)
		},
		func(int) predict.Predictor {
			return constPredictor{est: predict.Estimate{Slots: 2, Mean: 2, NoShowProb: 0.1}}
		}, nil)
	if err != nil {
		t.Fatal(err)
	}
	ss := NewShardedServer(pool)
	return ss, ss.Handler()
}

// mustRegistry builds a registry or fails the test.
func mustRegistry(t *testing.T, epoch uint64, cfgs []tenant.Config) *tenant.Registry {
	t.Helper()
	reg, err := tenant.NewRegistry(epoch, cfgs)
	if err != nil {
		t.Fatal(err)
	}
	return reg
}

// postOnDemand sends one raw on-demand request (no idempotency key, no
// rescue) and returns the status code plus the Retry-After header.
func postOnDemand(t *testing.T, h http.Handler, client int, nowNS int64) (int, string) {
	t.Helper()
	body := fmt.Sprintf(`{"client":%d,"now_ns":%d,"no_rescue":true}`, client, nowNS)
	req := httptest.NewRequest("POST", "/v1/ondemand", strings.NewReader(body))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec.Code, rec.Header().Get("Retry-After")
}

// getHealth decodes the /v1/health reply.
func getHealth(t *testing.T, h http.Handler) HealthReply {
	t.Helper()
	req := httptest.NewRequest("GET", "/v1/health", nil)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("health: %d %s", rec.Code, rec.Body.String())
	}
	var reply HealthReply
	if err := json.Unmarshal(rec.Body.Bytes(), &reply); err != nil {
		t.Fatal(err)
	}
	return reply
}

// tenantSection pulls one tenant's health section by id.
func tenantSection(t *testing.T, reply HealthReply, id string) TenantHealth {
	t.Helper()
	for _, th := range reply.Tenants {
		if th.Tenant == id {
			return th
		}
	}
	t.Fatalf("no health section for tenant %q in %+v", id, reply.Tenants)
	return TenantHealth{}
}

// TestRetryAfterSecsScaling pins the shed back-pressure curve: one
// second at or under the bound, growing linearly with the overshoot,
// capped at eight.
func TestRetryAfterSecsScaling(t *testing.T) {
	cases := []struct{ open, max, want int }{
		{0, 8, 1},   // empty book
		{8, 8, 1},   // exactly at the bound
		{5, 0, 1},   // no bound configured
		{9, 8, 1},   // barely over: overshoot*2/max rounds to 0
		{12, 8, 2},  // 50% over
		{16, 8, 3},  // 100% over
		{48, 8, 8},  // deep overload hits the cap
		{100, 4, 8}, // cap holds regardless of ratio
	}
	for _, c := range cases {
		if got := retryAfterSecs(c.open, c.max); got != c.want {
			t.Errorf("retryAfterSecs(%d, %d) = %d, want %d", c.open, c.max, got, c.want)
		}
	}
}

// TestTenantAdmissionTokenBucket drives one tenant's token bucket to
// exhaustion over live HTTP: the third request inside the burst window
// is answered 429 with the bucket's computed Retry-After, a neighbor
// tenant is untouched, virtual time refills the bucket, and the
// per-tenant health counters account for every decision.
func TestTenantAdmissionTokenBucket(t *testing.T) {
	ss, h := newTenantStack(t, 1, 8)
	ss.SetTenants(mustRegistry(t, 1, []tenant.Config{
		{ID: "pubA", Lo: 0, Hi: 4},
		{ID: "pubB", Lo: 4, Hi: 8, RatePerSec: 1, Burst: 2},
	}))

	// Burst admits two; the third sheds. At rate 1/s with an empty
	// bucket the deficit is one token: Retry-After = int(1/1)+1 = 2.
	for i := 0; i < 2; i++ {
		if code, _ := postOnDemand(t, h, 4, 0); code != http.StatusOK {
			t.Fatalf("burst request %d: %d", i, code)
		}
	}
	code, ra := postOnDemand(t, h, 4, 0)
	if code != http.StatusTooManyRequests || ra != "2" {
		t.Fatalf("exhausted bucket: got %d Retry-After %q, want 429 %q", code, ra, "2")
	}

	// The neighbor's unlimited tenant is not collateral damage.
	if code, _ := postOnDemand(t, h, 0, 0); code != http.StatusOK {
		t.Fatalf("pubA request during pubB shed: %d", code)
	}

	// Five virtual seconds refill the bucket (capped at burst).
	if code, _ := postOnDemand(t, h, 4, 5e9); code != http.StatusOK {
		t.Fatalf("refilled bucket: %d", code)
	}

	health := getHealth(t, h)
	if health.ConfigEpoch != 1 {
		t.Fatalf("config epoch %d, want 1", health.ConfigEpoch)
	}
	pubB := tenantSection(t, health, "pubB")
	if pubB.Admitted != 3 || pubB.Shed != 1 {
		t.Fatalf("pubB admission counters: admitted %d shed %d, want 3/1", pubB.Admitted, pubB.Shed)
	}
	pubA := tenantSection(t, health, "pubA")
	if pubA.Admitted != 1 || pubA.Shed != 0 {
		t.Fatalf("pubA admission counters: admitted %d shed %d, want 1/0", pubA.Admitted, pubA.Shed)
	}
}

// TestTenantOpenBookBound tightens one tenant's open-book bound below
// its live book via a config epoch and requires the next sale-growing
// request to shed with the pressure-scaled Retry-After — the per-tenant
// analogue of the global shed path, reloaded without a restart.
func TestTenantOpenBookBound(t *testing.T) {
	// One shard: the bound is enforced against the serving shard's book,
	// so a single shard makes the health view equal the enforced value.
	ss, h := newTenantStack(t, 1, 8)
	table := []tenant.Config{
		{ID: "pubA", Lo: 0, Hi: 4},
		{ID: "pubB", Lo: 4, Hi: 8},
	}
	ss.SetTenants(mustRegistry(t, 1, table))
	startPeriod(t, h)

	open := tenantSection(t, getHealth(t, h), "pubB").OpenBook
	if open < 2 {
		t.Fatalf("period start left pubB's book too small to bound: %d", open)
	}

	// Epoch 2: same ranges, but pubB may hold at most one open
	// impression — it is already far over.
	bounded := []tenant.Config{table[0], {ID: "pubB", Lo: 4, Hi: 8, MaxOpenBook: 1}}
	reply, err := ss.ApplyConfig(ConfigMsg{Epoch: 2, Tenants: bounded})
	if err != nil || !reply.Applied || reply.Epoch != 2 {
		t.Fatalf("tightening epoch: %+v, %v", reply, err)
	}

	code, ra := postOnDemand(t, h, 4, 0)
	if code != http.StatusTooManyRequests {
		t.Fatalf("over-book tenant admitted: %d", code)
	}
	if want := strconv.Itoa(retryAfterSecs(open, 1)); ra != want {
		t.Fatalf("open-book Retry-After %q, want %q (open %d, max 1)", ra, want, open)
	}
	// pubA's bound is unset; its sales proceed.
	if code, _ := postOnDemand(t, h, 0, 0); code != http.StatusOK {
		t.Fatalf("pubA request while pubB over book: %d", code)
	}
}

// TestTenantWireHeaderMismatch pins the 403 guard: a declared tenant
// that contradicts the registry's client attribution is refused before
// anything executes; the matching declaration and the legacy bare wire
// both pass.
func TestTenantWireHeaderMismatch(t *testing.T) {
	ss, h := newTenantStack(t, 1, 8)
	ss.SetTenants(mustRegistry(t, 1, []tenant.Config{
		{ID: "pubA", Lo: 0, Hi: 4},
		{ID: "pubB", Lo: 4, Hi: 8},
	}))
	startPeriod(t, h)

	get := func(hdr string) int {
		req := httptest.NewRequest("GET", "/v1/bundle?client=0&now_ns=60000000000", nil)
		if hdr != "" {
			req.Header.Set(TenantHeader, hdr)
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		return rec.Code
	}
	if code := get("pubB"); code != http.StatusForbidden {
		t.Fatalf("mismatched tenant header: %d, want 403", code)
	}
	if code := get("pubA"); code != http.StatusOK {
		t.Fatalf("matching tenant header: %d", code)
	}
	if code := get(""); code != http.StatusOK {
		t.Fatalf("legacy bare request: %d", code)
	}
}

// TestTenantEnvelopeMismatch refuses a whole batch envelope when any
// sub-op's effective client belongs to a different tenant than the
// envelope declares — nothing executes, so the refused op's key is
// still fresh afterwards.
func TestTenantEnvelopeMismatch(t *testing.T) {
	ss, h := newTenantStack(t, 1, 8)
	ss.SetTenants(mustRegistry(t, 1, []tenant.Config{
		{ID: "pubA", Lo: 0, Hi: 4},
		{ID: "pubB", Lo: 4, Hi: 8},
	}))
	startPeriod(t, h)

	// Envelope client vs declaration.
	code, _ := postBatch(t, h, batchMsg{Client: 4, NowNS: 0, Tenant: "pubA",
		Ops: []BatchOp{{Op: OpSlot, Key: "s1"}}})
	if code != http.StatusForbidden {
		t.Fatalf("mismatched envelope tenant: %d, want 403", code)
	}
	// A per-op client override crossing the boundary poisons the whole
	// envelope, including the otherwise-valid first op.
	cross := 4
	code, _ = postBatch(t, h, batchMsg{Client: 0, NowNS: 0, Tenant: "pubA",
		Ops: []BatchOp{{Op: OpSlot, Key: "s2"}, {Op: OpSlot, Key: "s3", Client: &cross}}})
	if code != http.StatusForbidden {
		t.Fatalf("cross-tenant op override: %d, want 403", code)
	}
	// The refused ops never executed: their keys replay nothing.
	code, reply := postBatch(t, h, batchMsg{Client: 0, NowNS: 0, Tenant: "pubA",
		Ops: []BatchOp{{Op: OpSlot, Key: "s2"}}})
	if code != http.StatusOK || len(reply.Results) != 1 || reply.Results[0].Replayed {
		t.Fatalf("key from refused envelope was not fresh: %d %+v", code, reply.Results)
	}
}

// TestConfigEpochIdempotent drives the admin endpoint through the retry
// contract: a fresh epoch applies, a repeat acknowledges without
// effect, a stale epoch is a no-op, and an invalid table is refused
// without moving the epoch.
func TestConfigEpochIdempotent(t *testing.T) {
	ss, h := newTenantStack(t, 2, 8)
	table := []tenant.Config{
		{ID: "pubA", Lo: 0, Hi: 4},
		{ID: "pubB", Lo: 4, Hi: 8, RatePerSec: 2, Burst: 4},
	}
	post := func(msg ConfigMsg) (int, ConfigReply) {
		body, err := json.Marshal(msg)
		if err != nil {
			t.Fatal(err)
		}
		req := httptest.NewRequest("POST", "/v1/admin/config", strings.NewReader(string(body)))
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		var reply ConfigReply
		if rec.Code == http.StatusOK {
			if err := json.Unmarshal(rec.Body.Bytes(), &reply); err != nil {
				t.Fatal(err)
			}
		}
		return rec.Code, reply
	}

	code, reply := post(ConfigMsg{Epoch: 1, Tenants: table})
	if code != http.StatusOK || !reply.Applied || reply.Epoch != 1 || reply.Tenants != 2 {
		t.Fatalf("first epoch: %d %+v", code, reply)
	}
	if ss.ConfigEpoch() != 1 {
		t.Fatalf("config epoch %d after apply", ss.ConfigEpoch())
	}
	// The retry of a lost ack: same epoch, acknowledged, not reapplied.
	code, reply = post(ConfigMsg{Epoch: 1, Tenants: table})
	if code != http.StatusOK || reply.Applied || reply.Epoch != 1 || reply.Tenants != 2 {
		t.Fatalf("repeated epoch: %d %+v", code, reply)
	}
	// A stale epoch (an old controller catching up) is a no-op too.
	code, reply = post(ConfigMsg{Epoch: 0, Tenants: nil})
	if code != http.StatusOK || reply.Applied || reply.Epoch != 1 {
		t.Fatalf("stale epoch: %d %+v", code, reply)
	}
	// An invalid table (overlapping ranges) is refused; nothing moves.
	code, _ = post(ConfigMsg{Epoch: 2, Tenants: []tenant.Config{
		{ID: "a", Lo: 0, Hi: 10}, {ID: "b", Lo: 5, Hi: 15},
	}})
	if code != http.StatusBadRequest || ss.ConfigEpoch() != 1 {
		t.Fatalf("overlapping table: %d, epoch %d", code, ss.ConfigEpoch())
	}
	code, reply = post(ConfigMsg{Epoch: 2, Tenants: table})
	if code != http.StatusOK || !reply.Applied || reply.Epoch != 2 {
		t.Fatalf("next epoch: %d %+v", code, reply)
	}
	if got := getHealth(t, h).ConfigEpoch; got != 2 {
		t.Fatalf("health config_epoch %d, want 2", got)
	}
}

// TestLedgerTenantViews drives sales across two tenants and a legacy
// remainder, then requires the per-tenant /v1/ledger views to partition
// the aggregate exactly. An unknown tenant is 404, and the bare query
// keeps the pre-tenant aggregate bytes.
func TestLedgerTenantViews(t *testing.T) {
	ss, h := newTenantStack(t, 2, 8)
	// Clients 6 and 7 belong to no tenant: they exercise the legacy
	// slice of a tenanted server.
	ss.SetTenants(mustRegistry(t, 1, []tenant.Config{
		{ID: "pubA", Lo: 0, Hi: 4},
		{ID: "pubB", Lo: 4, Hi: 6},
	}))
	startPeriod(t, h)
	for c := 0; c < 8; c++ {
		if code, _ := postOnDemand(t, h, c, int64(c+1)*1e9); code != http.StatusOK {
			t.Fatalf("ondemand client %d: %d", c, code)
		}
	}

	get := func(query string) (int, auction.Ledger) {
		req := httptest.NewRequest("GET", "/v1/ledger"+query, nil)
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		var l auction.Ledger
		if rec.Code == http.StatusOK {
			if err := json.Unmarshal(rec.Body.Bytes(), &l); err != nil {
				t.Fatal(err)
			}
		}
		return rec.Code, l
	}
	_, total := get("")
	if total.Sold == 0 {
		t.Fatal("aggregate ledger inert")
	}
	var sum auction.Ledger
	for _, q := range []string{"?tenant=pubA", "?tenant=pubB", "?tenant="} {
		code, l := get(q)
		if code != http.StatusOK {
			t.Fatalf("ledger %s: %d", q, code)
		}
		sum.Add(l)
	}
	sumJS, _ := json.Marshal(sum)
	totalJS, _ := json.Marshal(total)
	if string(sumJS) != string(totalJS) {
		t.Fatalf("tenant views do not partition the aggregate:\n views: %s\n total: %s", sumJS, totalJS)
	}
	if code, _ := get("?tenant=nobody"); code != http.StatusNotFound {
		t.Fatalf("unknown tenant view: %d, want 404", code)
	}
}

// TestBatchTenantCodecEquivalence is TestBinaryBatchEndToEnd for the
// tenant-carrying envelope: the APB2 frame and the JSON envelope must
// produce byte-identical sub-op results on identical tenanted stacks,
// and only a declared tenant switches the frame magic off APB1.
func TestBatchTenantCodecEquivalence(t *testing.T) {
	frame, err := envelope.AppendMsg(nil, batchMsg{Client: 4, Tenant: "pubB",
		Ops: []BatchOp{{Op: OpSlot}}})
	if err != nil {
		t.Fatal(err)
	}
	if string(frame[:4]) != "APB2" {
		t.Fatalf("tenant envelope magic %q, want APB2", frame[:4])
	}
	frame, err = envelope.AppendMsg(nil, batchMsg{Client: 4, Ops: []BatchOp{{Op: OpSlot}}})
	if err != nil {
		t.Fatal(err)
	}
	if string(frame[:4]) != "APB1" {
		t.Fatalf("legacy envelope magic %q, want APB1", frame[:4])
	}

	run := func(post func(*testing.T, http.Handler, batchMsg) (int, BatchReply)) BatchReply {
		ss, h := newTenantStack(t, 2, 8)
		ss.SetTenants(mustRegistry(t, 1, []tenant.Config{
			{ID: "pubA", Lo: 0, Hi: 4},
			{ID: "pubB", Lo: 4, Hi: 8},
		}))
		startPeriod(t, h)
		code, reply := post(t, h, batchMsg{Client: 4, NowNS: 60e9, Tenant: "pubB", Ops: []BatchOp{
			{Op: OpBundle, Key: "b1"},
			{Op: OpSlot, Key: "s1"},
			{Op: OpOnDemand, Key: "o1", NoRescue: true},
		}})
		if code != http.StatusOK {
			t.Fatalf("tenant batch: %d", code)
		}
		return reply
	}
	js := run(postBatch)
	bin := run(postBatchBinary)
	if len(js.Results) != len(bin.Results) {
		t.Fatalf("result counts differ: %d json vs %d binary", len(js.Results), len(bin.Results))
	}
	for i := range js.Results {
		j, b := js.Results[i], bin.Results[i]
		if j.Op != b.Op || j.Status != b.Status || j.Error != b.Error || string(j.Body) != string(b.Body) {
			t.Fatalf("result %d differs across codecs:\n json:   %+v %s\n binary: %+v %s",
				i, j, j.Body, b, b.Body)
		}
	}
}

// TestClientRetryAfterFloor pins the client half of the back-pressure
// contract on every carrier the client has: a 429's Retry-After is a
// floor under the retry policy's own exponential backoff, visible in the
// virtual backoff the fleet counter accumulates. The coordinator is shed
// once by a bare handler. The devices observe a slot that a ShardedServer
// past its open-book bound sheds on every attempt — as a per-op request,
// and as a sub-op of a JSON or a binary envelope — and must retry it
// alike: every wait floored, and the same counters on all three.
func TestClientRetryAfterFloor(t *testing.T) {
	// A shed exchange as the client saw it: its counters, the server's
	// hint, how many retries that hint floors, and how many 429s it got.
	type shedRun struct {
		net           NetCounters
		hint          time.Duration
		floored, shed int
	}
	attempts := DefaultRetryPolicy().MaxAttempts
	shedSlot := func(t *testing.T, reg *obs.Registry, opts ...Option) shedRun {
		s := newWireSession(t)
		startPeriod(t, s.h)
		s.ss.MaxOpenBook = 1 // the open book is past it: every observation is shed
		rec := s.do("probe", "POST", "/v1/slot", `{"client":1,"now_ns":0}`)
		hint, err := strconv.Atoi(rec.Header().Get("Retry-After"))
		if rec.Code != http.StatusTooManyRequests || err != nil || hint < 1 {
			t.Fatalf("probe: %d, Retry-After %q", rec.Code, rec.Header().Get("Retry-After"))
		}
		opts = append(opts, WithHTTPClient(&http.Client{Transport: &wireRecorder{h: s.h}}), WithRegistry(reg))
		dev, err := NewDevice(0, 8, "http://adserver.test/", opts...)
		if err != nil {
			t.Fatal(err)
		}
		if err := dev.ObserveSlot(60e9); err != nil {
			t.Fatal(err)
		}
		return shedRun{dev.Net(), time.Duration(hint) * time.Second, attempts - 1, attempts}
	}
	var devices []NetCounters
	for _, tc := range []struct {
		name string
		run  func(*testing.T, *obs.Registry) shedRun
	}{
		{"coordinator", func(t *testing.T, reg *obs.Registry) shedRun {
			var calls int
			ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				calls++
				if calls == 1 {
					w.Header().Set("Retry-After", "7")
					w.WriteHeader(http.StatusTooManyRequests)
					fmt.Fprintln(w, "tenant over admission rate")
					return
				}
				fmt.Fprintln(w, "{}")
			}))
			defer ts.Close()
			coord := NewCoordinator(ts.URL, WithHTTPClient(ts.Client()), WithRegistry(reg))
			if _, err := coord.Ledger(); err != nil {
				t.Fatalf("ledger after one shed: %v", err)
			}
			if calls != 2 {
				t.Fatalf("expected one retry, saw %d calls", calls)
			}
			return shedRun{coord.Net(), 7 * time.Second, 1, 1}
		}},
		{"per-op device", func(t *testing.T, reg *obs.Registry) shedRun { return shedSlot(t, reg) }},
		{"json-envelope device", func(t *testing.T, reg *obs.Registry) shedRun {
			return shedSlot(t, reg, WithBatching())
		}},
		{"binary-envelope device", func(t *testing.T, reg *obs.Registry) shedRun {
			return shedSlot(t, reg, WithBatching(), WithBinaryBatch())
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			reg := obs.NewRegistry()
			r := tc.run(t, reg)
			// The policy's own backoff starts at 2s (±20% jitter); the
			// server asked for more. Every floored wait must honor the ask.
			if got, want := reg.Counter("client_backoff_virtual_ns_total").Value(), int64(r.floored)*int64(r.hint); got < want {
				t.Errorf("virtual backoff %v is under the %v Retry-After floor on %d retries (%v)",
					time.Duration(got), r.hint, r.floored, time.Duration(want))
			}
			if got := reg.Counter("client_shed_total").Value(); got != int64(r.shed) || r.net.Shed != int64(r.shed) {
				t.Errorf("client shed counter %d, net %+v; want %d sheds", got, r.net, r.shed)
			}
			if tc.name != "coordinator" {
				devices = append(devices, r.net)
			}
		})
	}
	for i := 1; i < len(devices); i++ {
		if devices[i] != devices[0] {
			t.Errorf("the carriers count one shed exchange differently:\n per-op:   %+v\n envelope: %+v", devices[0], devices[i])
		}
	}
}
