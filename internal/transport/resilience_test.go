package transport

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/adserver"
	"repro/internal/auction"
	"repro/internal/faults"
	"repro/internal/predict"
	"repro/internal/radio"
	"repro/internal/simclock"
)

// newResilienceStack builds a single-shard stack whose handler can be
// wrapped (fault middleware, outage toggles) and whose ShardedServer is
// exposed for shedding configuration.
func newResilienceStack(t *testing.T, clients int, wrap func(http.Handler) http.Handler) (*httptest.Server, *ShardedServer, *auction.Exchange) {
	t.Helper()
	ex, err := auction.NewExchange([]auction.Campaign{
		{ID: 0, Name: "acme", BidCPM: 2000, BudgetUSD: 1e6},
		{ID: 1, Name: "globex", BidCPM: 1000, BudgetUSD: 1e6},
	}, 0.0001)
	if err != nil {
		t.Fatal(err)
	}
	cfg := adserver.DefaultConfig()
	cfg.Period = time.Hour
	cfg.Overbook.FixedReplicas = 1
	cfg.Overbook.AdmissionEpsilon = 0.45
	cfg.ReportLatency = 0
	cfg.SyncDelay = time.Second
	ids := make([]int, clients)
	for i := range ids {
		ids[i] = i
	}
	srv, err := adserver.New(cfg, ex, ids, func(int) predict.Predictor {
		return constPredictor{est: predict.Estimate{Slots: 2, Mean: 2, NoShowProb: 0.1}}
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	sh := newSharded([]*adserver.Server{srv}, func(int) int { return 0 })
	h := http.Handler(sh.Handler())
	if wrap != nil {
		h = wrap(h)
	}
	ts := httptest.NewServer(h)
	t.Cleanup(ts.Close)
	return ts, sh, ex
}

// TestRetryRecoversFromTransientErrors verifies the retry loop: a server
// that 503s every first attempt is invisible to callers with retries.
func TestRetryRecoversFromTransientErrors(t *testing.T) {
	ts, _, _ := newResilienceStack(t, 2, func(next http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.Header.Get(attemptHeader) == "1" {
				http.Error(w, "injected transient error", http.StatusServiceUnavailable)
				return
			}
			next.ServeHTTP(w, r)
		})
	})
	coord := NewCoordinator(ts.URL, WithHTTPClient(ts.Client()))
	reply, err := coord.StartPeriod(0, 0, 0, false)
	if err != nil {
		t.Fatal(err)
	}
	if reply.Sold == 0 {
		t.Fatalf("round inert under transient faults: %+v", reply)
	}
	if n := coord.Net(); n.Retries == 0 || n.Attempts <= n.Retries {
		t.Fatalf("retry accounting off: %+v", n)
	}

	d, err := NewDevice(0, 32, ts.URL, WithHTTPClient(ts.Client()))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.FetchBundle(simclock.Minute); err != nil {
		t.Fatal(err)
	}
	if _, err := d.HandleSlot(2*simclock.Minute, nil); err != nil {
		t.Fatal(err)
	}
	if n := d.Net(); n.Retries == 0 || n.Unreachable != 0 {
		t.Fatalf("device retry accounting off: %+v", n)
	}
}

// runWorkload drives one identical mini-trace through a stack: a period
// round, bundle downloads, one slot per device, and the closing sweep.
func runWorkload(t *testing.T, ts *httptest.Server, hc *http.Client, clients int) {
	t.Helper()
	coord := NewCoordinator(ts.URL, WithHTTPClient(hc))
	if _, err := coord.StartPeriod(0, 0, 0, false); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < clients; i++ {
		d, err := NewDevice(i, 32, ts.URL, WithHTTPClient(hc))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := d.FetchBundle(simclock.Minute); err != nil {
			t.Fatal(err)
		}
		if _, err := d.HandleSlot(simclock.Time(i+2)*simclock.Minute, nil); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := coord.EndPeriod(2*simclock.Hour, 0, 0, false); err != nil {
		t.Fatal(err)
	}
}

// TestDoubleSendLedgerMatchesFaultFree is the idempotency property test:
// a fault plan forcing every request to be sent exactly twice (first
// attempt processed server-side, reply lost; retry replayed from the
// dedup window) must land on a byte-identical ledger to the fault-free
// run — no double billing, no double staging, no stranded bundles.
func TestDoubleSendLedgerMatchesFaultFree(t *testing.T) {
	const clients = 3
	cleanTS, _, cleanEx := newResilienceStack(t, clients, nil)
	runWorkload(t, cleanTS, cleanTS.Client(), clients)

	chaosTS, _, chaosEx := newResilienceStack(t, clients, nil)
	plan := &faults.Plan{Seed: 42, Default: faults.Rule{Delay: 1, MaxFaults: 1}}
	if err := plan.Validate(); err != nil {
		t.Fatal(err)
	}
	hc := &http.Client{Transport: plan.RoundTripper(nil)}
	runWorkload(t, chaosTS, hc, clients)

	if plan.Injected(faults.Delay) == 0 {
		t.Fatal("fault plan injected nothing; the property was not exercised")
	}
	clean, chaos := cleanEx.Ledger(), chaosEx.Ledger()
	if clean != chaos {
		t.Fatalf("double-send ledger diverged:\n clean %+v\n chaos %+v", clean, chaos)
	}
	if clean.Billed == 0 {
		t.Fatal("workload billed nothing; the property was vacuous")
	}
}

// TestIdempotencyKeySemantics pins the server's dedup contract at the
// HTTP level: replay, payload-mismatch conflict, malformed-key rejection.
func TestIdempotencyKeySemantics(t *testing.T) {
	ts, _, ex := newResilienceStack(t, 2, nil)
	coord := NewCoordinator(ts.URL, WithHTTPClient(ts.Client()))
	if _, err := coord.StartPeriod(0, 0, 0, false); err != nil {
		t.Fatal(err)
	}
	d, err := NewDevice(0, 32, ts.URL, WithHTTPClient(ts.Client()))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.FetchBundle(simclock.Minute); err != nil {
		t.Fatal(err)
	}
	cached := d.dev.Cache.Snapshot()
	if len(cached) == 0 {
		t.Fatal("no cached ads to report")
	}
	imp := cached[0].ID
	billed := ex.Ledger().Billed

	post := func(key, body string) *http.Response {
		t.Helper()
		req, _ := http.NewRequest(http.MethodPost, ts.URL+"/v1/report", strings.NewReader(body))
		req.Header.Set("Content-Type", "application/json")
		if key != "" {
			req.Header.Set(idempotencyKeyHeader, key)
		}
		resp, err := ts.Client().Do(req)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { resp.Body.Close() })
		return resp
	}

	body := `{"client":0,"impression":` + itoa(int64(imp)) + `,"now_ns":120000000000}`
	first := post("replay-key", body)
	if first.StatusCode != http.StatusOK {
		t.Fatalf("first report: %d", first.StatusCode)
	}
	// Same key, same payload: replayed verbatim, no second billing.
	second := post("replay-key", body)
	if second.StatusCode != http.StatusOK || second.Header.Get("Idempotency-Replayed") != "true" {
		t.Fatalf("replay not marked: status %d, header %q", second.StatusCode, second.Header.Get("Idempotency-Replayed"))
	}
	if got := ex.Ledger().Billed; got != billed+1 {
		t.Fatalf("billed %d want %d (exactly one new display)", got, billed+1)
	}
	// Same key, different payload: conflict.
	if resp := post("replay-key", `{"client":0,"impression":999,"now_ns":120000000000}`); resp.StatusCode != http.StatusConflict {
		t.Fatalf("key reuse: status %d want 409", resp.StatusCode)
	}
	// Malformed keys: rejected before execution.
	if resp := post("bad key", body); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("space-bearing key: status %d want 400", resp.StatusCode)
	}
	if resp := post(strings.Repeat("k", 200), body); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("oversized key: status %d want 400", resp.StatusCode)
	}
}

func itoa(v int64) string {
	var buf bytes.Buffer
	if v < 0 {
		buf.WriteByte('-')
		v = -v
	}
	var digits []byte
	for {
		digits = append(digits, byte('0'+v%10))
		v /= 10
		if v == 0 {
			break
		}
	}
	for i := len(digits) - 1; i >= 0; i-- {
		buf.WriteByte(digits[i])
	}
	return buf.String()
}

// TestLoadSheddingAndHealth drives a shard over its open-book bound and
// verifies sheddable endpoints 429 while reports still land, with the
// health endpoint narrating the state.
func TestLoadSheddingAndHealth(t *testing.T) {
	ts, sh, ex := newResilienceStack(t, 3, nil)
	sh.MaxOpenBook = 1
	coord := NewCoordinator(ts.URL, WithHTTPClient(ts.Client()))
	reply, err := coord.StartPeriod(0, 0, 0, false)
	if err != nil {
		t.Fatal(err)
	}
	if reply.Sold <= 1 {
		t.Fatalf("need >1 open impressions to shed, sold %d", reply.Sold)
	}

	health, err := coord.Health()
	if err != nil {
		t.Fatal(err)
	}
	if health.Status != "shedding" || len(health.Shards) != 1 || !health.Shards[0].Shedding {
		t.Fatalf("health does not report shedding: %+v", health)
	}
	if health.Shards[0].OpenBook != int(reply.Sold) {
		t.Fatalf("health open book %d want %d", health.Shards[0].OpenBook, reply.Sold)
	}

	// Slot observations are shed: the client retries, then degrades.
	d, err := NewDevice(0, 32, ts.URL, WithHTTPClient(ts.Client()))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.FetchBundle(simclock.Minute); err != nil {
		t.Fatal(err)
	}
	out, err := d.HandleSlot(2*simclock.Minute, nil)
	if err != nil {
		t.Fatal(err)
	}
	if d.Net().Shed == 0 {
		t.Fatalf("no shed replies observed: %+v", d.Net())
	}
	// The display report is never shed: the billing landed even though
	// the slot observation was refused.
	if out.CacheHit {
		if ex.Ledger().Billed == 0 {
			t.Fatal("report shed: cache hit went unbilled under load")
		}
	}
}

// outageHandler wraps a handler with a toggleable total outage (503 on
// every request while down).
type outageHandler struct {
	down atomic.Bool
	next http.Handler
}

func (o *outageHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if o.down.Load() {
		http.Error(w, "outage", http.StatusServiceUnavailable)
		return
	}
	o.next.ServeHTTP(w, r)
}

// TestGracefulDegradationAndDeferredReports takes the server away from a
// device mid-run: cached slots keep serving (reports deferred under
// their original keys), cache misses show house ads, and recovery
// settles the queue with exactly one billing per display.
func TestGracefulDegradationAndDeferredReports(t *testing.T) {
	var outage *outageHandler
	ts, _, ex := newResilienceStack(t, 2, func(next http.Handler) http.Handler {
		outage = &outageHandler{next: next}
		return outage
	})
	coord := NewCoordinator(ts.URL, WithHTTPClient(ts.Client()))
	if _, err := coord.StartPeriod(0, 0, 0, false); err != nil {
		t.Fatal(err)
	}
	d, err := NewDevice(0, 32, ts.URL, WithHTTPClient(ts.Client()))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.FetchBundle(simclock.Minute); err != nil {
		t.Fatal(err)
	}

	outage.down.Store(true)
	out, err := d.HandleSlot(2*simclock.Minute, nil)
	if err != nil {
		t.Fatalf("degraded slot must not error: %v", err)
	}
	if !out.CacheHit || !out.Degraded || !out.Deferred {
		t.Fatalf("offline cache hit not degraded+deferred: %+v", out)
	}
	if d.PendingReports() != 1 {
		t.Fatalf("pending reports %d want 1", d.PendingReports())
	}
	if billed := ex.Ledger().Billed; billed != 0 {
		t.Fatalf("billed %d during outage (reports cannot have landed)", billed)
	}

	// A cache miss during the outage degrades to a house ad.
	empty, err := NewDevice(1, 32, ts.URL, WithHTTPClient(ts.Client()))
	if err != nil {
		t.Fatal(err)
	}
	missOut, err := empty.HandleSlot(3*simclock.Minute, nil)
	if err != nil {
		t.Fatalf("offline cache miss must not error: %v", err)
	}
	if missOut.Impression != 0 || !missOut.Degraded {
		t.Fatalf("offline miss did not degrade to a house ad: %+v", missOut)
	}

	// Recovery: the deferred report delivers and bills exactly once.
	outage.down.Store(false)
	d.FlushDeferred(4 * simclock.Minute)
	if d.PendingReports() != 0 {
		t.Fatalf("deferred queue not drained: %d left", d.PendingReports())
	}
	if billed := ex.Ledger().Billed; billed != 1 {
		t.Fatalf("billed %d after recovery, want exactly 1", billed)
	}
	if n := d.Net(); n.DeferredReports != 1 || n.LostReports != 0 {
		t.Fatalf("deferred accounting off: %+v", n)
	}
}

// TestRetryEnergyCharged pins the robustness-cost accounting: retries
// (and only retries) burn joules at RetryOwner; a fault-free run charges
// exactly zero.
func TestRetryEnergyCharged(t *testing.T) {
	ts, _, _ := newResilienceStack(t, 2, nil)
	clean, err := NewDevice(0, 32, ts.URL, WithHTTPClient(ts.Client()), WithMeter(radio.New(radio.Profile3G())))
	if err != nil {
		t.Fatal(err)
	}
	if err := clean.ObserveSlot(simclock.Minute); err != nil {
		t.Fatal(err)
	}
	if j := clean.RetryEnergyJ(); j != 0 {
		t.Fatalf("fault-free run charged %v J of retry energy", j)
	}

	plan := &faults.Plan{Seed: 7, Default: faults.Rule{Drop: 1, MaxFaults: 2}}
	hc := &http.Client{Transport: plan.RoundTripper(nil)}
	faulty, err := NewDevice(1, 32, ts.URL, WithHTTPClient(hc), WithMeter(radio.New(radio.Profile3G())))
	if err != nil {
		t.Fatal(err)
	}
	if err := faulty.ObserveSlot(simclock.Minute); err != nil {
		t.Fatal(err)
	}
	if n := faulty.Net(); n.Retries == 0 {
		t.Fatalf("no retries under rate-1 drops: %+v", n)
	}
	if j := faulty.RetryEnergyJ(); j <= 0 {
		t.Fatalf("retries charged %v J, want > 0", j)
	}
}

// TestEnvelopeReplyWithoutAnAnswerIsRetried: an envelope reply that
// answers nothing leaves its ops unanswered until the attempts run out,
// like a request that got no reply. A result with no status is read as
// no answer for that op: the next attempt renders the op again under a
// new key. A reply with the wrong number of results answers nothing:
// the next attempt re-sends the same bytes under the same key, with
// X-Retry-Attempt counting up.
func TestEnvelopeReplyWithoutAnAnswerIsRetried(t *testing.T) {
	for _, tc := range []struct {
		reply, keys, attempts string
	}{
		{`{"results":[{"op":"slot","status":0}]}`, "c0-2,c0-3,c0-4,c0-5", "1,1,1,1"},
		{`{"results":[]}`, "c0-2,c0-2,c0-2,c0-2", "1,2,3,4"},
	} {
		var keys, attempts []string
		ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			keys = append(keys, r.Header.Get(idempotencyKeyHeader))
			attempts = append(attempts, r.Header.Get(attemptHeader))
			w.Header().Set("Content-Type", "application/json")
			w.Write([]byte(tc.reply + "\n"))
		}))
		d, err := NewDevice(0, 8, ts.URL, WithHTTPClient(ts.Client()), WithBatching())
		if err != nil {
			t.Fatal(err)
		}
		if err := d.ObserveSlot(0); err != nil {
			t.Fatalf("%s: an unanswered observation is lost, not an error: %v", tc.reply, err)
		}
		ts.Close()
		n := d.Net()
		if n.Attempts != 4 || n.Retries != 3 || n.Unreachable != 1 || n.LostObservations != 1 {
			t.Errorf("%s: net %+v", tc.reply, n)
		}
		if got := strings.Join(keys, ","); got != tc.keys {
			t.Errorf("%s: envelope keys %s, want %s", tc.reply, got, tc.keys)
		}
		if got := strings.Join(attempts, ","); got != tc.attempts {
			t.Errorf("%s: X-Retry-Attempt %s, want %s", tc.reply, got, tc.attempts)
		}
	}
}
