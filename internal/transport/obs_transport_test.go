package transport

import (
	"errors"
	"io"
	"net/http"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/radio"
	"repro/internal/simclock"
)

// TestMetricsEndpoint drives traffic through a sharded stack and checks
// the /v1/metrics exposition end-to-end: per-endpoint request counters,
// latency histograms, and the per-shard gauges all appear in the scrape
// with live values.
func TestMetricsEndpoint(t *testing.T) {
	ts, coord, devices, ss, _ := newShardedStack(t, 2, 4)

	if _, err := coord.StartPeriod(0, 0, 0, false); err != nil {
		t.Fatal(err)
	}
	for _, d := range devices {
		if _, err := d.FetchBundle(simclock.Minute); err != nil {
			t.Fatal(err)
		}
		if _, err := d.HandleSlot(2*simclock.Minute, nil); err != nil {
			t.Fatal(err)
		}
	}

	resp, err := ts.Client().Get(ts.URL + "/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("metrics status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("metrics content type %q", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	text := string(body)
	for _, want := range []string{
		`http_requests_total{endpoint="/v1/period/start",code="2xx"} 1`,
		`http_requests_total{endpoint="/v1/bundle",code="2xx"} 4`,
		`http_request_latency_ns_bucket{endpoint="/v1/slot",`,
		`shard_requests_total{shard="0"}`,
		`shard_requests_total{shard="1"}`,
		`shard_open_book{shard="0"}`,
		`shard_dedup_keys{shard="1"}`,
		"# TYPE http_request_latency_ns histogram",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition missing %q", want)
		}
	}

	// The registry accessor serves the same series.
	if got := ss.Registry().CounterValue(obs.MetricHTTPRequests, "endpoint", "/v1/bundle", "code", "2xx"); got != 4 {
		t.Fatalf("registry bundle count %d want 4", got)
	}
	// Both shards saw client-scoped traffic (4 clients hash across 2).
	var shardReqs int64
	for _, sh := range []string{"0", "1"} {
		shardReqs += ss.Registry().CounterValue("shard_requests_total", "shard", sh)
	}
	if shardReqs == 0 {
		t.Fatal("no shard-routed requests recorded")
	}
}

// TestMetricsOnSingleServer pins the acceptance criterion that the
// plain Server exposes the same metrics surface as ShardedServer.
func TestMetricsOnSingleServer(t *testing.T) {
	ts, _, _, _ := newTestStack(t, 2)
	resp, err := ts.Client().Get(ts.URL + "/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("metrics status %d", resp.StatusCode)
	}
	if !strings.Contains(string(body), `http_requests_total{endpoint="/v1/metrics",code="2xx"}`) &&
		!strings.Contains(string(body), "shard_open_book") {
		t.Fatalf("single-server exposition missing expected series:\n%s", body)
	}
}

// TestVersionNegotiation pins the X-AdPrefetch-Version contract: the
// server echoes its version on every response, accepts absent headers,
// rejects a different major with 426 and a malformed value with 400 —
// and the client sets the header on every request.
func TestVersionNegotiation(t *testing.T) {
	ts, _, _, _, _ := newShardedStack(t, 1, 1)
	hc := ts.Client()

	get := func(version string) *http.Response {
		req, _ := http.NewRequest(http.MethodGet, ts.URL+"/v1/health", nil)
		if version != "" {
			req.Header.Set(VersionHeader, version)
		}
		resp, err := hc.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { resp.Body.Close() })
		io.Copy(io.Discard, resp.Body)
		return resp
	}

	want := strconv.Itoa(ProtocolVersion)
	if resp := get(""); resp.StatusCode != http.StatusOK || resp.Header.Get(VersionHeader) != want {
		t.Fatalf("versionless request: status %d, echoed %q", resp.StatusCode, resp.Header.Get(VersionHeader))
	}
	if resp := get(want); resp.StatusCode != http.StatusOK {
		t.Fatalf("matching version refused: %d", resp.StatusCode)
	}
	if resp := get("2"); resp.StatusCode != http.StatusUpgradeRequired {
		t.Fatalf("future version: status %d want 426", resp.StatusCode)
	} else if resp.Header.Get(VersionHeader) != want {
		t.Fatalf("426 response must still echo the server version, got %q", resp.Header.Get(VersionHeader))
	}
	if resp := get("one"); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed version: status %d want 400", resp.StatusCode)
	}

	// The Device and Coordinator stamp the header on their requests: a
	// server that requires it (echo check above) still serves them.
	d, err := NewDevice(0, 8, ts.URL, WithHTTPClient(hc))
	if err != nil {
		t.Fatal(err)
	}
	if err := d.ObserveSlot(0); err != nil {
		t.Fatal(err)
	}
}

// TestFunctionalOptions exercises each knob of the options API and the
// deprecated positional wrappers.
func TestFunctionalOptions(t *testing.T) {
	ts, _, _, _, _ := newShardedStack(t, 1, 1)
	hc := ts.Client()

	// withJitterSeed: two devices with the same seed and policy draw
	// identical backoff schedules.
	p := RetryPolicy{MaxAttempts: 3, BaseBackoff: time.Second, MaxBackoff: 8 * time.Second, JitterFrac: 0.5}
	a, err := NewDevice(0, 8, ts.URL, WithHTTPClient(hc), withJitterSeed(42))
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewDevice(1, 8, ts.URL, WithHTTPClient(hc), withJitterSeed(42))
	if err != nil {
		t.Fatal(err)
	}
	a.Retry, b.Retry = p, p
	for k := 1; k < 3; k++ {
		if da, db := a.backoff(k), b.backoff(k); da != db {
			t.Fatalf("same seed, different jitter at retry %d: %v vs %v", k, da, db)
		}
	}

	// WithMeter: retries charge energy to the meter (constructor path,
	// no SetMeter call).
	m := radio.New(radio.Profile3G())
	c, err := NewDevice(2, 8, ts.URL, WithMeter(m),
		WithHTTPClient(&http.Client{Timeout: 50 * time.Millisecond, Transport: failingRT{}}))
	if err != nil {
		t.Fatal(err)
	}
	c.Retry = RetryPolicy{MaxAttempts: 2, BaseBackoff: time.Second}
	if err := c.ObserveSlot(0); err != nil {
		t.Fatal(err) // unreachable observations degrade, not fail
	}
	m.Flush()
	if c.RetryEnergyJ() <= 0 {
		t.Fatal("WithMeter: retries charged no energy")
	}

	// WithRegistry: client metrics land in the shared registry.
	reg := obs.NewRegistry()
	d, err := NewDevice(3, 8, ts.URL, WithHTTPClient(hc), WithRegistry(reg))
	if err != nil {
		t.Fatal(err)
	}
	if err := d.ObserveSlot(0); err != nil {
		t.Fatal(err)
	}
	if got := reg.CounterValue("client_attempts_total"); got < 1 {
		t.Fatalf("client_attempts_total %d want >= 1", got)
	}

	// Coordinators take the same options.
	co := NewCoordinator(ts.URL, WithHTTPClient(hc))
	if _, err := co.Health(); err != nil {
		t.Fatal(err)
	}
}

// failingRT refuses every request, for exercising the retry loop
// without a network.
type failingRT struct{}

func (failingRT) RoundTrip(*http.Request) (*http.Response, error) {
	return nil, errors.New("synthetic network failure")
}

// TestHealthGauges checks that /v1/health surfaces the registry totals:
// request counts move with traffic, and replays are counted when a
// duplicate key is served from the dedup window.
func TestHealthGauges(t *testing.T) {
	ts, coord, devices, _, _ := newShardedStack(t, 2, 4)
	if _, err := coord.StartPeriod(0, 0, 0, false); err != nil {
		t.Fatal(err)
	}
	for _, d := range devices {
		if _, err := d.FetchBundle(0); err != nil {
			t.Fatal(err)
		}
	}
	h1, err := coord.Health()
	if err != nil {
		t.Fatal(err)
	}
	if h1.RequestsTotal == 0 {
		t.Fatal("health reports zero requests after traffic")
	}
	var shardReqs int64
	for _, sh := range h1.Shards {
		shardReqs += sh.Requests
	}
	if shardReqs != int64(len(devices)) {
		t.Fatalf("per-shard request sum %d want %d (one bundle fetch per device)", shardReqs, len(devices))
	}

	// Re-send a bundle fetch under a duplicated key: the replay must
	// show up in the health totals.
	hc := ts.Client()
	req, _ := http.NewRequest(http.MethodGet, ts.URL+"/v1/bundle?client=0&now_ns=0", nil)
	req.Header.Set(idempotencyKeyHeader, "dup-1")
	for i := 0; i < 2; i++ {
		resp, err := hc.Do(req.Clone(req.Context()))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("bundle attempt %d: status %d", i, resp.StatusCode)
		}
	}
	h2, err := coord.Health()
	if err != nil {
		t.Fatal(err)
	}
	if h2.ReplayedTotal != 1 {
		t.Fatalf("replayed total %d want 1", h2.ReplayedTotal)
	}
	if h2.RequestsTotal <= h1.RequestsTotal {
		t.Fatalf("requests total did not advance: %d -> %d", h1.RequestsTotal, h2.RequestsTotal)
	}
}
