package transport

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/adserver"
	"repro/internal/auction"
	"repro/internal/predict"
	"repro/internal/simclock"
)

// constPredictor mirrors the adserver test helper.
type constPredictor struct{ est predict.Estimate }

func (c constPredictor) Name() string                            { return "const" }
func (c constPredictor) Predict(predict.Period) predict.Estimate { return c.est }
func (c constPredictor) Observe(predict.Period, int)             {}

func newTestStack(t *testing.T, clients int) (*httptest.Server, *Coordinator, []*Device, *auction.Exchange) {
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
	ts := httptest.NewServer(NewServer(srv).Handler())
	t.Cleanup(ts.Close)

	devices := make([]*Device, clients)
	for i := range devices {
		d, err := NewDevice(i, 32, ts.URL, WithHTTPClient(ts.Client()))
		if err != nil {
			t.Fatal(err)
		}
		devices[i] = d
	}
	return ts, NewCoordinator(ts.URL, WithHTTPClient(ts.Client())), devices, ex
}

func TestEndToEndOverHTTP(t *testing.T) {
	_, coord, devices, _ := newTestStack(t, 3)

	reply, err := coord.StartPeriod(0, 0, 0, false)
	if err != nil {
		t.Fatal(err)
	}
	if reply.Sold == 0 || reply.BundledClients == 0 {
		t.Fatalf("round inert: %+v", reply)
	}

	// Every device downloads its bundle and serves slots from cache.
	hits := 0
	for i, d := range devices {
		if _, err := d.FetchBundle(simclock.Minute); err != nil {
			t.Fatal(err)
		}
		out, err := d.HandleSlot(simclock.Time(i+2)*simclock.Minute, nil)
		if err != nil {
			t.Fatal(err)
		}
		if out.CacheHit {
			hits++
		}
	}
	if hits == 0 {
		t.Fatal("no cache hits over HTTP")
	}

	// Ledger reflects the billed displays.
	l, err := coord.Ledger()
	if err != nil {
		t.Fatal(err)
	}
	if int(l.Billed) != hits {
		t.Fatalf("billed %d want %d", l.Billed, hits)
	}

	// Close the period; unshown impressions expire.
	end, err := coord.EndPeriod(2*simclock.Hour, 0, 0, false)
	if err != nil {
		t.Fatal(err)
	}
	if end.Expired != reply.Sold-hits {
		t.Fatalf("expired %d want %d", end.Expired, reply.Sold-hits)
	}
}

func TestHTTPFallbackRescues(t *testing.T) {
	_, coord, devices, _ := newTestStack(t, 2)
	if _, err := coord.StartPeriod(0, 0, 0, false); err != nil {
		t.Fatal(err)
	}
	// Device 0 never downloads its bundle: its slot misses and the
	// on-demand endpoint rescues an open impression.
	out, err := devices[0].HandleSlot(simclock.Minute, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !out.Fetched || !out.Rescued || out.Impression == 0 {
		t.Fatalf("outcome %+v", out)
	}
}

func TestHTTPCancellationPropagates(t *testing.T) {
	_, coord, devices, _ := newTestStack(t, 2)
	if _, err := coord.StartPeriod(0, 0, 0, false); err != nil {
		t.Fatal(err)
	}
	for _, d := range devices {
		if _, err := d.FetchBundle(simclock.Minute); err != nil {
			t.Fatal(err)
		}
	}
	// Device 0 shows an impression; after the sync window, device 1's
	// cache skips any replica of it.
	out0, err := devices[0].HandleSlot(2*simclock.Minute, nil)
	if err != nil {
		t.Fatal(err)
	}
	out1, err := devices[1].HandleSlot(10*simclock.Minute, nil)
	if err != nil {
		t.Fatal(err)
	}
	if out1.CacheHit && out1.Impression == out0.Impression {
		t.Fatal("cancellation did not propagate over HTTP")
	}
}

func TestHTTPBadRequests(t *testing.T) {
	ts, _, _, _ := newTestStack(t, 1)
	cases := []struct {
		method, path, body string
	}{
		{"POST", "/v1/period/start", "{not json"},
		{"POST", "/v1/report", "{not json"},
		{"POST", "/v1/report", `{"client":0,"impression":99999,"now_ns":0}`},
		{"GET", "/v1/bundle?client=abc", ""},
		{"GET", "/v1/cancelled?ids=zzz&now_ns=0", ""},
		{"GET", "/v1/cancelled?ids=1&now_ns=abc", ""},
	}
	for _, c := range cases {
		var resp *http.Response
		var err error
		if c.method == "GET" {
			resp, err = ts.Client().Get(ts.URL + c.path)
		} else {
			resp, err = ts.Client().Post(ts.URL+c.path, "application/json", strings.NewReader(c.body))
		}
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s %s: status %d, want 400", c.method, c.path, resp.StatusCode)
		}
	}
}

func TestHTTPBundleDrainsOnce(t *testing.T) {
	_, coord, devices, _ := newTestStack(t, 1)
	if _, err := coord.StartPeriod(0, 0, 0, false); err != nil {
		t.Fatal(err)
	}
	n1, err := devices[0].FetchBundle(simclock.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if n1 == 0 {
		t.Fatal("no bundle staged")
	}
	n2, err := devices[0].FetchBundle(2 * simclock.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if n2 != 0 {
		t.Fatalf("bundle served twice: %d", n2)
	}
}

func TestHTTPConcurrentDevices(t *testing.T) {
	// The server must serialize concurrent requests safely.
	_, coord, devices, _ := newTestStack(t, 8)
	if _, err := coord.StartPeriod(0, 0, 0, false); err != nil {
		t.Fatal(err)
	}
	errc := make(chan error, len(devices))
	for i, d := range devices {
		go func(i int, d *Device) {
			if _, err := d.FetchBundle(simclock.Minute); err != nil {
				errc <- err
				return
			}
			_, err := d.HandleSlot(simclock.Time(i+2)*simclock.Minute, nil)
			errc <- err
		}(i, d)
	}
	for range devices {
		if err := <-errc; err != nil {
			t.Fatal(err)
		}
	}
	l, err := coord.Ledger()
	if err != nil {
		t.Fatal(err)
	}
	if l.Billed == 0 {
		t.Fatal("no billing under concurrency")
	}
}

func TestHTTPStatsEndpoint(t *testing.T) {
	ts, coord, devices, _ := newTestStack(t, 2)
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
	if _, err := coord.EndPeriod(2*simclock.Hour, 0, 0, false); err != nil {
		t.Fatal(err)
	}
	resp, err := ts.Client().Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var stats adserver.OpsStats
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	if stats.Rounds != 1 {
		t.Fatalf("stats %+v", stats)
	}
	// 4 predicted (2 clients x 2) vs 2 actual slots: relative error 1.0.
	if stats.ForecastErrP50 < 0.5 || stats.ForecastErrP50 > 1.5 {
		t.Fatalf("forecast error %+v", stats)
	}
}
