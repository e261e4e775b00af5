package transport

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/adserver"
	"repro/internal/auction"
	"repro/internal/obs"
	"repro/internal/predict"
	"repro/internal/shard"
	"repro/internal/simclock"
	"repro/internal/wal"
)

// newDurableStack is newShardedStack plus an attached WAL rooted in dir:
// the pool construction is deterministic, so two stacks over the same
// dir model a crashed process and its replacement.
func newDurableStack(t *testing.T, dir string, shards, clients, snapEvery int) (*httptest.Server, *Coordinator, []*Device, *ShardedServer, *shard.Pool, *wal.Log) {
	t.Helper()
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
	pool, err := shard.New(shards, cfg, ids,
		func(int) (*auction.Exchange, error) {
			return auction.NewExchange([]auction.Campaign{
				{ID: 0, Name: "acme", BidCPM: 2000, BudgetUSD: 1e6},
				{ID: 1, Name: "globex", BidCPM: 1000, BudgetUSD: 1e6},
			}, 0.0001)
		},
		func(int) predict.Predictor {
			return constPredictor{est: predict.Estimate{Slots: 2, Mean: 2, NoShowProb: 0.1}}
		}, nil)
	if err != nil {
		t.Fatal(err)
	}
	ss := NewShardedServer(pool)
	l, err := wal.Open(dir, wal.Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	ss.AttachWAL(l, snapEvery)
	if _, err := ss.Recover(); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(ss.Handler())
	t.Cleanup(ts.Close)
	t.Cleanup(func() { l.Close() })

	devices := make([]*Device, clients)
	for i := range devices {
		d, err := NewDevice(i, 32, ts.URL, WithHTTPClient(ts.Client()))
		if err != nil {
			t.Fatal(err)
		}
		devices[i] = d
	}
	return ts, NewCoordinator(ts.URL, WithHTTPClient(ts.Client())), devices, ss, pool, l
}

func ledgerJSON(t *testing.T, l auction.Ledger) string {
	t.Helper()
	b, err := json.Marshal(l)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// snapshotBytes serializes the full server state. The test quiesces the
// server before calling, so taking the locks here is belt-and-braces.
func snapshotBytes(t *testing.T, ss *ShardedServer) []byte {
	t.Helper()
	ss.periodMu.Lock()
	defer ss.periodMu.Unlock()
	defer ss.lockAll()()
	var buf bytes.Buffer
	if err := ss.writeSnapshotLocked(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// driveTraffic runs one full period round against the stack: start,
// bundle downloads, a slot per device, end.
func driveTraffic(t *testing.T, coord *Coordinator, devices []*Device, base simclock.Time, index int) {
	t.Helper()
	if _, err := coord.StartPeriod(base, index, index, false); err != nil {
		t.Fatal(err)
	}
	for i, d := range devices {
		if _, err := d.FetchBundle(base + simclock.Minute); err != nil {
			t.Fatal(err)
		}
		if _, err := d.HandleSlot(base+simclock.Time(i+2)*simclock.Minute, nil); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := coord.EndPeriod(base+simclock.Hour, index, index, false); err != nil {
		t.Fatal(err)
	}
}

// A checkpoint must capture the complete server state: a fresh process
// recovering from the snapshot alone (log rotated empty) serves the
// same ledger, staged bundles and dedup window, and keeps serving.
func TestCheckpointRecoverRoundTrip(t *testing.T) {
	dir := t.TempDir()
	ts1, coord1, devices1, ss1, pool1, _ := newDurableStack(t, dir, 3, 9, 0)
	driveTraffic(t, coord1, devices1, 0, 0)
	if _, err := coord1.StartPeriod(2*simclock.Hour, 1, 1, false); err != nil {
		t.Fatal(err) // leave bundles staged so the snapshot carries shelves
	}
	if err := ss1.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	want := ledgerJSON(t, pool1.Ledger())
	wantStaged := ss1.StagedAds()
	wantSnap := snapshotBytes(t, ss1)
	ts1.Close()

	ts2, coord2, _, ss2, pool2, l2 := newDurableStack(t, dir, 3, 9, 0)
	if got := ledgerJSON(t, pool2.Ledger()); got != want {
		t.Fatalf("recovered ledger diverged:\n got %s\nwant %s", got, want)
	}
	if got := ss2.StagedAds(); got != wantStaged {
		t.Fatalf("recovered staged ads %d want %d", got, wantStaged)
	}
	if got := snapshotBytes(t, ss2); !bytes.Equal(got, wantSnap) {
		t.Fatalf("recovered snapshot diverged:\n got %s\nwant %s", got, wantSnap)
	}
	if st := l2.Stats(); st.Replayed != 0 {
		t.Fatalf("replayed %d records, want 0 (log was rotated at checkpoint)", st.Replayed)
	}
	h, err := coord2.Health()
	if err != nil {
		t.Fatal(err)
	}
	if !h.WALEnabled || !h.LastFsyncOK {
		t.Fatalf("health after recovery: %+v", h)
	}
	// The recovered process keeps serving: downloads drain the restored
	// shelves and the next round completes. Unkeyed requests — fresh
	// Device/Coordinator instances restart their key sequences and
	// would 409 against the restored window (in production the clients
	// survive the server crash and keep their sequences).
	for i := 0; i < 9; i++ {
		var b BundleReply
		get(t, ts2, fmt.Sprintf("/v1/bundle?client=%d&now_ns=%d", i, 2*simclock.Hour+simclock.Minute), &b)
	}
	if got := ss2.StagedAds(); got != 0 {
		t.Fatalf("staged ads leak after recovered download: %d", got)
	}
	if status, _ := post(t, ts2, "/v1/period/end",
		"", fmt.Sprintf(`{"now_ns":%d,"index":1,"of_day":1}`, 3*simclock.Hour)); status != http.StatusOK {
		t.Fatalf("period end on recovered server: %d", status)
	}
}

// A keyed retry that straddles a crash must replay the stored response,
// not double-execute: the idempotency window is rebuilt by WAL replay.
// Without dedup persistence the resend below would bill a second
// display of the same impression.
func TestDedupWindowSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	ts1, coord1, _, _, _, _ := newDurableStack(t, dir, 2, 4, 0)
	if _, err := coord1.StartPeriod(0, 0, 0, false); err != nil {
		t.Fatal(err)
	}
	var bundle BundleReply
	get(t, ts1, fmt.Sprintf("/v1/bundle?client=0&now_ns=%d", simclock.Minute), &bundle)
	if len(bundle.Ads) == 0 {
		t.Fatal("client 0 got no bundle")
	}
	body := fmt.Sprintf(`{"client":0,"impression":%d,"now_ns":%d}`, bundle.Ads[0].ID, 2*simclock.Minute)
	const key = "report-straddle"
	status, replayed := post(t, ts1, "/v1/report", key, body)
	if status != http.StatusOK || replayed {
		t.Fatalf("first report: status %d replayed %v", status, replayed)
	}
	before, err := coord1.Ledger()
	if err != nil {
		t.Fatal(err)
	}
	if before.Billed != 1 {
		t.Fatalf("billed %d want 1", before.Billed)
	}
	ts1.Close() // crash: no checkpoint was taken, recovery is pure replay

	ts2, coord2, _, _, _, l2 := newDurableStack(t, dir, 2, 4, 0)
	if st := l2.Stats(); st.Replayed == 0 {
		t.Fatal("recovery replayed no records")
	}
	status, replayed = post(t, ts2, "/v1/report", key, body)
	if status != http.StatusOK || !replayed {
		t.Fatalf("straddling retry: status %d replayed %v, want 200 replayed", status, replayed)
	}
	after, err := coord2.Ledger()
	if err != nil {
		t.Fatal(err)
	}
	if got, want := ledgerJSON(t, after), ledgerJSON(t, before); got != want {
		t.Fatalf("retry double-executed:\n got %s\nwant %s", got, want)
	}
	h, err := coord2.Health()
	if err != nil {
		t.Fatal(err)
	}
	if !h.WALEnabled || h.ReplayedOps == 0 {
		t.Fatalf("health after replay: %+v", h)
	}
}

// Replaying a log is idempotent: applying every record a second time to
// an already-recovered server — every client op hits the rebuilt dedup
// window, every period round its cache — leaves the state byte-identical.
// The dedup window is the idempotence horizon (exactly as for live
// retries), so the rounds are contiguous: the final sweep cutoff stays
// behind every logged op.
func TestWALReplayIdempotence(t *testing.T) {
	dir := t.TempDir()
	ts1, coord1, devices1, _, _, _ := newDurableStack(t, dir, 3, 9, 0)
	driveTraffic(t, coord1, devices1, 0, 0)
	driveTraffic(t, coord1, devices1, simclock.Hour, 1)
	ts1.Close()

	_, _, _, ss2, pool2, l2 := newDurableStack(t, dir, 3, 9, 0)
	if st := l2.Stats(); st.Replayed == 0 {
		t.Fatal("recovery replayed no records")
	}
	want := ledgerJSON(t, pool2.Ledger())
	wantSnap := snapshotBytes(t, ss2)

	// Feed the whole log through the replay path once more. recovering
	// suppresses re-appending, exactly as during Recover.
	ss2.recovering.Store(true)
	defer ss2.recovering.Store(false)
	applied := 0
	for _, rec := range readWALRecords(t, dir) {
		if err := ss2.applyWALRecord(rec); err != nil {
			t.Fatal(err)
		}
		applied++
	}
	if applied == 0 {
		t.Fatal("no records to re-apply")
	}
	if got := ledgerJSON(t, pool2.Ledger()); got != want {
		t.Fatalf("second replay changed the ledger:\n got %s\nwant %s", got, want)
	}
	if got := snapshotBytes(t, ss2); !bytes.Equal(got, wantSnap) {
		t.Fatalf("second replay changed the state:\n got %s\nwant %s", got, wantSnap)
	}
}

// readWALRecords decodes every intact record in the directory's current
// log generation.
func readWALRecords(t *testing.T, dir string) []wal.Record {
	t.Helper()
	names, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var logName string
	for _, e := range names {
		if strings.HasPrefix(e.Name(), "wal-") && strings.HasSuffix(e.Name(), ".log") {
			logName = e.Name() // generations never coexist, any match is current
		}
	}
	if logName == "" {
		t.Fatal("no wal log file in dir")
	}
	f, err := os.Open(filepath.Join(dir, logName))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var recs []wal.Record
	res, err := wal.Scan(f, func(rec wal.Record) error {
		recs = append(recs, rec)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Damaged {
		t.Fatal("log unexpectedly damaged")
	}
	return recs
}

func get(t *testing.T, ts *httptest.Server, path string, out any) {
	t.Helper()
	resp, err := ts.Client().Get(ts.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: %d", path, resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		t.Fatal(err)
	}
}

func post(t *testing.T, ts *httptest.Server, path, key, body string) (status int, replayed bool) {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, ts.URL+path, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	if key != "" {
		req.Header.Set("Idempotency-Key", key)
	}
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	return resp.StatusCode, resp.Header.Get(obs.ReplayedHeader) == "true"
}
