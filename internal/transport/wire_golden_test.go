package transport

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"repro/internal/tenant"
	"repro/internal/wal"
)

// The two goldens below are what "the wire and the log are unchanged"
// means in tier-1. Both were recorded on the code before the per-op
// endpoints became one-op envelopes over the batch executor (ISSUE 19;
// commit 8a707a1 holds test and testdata against the old executors), and
// a refactor of the serving path that is meant to be behaviour-preserving
// must leave testdata/ untouched. Three behaviours that merge changed on
// purpose sit outside the script and have their own tests in
// migrate_test.go: GET /v1/cancelled for a moved client (now 421), with a
// contradicting tenant header (now 403), and with a malformed id list
// (still 400, no longer counted as a shard request). Regenerate —
// deliberately, after a reviewed protocol change — with
// ADPREFETCH_UPDATE_GOLDEN=1.

// wireSession scripts one single-shard session through Handler(): every
// per-op endpoint unkeyed, keyed, replayed, with its key reused on a
// different request (409), with a malformed key, a malformed body or
// query, a contradicting tenant header (403), shed under MaxOpenBook
// (429 + pressure-scaled Retry-After), against a moved client (421),
// plus a rejected report (400, still stored and logged) and the
// refusal precedence body 400 → tenant 403 → key 400 → 409 → 421 → 429.
// Every exchange is appended to the transcript: request line, request
// headers and body, then status, every response header and the body.
type wireSession struct {
	t   *testing.T
	ss  *ShardedServer
	h   http.Handler
	out bytes.Buffer
}

// do sends one request and records the exchange; hdr is alternating
// header names and values.
func (s *wireSession) do(name, method, target, body string, hdr ...string) *httptest.ResponseRecorder {
	s.t.Helper()
	var rd io.Reader
	if method == http.MethodPost {
		rd = strings.NewReader(body)
	}
	req := httptest.NewRequest(method, target, rd)
	fmt.Fprintf(&s.out, "## %s\n%s %s\n", name, method, target)
	for i := 0; i+1 < len(hdr); i += 2 {
		req.Header.Set(hdr[i], hdr[i+1])
		fmt.Fprintf(&s.out, "> %s: %s\n", hdr[i], hdr[i+1])
	}
	if rd != nil {
		fmt.Fprintf(&s.out, "> %s\n", body)
	}
	rec := httptest.NewRecorder()
	s.h.ServeHTTP(rec, req)
	fmt.Fprintf(&s.out, "< %d\n", rec.Code)
	names := make([]string, 0, len(rec.Header()))
	for k := range rec.Header() {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Fprintf(&s.out, "< %s: %s\n", k, strings.Join(rec.Header()[k], ", "))
	}
	fmt.Fprintf(&s.out, "< %q\n\n", rec.Body.String())
	return rec
}

const (
	goldenKeyHdr    = "Idempotency-Key"
	goldenTenantHdr = "X-AdPrefetch-Tenant"
)

// run plays the whole script. Clients 0–3 belong to pubA, 4–7 to pubB.
func (s *wireSession) run() {
	t := s.t
	s.do("period start", "POST", "/v1/period/start", `{"now_ns":0,"index":0,"of_day":0,"weekend":false}`)

	// --- GET /v1/bundle ---
	s.do("bundle unkeyed", "GET", "/v1/bundle?client=1&now_ns=60000000000", "")
	s.do("bundle unkeyed, shelf already drained", "GET", "/v1/bundle?client=1&now_ns=60000000000", "")
	rec := s.do("bundle keyed", "GET", "/v1/bundle?client=0&now_ns=60000000000", "", goldenKeyHdr, "g-bundle")
	var bundle BundleReply
	if err := json.Unmarshal(rec.Body.Bytes(), &bundle); err != nil || len(bundle.Ads) < 2 {
		t.Fatalf("client 0's bundle must carry two ads for the report cases: %v %s", err, rec.Body)
	}
	s.do("bundle replay", "GET", "/v1/bundle?client=0&now_ns=60000000000", "", goldenKeyHdr, "g-bundle")
	s.do("bundle key reused for another instant", "GET", "/v1/bundle?client=0&now_ns=61000000000", "", goldenKeyHdr, "g-bundle")
	s.do("bundle malformed key", "GET", "/v1/bundle?client=0&now_ns=60000000000", "", goldenKeyHdr, "bad key")
	s.do("bundle malformed query", "GET", "/v1/bundle?client=abc&now_ns=60000000000", "")
	s.do("bundle wrong tenant", "GET", "/v1/bundle?client=0&now_ns=60000000000", "", goldenTenantHdr, "pubB")
	s.do("bundle matching tenant", "GET", "/v1/bundle?client=2&now_ns=60000000000", "", goldenTenantHdr, "pubA")

	// --- POST /v1/slot ---
	s.do("slot unkeyed", "POST", "/v1/slot", `{"client":0,"now_ns":120000000000}`)
	s.do("slot keyed", "POST", "/v1/slot", `{"client":0,"now_ns":121000000000}`, goldenKeyHdr, "g-slot")
	s.do("slot replay", "POST", "/v1/slot", `{"client":0,"now_ns":121000000000}`, goldenKeyHdr, "g-slot")
	s.do("slot key reused with a different body", "POST", "/v1/slot", `{"client":0,"now_ns":122000000000}`, goldenKeyHdr, "g-slot")
	s.do("slot key reused on another endpoint", "POST", "/v1/ondemand", `{"client":0,"now_ns":121000000000}`, goldenKeyHdr, "g-slot")
	s.do("slot non-canonical body is its own fingerprint", "POST", "/v1/slot", `{"now_ns":121000000000, "client":0}`, goldenKeyHdr, "g-slot")
	s.do("slot malformed key", "POST", "/v1/slot", `{"client":0,"now_ns":123000000000}`, goldenKeyHdr, "bad key")
	s.do("slot malformed body", "POST", "/v1/slot", `{not json`)
	s.do("slot wrong tenant", "POST", "/v1/slot", `{"client":0,"now_ns":123000000000}`, goldenTenantHdr, "pubB")
	s.do("slot matching tenant", "POST", "/v1/slot", `{"client":5,"now_ns":123000000000}`, goldenTenantHdr, "pubB")

	// --- POST /v1/report ---
	impA, impB := bundle.Ads[0].ID, bundle.Ads[1].ID
	report := func(imp int64, now int64) string {
		return fmt.Sprintf(`{"client":0,"impression":%d,"now_ns":%d}`, imp, now)
	}
	s.do("report unkeyed", "POST", "/v1/report", report(impA, 180000000000))
	s.do("report keyed", "POST", "/v1/report", report(impB, 181000000000), goldenKeyHdr, "g-report")
	s.do("report replay", "POST", "/v1/report", report(impB, 181000000000), goldenKeyHdr, "g-report")
	s.do("report key reused with a different body", "POST", "/v1/report", report(impA, 181000000000), goldenKeyHdr, "g-report")
	s.do("report malformed key", "POST", "/v1/report", report(impB, 182000000000), goldenKeyHdr, "bad\tkey")
	s.do("report malformed body", "POST", "/v1/report", `{"client":"zero"}`)
	s.do("report wrong tenant", "POST", "/v1/report", report(impB, 182000000000), goldenTenantHdr, "pubB")
	s.do("report rejected, unkeyed", "POST", "/v1/report", report(999999, 183000000000))
	s.do("report rejected, keyed: stored and logged", "POST", "/v1/report", report(999998, 184000000000), goldenKeyHdr, "g-report-bad")
	s.do("report rejected, replayed", "POST", "/v1/report", report(999998, 184000000000), goldenKeyHdr, "g-report-bad")
	s.do("report of an already billed impression", "POST", "/v1/report", report(impA, 185000000000))

	// --- GET /v1/cancelled ---
	cancelled := fmt.Sprintf("/v1/cancelled?client=0&ids=%d,%d,424242&now_ns=240000000000", impA, impB)
	s.do("cancelled unkeyed", "GET", cancelled, "")
	s.do("cancelled keyed: an unstored read", "GET", cancelled, "", goldenKeyHdr, "g-cancelled")
	s.do("cancelled again under the key: executed, not replayed", "GET", cancelled, "", goldenKeyHdr, "g-cancelled")
	s.do("cancelled key reused on another query: no conflict", "GET", "/v1/cancelled?client=0&ids=1&now_ns=240000000000", "", goldenKeyHdr, "g-cancelled")
	s.do("cancelled malformed key is ignored", "GET", cancelled, "", goldenKeyHdr, "bad key")
	s.do("cancelled malformed now_ns", "GET", "/v1/cancelled?client=0&ids=1&now_ns=zzz", "")
	s.do("cancelled malformed client", "GET", "/v1/cancelled?client=abc&ids=1&now_ns=0", "")
	s.do("cancelled without a client (tolerated on one shard)", "GET", fmt.Sprintf("/v1/cancelled?ids=%d&now_ns=240000000000", impA), "")
	s.do("cancelled empty id list", "GET", "/v1/cancelled?client=0&ids=,,&now_ns=240000000000", "")

	// --- POST /v1/ondemand ---
	s.do("ondemand unkeyed", "POST", "/v1/ondemand", `{"client":4,"now_ns":300000000000}`)
	s.do("ondemand keyed", "POST", "/v1/ondemand", `{"client":4,"now_ns":301000000000,"categories":["news"],"no_rescue":true}`, goldenKeyHdr, "g-od")
	s.do("ondemand replay", "POST", "/v1/ondemand", `{"client":4,"now_ns":301000000000,"categories":["news"],"no_rescue":true}`, goldenKeyHdr, "g-od")
	s.do("ondemand key reused with a different body", "POST", "/v1/ondemand", `{"client":4,"now_ns":301000000000}`, goldenKeyHdr, "g-od")
	s.do("ondemand malformed key", "POST", "/v1/ondemand", `{"client":4,"now_ns":302000000000}`, goldenKeyHdr, strings.Repeat("k", 129))
	s.do("ondemand malformed body", "POST", "/v1/ondemand", ``)
	s.do("ondemand wrong tenant", "POST", "/v1/ondemand", `{"client":4,"now_ns":302000000000}`, goldenTenantHdr, "pubA")
	s.do("ondemand rescue", "POST", "/v1/ondemand", `{"client":6,"now_ns":303000000000}`, goldenKeyHdr, "g-od-rescue")

	// --- refusal precedence: body 400 → tenant 403 → key 400 → 409 ---
	s.do("precedence: malformed body beats tenant and key", "POST", "/v1/slot", `{nope`, goldenTenantHdr, "pubB", goldenKeyHdr, "bad key")
	s.do("precedence: wrong tenant beats malformed key", "POST", "/v1/slot", `{"client":0,"now_ns":360000000000}`, goldenTenantHdr, "pubB", goldenKeyHdr, "bad key")
	s.do("precedence: wrong tenant beats a replayable key", "POST", "/v1/slot", `{"client":0,"now_ns":121000000000}`, goldenTenantHdr, "pubB", goldenKeyHdr, "g-slot")
	s.do("precedence (bundle): wrong tenant beats malformed key", "GET", "/v1/bundle?client=0&now_ns=60000000000", "", goldenTenantHdr, "pubB", goldenKeyHdr, "bad key")

	// --- shedding: slot and on-demand 429 with a pressure-scaled hint;
	// reports and bundles are never shed; a 429 is not stored ---
	open := getHealth(t, s.h).Shards[0].OpenBook
	if open < 4 {
		t.Fatalf("open book %d too thin to shed against", open)
	}
	s.ss.MaxOpenBook = open / 2 // overshoot == bound: Retry-After 1+2 = 3
	s.do("shed: slot unkeyed", "POST", "/v1/slot", `{"client":2,"now_ns":420000000000}`)
	s.do("shed: slot keyed", "POST", "/v1/slot", `{"client":2,"now_ns":421000000000}`, goldenKeyHdr, "g-shed")
	s.do("shed: ondemand", "POST", "/v1/ondemand", `{"client":2,"now_ns":422000000000}`, goldenKeyHdr, "g-shed-od")
	s.do("shed: replay still replays", "POST", "/v1/slot", `{"client":0,"now_ns":121000000000}`, goldenKeyHdr, "g-slot")
	s.do("shed precedence: 409 beats 429", "POST", "/v1/slot", `{"client":0,"now_ns":423000000000}`, goldenKeyHdr, "g-slot")
	s.do("shed: reports are never shed", "POST", "/v1/report", report(999997, 424000000000))
	s.do("shed: bundles are never shed", "GET", "/v1/bundle?client=3&now_ns=425000000000", "")
	s.do("shed: cancelled is never shed", "GET", "/v1/cancelled?client=2&ids=1&now_ns=426000000000", "")
	s.ss.MaxOpenBook = 1 // deep overload: the hint hits its 8 s cap
	s.do("shed: deep overload caps the hint", "POST", "/v1/slot", `{"client":2,"now_ns":427000000000}`)

	// --- a moved client: 421, never stored; 421 beats 429 ---
	s.do("migrate client 7 out", "POST", "/v1/admin/migrate/out", `{"epoch":1,"clients":[7]}`)
	s.do("moved precedence: 421 beats 429", "POST", "/v1/slot", `{"client":7,"now_ns":480000000000}`, goldenKeyHdr, "g-moved")
	s.ss.MaxOpenBook = 0
	s.do("the shed slot's key was not stored: it executes now", "POST", "/v1/slot", `{"client":2,"now_ns":421000000000}`, goldenKeyHdr, "g-shed")
	s.do("moved: slot", "POST", "/v1/slot", `{"client":7,"now_ns":480000000000}`, goldenKeyHdr, "g-moved")
	s.do("moved: slot again, the 421 was not stored", "POST", "/v1/slot", `{"client":7,"now_ns":480000000000}`, goldenKeyHdr, "g-moved")
	s.do("moved: report", "POST", "/v1/report", `{"client":7,"impression":1,"now_ns":481000000000}`)
	s.do("moved: ondemand", "POST", "/v1/ondemand", `{"client":7,"now_ns":482000000000}`)
	s.do("moved: bundle", "GET", "/v1/bundle?client=7&now_ns=483000000000", "", goldenKeyHdr, "g-moved-bundle")
	s.do("moved precedence: 409 beats 421", "POST", "/v1/slot", `{"client":7,"now_ns":121000000000}`, goldenKeyHdr, "g-slot")

	s.do("period end", "POST", "/v1/period/end", `{"now_ns":3600000000000,"index":0,"of_day":0,"weekend":false}`)
	s.do("ledger", "GET", "/v1/ledger", "")
	s.do("ledger of pubA", "GET", "/v1/ledger?tenant=pubA", "")
	s.do("health", "GET", "/v1/health", "")
}

// newWireSession builds the session's single-shard stack: eight clients,
// tenant-tagged demand, pubA owning clients 0–3 and pubB 4–7.
func newWireSession(t *testing.T) *wireSession {
	t.Helper()
	ss, h := newTenantStack(t, 1, 8)
	ss.SetTenants(mustRegistry(t, 1, []tenant.Config{
		{ID: "pubA", Lo: 0, Hi: 4},
		{ID: "pubB", Lo: 4, Hi: 8},
	}))
	return &wireSession{t: t, ss: ss, h: h}
}

// checkGolden compares got with testdata/<name>, or rewrites the file
// when ADPREFETCH_UPDATE_GOLDEN is set.
func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if os.Getenv("ADPREFETCH_UPDATE_GOLDEN") != "" {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(got, want) {
		return
	}
	gl, wl := strings.Split(string(got), "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gl) && i < len(wl); i++ {
		if gl[i] != wl[i] {
			from := i - 12
			if from < 0 {
				from = 0
			}
			t.Fatalf("%s diverges at line %d:\n got %s\nwant %s\ncontext:\n%s",
				path, i+1, gl[i], wl[i], strings.Join(gl[from:i+1], "\n"))
		}
	}
	t.Fatalf("%s: %d lines, golden has %d", path, len(gl), len(wl))
}

// TestSequentialWireGolden pins the per-op endpoints' wire behaviour —
// status, every header, body bytes — across the whole scripted session.
func TestSequentialWireGolden(t *testing.T) {
	s := newWireSession(t)
	s.run()
	checkGolden(t, "sequential_wire.golden", s.out.Bytes())
}

// TestWALRecordStreamGolden pins the log: the (shard, op, key, body)
// records the same session plus one three-op envelope append, and the
// ledger and health a fresh process recovers from that directory. The
// record bytes were written by the parent commit's executors, so this is
// also the statement that a parent-commit WAL still replays.
func TestWALRecordStreamGolden(t *testing.T) {
	dir := t.TempDir()
	attach := func(s *wireSession) *wal.Log {
		l, err := wal.Open(dir, wal.Options{NoSync: true})
		if err != nil {
			t.Fatal(err)
		}
		s.ss.AttachWAL(l, 0)
		if _, err := s.ss.Recover(); err != nil {
			t.Fatal(err)
		}
		return l
	}
	s := newWireSession(t)
	l := attach(s)
	s.run()
	s.do("three-op envelope", "POST", "/v1/batch",
		`{"client":5,"now_ns":3700000000000,"ops":[{"op":"slot","key":"g-env-slot"},{"op":"cancelled","ids":[1,2]},{"op":"ondemand","key":"g-env-od","no_rescue":true}]}`)
	live := s.do("live ledger", "GET", "/v1/ledger", "").Body.String()

	var stream bytes.Buffer
	for _, rec := range readWALRecords(t, dir) {
		fmt.Fprintf(&stream, "%d %s %q %s\n", rec.Shard, rec.Op, rec.Key, rec.Body)
	}
	checkGolden(t, "wal_records.golden", stream.Bytes())
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	// The replacement process: same layout and boot registry, then
	// Recover replays the directory.
	r := newWireSession(t)
	defer attach(r).Close()
	recovered := r.do("recovered ledger", "GET", "/v1/ledger", "").Body.String()
	if recovered != live {
		t.Fatalf("recovered ledger differs from the live one:\n got %s\nwant %s", recovered, live)
	}
	r.do("recovered health", "GET", "/v1/health", "")
	// A keyed retry that straddles the restart replays from the rebuilt window.
	r.do("recovered: slot replay", "POST", "/v1/slot", `{"client":0,"now_ns":121000000000}`, goldenKeyHdr, "g-slot")
	r.do("recovered: envelope op replays on the sequential form", "POST", "/v1/ondemand",
		`{"client":5,"now_ns":3700000000000,"no_rescue":true}`, goldenKeyHdr, "g-env-od")
	checkGolden(t, "wal_recovered.golden", r.out.Bytes())
}
