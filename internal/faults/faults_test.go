package faults

import (
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"

	"repro/internal/simclock"
)

func TestDecideDeterministicAndSeedSensitive(t *testing.T) {
	a := &Plan{Seed: 7, Default: Rule{Drop: 0.2, ServerErr: 0.2, Delay: 0.2}}
	b := &Plan{Seed: 7, Default: Rule{Drop: 0.2, ServerErr: 0.2, Delay: 0.2}}
	c := &Plan{Seed: 8, Default: Rule{Drop: 0.2, ServerErr: 0.2, Delay: 0.2}}
	diff := 0
	for i := 0; i < 1000; i++ {
		id := "key-" + strconv.Itoa(i)
		ka := a.Decide("/v1/report", id, 1)
		if kb := b.Decide("/v1/report", id, 1); ka != kb {
			t.Fatalf("same seed disagrees on %s: %v vs %v", id, ka, kb)
		}
		if ka != c.Decide("/v1/report", id, 1) {
			diff++
		}
	}
	if diff == 0 {
		t.Fatal("different seeds produced identical fault sequences")
	}
}

func TestDecideRates(t *testing.T) {
	p := &Plan{Seed: 1, Default: Rule{Drop: 0.1, ServerErr: 0.1, Delay: 0.1, Reset: 0.1, Truncate: 0.1}}
	const n = 20000
	var hist [Truncate + 1]int
	for i := 0; i < n; i++ {
		hist[p.Decide("/v1/slot", strconv.Itoa(i), 1)]++
	}
	for k := Drop; k <= Truncate; k++ {
		got := float64(hist[k]) / n
		if got < 0.08 || got > 0.12 {
			t.Errorf("%v rate %.3f, want ~0.10", k, got)
		}
	}
	if got := float64(hist[None]) / n; got < 0.47 || got > 0.53 {
		t.Errorf("none rate %.3f, want ~0.50", got)
	}
}

func TestMaxFaultsBoundsARequest(t *testing.T) {
	// With every attempt guaranteed to fault, MaxFaults must cap the
	// damage so attempt MaxFaults+1 succeeds.
	p := &Plan{Seed: 3, Default: Rule{Delay: 1, MaxFaults: 2}}
	for i := 0; i < 100; i++ {
		id := "req-" + strconv.Itoa(i)
		if k := p.Decide("/v1/report", id, 1); k == None {
			t.Fatalf("%s attempt 1 unharmed under rate 1", id)
		}
		if k := p.Decide("/v1/report", id, 2); k == None {
			t.Fatalf("%s attempt 2 unharmed under rate 1", id)
		}
		if k := p.Decide("/v1/report", id, 3); k != None {
			t.Fatalf("%s attempt 3 faulted (%v) past MaxFaults=2", id, k)
		}
	}
}

func TestValidate(t *testing.T) {
	bad := []Plan{
		{Default: Rule{Drop: -0.1}},
		{Default: Rule{Drop: 0.6, Delay: 0.6}},
		{Default: Rule{MaxFaults: -1}},
		{Partitions: []Partition{{Shard: -1}}},
		{Partitions: []Partition{{Shard: 0, From: 10, To: 5}}},
	}
	for i := range bad {
		if err := bad[i].Validate(); err == nil {
			t.Errorf("case %d: invalid plan accepted", i)
		}
	}
	ok := Plan{Seed: 1, Default: Rule{Drop: 0.5, Delay: 0.5},
		Endpoints:  map[string]Rule{"/v1/report": {Truncate: 1}},
		Partitions: []Partition{{Shard: 0, From: 0, To: simclock.Hour}}}
	if err := ok.Validate(); err != nil {
		t.Errorf("valid plan rejected: %v", err)
	}
}

// echoServer answers 200 with a fixed JSON body.
func echoServer() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Body != nil {
			io.Copy(io.Discard, r.Body)
		}
		w.Header().Set("Content-Type", "application/json")
		io.WriteString(w, `{"ok":true,"padding":"0123456789012345678901234567890123456789"}`)
	})
}

func TestRoundTripperInjectsWireFaults(t *testing.T) {
	ts := httptest.NewServer(echoServer())
	defer ts.Close()

	cases := []struct {
		kind Kind
		rule Rule
	}{
		{Drop, Rule{Drop: 1}},
		{Delay, Rule{Delay: 1}},
		{Reset, Rule{Reset: 1}},
	}
	for _, tc := range cases {
		plan := &Plan{Seed: 1, Default: tc.rule}
		hc := &http.Client{Transport: plan.RoundTripper(nil)}
		req, _ := http.NewRequest("POST", ts.URL+"/v1/report", strings.NewReader(`{}`))
		req.Header.Set(IdempotencyKeyHeader, "k1")
		req.Header.Set(AttemptHeader, "1")
		_, err := hc.Do(req)
		if err == nil {
			t.Fatalf("%v: request survived rate-1 rule", tc.kind)
		}
		if !strings.Contains(err.Error(), tc.kind.String()) {
			t.Errorf("%v: error %v does not name the fault", tc.kind, err)
		}
		if plan.Injected(tc.kind) != 1 {
			t.Errorf("%v: injected count %d", tc.kind, plan.Injected(tc.kind))
		}
	}

	// Truncation yields a response whose body is cut short.
	plan := &Plan{Seed: 1, Default: Rule{Truncate: 1}}
	hc := &http.Client{Transport: plan.RoundTripper(nil)}
	resp, err := hc.Get(ts.URL + "/v1/bundle")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if len(body) == 0 || strings.HasSuffix(string(body), "}") {
		t.Fatalf("body not truncated: %q", body)
	}
}

func TestMiddlewareServerErrAndPartition(t *testing.T) {
	plan := &Plan{
		Seed:       1,
		Endpoints:  map[string]Rule{"/v1/err": {ServerErr: 1}},
		Partitions: []Partition{{Shard: 1, From: simclock.Hour, To: 2 * simclock.Hour}},
	}
	route := func(client int) int { return client % 2 }
	h := plan.Middleware(echoServer(), route)
	ts := httptest.NewServer(h)
	defer ts.Close()

	get := func(path string) int {
		t.Helper()
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp.StatusCode
	}
	post := func(path, body string) int {
		t.Helper()
		resp, err := http.Post(ts.URL+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp.StatusCode
	}

	if got := get("/v1/err"); got != http.StatusServiceUnavailable {
		t.Fatalf("ServerErr endpoint: status %d", got)
	}
	inWindow := strconv.FormatInt(int64(simclock.Hour)+1, 10)
	// Client 1 routes to shard 1: partitioned inside the window.
	if got := get("/v1/bundle?client=1&now_ns=" + inWindow); got != http.StatusServiceUnavailable {
		t.Fatalf("partitioned GET: status %d", got)
	}
	if got := post("/v1/report", `{"client":1,"now_ns":`+inWindow+`}`); got != http.StatusServiceUnavailable {
		t.Fatalf("partitioned POST: status %d", got)
	}
	// Client 0 routes to shard 0: unaffected.
	if got := get("/v1/bundle?client=0&now_ns=" + inWindow); got != http.StatusOK {
		t.Fatalf("healthy shard GET: status %d", got)
	}
	// Outside the window the shard is back.
	if got := get("/v1/bundle?client=1&now_ns=1"); got != http.StatusOK {
		t.Fatalf("pre-window GET: status %d", got)
	}
	// The POST body must survive the middleware's peek.
	h2 := plan.Middleware(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		b, _ := io.ReadAll(r.Body)
		w.Write(b)
	}), route)
	rec := httptest.NewRecorder()
	req := httptest.NewRequest("POST", "/v1/report", strings.NewReader(`{"client":0,"now_ns":5}`))
	h2.ServeHTTP(rec, req)
	if rec.Body.String() != `{"client":0,"now_ns":5}` {
		t.Fatalf("middleware consumed the body: %q", rec.Body.String())
	}
}

func TestDecideBatchDeterministicAndBudgeted(t *testing.T) {
	p := &Plan{Seed: 11, Default: Rule{Drop: 0.3, Delay: 0.3, MaxFaults: 2}}
	q := &Plan{Seed: 11, Default: Rule{Drop: 0.3, Delay: 0.3, MaxFaults: 2}}
	for i := 0; i < 200; i++ {
		ids := []string{"a-" + strconv.Itoa(i), "b-" + strconv.Itoa(i), "c-" + strconv.Itoa(i)}
		// Deterministic: same seed, same identities, same outcome.
		for a := 1; a <= 4; a++ {
			if kp, kq := p.DecideBatch(BatchPath, ids, a), q.DecideBatch(BatchPath, ids, a); kp != kq {
				t.Fatalf("batch %d attempt %d: %v vs %v under one seed", i, a, kp, kq)
			}
		}
		// Carrier-level budget: at most MaxFaults faulted attempts, no
		// matter how many sub-ops drew — so 4 attempts always reach the
		// server at least twice.
		fired := 0
		for a := 1; a <= 4; a++ {
			if p.DecideBatch(BatchPath, ids, a) != None {
				fired++
			}
		}
		if fired > 2 {
			t.Fatalf("batch %d suffered %d faults past MaxFaults=2", i, fired)
		}
	}
}

func TestDecideBatchCompositionAndFallback(t *testing.T) {
	p := &Plan{Seed: 5, Default: Rule{Drop: 0.5}}
	// A batch faults iff some sub-op's own draw faults: adding an
	// unharmed identity never clears a faulted one, and a batch of one
	// key agrees with the sequential decision for that key.
	faulted, clean := 0, 0
	for i := 0; i < 500; i++ {
		id := "op-" + strconv.Itoa(i)
		seq := p.Decide(BatchPath, id, 1)
		if got := p.DecideBatch(BatchPath, []string{id}, 1); got != seq {
			t.Fatalf("singleton batch %s: %v, sequential says %v", id, got, seq)
		}
		if seq != None {
			faulted++
			if p.DecideBatch(BatchPath, []string{"other-" + strconv.Itoa(i), id}, 1) == None {
				// Only legal if the other identity also drew None — but then
				// the first non-None is id's, so this must not happen.
				if p.Decide(BatchPath, "other-"+strconv.Itoa(i), 1) == None {
					t.Fatalf("batch lost %s's fault", id)
				}
			}
		} else {
			clean++
		}
	}
	if faulted == 0 || clean == 0 {
		t.Fatalf("degenerate draw split: %d faulted, %d clean", faulted, clean)
	}
	// No identities: fall back to the carrier decision.
	if got, want := p.DecideBatch(BatchPath, nil, 1), p.Decide(BatchPath, "", 1); got != want {
		t.Fatalf("empty-identity fallback: %v, want %v", got, want)
	}
}

func TestCrashScheduleFiresAndResets(t *testing.T) {
	s := NewCrashSchedule(
		CrashPoint{Op: "report", After: 2},
		CrashPoint{After: 3}, // wildcard: any three records after the first crash
	)
	if got := s.Pending(); got != 2 {
		t.Fatalf("pending %d want 2", got)
	}
	// Point 1 counts only "report" records.
	for i, op := range []string{"slot", "report", "slot", "batch"} {
		if s.ObserveNode(0, op) {
			t.Fatalf("fired early at record %d (%s)", i, op)
		}
	}
	if !s.ObserveNode(0, "report") {
		t.Fatal("second report must fire point 1")
	}
	if s.Fired() != 1 || s.Pending() != 1 {
		t.Fatalf("after point 1: fired %d pending %d", s.Fired(), s.Pending())
	}
	// Counters reset at the crash: point 2 counts records appended by
	// the replacement process, not the 5 already observed.
	if s.ObserveNode(0, "report") || s.ObserveNode(0, "slot") {
		t.Fatal("point 2 fired before 3 post-crash records")
	}
	if !s.ObserveNode(0, "period_end") {
		t.Fatal("third post-crash record must fire the wildcard point")
	}
	if s.Fired() != 2 || s.Pending() != 0 {
		t.Fatalf("after point 2: fired %d pending %d", s.Fired(), s.Pending())
	}
	// An exhausted schedule never fires again.
	for i := 0; i < 10; i++ {
		if s.ObserveNode(0, "report") {
			t.Fatal("exhausted schedule fired")
		}
	}
}

// TestCrashScheduleNodeScoping pins the node-granular semantics the
// cluster harness relies on: a point scoped to one node counts only
// that node's appends (other nodes' records are invisible to it, both
// for counting and for firing), the fire resets every counter across
// all nodes, and an AnyNode point kills whichever node's append
// crosses the threshold.
func TestCrashScheduleNodeScoping(t *testing.T) {
	s := NewCrashSchedule(
		CrashPoint{Op: "report", After: 2, Node: 1},
		CrashPoint{After: 2, Node: 2},
		CrashPoint{After: 3, Node: AnyNode},
	)
	// Node 0 and node 2 appends never trip a point scoped to node 1 —
	// not even many of them.
	for i := 0; i < 10; i++ {
		if s.ObserveNode(0, "report") || s.ObserveNode(2, "report") {
			t.Fatalf("append %d from an unscoped node fired a node-1 point", i)
		}
	}
	if s.ObserveNode(1, "report") {
		t.Fatal("node 1 fired after one matching record, want two")
	}
	if s.ObserveNode(1, "slot") {
		t.Fatal("node-1 point scoped to op \"report\" fired on a slot record")
	}
	if !s.ObserveNode(1, "report") {
		t.Fatal("second node-1 report must fire the scoped point")
	}
	if s.Fired() != 1 {
		t.Fatalf("fired %d want 1", s.Fired())
	}
	// The fire reset node 2's count too: the 10 pre-crash records are
	// forgotten, the wildcard-op point needs 2 fresh node-2 appends.
	if s.ObserveNode(2, "slot") {
		t.Fatal("node-2 point counted records from before the crash")
	}
	if s.ObserveNode(0, "slot") {
		t.Fatal("node-0 append tripped a node-2 point")
	}
	if !s.ObserveNode(2, "batch") {
		t.Fatal("second post-crash node-2 record must fire (any op)")
	}
	// AnyNode: appends from different nodes share one count, and the
	// observing node that crosses the threshold is the victim.
	if s.ObserveNode(0, "slot") || s.ObserveNode(1, "report") {
		t.Fatal("AnyNode point fired before 3 records")
	}
	if !s.ObserveNode(2, "slot") {
		t.Fatal("third record from any node must fire the AnyNode point")
	}
	if s.Fired() != 3 || s.Pending() != 0 {
		t.Fatalf("fired %d pending %d, want 3 and 0", s.Fired(), s.Pending())
	}
}

// The single-process harness observes as node 0, so plain
// CrashPoint{Op, After} literals must keep their original meaning there.
func TestCrashScheduleObserveIsNodeZero(t *testing.T) {
	s := NewCrashSchedule(CrashPoint{Op: "report", After: 2})
	if s.ObserveNode(0, "report") {
		t.Fatal("fired after one report")
	}
	// Zero-value Node scopes to node 0: another node's matching append
	// neither counts nor fires.
	if s.ObserveNode(1, "report") {
		t.Fatal("node-1 append fired a zero-value (node 0) point")
	}
	if !s.ObserveNode(0, "report") {
		t.Fatal("second node-0 report must fire")
	}
	if s.Fired() != 1 {
		t.Fatalf("fired %d want 1", s.Fired())
	}
}
