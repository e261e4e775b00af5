package cluster

import (
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/link"
	"repro/internal/obs"
	"repro/internal/transport"
)

// fakeNode is a scripted stand-in for an adserverd node: it records how
// many requests it served and answers each path with a fixed body.
type fakeNode struct {
	srv    *linkNode
	served atomic.Int64
	reply  func(w http.ResponseWriter, r *http.Request)
}

func newFakeNode(t *testing.T, reply func(w http.ResponseWriter, r *http.Request)) *fakeNode {
	t.Helper()
	n := &fakeNode{reply: reply}
	n.srv = serveNode(t, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		n.served.Add(1)
		n.reply(w, r)
	}))
	return n
}

// linkNode is a node served the way adserverd serves one: by a
// link.Server on its own loopback listener, so routers built without
// WithHTTPClient reach it over the link. URL is its base URL.
type linkNode struct {
	*link.Server
	URL string
}

// serveNode stands h up as a node, torn down with the test.
func serveNode(t testing.TB, h http.Handler) *linkNode {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := link.NewServer(h)
	go srv.Serve(ln)
	t.Cleanup(srv.Close)
	return &linkNode{srv, "http://" + ln.Addr().String()}
}

func jsonReply(body string) func(w http.ResponseWriter, r *http.Request) {
	return func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		io.WriteString(w, body)
	}
}

func newTestRouter(t *testing.T, urls []string, opts ...Option) *Router {
	t.Helper()
	rt, err := New(Membership{Nodes: urls}, opts...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Close)
	return rt
}

// Client-scoped requests must land on the node the placement picks, and
// only that node.
func TestRouterPlacesClients(t *testing.T) {
	nodes := make([]*fakeNode, 3)
	urls := make([]string, 3)
	for i := range nodes {
		nodes[i] = newFakeNode(t, jsonReply(fmt.Sprintf(`{"node":%d}`, i)))
		urls[i] = nodes[i].srv.URL
	}
	rt := newTestRouter(t, urls, WithPlacement(func(id int) int { return id % 3 }))
	front := httptest.NewServer(rt.Handler())
	defer front.Close()

	for id := 0; id < 9; id++ {
		resp, err := http.Get(fmt.Sprintf("%s/v1/bundle?client=%d", front.URL, id))
		if err != nil {
			t.Fatal(err)
		}
		var body struct{ Node int }
		if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if body.Node != id%3 {
			t.Fatalf("client %d served by node %d, want %d", id, body.Node, id%3)
		}
	}
	for i, n := range nodes {
		if got := n.served.Load(); got != 3 {
			t.Fatalf("node %d served %d requests, want 3", i, got)
		}
	}
	// POST bodies route by the envelope's client field.
	resp, err := http.Post(front.URL+"/v1/report", "application/json", strings.NewReader(`{"client":4}`))
	if err != nil {
		t.Fatal(err)
	}
	var body struct{ Node int }
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if body.Node != 1 {
		t.Fatalf("posted client 4 served by node %d, want 1", body.Node)
	}
}

// With more than one node, a request that carries no routable client id
// cannot be placed and must be refused with 400, not guessed.
func TestRouterRejectsUnroutable(t *testing.T) {
	urls := make([]string, 2)
	for i := range urls {
		urls[i] = newFakeNode(t, jsonReply(`{}`)).srv.URL
	}
	rt := newTestRouter(t, urls)
	front := httptest.NewServer(rt.Handler())
	defer front.Close()

	resp, err := http.Post(front.URL+"/v1/report", "application/json", strings.NewReader(`{"impression":{}}`))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unroutable request got %d, want 400", resp.StatusCode)
	}
}

// Period rounds fan out to every node and come back as one summed
// reply; the replayed marker survives only when every node replayed.
func TestRouterFanoutMerges(t *testing.T) {
	urls := make([]string, 3)
	for i := range urls {
		i := i
		urls[i] = newFakeNode(t, func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Content-Type", "application/json")
			if i != 0 {
				w.Header().Set(obs.ReplayedHeader, "true")
			}
			switch r.URL.Path {
			case "/v1/period/start":
				fmt.Fprintf(w, `{"predicted_slots":%d,"admitted":2,"sold":%d,"placed":1,"replicas":1,"bundled_clients":4}`, i+1, 10*(i+1))
			case "/v1/ledger":
				fmt.Fprintf(w, `{"Sold":%d,"Billed":%d,"BilledUSD":1.5,"Violations":1}`, 5*(i+1), 4)
			default:
				http.NotFound(w, r)
			}
		}).srv.URL
	}
	rt := newTestRouter(t, urls)
	front := httptest.NewServer(rt.Handler())
	defer front.Close()

	resp, err := http.Post(front.URL+"/v1/period/start", "application/json", strings.NewReader(`{"now":0}`))
	if err != nil {
		t.Fatal(err)
	}
	var ps transport.PeriodStartReply
	if err := json.NewDecoder(resp.Body).Decode(&ps); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if ps.PredictedSlots != 6 || ps.Sold != 60 || ps.Admitted != 6 || ps.BundledClients != 12 {
		t.Fatalf("merged period/start %+v, want sums across 3 nodes", ps)
	}
	// Node 0 executed fresh, so the merged round is not a replay.
	if resp.Header.Get(obs.ReplayedHeader) == "true" {
		t.Fatal("merged round marked replayed though one node executed fresh")
	}
	if resp.Header.Get(transport.VersionHeader) == "" {
		t.Fatal("merged reply missing protocol version header")
	}

	resp, err = http.Get(front.URL + "/v1/ledger")
	if err != nil {
		t.Fatal(err)
	}
	var led struct {
		Sold       int64
		Billed     int64
		BilledUSD  float64
		Violations int64
	}
	if err := json.NewDecoder(resp.Body).Decode(&led); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if led.Sold != 30 || led.Billed != 12 || led.BilledUSD != 4.5 || led.Violations != 3 {
		t.Fatalf("merged ledger %+v, want sums across 3 nodes", led)
	}
}

// TestRouterRefusesOversizedBody: a body past transport.MaxBodyBytes is
// refused with 400 by the router itself, as a node refuses it, on the
// data plane, the period fan-out and the admin config push, whether its
// length is declared or it arrives chunked. No byte of it reaches a
// node: forwarding a truncated prefix would execute a request the node
// itself refuses. A body exactly at the bound still goes through.
func TestRouterRefusesOversizedBody(t *testing.T) {
	prefix := `{"client":0,"now_ns":1}`
	pad := func(n int) string { return prefix + strings.Repeat(" ", n-len(prefix)) }
	for _, tc := range []struct {
		path string
		size int
		want int
	}{
		{"/v1/slot", transport.MaxBodyBytes + 1, http.StatusBadRequest},
		{"/v1/period/start", transport.MaxBodyBytes + 1, http.StatusBadRequest},
		{"/v1/admin/config", transport.MaxBodyBytes + 1, http.StatusBadRequest},
		{"/v1/slot", transport.MaxBodyBytes, http.StatusOK},
	} {
		for _, chunked := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/%d/chunked=%v", strings.TrimPrefix(tc.path, "/"), tc.size, chunked), func(t *testing.T) {
				node := newFakeNode(t, jsonReply(`{}`))
				rt := newTestRouter(t, []string{node.srv.URL})
				var body io.Reader = strings.NewReader(pad(tc.size))
				if chunked {
					body = io.MultiReader(body) // hides the length: no Content-Length
				}
				req := httptest.NewRequest(http.MethodPost, tc.path, body)
				if chunked {
					req.ContentLength = -1
				}
				rec := httptest.NewRecorder()
				rt.Handler().ServeHTTP(rec, req)
				wantServed := int64(0)
				if tc.want == http.StatusOK {
					wantServed = 1
				}
				if rec.Code != tc.want || node.served.Load() != wantServed {
					t.Fatalf("status %d, node served %d requests; want %d and %d (body %q)",
						rec.Code, node.served.Load(), tc.want, wantServed, rec.Body.String())
				}
			})
		}
	}
}

// A node's non-2xx answer must reach the caller verbatim — an
// idempotency conflict from one node aborts the merged round.
func TestRouterFanoutPropagatesNodeError(t *testing.T) {
	urls := []string{
		newFakeNode(t, jsonReply(`{"expired":1}`)).srv.URL,
		newFakeNode(t, func(w http.ResponseWriter, r *http.Request) {
			http.Error(w, "Idempotency-Key reused with a different request", http.StatusConflict)
		}).srv.URL,
	}
	rt := newTestRouter(t, urls)
	front := httptest.NewServer(rt.Handler())
	defer front.Close()

	resp, err := http.Post(front.URL+"/v1/period/end", "application/json", strings.NewReader(`{"now":0}`))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("node conflict surfaced as %d, want 409", resp.StatusCode)
	}
	if !strings.Contains(string(body), "Idempotency-Key") {
		t.Fatalf("node error body not relayed: %q", body)
	}
}

// When a node is dead and patience is zero, the router must answer a
// well-formed 503 with Retry-After — never a raw transport error — and
// count the refusal.
func TestRouterUnavailable503(t *testing.T) {
	dead := httptest.NewServer(http.NotFoundHandler())
	deadURL := dead.URL
	dead.Close() // nothing listens here any more

	rt := newTestRouter(t, []string{deadURL}, withFailThreshold(2), withMaxForwards(4))
	front := httptest.NewServer(rt.Handler())
	defer front.Close()

	resp, err := http.Get(front.URL + "/v1/bundle?client=7")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("dead node got %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("503 missing Retry-After")
	}
	if !strings.Contains(string(body), "unavailable") || strings.Contains(string(body), "connection refused") {
		t.Fatalf("raw transport error leaked to the client: %q", body)
	}
	if got := rt.Registry().CounterTotal("cluster_node_unavailable_total"); got != 1 {
		t.Fatalf("cluster_node_unavailable_total = %d, want 1", got)
	}
	if !rt.nodeDown(0) {
		t.Fatal("circuit did not open after consecutive failures")
	}
	if got := rt.Registry().CounterTotal("cluster_node_down_total"); got != 1 {
		t.Fatalf("cluster_node_down_total = %d, want 1", got)
	}
}

// Rejoin closes the circuit — optionally at a new address, as after a
// restart — and traffic flows again.
func TestRouterRejoinClosesCircuit(t *testing.T) {
	dead := httptest.NewServer(http.NotFoundHandler())
	deadURL := dead.URL
	dead.Close()

	rt := newTestRouter(t, []string{deadURL}, withFailThreshold(1), withMaxForwards(2))
	front := httptest.NewServer(rt.Handler())
	defer front.Close()

	if resp, err := http.Get(front.URL + "/v1/bundle?client=1"); err != nil {
		t.Fatal(err)
	} else {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusServiceUnavailable {
			t.Fatalf("dead node got %d, want 503", resp.StatusCode)
		}
	}
	if !rt.nodeDown(0) {
		t.Fatal("circuit should be open")
	}

	live := newFakeNode(t, jsonReply(`{"ok":true}`))
	rt.Rejoin(0, live.srv.URL)
	if rt.nodeDown(0) {
		t.Fatal("circuit still open after rejoin")
	}
	resp, err := http.Get(front.URL + "/v1/bundle?client=1")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("rejoined node got %d, want 200", resp.StatusCode)
	}
	if got := rt.Registry().CounterTotal("cluster_rejoins_total"); got != 1 {
		t.Fatalf("cluster_rejoins_total = %d, want 1", got)
	}
}

// With RejoinWait set, a request for a down node parks and completes
// once the node rejoins — the device never sees the outage.
func TestRouterParksUntilRejoin(t *testing.T) {
	live := newFakeNode(t, jsonReply(`{"ok":true}`))
	rt := newTestRouter(t, []string{live.srv.URL}, WithRejoinWait(5*time.Second))
	front := httptest.NewServer(rt.Handler())
	defer front.Close()

	rt.markDown(0)
	go func() {
		time.Sleep(50 * time.Millisecond)
		rt.Rejoin(0, "")
	}()
	start := time.Now()
	resp, err := http.Get(front.URL + "/v1/bundle?client=1")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("parked request got %d, want 200", resp.StatusCode)
	}
	if time.Since(start) < 40*time.Millisecond {
		t.Fatal("request did not park awaiting the rejoin")
	}
}

// The cluster health view degrades — it must not fail — when a node is
// out of rotation.
func TestRouterHealthDegraded(t *testing.T) {
	ok := func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		io.WriteString(w, `{"status":"ok","node_id":"node0"}`)
	}
	urls := []string{newFakeNode(t, ok).srv.URL, newFakeNode(t, ok).srv.URL}
	rt := newTestRouter(t, urls)
	front := httptest.NewServer(rt.Handler())
	defer front.Close()

	var h transport.HealthReply
	resp, err := http.Get(front.URL + "/v1/health")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if h.Status != "ok" || h.NodesDown != 0 || len(h.Nodes) != 2 {
		t.Fatalf("healthy cluster reports %+v", h)
	}
	if h.Nodes[0].Detail == nil || h.Nodes[0].Detail.NodeID != "node0" {
		t.Fatalf("node health not relayed: %+v", h.Nodes[0])
	}

	rt.markDown(1)
	resp, err = http.Get(front.URL + "/v1/health")
	if err != nil {
		t.Fatal(err)
	}
	h = transport.HealthReply{}
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if h.Status != "degraded" || h.NodesDown != 1 || !h.Nodes[1].Down {
		t.Fatalf("cluster with a down node reports %+v", h)
	}
}

// The background prober must notice a node answering /v1/health again
// and rejoin it without an explicit Rejoin call.
func TestRouterProberRejoins(t *testing.T) {
	live := newFakeNode(t, jsonReply(`{"status":"ok"}`))
	rt := newTestRouter(t, []string{live.srv.URL}, withFailThreshold(1))
	rt.markDown(0)
	rt.StartProber(10 * time.Millisecond)

	deadline := time.Now().Add(2 * time.Second)
	for rt.nodeDown(0) && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if rt.nodeDown(0) {
		t.Fatal("prober never rejoined a healthy node")
	}
}

// TestRelayedHeaderNamesAreCanonical: the header lists index http.Header
// maps directly and travel verbatim in link frames, so every name —
// transport's and obs's constants included — must already be in
// canonical MIME form.
func TestRelayedHeaderNamesAreCanonical(t *testing.T) {
	names := append(forwardHeaders[:], relayHeaders[:]...)
	names = append(names, transport.VersionHeader, transport.TenantHeader, obs.ReplayedHeader)
	for _, k := range names {
		if http.CanonicalHeaderKey(k) != k {
			t.Errorf("%q is not canonical (%q)", k, http.CanonicalHeaderKey(k))
		}
	}
}
