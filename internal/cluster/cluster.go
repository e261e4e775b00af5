// Package cluster turns N independent adserverd node processes into
// one logical ad service: a routing tier places each client onto one
// node (consistent hashing by default), proxies the client-scoped
// protocol endpoints to that node, and drives the coordinator's period
// start/end rounds across every node with the same fan-out/fan-in
// barrier ShardedServer uses across its shards — promoted one level,
// from shards inside a process to nodes on a network.
//
// Robustness is the point of the tier. Each node runs its own WAL and
// recovers its own shard state after a kill (see internal/wal and
// transport.AttachWAL); the router's job is to make a node's death a
// retryable event instead of an outage:
//
//   - A node is detected dead by consecutive transport failures (the
//     circuit opens after FailThreshold in a row — one aborted request
//     never takes a healthy node out of rotation).
//   - While a node is down, requests for its clients either park until
//     the node rejoins (RejoinWait > 0, the harness mode: devices ride
//     out the outage inside one attempt) or fail fast with a
//     well-formed 503 + Retry-After (RejoinWait == 0, the production
//     default: devices back off and retry). Either way the client
//     never sees a raw transport error, and every refusal counts in
//     cluster_node_unavailable_total.
//   - On rejoin (explicit Rejoin call, or the background prober seeing
//     /v1/health answer again) the circuit closes and parked requests
//     re-forward. Re-forwarded mutations are safe: they carry their
//     original Idempotency-Key, and the node's recovered dedup window
//     replays any op it executed before dying.
//
// Period barriers tolerate a node dying mid-fan-out: the router
// forwards the coordinator's round — same body, same idempotency key —
// to every node and merges the per-node replies with the reply type's
// own merge (the one a node uses over its shards); if a node is
// unavailable past patience the coordinator gets the 503 and retries
// the whole round, surviving nodes replay it from their period-round
// caches (exactly-once per node), and the restarted node executes its
// share fresh — or replays it from its own WAL if it died after the
// append. No accounting observable is lost or double-counted; the
// cluster differential tier in internal/sim pins cluster-of-N equal to
// a single process at shards=N on ledger, violations, per-client
// counters and campaign spend, fault-free, under chaos, and across
// node kills.
//
// Membership is elastic (see membership.go): nodes join, drain and
// leave a running cluster through the typed Membership API (AddNode,
// Drain, Remove, Plan, Rebalance) or its /v1/admin/nodes HTTP surface,
// and every ownership change is executed as a live state handoff over
// the nodes' /v1/admin/migrate protocol while client traffic is
// quiesced — devices observe added latency, never an error. DESIGN.md
// §5g walks through the epoch protocol and its crash windows.
package cluster

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"time"

	"repro/internal/auction"
	"repro/internal/envelope"
	"repro/internal/link"
	"repro/internal/obs"
	"repro/internal/transport"
)

// Defaults for the router's failure-handling knobs.
const (
	// DefaultFailThreshold is how many consecutive transport failures
	// open a node's circuit.
	DefaultFailThreshold = 3
	// DefaultMaxForwards bounds proxy attempts for one request. It
	// covers opening the circuit (FailThreshold failures) plus slack
	// for one park/rejoin cycle and a straggler failure after it.
	DefaultMaxForwards = 6
	// DefaultRetryAfter is the Retry-After value (seconds) on 503s.
	DefaultRetryAfter = 1
)

// hopTimeout bounds one router→node exchange on the default hop (the
// link enforces it as a connection deadline). Injected HTTP clients
// bring their own.
const hopTimeout = 10 * time.Second

// Member lifecycle states. A member id is its position in the node
// slice and is never reused: Remove tombstones the slot.
const (
	lifeActive  = iota // in the ring, owns clients, in every fan-out
	lifeDrained        // owns no clients; still in fan-outs (its ledger history must stay visible)
	lifeRemoved        // tombstone: out of placement, fan-outs and health
)

func lifeString(life int) string {
	switch life {
	case lifeDrained:
		return "drained"
	case lifeRemoved:
		return "removed"
	default:
		return "active"
	}
}

// node is one cluster member's routing state: its base URL and the
// failure circuit. epoch increments on every rejoin so a straggler
// failure from a previous incarnation cannot re-open a fresh circuit.
type node struct {
	idx int

	mu    sync.Mutex
	base  string
	life  int
	epoch int
	down  bool
	fails int           // consecutive transport failures this epoch
	upCh  chan struct{} // open while down; closed (and dropped) on rejoin

	forwards *obs.Counter // requests forwarded (attempts)
	failures *obs.Counter // transport failures observed
	downs    *obs.Counter // circuit-open transitions
}

// state snapshots the fields one forward attempt needs.
func (n *node) state() (base string, epoch int, up bool) {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.base, n.epoch, !n.down
}

// lifecycle reads the member's lifecycle state.
func (n *node) lifecycle() int {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.life
}

func (n *node) setLifecycle(life int) {
	n.mu.Lock()
	n.life = life
	n.mu.Unlock()
}

// fail records one transport failure observed by an attempt that was
// sent under epoch. Returns true when this failure opened the circuit.
func (n *node) fail(epoch, threshold int) bool {
	n.failures.Inc()
	n.mu.Lock()
	defer n.mu.Unlock()
	if epoch != n.epoch || n.down {
		return false // stale incarnation, or already down
	}
	n.fails++
	if n.fails < threshold {
		return false
	}
	n.down = true
	n.upCh = make(chan struct{})
	n.downs.Inc()
	return true
}

// ok resets the consecutive-failure counter after a successful proxy.
func (n *node) ok(epoch int) {
	n.mu.Lock()
	if epoch == n.epoch {
		n.fails = 0
	}
	n.mu.Unlock()
}

// awaitUp waits up to `wait` for the node's circuit to close. True when
// the node is (or became) up.
func (n *node) awaitUp(wait time.Duration) bool {
	n.mu.Lock()
	if !n.down {
		n.mu.Unlock()
		return true
	}
	ch := n.upCh
	n.mu.Unlock()
	if wait <= 0 {
		return false
	}
	t := time.NewTimer(wait)
	defer t.Stop()
	select {
	case <-ch:
		return true
	case <-t.C:
		return false
	}
}

// Membership is the typed initial composition of the cluster.
type Membership struct {
	// Nodes are the member base URLs. A member's id is its position
	// here (and, for members added later, its AddNode-assigned id);
	// ids are stable for the router's lifetime and never reused.
	Nodes []string
	// Replicas is the consistent-hash virtual-point count per member
	// for the default placement (<= 0 uses DefaultReplicas).
	Replicas int
}

// Router is the routing tier over an elastic set of nodes. Build with
// New, serve Handler, reshape with AddNode/Drain/Remove. Safe for
// concurrent use.
type Router struct {
	// nodesMu guards the nodes slice itself (appends, indexing). It is
	// deliberately separate from rebalanceMu so Rejoin/markDown — called
	// by restart machinery while a rebalance is parked waiting for that
	// very node — never block on an in-flight rebalance.
	nodesMu sync.Mutex
	nodes   []*node

	// rebalanceMu quiesces client traffic against membership changes:
	// every proxied request holds it shared, a rebalance holds it
	// exclusive. This — not luck — is why a mid-run rebalance produces
	// zero client-visible errors: devices queue behind the handoff and
	// resume against the new owner.
	rebalanceMu sync.RWMutex
	place       func(clientID int) int
	ring        *Ring
	replicas    int
	staticPlace bool
	epochSeq    uint64  // last issued migration epoch; under rebalanceMu
	active      []*node // members owning clients; under rebalanceMu, rebuilt by refreshActive on every lifecycle change

	hop hop
	reg *obs.Registry

	failThreshold int
	maxForwards   int
	rejoinWait    time.Duration
	adminToken    string

	unavailable  *obs.Counter
	rejoins      *obs.Counter
	migrations   *obs.Counter
	clientsMoved *obs.Counter
	misdirected  *obs.Counter

	proberStop chan struct{}
	proberDone chan struct{}
}

// Option configures a Router.
type Option func(*Router)

// WithPlacement overrides the client→node placement (default: a
// consistent-hash Ring over the member set). The differential harness
// passes shard.Route here so cluster-of-N matches single-process
// shards=N client for client. Static placement freezes membership:
// AddNode, Drain, Remove, Plan and Rebalance return ErrStaticPlacement.
func WithPlacement(place func(clientID int) int) Option {
	return func(rt *Router) { rt.place = place }
}

// WithHTTPClient makes the router→node hop plain HTTP through hc instead
// of the default persistent framed link (see internal/link) — for
// callers that need to see or tamper with the hop's requests: fault
// RoundTrippers in tests, span transports in the benchmark ladder, nodes
// that are bare http.Handlers without a link.Server in front.
func WithHTTPClient(hc *http.Client) Option {
	return func(rt *Router) { rt.hop = httpHop{hc} }
}

// withFailThreshold sets how many consecutive transport failures open a
// node's circuit: a test seam.
func withFailThreshold(k int) Option {
	return func(rt *Router) { rt.failThreshold = k }
}

// withMaxForwards bounds proxy attempts per request: a test seam.
func withMaxForwards(k int) Option {
	return func(rt *Router) { rt.maxForwards = k }
}

// WithRejoinWait sets how long a request for a down node parks awaiting
// its rejoin before giving up with 503. Zero (the default) fails fast.
func WithRejoinWait(d time.Duration) Option {
	return func(rt *Router) { rt.rejoinWait = d }
}

// WithAdminToken protects the control plane: the router's /v1/admin/*
// endpoints require "Authorization: Bearer <token>", and the router
// presents the same token on the admin calls it makes to nodes (pair it
// with transport.ShardedServer.AdminToken). Empty leaves admin open —
// the harness default.
func WithAdminToken(token string) Option {
	return func(rt *Router) { rt.adminToken = token }
}

// New builds a router over the given membership. The routing tier
// starts with every listed node active; reshape later with AddNode,
// Drain and Remove.
func New(m Membership, opts ...Option) (*Router, error) {
	if len(m.Nodes) == 0 {
		return nil, fmt.Errorf("cluster: router needs at least one node")
	}
	rt := &Router{
		nodes:         make([]*node, len(m.Nodes)),
		reg:           obs.NewRegistry(),
		replicas:      m.Replicas,
		failThreshold: DefaultFailThreshold,
		maxForwards:   DefaultMaxForwards,
	}
	rt.reg.SetHelp("cluster_node_unavailable_total", "Requests refused with 503 because the target node was unavailable past patience.")
	rt.reg.SetHelp("cluster_forwards_total", "Proxy attempts sent to the node.")
	rt.reg.SetHelp("cluster_node_failures_total", "Transport failures observed talking to the node.")
	rt.reg.SetHelp("cluster_node_down_total", "Circuit-open transitions for the node.")
	rt.reg.SetHelp("cluster_rejoins_total", "Node rejoin events (explicit or prober-detected).")
	rt.reg.SetHelp("cluster_migrations_total", "Completed rebalances that moved at least one client.")
	rt.reg.SetHelp("cluster_clients_moved_total", "Clients handed off between nodes by rebalances.")
	rt.reg.SetHelp("cluster_misdirected_total", "Client requests the placed node refused with 421 and the router re-resolved against the other members.")
	rt.reg.SetHelp("cluster_nodes", "Cluster size (members not removed).")
	rt.reg.SetHelp("cluster_nodes_down", "Nodes currently out of rotation.")
	rt.unavailable = rt.reg.Counter("cluster_node_unavailable_total")
	rt.rejoins = rt.reg.Counter("cluster_rejoins_total")
	rt.migrations = rt.reg.Counter("cluster_migrations_total")
	rt.clientsMoved = rt.reg.Counter("cluster_clients_moved_total")
	rt.misdirected = rt.reg.Counter("cluster_misdirected_total")
	for i, base := range m.Nodes {
		rt.nodes[i] = rt.newNode(i, base)
	}
	rt.reg.GaugeFunc("cluster_nodes", func() float64 {
		c := 0
		for _, n := range rt.members() {
			if n.lifecycle() != lifeRemoved {
				c++
			}
		}
		return float64(c)
	})
	rt.reg.GaugeFunc("cluster_nodes_down", func() float64 {
		d := 0
		for _, n := range rt.members() {
			if _, _, up := n.state(); !up && n.lifecycle() != lifeRemoved {
				d++
			}
		}
		return float64(d)
	})
	for _, o := range opts {
		o(rt)
	}
	if rt.place == nil {
		ids := make([]int, len(m.Nodes))
		for i := range ids {
			ids[i] = i
		}
		rt.ring = NewRingOf(ids, m.Replicas)
		rt.place = rt.ring.Place
	} else {
		rt.staticPlace = true
	}
	if rt.hop == nil {
		rt.hop = linkHop{link.NewClient(rt.reg, hopTimeout, relayHeaders[:])}
	}
	rt.refreshActive()
	if rt.failThreshold < 1 {
		rt.failThreshold = 1
	}
	if rt.maxForwards < 1 {
		rt.maxForwards = 1
	}
	return rt, nil
}

func (rt *Router) newNode(id int, base string) *node {
	label := strconv.Itoa(id)
	return &node{
		idx:      id,
		base:     base,
		forwards: rt.reg.Counter("cluster_forwards_total", "node", label),
		failures: rt.reg.Counter("cluster_node_failures_total", "node", label),
		downs:    rt.reg.Counter("cluster_node_down_total", "node", label),
	}
}

// members snapshots the node slice.
func (rt *Router) members() []*node {
	rt.nodesMu.Lock()
	defer rt.nodesMu.Unlock()
	return append([]*node(nil), rt.nodes...)
}

// nodeAt returns member i, or nil when out of range.
func (rt *Router) nodeAt(i int) *node {
	rt.nodesMu.Lock()
	defer rt.nodesMu.Unlock()
	if i < 0 || i >= len(rt.nodes) {
		return nil
	}
	return rt.nodes[i]
}

// Registry exposes the router's own metrics (served at /v1/metrics).
func (rt *Router) Registry() *obs.Registry { return rt.reg }

// Nodes returns the cluster size (members not removed).
func (rt *Router) Nodes() int {
	c := 0
	for _, n := range rt.members() {
		if n.lifecycle() != lifeRemoved {
			c++
		}
	}
	return c
}

// nodeDown reports whether node i's circuit is currently open.
func (rt *Router) nodeDown(i int) bool {
	n := rt.nodeAt(i)
	if n == nil {
		return true
	}
	_, _, up := n.state()
	return !up
}

// Place returns the member id that owns a client id.
func (rt *Router) Place(clientID int) int {
	rt.rebalanceMu.RLock()
	defer rt.rebalanceMu.RUnlock()
	return rt.place(clientID)
}

// markDown takes node i out of rotation, the way tests force the down
// path without burning the failure threshold.
func (rt *Router) markDown(i int) {
	n := rt.nodeAt(i)
	if n == nil {
		return
	}
	n.mu.Lock()
	if !n.down {
		n.down = true
		n.upCh = make(chan struct{})
		n.downs.Inc()
	}
	n.mu.Unlock()
}

// Rejoin puts node i back into rotation, optionally at a new base URL
// (the restarted process may listen elsewhere). The circuit closes,
// the epoch advances so stale failures are discarded, and every parked
// request re-forwards. Never blocks on an in-flight rebalance: the
// rebalance itself may be the parked caller awaiting this rejoin.
func (rt *Router) Rejoin(i int, baseURL string) {
	n := rt.nodeAt(i)
	if n == nil {
		return
	}
	n.mu.Lock()
	old := n.base
	if baseURL != "" {
		n.base = baseURL
	}
	n.epoch++
	n.fails = 0
	if n.down {
		n.down = false
		close(n.upCh)
		n.upCh = nil
	}
	n.mu.Unlock()
	// Whatever the hop pooled belongs to the previous incarnation.
	rt.hop.forget(old)
	rt.rejoins.Inc()
}

// StartProber launches a background goroutine that polls down nodes'
// /v1/health every interval and rejoins them at their existing base URL
// when they answer. For deployments where nobody calls Rejoin
// explicitly (adserverd -route-nodes). Stop with Close.
func (rt *Router) StartProber(interval time.Duration) {
	if rt.proberStop != nil {
		return
	}
	rt.proberStop = make(chan struct{})
	rt.proberDone = make(chan struct{})
	go func() {
		defer close(rt.proberDone)
		tick := time.NewTicker(interval)
		defer tick.Stop()
		for {
			select {
			case <-rt.proberStop:
				return
			case <-tick.C:
			}
			for _, n := range rt.members() {
				base, _, up := n.state()
				if up || n.lifecycle() == lifeRemoved {
					continue
				}
				if _, err := rt.hop.roundTrip(base, http.MethodGet, "/v1/health", nil, nil); err != nil {
					continue
				}
				rt.Rejoin(n.idx, "")
			}
		}
	}()
}

// Close stops the prober (if started) and closes the hop's pooled
// connections.
func (rt *Router) Close() {
	if rt.proberStop != nil {
		close(rt.proberStop)
		<-rt.proberDone
		rt.proberStop, rt.proberDone = nil, nil
	}
	rt.hop.close()
}

// clusterEndpoints label the router's obs middleware series.
var clusterEndpoints = []string{
	"/v1/period/start", "/v1/period/end", "/v1/bundle", "/v1/slot",
	"/v1/report", "/v1/cancelled", "/v1/ondemand", "/v1/batch",
	"/v1/ledger", "/v1/stats", "/v1/health", "/v1/metrics",
	"/v1/admin/nodes", "/v1/admin/nodes/add", "/v1/admin/nodes/drain",
	"/v1/admin/nodes/remove", "/v1/admin/plan", "/v1/admin/config",
}

// Handler returns the routing tier's HTTP handler. It serves the same
// /v1 surface as a node — client-scoped endpoints proxy to the owning
// node, period rounds and the merged read views fan out to all members,
// /v1/metrics exposes the router's own registry — plus the membership
// control plane under /v1/admin (see membership.go).
func (rt *Router) Handler() http.Handler {
	mux := http.NewServeMux()
	for _, p := range []string{"/v1/bundle", "/v1/slot", "/v1/report", "/v1/cancelled", "/v1/ondemand", "/v1/batch"} {
		mux.HandleFunc(p, rt.handleClient)
	}
	mux.HandleFunc("POST /v1/period/start", fanoutHandler(rt, sum[transport.PeriodStartReply]))
	mux.HandleFunc("POST /v1/period/end", fanoutHandler(rt, sum[transport.PeriodEndReply]))
	mux.HandleFunc("GET /v1/ledger", fanoutHandler(rt, sum[auction.Ledger]))
	mux.HandleFunc("GET /v1/stats", fanoutHandler(rt, transport.MergeStats))
	mux.HandleFunc("GET /v1/health", rt.handleHealth)
	mux.Handle("GET /v1/metrics", rt.reg.Handler())
	mux.HandleFunc("GET /v1/admin/nodes", rt.adminAuth(rt.handleAdminNodes))
	mux.HandleFunc("POST /v1/admin/nodes/add", rt.adminAuth(rt.handleAdminAdd))
	mux.HandleFunc("POST /v1/admin/nodes/drain", rt.adminAuth(rt.handleAdminDrain))
	mux.HandleFunc("POST /v1/admin/nodes/remove", rt.adminAuth(rt.handleAdminRemove))
	mux.HandleFunc("POST /v1/admin/rebalance", rt.adminAuth(rt.handleAdminRebalance))
	mux.HandleFunc("GET /v1/admin/plan", rt.adminAuth(rt.handleAdminPlan))
	mux.HandleFunc("POST /v1/admin/config", rt.adminAuth(rt.handleAdminConfig))
	return obs.Middleware(rt.reg, mux, clusterEndpoints...)
}

// proxied is one node's buffered response: status, the relayHeaders it
// carried, body.
type proxied = link.Response

// forwardHeaders are the request headers the router relays to nodes:
// the idempotency identity, the retry attempt, the protocol version
// negotiation, the body codec, the tenant declaration (so a node's
// wire-tenant guard sees the same identity a direct client presents),
// and the bearer token the router presents on its own admin calls.
// Canonical MIME keys: they index http.Header maps directly and travel
// verbatim in link frames.
var forwardHeaders = [...]string{
	"Idempotency-Key", "X-Retry-Attempt", transport.VersionHeader, "Content-Type",
	transport.TenantHeader, "Authorization",
}

// relayHeaders are the response headers relayed back to the client
// (canonical keys, as above).
var relayHeaders = [...]string{
	"Content-Type", "Retry-After", transport.VersionHeader, obs.ReplayedHeader,
}

// hop carries one buffered exchange from the router to the node at
// base. An error means no complete reply arrived (forward counts it
// against the node's circuit); a reply of any status is returned as-is.
// Two implementations: the persistent framed link (the default), and
// plain HTTP through an injected client.
type hop interface {
	roundTrip(base, method, uri string, hdr http.Header, body []byte) (*proxied, error)
	// forget drops whatever is pooled for base: the node there was
	// replaced or removed.
	forget(base string)
	close()
}

// linkHop sends the exchange as one frame over a pooled link connection.
type linkHop struct{ c *link.Client }

func (l linkHop) roundTrip(base, method, uri string, hdr http.Header, body []byte) (*proxied, error) {
	var kv [len(forwardHeaders)]link.Header
	n := 0
	for _, name := range forwardHeaders {
		if vs := hdr[name]; len(vs) > 0 && vs[0] != "" {
			kv[n] = link.Header{Name: name, Value: vs[0]}
			n++
		}
	}
	return l.c.Do(base, method, uri, kv[:n], body)
}

func (l linkHop) forget(base string) { l.c.Forget(base) }
func (l linkHop) close()             { l.c.Close() }

// httpHop sends the exchange as one HTTP request through the injected
// client; pooling and dead-connection handling are that client's.
type httpHop struct{ hc *http.Client }

func (h httpHop) roundTrip(base, method, uri string, hdr http.Header, body []byte) (*proxied, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, base+uri, rd)
	if err != nil {
		return nil, err
	}
	for _, name := range forwardHeaders {
		if vs := hdr[name]; len(vs) > 0 && vs[0] != "" {
			req.Header[name] = vs[:1]
		}
	}
	resp, err := h.hc.Do(req)
	if err != nil {
		return nil, err
	}
	respBody, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, err
	}
	p := &proxied{Status: resp.StatusCode, Body: respBody}
	for _, name := range relayHeaders {
		if vs := resp.Header[name]; len(vs) > 0 && vs[0] != "" {
			p.Header = append(p.Header, link.Header{Name: name, Value: vs[0]})
		}
	}
	return p, nil
}

func (h httpHop) forget(string) {}
func (h httpHop) close()        { h.hc.CloseIdleConnections() }

// forward proxies one buffered request to a node, riding out failures:
// hop errors count against the node's circuit, a down node parks the
// attempt for up to rejoinWait, and a response — any status — is
// returned as-is. ok is false when the node stayed unavailable past the
// attempt budget or patience window.
func (rt *Router) forward(n *node, method, uri string, hdr http.Header, body []byte) (*proxied, bool) {
	for attempt := 0; attempt < rt.maxForwards; attempt++ {
		if !n.awaitUp(rt.rejoinWait) {
			return nil, false
		}
		base, epoch, up := n.state()
		if !up {
			continue // went down again between awaitUp and snapshot
		}
		n.forwards.Inc()
		p, err := rt.hop.roundTrip(base, method, uri, hdr, body)
		if err != nil {
			n.fail(epoch, rt.failThreshold)
			continue
		}
		n.ok(epoch)
		return p, true
	}
	return nil, false
}

// unavailableErr writes the well-formed refusal for a dead node: 503
// with Retry-After, never a raw transport error. Counted in
// cluster_node_unavailable_total.
func (rt *Router) unavailableErr(w http.ResponseWriter, nodeIdx int) {
	rt.unavailable.Inc()
	w.Header().Set(transport.VersionHeader, strconv.Itoa(transport.ProtocolVersion))
	w.Header().Set("Retry-After", strconv.Itoa(DefaultRetryAfter))
	http.Error(w, fmt.Sprintf("cluster: node %d unavailable", nodeIdx), http.StatusServiceUnavailable)
}

// writeProxied relays a node response to the client.
func writeProxied(w http.ResponseWriter, p *proxied) {
	out := w.Header()
	for _, h := range p.Header {
		out[h.Name] = []string{h.Value}
	}
	w.WriteHeader(p.Status)
	w.Write(p.Body)
}

// handleClient proxies a client-scoped request to the node owning its
// client id. Holding rebalanceMu shared means the placement cannot
// change under the request; if the placed node still answers 421 (an
// interrupted rebalance left ownership ahead of placement), the router
// re-resolves by asking the other members — the double-read fallback —
// so not even that window surfaces an error to the device.
func (rt *Router) handleClient(w http.ResponseWriter, r *http.Request) {
	rt.rebalanceMu.RLock()
	defer rt.rebalanceMu.RUnlock()
	body, ok := readRequestBody(w, r)
	if !ok {
		return
	}
	clientID, ok := requestClientID(r, body)
	if !ok {
		if len(rt.active) > 1 {
			http.Error(w, "cluster: request carries no routable client id", http.StatusBadRequest)
			return
		}
		clientID = 0 // single node: nothing to place
	}
	n := rt.nodeAt(rt.place(clientID))
	if n == nil {
		http.Error(w, "cluster: placement names an unknown member", http.StatusBadGateway)
		return
	}
	uri := r.URL.RequestURI()
	p, up := rt.forward(n, r.Method, uri, r.Header, body)
	if !up {
		rt.unavailableErr(w, n.idx)
		return
	}
	if p.Status == http.StatusMisdirectedRequest {
		rt.misdirected.Inc()
		for _, m := range rt.active {
			if m.idx == n.idx {
				continue
			}
			if p2, up2 := rt.forward(m, r.Method, uri, r.Header, body); up2 && p2.Status != http.StatusMisdirectedRequest {
				p = p2
				break
			}
		}
	}
	writeProxied(w, p)
}

// readRequestBody buffers a non-GET request's body once. A body past
// transport.MaxBodyBytes is refused with 400, as a node's own readBody
// refuses it, and none of it is forwarded. ok is false after a 400 was
// written.
func readRequestBody(w http.ResponseWriter, r *http.Request) (body []byte, ok bool) {
	if r.Body == nil || r.Method == http.MethodGet {
		return nil, true
	}
	var err error
	switch n := r.ContentLength; {
	case n > transport.MaxBodyBytes:
		err = &http.MaxBytesError{Limit: transport.MaxBodyBytes}
	case n >= 0:
		body = make([]byte, n)
		_, err = io.ReadFull(r.Body, body)
	default:
		body, err = io.ReadAll(http.MaxBytesReader(w, r.Body, transport.MaxBodyBytes))
	}
	r.Body.Close()
	r.Body = http.NoBody
	if err != nil {
		http.Error(w, "cluster: reading request body: "+err.Error(), http.StatusBadRequest)
		return nil, false
	}
	return body, true
}

// requestClientID resolves the routed client id from the request line
// or the body bytes the router already holds: the client query
// parameter wins, else a POST body's envelope field or binary frame
// header (envelope.ClientID).
func requestClientID(r *http.Request, body []byte) (int, bool) {
	if r.URL.RawQuery != "" {
		if raw := r.URL.Query().Get("client"); raw != "" {
			c, err := strconv.Atoi(raw)
			return c, err == nil
		}
	}
	if r.Method != http.MethodPost {
		return 0, false
	}
	return envelope.ClientID(body)
}

// fanoutMembers are the nodes a barrier includes: everything not
// removed. Drained members still participate — they own no clients,
// but their ledgers hold the history of events they served.
func (rt *Router) fanoutMembers() []*node {
	var out []*node
	for _, n := range rt.members() {
		if n.lifecycle() != lifeRemoved {
			out = append(out, n)
		}
	}
	return out
}

// refreshActive rebuilds rt.active, the members currently owning
// clients. Every lifecycle change calls it while holding rebalanceMu
// exclusively, so request handlers (which hold it shared) read the slice
// without rebuilding it.
func (rt *Router) refreshActive() {
	rt.active = nil
	for _, n := range rt.members() {
		if n.lifecycle() == lifeActive {
			rt.active = append(rt.active, n)
		}
	}
}

// fanout forwards one request to every participating node concurrently
// and collects the responses. The first unavailable node aborts the
// round with its id; the caller answers 503 and lets the sender retry
// the whole round under the same idempotency key (nodes that already
// executed it replay from their dedup windows and period-round caches).
func (rt *Router) fanout(method, uri string, hdr http.Header, body []byte) ([]*proxied, int) {
	nodes := rt.fanoutMembers()
	out := make([]*proxied, len(nodes))
	var wg sync.WaitGroup
	for i, n := range nodes {
		wg.Add(1)
		go func(i int, n *node) {
			defer wg.Done()
			if p, up := rt.forward(n, method, uri, hdr, body); up {
				out[i] = p
			}
		}(i, n)
	}
	wg.Wait()
	for i, p := range out {
		if p == nil {
			return nil, nodes[i].idx
		}
	}
	return out, -1
}

// fanoutHandler builds the handler for a fan-out endpoint: forward to
// all nodes, propagate the first non-2xx node response verbatim
// (idempotency conflicts, version refusals and validation errors must
// reach the coordinator unchanged), and answer the view's one merge
// (transport.MergeStats, or sum over the view's Add) of the 2xx bodies
// decoded as T. The router holds no view arithmetic of its own.
func fanoutHandler[T any](rt *Router, merge func(parts []T) T) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		rt.rebalanceMu.RLock()
		defer rt.rebalanceMu.RUnlock()
		body, ok := readRequestBody(w, r)
		if !ok {
			return
		}
		out, deadNode := rt.fanout(r.Method, r.URL.RequestURI(), r.Header, body)
		if deadNode >= 0 {
			rt.unavailableErr(w, deadNode)
			return
		}
		for _, p := range out {
			if p.Status < 200 || p.Status > 299 {
				writeProxied(w, p)
				return
			}
		}
		parts, ok := decodeParts[T](w, out)
		if !ok {
			return
		}
		buf, err := json.Marshal(merge(parts))
		if err != nil {
			http.Error(w, "cluster: encoding merged reply", http.StatusInternalServerError)
			return
		}
		// All nodes replayed ⇒ the round as a whole is a replay; any
		// node executing fresh makes the merged reply fresh.
		replayed := true
		for _, p := range out {
			if p.Get(obs.ReplayedHeader) != "true" {
				replayed = false
				break
			}
		}
		if replayed {
			w.Header().Set(obs.ReplayedHeader, "true")
		}
		w.Header().Set("Content-Type", "application/json")
		w.Header().Set(transport.VersionHeader, strconv.Itoa(transport.ProtocolVersion))
		w.Write(buf)
	}
}

// decodeParts decodes the nodes' 2xx bodies as T, in member order. ok
// is false after a 502 was written.
func decodeParts[T any](w http.ResponseWriter, out []*proxied) ([]T, bool) {
	parts := make([]T, len(out))
	for i, p := range out {
		if err := json.Unmarshal(p.Body, &parts[i]); err != nil {
			http.Error(w, fmt.Sprintf("cluster: merging node replies: %v", err), http.StatusBadGateway)
			return nil, false
		}
	}
	return parts, true
}

// sum folds the parts, in order, with the view's own Add.
func sum[T any, P interface {
	*T
	Add(T)
}](parts []T) T {
	var total T
	for _, p := range parts {
		P(&total).Add(p)
	}
	return total
}

// handleHealth probes every member best-effort and merges the replies
// with transport.MergeHealth into the same typed HealthReply a single
// node answers, Nodes carrying each member's own reply. A down or
// unreachable node marks the cluster degraded instead of failing the
// scrape, so the health view stays usable mid-outage. Probing never
// parks (health must answer promptly while a node restarts).
func (rt *Router) handleHealth(w http.ResponseWriter, r *http.Request) {
	rt.rebalanceMu.RLock()
	defer rt.rebalanceMu.RUnlock()
	nodes := rt.fanoutMembers()
	healths := make([]transport.NodeHealth, len(nodes))
	var wg sync.WaitGroup
	for i, n := range nodes {
		wg.Add(1)
		go func(i int, n *node) {
			defer wg.Done()
			base, epoch, up := n.state()
			nh := transport.NodeHealth{Node: n.idx, URL: base, State: lifeString(n.lifecycle()), Down: !up}
			if up {
				p, err := rt.hop.roundTrip(base, http.MethodGet, r.URL.RequestURI(), nil, nil)
				var h transport.HealthReply
				switch {
				case err != nil:
					n.fail(epoch, rt.failThreshold)
					nh.Down = true
				case p.Status == http.StatusOK && json.Unmarshal(p.Body, &h) == nil:
					n.ok(epoch)
					nh.Detail = &h
				default:
					nh.Down = true
				}
			}
			healths[i] = nh
		}(i, n)
	}
	wg.Wait()
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set(transport.VersionHeader, strconv.Itoa(transport.ProtocolVersion))
	json.NewEncoder(w).Encode(transport.MergeHealth(healths))
}
