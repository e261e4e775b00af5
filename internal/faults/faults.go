// Package faults injects deterministic network faults into the HTTP
// transport stack, so resilience can be tested with reproducible chaos
// runs. A Plan assigns each endpoint a Rule of per-attempt fault rates
// (request dropped, reply delayed past the client timeout, synthesized
// 5xx, connection reset, truncated body) plus timed shard partitions.
//
// Determinism is the load-bearing property: every fault decision is a
// pure hash of (seed, endpoint, request identity, attempt number) —
// never a shared random stream — so the injected fault sequence does
// not depend on goroutine interleaving or request arrival order. Two
// chaos runs with the same seed replay the same faults even though the
// HTTP requests race.
//
// Request identity rides two headers set by the transport clients:
// Idempotency-Key (stable across retries of one logical request) and
// X-Retry-Attempt (1-based attempt counter). Requests without the
// headers fall back to method+URL identity with attempt 1, which is
// deterministic for non-retried traffic.
//
// The plan is enforced at two points, matching where real faults live:
//
//   - RoundTripper wraps a client transport and injects the faults that
//     happen on the wire: drops (request never reaches the server),
//     delays/resets/truncations (the server processed the request but
//     the client never learns the outcome — the cases that force the
//     idempotency machinery to prove itself).
//   - Middleware wraps the server handler and injects the faults that
//     happen in front of the handler: synthesized 5xx (no side effects)
//     and shard partitions (every request for a partitioned shard's
//     clients fails for a time window).
//
// Install both for the full taxonomy; each alone injects its subset.
// Both layers consult the same pure decision function, so a single
// attempt never suffers two faults at once.
package faults

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"

	"repro/internal/envelope"
	"repro/internal/simclock"
)

// Header names carrying request identity (see package doc).
const (
	IdempotencyKeyHeader = "Idempotency-Key"
	AttemptHeader        = "X-Retry-Attempt"
)

// BatchPath is the coalesced-envelope endpoint. Batch requests get
// per-sub-op fault decisions (see DecideBatch) instead of a single
// carrier-level draw, so whether a sub-op suffers chaos does not depend
// on which envelope happened to carry it.
const BatchPath = "/v1/batch"

// Kind labels one injected fault class.
type Kind int

const (
	// None: the attempt proceeds unharmed.
	None Kind = iota
	// Drop: the request is lost before reaching the server. No side
	// effects; the client sees a connection error.
	Drop
	// ServerErr: the server answers 503 before the handler runs. No
	// side effects. Injected by Middleware only.
	ServerErr
	// Delay: the server processes the request but the reply is delayed
	// past the client's timeout. Side effects applied; client errors.
	Delay
	// Reset: the connection is reset after the server processed the
	// request. Side effects applied; the client sees a reset error.
	Reset
	// Truncate: the reply body is cut short. Side effects applied; the
	// client's JSON decode fails.
	Truncate
)

// String names the fault kind.
func (k Kind) String() string {
	switch k {
	case None:
		return "none"
	case Drop:
		return "drop"
	case ServerErr:
		return "5xx"
	case Delay:
		return "delay"
	case Reset:
		return "reset"
	case Truncate:
		return "truncate"
	}
	return fmt.Sprintf("kind(%d)", int(k))
}

// Error is the injected client-visible failure.
type Error struct {
	Kind     Kind
	Endpoint string
	Attempt  int
}

func (e *Error) Error() string {
	return fmt.Sprintf("faults: injected %s on %s (attempt %d)", e.Kind, e.Endpoint, e.Attempt)
}

// Rule is one endpoint's per-attempt fault rates. Rates are mutually
// exclusive per attempt (one uniform draw selects among them), so their
// sum must be <= 1.
type Rule struct {
	Drop      float64 // request lost, no server side effects
	ServerErr float64 // synthesized 503, no server side effects
	Delay     float64 // processed, reply late (client times out)
	Reset     float64 // processed, connection reset
	Truncate  float64 // processed, reply body cut short

	// MaxFaults bounds how many faults one logical request (one
	// idempotency key) may suffer across its retries; 0 means
	// unbounded. A bound guarantees a client with MaxFaults+1 attempts
	// makes progress, which keeps chaos runs finite.
	MaxFaults int
}

func (r Rule) total() float64 {
	return r.Drop + r.ServerErr + r.Delay + r.Reset + r.Truncate
}

// Validate checks the rule's rates.
func (r Rule) Validate() error {
	for _, p := range []float64{r.Drop, r.ServerErr, r.Delay, r.Reset, r.Truncate} {
		if p < 0 || p > 1 {
			return fmt.Errorf("faults: rate %v out of [0,1]", p)
		}
	}
	if t := r.total(); t > 1 {
		return fmt.Errorf("faults: rates sum to %v > 1", t)
	}
	if r.MaxFaults < 0 {
		return fmt.Errorf("faults: negative MaxFaults %d", r.MaxFaults)
	}
	return nil
}

// Partition takes one shard off the network for a window of virtual
// time: every client-scoped request routed to that shard fails with 503
// while From <= now < To. Requests without a client id (period
// start/end, ledger, stats) are not affected — the coordinator reaches
// the service; the partitioned shard's clients do not.
type Partition struct {
	Shard    int
	From, To simclock.Time
}

// Plan is a complete seeded fault schedule.
type Plan struct {
	Seed int64

	// Default applies to endpoints without an explicit entry.
	Default Rule

	// Endpoints overrides the default per URL path (e.g. "/v1/report").
	Endpoints map[string]Rule

	// Partitions are timed shard blackouts, enforced by Middleware.
	Partitions []Partition

	counts [Truncate + 1]atomic.Int64
}

// Validate checks every rule and partition window.
func (p *Plan) Validate() error {
	if err := p.Default.Validate(); err != nil {
		return err
	}
	for ep, r := range p.Endpoints {
		if err := r.Validate(); err != nil {
			return fmt.Errorf("%s: %w", ep, err)
		}
	}
	for _, pt := range p.Partitions {
		if pt.Shard < 0 {
			return fmt.Errorf("faults: negative partition shard %d", pt.Shard)
		}
		if pt.To < pt.From {
			return fmt.Errorf("faults: partition window [%v,%v) inverted", pt.From, pt.To)
		}
	}
	return nil
}

// Injected returns how many faults of one kind this plan has injected
// (both layers combined), for test assertions that chaos actually
// happened.
func (p *Plan) Injected(k Kind) int64 { return p.counts[k].Load() }

// InjectedTotal sums injected faults across kinds.
func (p *Plan) InjectedTotal() int64 {
	var t int64
	for k := Drop; k <= Truncate; k++ {
		t += p.counts[k].Load()
	}
	return t
}

func (p *Plan) rule(endpoint string) Rule {
	if r, ok := p.Endpoints[endpoint]; ok {
		return r
	}
	return p.Default
}

// uniform maps (seed, endpoint, identity, attempt) to a deterministic
// draw in [0,1).
func (p *Plan) uniform(endpoint, identity string, attempt int) float64 {
	h := fnv.New64a()
	var buf [16]byte
	s, a := uint64(p.Seed), uint64(attempt)
	for i := 0; i < 8; i++ {
		buf[i] = byte(s >> (8 * i))
		buf[8+i] = byte(a >> (8 * i))
	}
	h.Write(buf[:])
	io.WriteString(h, endpoint)
	io.WriteString(h, "\x00")
	io.WriteString(h, identity)
	// FNV avalanches poorly on short inputs; finish with a
	// splitmix64-style mix so the rates are honest.
	x := h.Sum64()
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return float64(x>>11) / float64(1<<53)
}

// decideOnce selects the fault (if any) for a single attempt, ignoring
// the MaxFaults budget.
func (p *Plan) decideOnce(r Rule, endpoint, identity string, attempt int) Kind {
	u := p.uniform(endpoint, identity, attempt)
	for _, c := range []struct {
		prob float64
		kind Kind
	}{
		{r.Drop, Drop},
		{r.ServerErr, ServerErr},
		{r.Delay, Delay},
		{r.Reset, Reset},
		{r.Truncate, Truncate},
	} {
		if u < c.prob {
			return c.kind
		}
		u -= c.prob
	}
	return None
}

// Decide returns the fault injected on the given attempt of a logical
// request. It is a pure function: the RoundTripper and the Middleware
// both call it and agree on the outcome, and MaxFaults accounting is
// recomputed from earlier attempts' decisions instead of shared state.
func (p *Plan) Decide(endpoint, identity string, attempt int) Kind {
	r := p.rule(endpoint)
	if r.total() == 0 {
		return None
	}
	if attempt < 1 {
		attempt = 1
	}
	if r.MaxFaults > 0 {
		fired := 0
		for k := 1; k < attempt; k++ {
			if p.decideOnce(r, endpoint, identity, k) != None {
				fired++
			}
		}
		if fired >= r.MaxFaults {
			return None
		}
	}
	return p.decideOnce(r, endpoint, identity, attempt)
}

// DecideBatch returns the fault injected on the given attempt of a
// batch envelope carrying the listed sub-op identities (idempotency
// keys, in op order). Each sub-op draws independently under its own
// identity — the same draw it would get as a sequential request to
// endpoint — and the first sub-op whose draw fires sinks the whole
// carrier (the envelope is one wire request: if any part of it is
// dropped, delayed or reset, the client loses the entire reply). The
// MaxFaults budget is counted at the carrier level across attempts, so
// a retrying client still makes progress within MaxFaults+1 attempts
// no matter how many sub-ops it coalesced.
//
// With no identities (an unkeyed envelope) it falls back to Decide
// under the carrier's own identity.
func (p *Plan) DecideBatch(endpoint string, identities []string, attempt int) Kind {
	if len(identities) == 0 {
		return p.Decide(endpoint, "", attempt)
	}
	r := p.rule(endpoint)
	if r.total() == 0 {
		return None
	}
	if attempt < 1 {
		attempt = 1
	}
	decide := func(a int) Kind {
		for _, id := range identities {
			if k := p.decideOnce(r, endpoint, id, a); k != None {
				return k
			}
		}
		return None
	}
	if r.MaxFaults > 0 {
		fired := 0
		for a := 1; a < attempt; a++ {
			if decide(a) != None {
				fired++
			}
		}
		if fired >= r.MaxFaults {
			return None
		}
	}
	return decide(attempt)
}

// batchIdentities extracts the sub-op idempotency keys from a batch
// envelope body (restored for the next reader) in whichever codec
// carried it — a binary frame is recognised by its magic, anything else
// is read as the JSON envelope — so a sub-op's chaos draw does not
// depend on the codec: the property the binary-vs-JSON chaos
// differential rests on. Nil when the request is not a parseable batch
// POST or carries no keyed sub-ops.
func batchIdentities(r *http.Request) []string {
	if r.Body == nil || r.Method != http.MethodPost {
		return nil
	}
	body, err := io.ReadAll(io.LimitReader(r.Body, 1<<20))
	r.Body.Close()
	r.Body = io.NopCloser(bytes.NewReader(body))
	if err != nil {
		return nil
	}
	env, err := envelope.DecodeMsg(body)
	if err != nil && json.Unmarshal(body, &env) != nil {
		return nil
	}
	var ids []string
	for _, op := range env.Ops {
		if op.Key != "" {
			ids = append(ids, op.Key)
		}
	}
	return ids
}

// decideRequest routes a request to the right decision function: batch
// envelopes get per-sub-op draws, everything else the single-identity
// Decide. Both enforcement layers call it, so they keep agreeing on the
// outcome.
func (p *Plan) decideRequest(r *http.Request) Kind {
	identity, attempt := identityOf(r)
	if r.URL.Path == BatchPath {
		if ids := batchIdentities(r); len(ids) > 0 {
			return p.DecideBatch(BatchPath, ids, attempt)
		}
	}
	return p.Decide(r.URL.Path, identity, attempt)
}

// identityOf extracts the logical request identity and attempt number.
func identityOf(req *http.Request) (identity string, attempt int) {
	identity = req.Header.Get(IdempotencyKeyHeader)
	if identity == "" {
		identity = req.Method + " " + req.URL.RequestURI()
	}
	attempt, _ = strconv.Atoi(req.Header.Get(AttemptHeader))
	if attempt < 1 {
		attempt = 1
	}
	return identity, attempt
}

// roundTripper injects wire faults in front of an inner transport.
type roundTripper struct {
	plan  *Plan
	inner http.RoundTripper
}

// RoundTripper wraps an HTTP transport with the plan's wire faults
// (Drop, Delay, Reset, Truncate). inner may be nil for the default
// transport. ServerErr and Partitions need the Middleware: a wrapped
// client passes those attempts through untouched.
func (p *Plan) RoundTripper(inner http.RoundTripper) http.RoundTripper {
	if inner == nil {
		inner = http.DefaultTransport
	}
	return &roundTripper{plan: p, inner: inner}
}

func (t *roundTripper) RoundTrip(req *http.Request) (*http.Response, error) {
	_, attempt := identityOf(req)
	endpoint := req.URL.Path
	kind := t.plan.decideRequest(req)
	fail := &Error{Kind: kind, Endpoint: endpoint, Attempt: attempt}
	switch kind {
	case Drop:
		// Lost before the server: consume the body (net/http contract)
		// and error out without side effects.
		if req.Body != nil {
			io.Copy(io.Discard, req.Body)
			req.Body.Close()
		}
		t.plan.counts[Drop].Add(1)
		return nil, fail
	case Delay, Reset:
		// The server processes the request; the client never sees the
		// reply.
		resp, err := t.inner.RoundTrip(req)
		if err != nil {
			return nil, err
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		t.plan.counts[kind].Add(1)
		return nil, fail
	case Truncate:
		resp, err := t.inner.RoundTrip(req)
		if err != nil {
			return nil, err
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			return nil, err
		}
		t.plan.counts[Truncate].Add(1)
		resp.Body = io.NopCloser(bytes.NewReader(body[:len(body)/2]))
		resp.ContentLength = int64(len(body) / 2)
		return resp, nil
	}
	return t.inner.RoundTrip(req)
}

// requestID is the subset of the wire DTOs the middleware needs to
// route partition decisions.
type requestID struct {
	Client *int  `json:"client"`
	NowNS  int64 `json:"now_ns"`
}

// Middleware wraps a server handler with the plan's server-side faults:
// synthesized 5xx and timed shard partitions. route maps a client id to
// its shard index (e.g. a closure over shard.Route).
func (p *Plan) Middleware(next http.Handler, route func(clientID int) int) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if p.decideRequest(r) == ServerErr {
			p.counts[ServerErr].Add(1)
			http.Error(w, "faults: injected server error", http.StatusServiceUnavailable)
			return
		}
		if len(p.Partitions) > 0 && route != nil {
			client, now, ok := clientAndNow(r)
			if ok {
				shard := route(client)
				for _, pt := range p.Partitions {
					if shard == pt.Shard && now >= pt.From && now < pt.To {
						p.counts[Drop].Add(1)
						http.Error(w, fmt.Sprintf("faults: shard %d partitioned", shard), http.StatusServiceUnavailable)
						return
					}
				}
			}
		}
		next.ServeHTTP(w, r)
	})
}

// clientAndNow extracts (client id, virtual now) from a request: query
// parameters for GETs, the JSON body for POSTs (restored for the next
// handler). ok is false for requests without a client id.
func clientAndNow(r *http.Request) (client int, now simclock.Time, ok bool) {
	if raw := r.URL.Query().Get("client"); raw != "" {
		c, err := strconv.Atoi(raw)
		if err != nil {
			return 0, 0, false
		}
		ns, _ := strconv.ParseInt(r.URL.Query().Get("now_ns"), 10, 64)
		return c, simclock.Time(ns), true
	}
	if r.Body == nil || r.Method != http.MethodPost {
		return 0, 0, false
	}
	body, err := io.ReadAll(io.LimitReader(r.Body, 1<<20))
	r.Body.Close()
	r.Body = io.NopCloser(bytes.NewReader(body))
	if err != nil {
		return 0, 0, false
	}
	if env, err := envelope.DecodeMsg(body); err == nil {
		return env.Client, simclock.Time(env.NowNS), true
	}
	var id requestID
	if json.Unmarshal(body, &id) != nil || id.Client == nil {
		return 0, 0, false
	}
	return *id.Client, simclock.Time(id.NowNS), true
}

// AnyNode makes a CrashPoint count records from every node in a
// multi-node harness: whichever node's append crosses the threshold is
// the one that dies.
const AnyNode = -1

// CrashPoint schedules one process kill: the crash fires when After
// more WAL records of the given op kind have been appended. An empty
// Op counts every record. Counting append events — the instant between
// durability and acknowledgement — is what makes the kill adversarial:
// the downed server has executed and logged the operation, but the
// client never saw the reply.
//
// Node scopes the point to one node of a multi-node cluster harness:
// only records appended by that node count, so the kill lands on that
// node. The single-process harness observes as node 0, which is also
// the zero value — a plain CrashPoint{Op, After} keeps its original
// meaning there. Use AnyNode to count (and kill) across all nodes.
type CrashPoint struct {
	Op    string // WAL record kind ("slot", "report", "batch", "period_end", "migrate_out", "migrate_in", ...); "" = any
	After int    // fire when this many further matching records have been appended
	Node  int    // node index the count (and the kill) is scoped to; AnyNode = any
}

// CrashSchedule arms a sequence of process-crash points for the
// kill/restart harness (sim.TransportOpts.Crashes, one process or a cluster).
// Counts are cumulative across restarts — the replacement process keeps
// consuming the same schedule — so a multi-point schedule kills the
// service repeatedly at deterministic instants in the record stream.
type CrashSchedule struct {
	mu        sync.Mutex
	points    []CrashPoint
	next      int
	total     int
	perOp     map[string]int
	perNode   map[int]int
	perNodeOp map[nodeOp]int
	fired     int
}

// nodeOp keys the per-(node, op kind) record count.
type nodeOp struct {
	node int
	op   string
}

// NewCrashSchedule arms the points in order.
func NewCrashSchedule(points ...CrashPoint) *CrashSchedule {
	return &CrashSchedule{
		points:    points,
		perOp:     make(map[string]int),
		perNode:   make(map[int]int),
		perNodeOp: make(map[nodeOp]int),
	}
}

// ObserveNode records one WAL record appended by the given node and
// reports whether the currently armed crash point fires on it — in
// which case the observing node is the one that must die: either the
// point targets it, or the point is AnyNode-scoped and this append
// crossed the threshold. Safe for concurrent use; each point fires
// exactly once. The single-process harness observes as node 0.
func (c *CrashSchedule) ObserveNode(node int, op string) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.total++
	c.perOp[op]++
	c.perNode[node]++
	c.perNodeOp[nodeOp{node, op}]++
	if c.next >= len(c.points) {
		return false
	}
	p := c.points[c.next]
	if p.Node != AnyNode && p.Node != node {
		return false // another node's append never trips a scoped point
	}
	var count int
	switch {
	case p.Node == AnyNode && p.Op == "":
		count = c.total
	case p.Node == AnyNode:
		count = c.perOp[p.Op]
	case p.Op == "":
		count = c.perNode[p.Node]
	default:
		count = c.perNodeOp[nodeOp{p.Node, p.Op}]
	}
	if count < p.After {
		return false
	}
	// Consume the point and reset every counter — aggregate and
	// per-node alike — so the next point counts records appended after
	// this crash, no matter which node appends them.
	c.next++
	c.fired++
	c.total = 0
	c.perOp = make(map[string]int)
	c.perNode = make(map[int]int)
	c.perNodeOp = make(map[nodeOp]int)
	return true
}

// Fired returns how many crash points have fired.
func (c *CrashSchedule) Fired() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.fired
}

// Pending returns how many crash points are still armed.
func (c *CrashSchedule) Pending() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.points) - c.next
}
