package cluster

// Elastic membership: the control plane that grows and shrinks a live
// cluster. The router is the migration coordinator — ownership truth
// lives on the nodes (each answers GET /v1/admin/clients), placement
// truth lives in the ring, and a rebalance is the act of converging the
// first onto the second:
//
//  1. Quiesce: take rebalanceMu exclusively. In-flight client requests
//     drain; new ones queue. From here to the end no device request can
//     observe a half-moved client.
//  2. Plan: ask every non-removed node what it owns, place each client
//     on the target ring, and emit the exact diff as (client, from, to)
//     moves.
//  3. Transfer: group moves by (from, to) pair; each group is one
//     migration epoch. POST migrate/out on the source returns the state
//     blob, migrate/in hands it to the target, migrate/commit releases
//     the source's outbox. Every call rides forward(), so a node crash
//     mid-handoff parks the call until the node restarts, recovers its
//     WAL — including the migration records — and answers the retry
//     idempotently.
//  4. Install: only after every transfer lands does the new ring become
//     the placement. An error mid-way leaves the old ring; ownership
//     may then be ahead of placement, which the double-read fallback in
//     handleClient absorbs (the placed node answers 421, the router
//     re-asks the other members) until a Rebalance retry converges.
//
// Epochs are issued by this router instance and scoped to its
// lifetime; nodes persist per-epoch outbox/applied state in their WALs,
// so a retried epoch replays instead of re-executing. Run one router at
// a time — two coordinators issuing overlapping epochs is operator
// error, as is restarting the router mid-rebalance without re-running
// Rebalance to converge.

import (
	"encoding/json"
	"fmt"
	"net/http"
	"sort"
	"strconv"

	"repro/internal/transport"
)

// ErrStaticPlacement is returned by every membership mutation when the
// router was built with WithPlacement: a fixed placement function
// cannot be rebalanced.
var ErrStaticPlacement = fmt.Errorf("cluster: membership is frozen under WithPlacement")

// Move is one client's ownership change in a rebalance plan.
type Move struct {
	Client int `json:"client"`
	From   int `json:"from"`
	To     int `json:"to"`
}

// Change is a hypothetical membership change handed to Plan: AddNode
// plans for one new member joining (its id would be the next unused
// one), DrainNode >= 0 plans for draining that member. The zero Change
// with DrainNode -1 plans pure convergence — nonempty only when an
// earlier rebalance was interrupted.
type Change struct {
	AddNode   bool `json:"add_node,omitempty"`
	DrainNode int  `json:"drain_node"` // member id, or -1 for none
}

// AddNode joins a node to the live cluster: it becomes an active
// member, the ring grows, and the clients the new ring assigns to it
// are handed off from their current owners before any device request
// can reach it. Returns the new member id and how many clients moved.
// Idempotent by URL: re-adding a live member — the retry after an add
// whose rebalance was interrupted — does not register a duplicate, it
// re-runs the rebalance for the existing member.
func (rt *Router) AddNode(baseURL string) (id, moved int, err error) {
	rt.rebalanceMu.Lock()
	defer rt.rebalanceMu.Unlock()
	if rt.staticPlace {
		return -1, 0, ErrStaticPlacement
	}
	rt.nodesMu.Lock()
	id = -1
	for _, n := range rt.nodes {
		base, _, _ := n.state()
		if base == baseURL && n.lifecycle() != lifeRemoved {
			id = n.idx
			break
		}
	}
	if id < 0 {
		id = len(rt.nodes)
		rt.nodes = append(rt.nodes, rt.newNode(id, baseURL))
	}
	rt.nodesMu.Unlock()
	rt.refreshActive()
	moved, err = rt.rebalanceLocked()
	return id, moved, err
}

// Drain empties a member: it stays in the cluster — period rounds and
// merged reads still include it, because its ledger carries the history
// of every event it served — but owns no clients, all of them handed
// off to the remaining active members. A drained member is what Remove
// requires.
func (rt *Router) Drain(i int) (moved int, err error) {
	rt.rebalanceMu.Lock()
	defer rt.rebalanceMu.Unlock()
	if rt.staticPlace {
		return 0, ErrStaticPlacement
	}
	n := rt.nodeAt(i)
	if n == nil {
		return 0, fmt.Errorf("cluster: no member %d", i)
	}
	if n.lifecycle() != lifeActive {
		return 0, fmt.Errorf("cluster: member %d is %s, not active", i, lifeString(n.lifecycle()))
	}
	if len(rt.active) == 1 {
		return 0, fmt.Errorf("cluster: refusing to drain the last active member")
	}
	n.setLifecycle(lifeDrained)
	rt.refreshActive()
	moved, err = rt.rebalanceLocked()
	if err != nil {
		// Leave the member drained: a Rebalance retry finishes the move.
		return moved, err
	}
	return moved, nil
}

// Remove tombstones a drained member: out of placement, fan-outs and
// health. It must be drained and must confirm it owns nothing — after
// Remove its ledger history leaves the merged views, which is only
// sound once the accounting state it served has been handed off and
// the operator has captured any final read they need.
func (rt *Router) Remove(i int) error {
	rt.rebalanceMu.Lock()
	defer rt.rebalanceMu.Unlock()
	if rt.staticPlace {
		return ErrStaticPlacement
	}
	n := rt.nodeAt(i)
	if n == nil {
		return fmt.Errorf("cluster: no member %d", i)
	}
	if n.lifecycle() != lifeDrained {
		return fmt.Errorf("cluster: member %d is %s; drain it before removing", i, lifeString(n.lifecycle()))
	}
	owned, err := rt.ownedClients(n)
	if err != nil {
		return fmt.Errorf("cluster: confirming member %d is empty: %w", i, err)
	}
	if len(owned) > 0 {
		return fmt.Errorf("cluster: member %d still owns %d clients; run Rebalance", i, len(owned))
	}
	n.setLifecycle(lifeRemoved)
	rt.refreshActive()
	base, _, _ := n.state()
	rt.hop.forget(base)
	return nil
}

// Plan computes the exact client-movement diff a membership change
// would cause, without performing it: every (client, from, to) triple,
// derived from what the nodes actually own versus a ring over the
// hypothetical active set.
func (rt *Router) Plan(ch Change) ([]Move, error) {
	rt.rebalanceMu.RLock()
	defer rt.rebalanceMu.RUnlock()
	if rt.staticPlace {
		return nil, ErrStaticPlacement
	}
	var ids []int
	for _, n := range rt.active {
		if ch.DrainNode == n.idx {
			continue
		}
		ids = append(ids, n.idx)
	}
	if ch.DrainNode >= 0 && len(ids) == len(rt.active) {
		return nil, fmt.Errorf("cluster: no active member %d to drain", ch.DrainNode)
	}
	if ch.AddNode {
		rt.nodesMu.Lock()
		ids = append(ids, len(rt.nodes))
		rt.nodesMu.Unlock()
	}
	if len(ids) == 0 {
		return nil, fmt.Errorf("cluster: change leaves no active members")
	}
	return rt.movesTo(NewRingOf(ids, rt.replicas))
}

// Rebalance converges ownership onto the current active member set and
// installs the matching ring. Idempotent: a rebalance interrupted by an
// error — a node that stayed down past patience, say — is finished by
// calling it again; transfers that already landed are skipped because
// the nodes' ownership already matches the target.
func (rt *Router) Rebalance() (moved int, err error) {
	rt.rebalanceMu.Lock()
	defer rt.rebalanceMu.Unlock()
	if rt.staticPlace {
		return 0, ErrStaticPlacement
	}
	return rt.rebalanceLocked()
}

// rebalanceLocked does the quiesced plan/transfer/install cycle. Caller
// holds rebalanceMu exclusively.
func (rt *Router) rebalanceLocked() (int, error) {
	if len(rt.active) == 0 {
		return 0, fmt.Errorf("cluster: no active members")
	}
	ids := make([]int, len(rt.active))
	for i, n := range rt.active {
		ids[i] = n.idx
	}
	ring := NewRingOf(ids, rt.replicas)
	moves, err := rt.movesTo(ring)
	if err != nil {
		return 0, err
	}
	moved, err := rt.execMoves(moves)
	if err != nil {
		return moved, err
	}
	rt.ring = ring
	rt.place = ring.Place
	if moved > 0 {
		rt.migrations.Inc()
	}
	return moved, nil
}

// movesTo diffs actual ownership (what each non-removed node reports)
// against placement on the target ring. Two nodes claiming the same
// client is refused outright: executing either move would adopt onto a
// node that already holds the client, so the plan fails before any
// state is touched. (Nodes that will join a routed cluster must boot
// owning only their ring share — adserverd's -cluster-node/-cluster-size
// — or nothing at all.)
func (rt *Router) movesTo(ring *Ring) ([]Move, error) {
	var moves []Move
	owner := make(map[int]int)
	for _, n := range rt.fanoutMembers() {
		owned, err := rt.ownedClients(n)
		if err != nil {
			return nil, err
		}
		for _, c := range owned {
			if prev, dup := owner[c]; dup {
				return nil, fmt.Errorf("cluster: client %d owned by both member %d and member %d; node boot partitions overlap", c, prev, n.idx)
			}
			owner[c] = n.idx
			if to := ring.Place(c); to != n.idx {
				moves = append(moves, Move{Client: c, From: n.idx, To: to})
			}
		}
	}
	sort.Slice(moves, func(i, j int) bool {
		a, b := moves[i], moves[j]
		if a.From != b.From {
			return a.From < b.From
		}
		if a.To != b.To {
			return a.To < b.To
		}
		return a.Client < b.Client
	})
	return moves, nil
}

// execMoves runs the transfers, one migration epoch per (from, to)
// pair. Returns how many clients landed before any error.
func (rt *Router) execMoves(moves []Move) (int, error) {
	type pair struct{ from, to int }
	groups := make(map[pair][]int)
	var order []pair
	for _, mv := range moves {
		p := pair{mv.From, mv.To}
		if _, seen := groups[p]; !seen {
			order = append(order, p)
		}
		groups[p] = append(groups[p], mv.Client)
	}
	moved := 0
	for _, p := range order {
		rt.epochSeq++
		if err := rt.transfer(rt.epochSeq, p.from, p.to, groups[p]); err != nil {
			return moved, err
		}
		moved += len(groups[p])
		rt.clientsMoved.Add(int64(len(groups[p])))
	}
	return moved, nil
}

// transfer hands one client group from source to target under one
// epoch: out → in → commit, each leg riding forward()'s park/retry
// machinery, each idempotent on the node side, so a crash inside any
// leg is survived by the retry after the node's WAL recovery.
func (rt *Router) transfer(epoch uint64, from, to int, clients []int) error {
	src, dst := rt.nodeAt(from), rt.nodeAt(to)
	if src == nil || dst == nil {
		return fmt.Errorf("cluster: transfer between unknown members %d→%d", from, to)
	}
	outBody, err := json.Marshal(struct {
		Epoch   uint64 `json:"epoch"`
		Clients []int  `json:"clients"`
	}{epoch, clients})
	if err != nil {
		return err
	}
	blob, err := rt.adminPost(src, "/v1/admin/migrate/out", outBody)
	if err != nil {
		return fmt.Errorf("cluster: migrate-out epoch %d on member %d: %w", epoch, from, err)
	}
	if _, err := rt.adminPost(dst, "/v1/admin/migrate/in", blob); err != nil {
		return fmt.Errorf("cluster: migrate-in epoch %d on member %d: %w", epoch, to, err)
	}
	commitBody, err := json.Marshal(struct {
		Epoch uint64 `json:"epoch"`
	}{epoch})
	if err != nil {
		return err
	}
	if _, err := rt.adminPost(src, "/v1/admin/migrate/commit", commitBody); err != nil {
		return fmt.Errorf("cluster: migrate-commit epoch %d on member %d: %w", epoch, from, err)
	}
	return nil
}

// ownedClients asks a node which clients it currently serves.
func (rt *Router) ownedClients(n *node) ([]int, error) {
	p, up := rt.forward(n, http.MethodGet, "/v1/admin/clients", rt.adminHeader(), nil)
	if !up {
		return nil, fmt.Errorf("member %d unavailable", n.idx)
	}
	if p.Status != http.StatusOK {
		return nil, fmt.Errorf("member %d: %d %s", n.idx, p.Status, p.Body)
	}
	var cr transport.ClientsReply
	if err := json.Unmarshal(p.Body, &cr); err != nil {
		return nil, fmt.Errorf("member %d clients reply: %w", n.idx, err)
	}
	return cr.Clients, nil
}

// adminPost sends one control-plane call to a node and returns the 2xx
// body.
func (rt *Router) adminPost(n *node, uri string, body []byte) ([]byte, error) {
	p, up := rt.forward(n, http.MethodPost, uri, rt.adminHeader(), body)
	if !up {
		return nil, fmt.Errorf("member %d unavailable", n.idx)
	}
	if p.Status < 200 || p.Status > 299 {
		return nil, fmt.Errorf("member %d: %d %s", n.idx, p.Status, p.Body)
	}
	return p.Body, nil
}

// adminHeader carries the router's credentials on node admin calls.
func (rt *Router) adminHeader() http.Header {
	hdr := http.Header{}
	hdr.Set("Content-Type", "application/json")
	if rt.adminToken != "" {
		hdr.Set("Authorization", "Bearer "+rt.adminToken)
	}
	return hdr
}

// Admin HTTP surface. Same wire idiom as the data plane: JSON in, JSON
// out, errors as plain-text http.Error bodies.

// NodeInfo is one member in the GET /v1/admin/nodes listing.
type NodeInfo struct {
	Node  int    `json:"node"`
	URL   string `json:"url"`
	State string `json:"state"`
	Down  bool   `json:"down"`
}

// NodesReply answers GET /v1/admin/nodes.
type NodesReply struct {
	Nodes []NodeInfo `json:"nodes"`
}

// RebalanceReply answers the mutating admin endpoints.
type RebalanceReply struct {
	Node  int `json:"node"`
	Moved int `json:"moved"`
}

// PlanReply answers GET /v1/admin/plan.
type PlanReply struct {
	Moves []Move `json:"moves"`
}

// adminAuth gates a control-plane handler behind the bearer token when
// one is configured.
func (rt *Router) adminAuth(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if rt.adminToken != "" && r.Header.Get("Authorization") != "Bearer "+rt.adminToken {
			http.Error(w, "cluster: admin authorization required", http.StatusUnauthorized)
			return
		}
		h(w, r)
	}
}

func writeAdminJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(v)
}

func (rt *Router) handleAdminNodes(w http.ResponseWriter, r *http.Request) {
	reply := NodesReply{Nodes: []NodeInfo{}}
	for _, n := range rt.members() {
		base, _, up := n.state()
		reply.Nodes = append(reply.Nodes, NodeInfo{Node: n.idx, URL: base, State: lifeString(n.lifecycle()), Down: !up})
	}
	writeAdminJSON(w, reply)
}

func (rt *Router) handleAdminAdd(w http.ResponseWriter, r *http.Request) {
	var msg struct {
		URL string `json:"url"`
	}
	if err := json.NewDecoder(r.Body).Decode(&msg); err != nil || msg.URL == "" {
		http.Error(w, "cluster: body must be {\"url\": \"http://...\"}", http.StatusBadRequest)
		return
	}
	id, moved, err := rt.AddNode(msg.URL)
	if err != nil {
		http.Error(w, err.Error(), http.StatusConflict)
		return
	}
	writeAdminJSON(w, RebalanceReply{Node: id, Moved: moved})
}

// handleAdminRebalance is the converge knob: it re-runs the quiesced
// plan/transfer/install cycle against the current active set. This is
// how an operator finishes a rebalance that erred mid-way (a node down
// past patience, overlapping boot partitions since corrected) without
// re-stating the membership change that started it.
func (rt *Router) handleAdminRebalance(w http.ResponseWriter, r *http.Request) {
	moved, err := rt.Rebalance()
	if err != nil {
		http.Error(w, err.Error(), http.StatusConflict)
		return
	}
	writeAdminJSON(w, RebalanceReply{Node: -1, Moved: moved})
}

func (rt *Router) handleAdminDrain(w http.ResponseWriter, r *http.Request) {
	id, ok := adminNodeArg(w, r)
	if !ok {
		return
	}
	moved, err := rt.Drain(id)
	if err != nil {
		http.Error(w, err.Error(), http.StatusConflict)
		return
	}
	writeAdminJSON(w, RebalanceReply{Node: id, Moved: moved})
}

func (rt *Router) handleAdminRemove(w http.ResponseWriter, r *http.Request) {
	id, ok := adminNodeArg(w, r)
	if !ok {
		return
	}
	if err := rt.Remove(id); err != nil {
		http.Error(w, err.Error(), http.StatusConflict)
		return
	}
	writeAdminJSON(w, RebalanceReply{Node: id})
}

func (rt *Router) handleAdminPlan(w http.ResponseWriter, r *http.Request) {
	ch := Change{DrainNode: -1}
	q := r.URL.Query()
	if q.Get("add") != "" {
		ch.AddNode = true
	}
	if d := q.Get("drain"); d != "" {
		id, err := strconv.Atoi(d)
		if err != nil {
			http.Error(w, "cluster: drain must be a member id", http.StatusBadRequest)
			return
		}
		ch.DrainNode = id
	}
	moves, err := rt.Plan(ch)
	if err != nil {
		http.Error(w, err.Error(), http.StatusConflict)
		return
	}
	if moves == nil {
		moves = []Move{}
	}
	writeAdminJSON(w, PlanReply{Moves: moves})
}

// handleAdminConfig pushes a tenant-config epoch to every non-removed
// member: the same body, fanned out one node at a time, each node
// validating, WAL-logging and installing it idempotently (an epoch a
// member already has is acknowledged without re-applying). The push is
// quiesced against rebalances but not against client traffic — each
// node swaps its registry atomically between requests, which is the
// consistency the config protocol promises (per-node atomicity, not a
// cluster-wide barrier). The reply reports the highest member epoch and
// whether any member applied the push fresh. A member down past
// patience fails the push with 503; re-POSTing the same epoch after its
// rejoin converges the stragglers.
func (rt *Router) handleAdminConfig(w http.ResponseWriter, r *http.Request) {
	rt.rebalanceMu.RLock()
	defer rt.rebalanceMu.RUnlock()
	body, ok := readRequestBody(w, r)
	if !ok {
		return
	}
	var out []*proxied
	for _, n := range rt.fanoutMembers() {
		p, up := rt.forward(n, http.MethodPost, "/v1/admin/config", rt.adminHeader(), body)
		if !up {
			rt.unavailableErr(w, n.idx)
			return
		}
		if p.Status < 200 || p.Status > 299 {
			writeProxied(w, p)
			return
		}
		out = append(out, p)
	}
	if parts, ok := decodeParts[transport.ConfigReply](w, out); ok {
		writeAdminJSON(w, transport.MergeConfig(parts))
	}
}

// adminNodeArg decodes the {"node": N} body the drain/remove endpoints
// take.
func adminNodeArg(w http.ResponseWriter, r *http.Request) (int, bool) {
	var msg struct {
		Node *int `json:"node"`
	}
	if err := json.NewDecoder(r.Body).Decode(&msg); err != nil || msg.Node == nil {
		http.Error(w, "cluster: body must be {\"node\": N}", http.StatusBadRequest)
		return 0, false
	}
	return *msg.Node, true
}
