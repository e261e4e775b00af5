package cluster

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sort"
	"strings"
	"testing"

	"repro/internal/transport"
)

// ownershipNode is a scripted node for control-plane tests: it answers
// GET /v1/admin/clients with a fixed client set and 200s everything
// else. It lets Plan/Rebalance be tested against known ownership
// without standing up real ad-server state.
func ownershipNode(t *testing.T, owned []int) *httptest.Server {
	t.Helper()
	return serveNode(t, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/v1/admin/clients" {
			w.Header().Set("Content-Type", "application/json")
			json.NewEncoder(w).Encode(transport.ClientsReply{Clients: owned})
			return
		}
		w.WriteHeader(http.StatusOK)
	}))
}

// bruteForceDiff is the reference implementation Plan must match: walk
// every client each member owns, place it on the target ring, and emit
// a move wherever the two disagree — sorted the way Plan sorts.
func bruteForceDiff(owned map[int][]int, target *Ring) []Move {
	var moves []Move
	for from, clients := range owned {
		for _, c := range clients {
			if to := target.Place(c); to != from {
				moves = append(moves, Move{Client: c, From: from, To: to})
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
	return moves
}

// Plan's diff must be exact — byte-for-byte the brute-force
// reassignment — for convergence (no change), growth, and drain, and a
// converged cluster must plan zero moves. The ownership handed to the
// router is deliberately scrambled (placed by a ring over a different
// member set) so the convergence plan is nonempty too.
func TestPlanDiffExactAgainstBruteForce(t *testing.T) {
	const clients = 600
	// Current ownership: clients placed by the real 3-member ring, so
	// the cluster starts converged.
	cur := NewRingOf([]int{0, 1, 2}, 0)
	owned := map[int][]int{0: {}, 1: {}, 2: {}}
	for c := 0; c < clients; c++ {
		n := cur.Place(c)
		owned[n] = append(owned[n], c)
	}
	urls := make([]string, 3)
	for i := 0; i < 3; i++ {
		urls[i] = ownershipNode(t, owned[i]).URL
	}
	rt := newTestRouter(t, urls)

	cases := []struct {
		name   string
		change Change
		target *Ring
	}{
		{"converged", Change{DrainNode: -1}, cur},
		{"grow", Change{AddNode: true, DrainNode: -1}, NewRingOf([]int{0, 1, 2, 3}, 0)},
		{"drain", Change{DrainNode: 1}, NewRingOf([]int{0, 2}, 0)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got, err := rt.Plan(tc.change)
			if err != nil {
				t.Fatal(err)
			}
			want := bruteForceDiff(owned, tc.target)
			if len(want) == 0 && len(got) == 0 {
				return
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("plan diff diverges from brute force:\n got %d moves %v\nwant %d moves %v",
					len(got), head(got), len(want), head(want))
			}
			if tc.name != "converged" && len(got) == 0 {
				t.Fatal("membership change planned zero moves")
			}
		})
	}
	// The converged cluster really plans nothing — the property that
	// makes Rebalance idempotent.
	if moves, err := rt.Plan(Change{DrainNode: -1}); err != nil || len(moves) != 0 {
		t.Fatalf("converged cluster planned %d moves (err %v), want 0", len(moves), err)
	}
}

func head(m []Move) []Move {
	if len(m) > 8 {
		return m[:8]
	}
	return m
}

// A scrambled cluster — ownership laid out by a ring the router never
// installed — must plan exactly the brute-force convergence diff.
func TestPlanConvergenceFromScrambledOwnership(t *testing.T) {
	const clients = 400
	// Owners assigned by a 2-member ring even though 3 members exist:
	// the kind of state an interrupted rebalance leaves behind.
	stale := NewRingOf([]int{0, 1}, 0)
	owned := map[int][]int{0: {}, 1: {}, 2: {}}
	for c := 0; c < clients; c++ {
		n := stale.Place(c)
		owned[n] = append(owned[n], c)
	}
	urls := make([]string, 3)
	for i := 0; i < 3; i++ {
		urls[i] = ownershipNode(t, owned[i]).URL
	}
	rt := newTestRouter(t, urls)

	got, err := rt.Plan(Change{DrainNode: -1})
	if err != nil {
		t.Fatal(err)
	}
	want := bruteForceDiff(owned, NewRingOf([]int{0, 1, 2}, 0))
	if len(want) == 0 {
		t.Fatal("scrambled ownership produced an empty reference diff")
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("convergence plan diverges from brute force: got %d moves, want %d", len(got), len(want))
	}
	// Every move must target the member missing from the stale layout:
	// convergence pulls clients onto member 2, never shuffles 0↔1.
	for _, mv := range got {
		if mv.To != 2 {
			t.Fatalf("convergence move %+v shuffles between existing owners", mv)
		}
	}
}

// Re-adding a live member's URL must not register a duplicate member:
// the retry after an add whose rebalance was interrupted re-runs the
// rebalance for the existing member id instead of leaking a new one.
func TestAddNodeIdempotentByURL(t *testing.T) {
	a := ownershipNode(t, []int{0, 1, 2})
	b := ownershipNode(t, nil)
	rt := newTestRouter(t, []string{a.URL})

	id1, _, err := rt.AddNode(b.URL)
	if err != nil {
		t.Fatalf("AddNode: %v", err)
	}
	id2, _, err := rt.AddNode(b.URL)
	if err != nil {
		t.Fatalf("AddNode retry: %v", err)
	}
	if id1 != id2 {
		t.Fatalf("AddNode retry registered a new member: %d then %d", id1, id2)
	}
	if n := rt.Nodes(); n != 2 {
		t.Fatalf("member count after retried add = %d, want 2", n)
	}
}

// Two nodes reporting the same client is an unexecutable plan — either
// move would adopt onto a node that already holds the client — so Plan
// and Rebalance must refuse before touching any state, naming the
// conflicting members.
func TestPlanRefusesOverlappingOwnership(t *testing.T) {
	a := ownershipNode(t, []int{0, 1, 2})
	b := ownershipNode(t, []int{2, 3})
	rt := newTestRouter(t, []string{a.URL, b.URL})

	if _, err := rt.Plan(Change{AddNode: true, DrainNode: -1}); err == nil {
		t.Fatal("Plan over overlapping ownership succeeded; want refusal")
	} else if !strings.Contains(err.Error(), "client 2 owned by both member 0 and member 1") {
		t.Fatalf("Plan refusal names the wrong conflict: %v", err)
	}
	if _, err := rt.Rebalance(); err == nil {
		t.Fatal("Rebalance over overlapping ownership succeeded; want refusal")
	}
}

// Membership mutations are frozen under WithPlacement: a fixed
// placement function cannot be rebalanced, and the API must say so
// rather than silently diverge placement from ownership.
func TestMembershipFrozenUnderStaticPlacement(t *testing.T) {
	n := ownershipNode(t, nil)
	rt := newTestRouter(t, []string{n.URL, n.URL}, WithPlacement(func(id int) int { return 0 }))

	if _, _, err := rt.AddNode(n.URL); err != ErrStaticPlacement {
		t.Fatalf("AddNode under static placement: %v, want ErrStaticPlacement", err)
	}
	if _, err := rt.Drain(0); err != ErrStaticPlacement {
		t.Fatalf("Drain under static placement: %v, want ErrStaticPlacement", err)
	}
	if err := rt.Remove(0); err != ErrStaticPlacement {
		t.Fatalf("Remove under static placement: %v, want ErrStaticPlacement", err)
	}
	if _, err := rt.Plan(Change{DrainNode: -1}); err != ErrStaticPlacement {
		t.Fatalf("Plan under static placement: %v, want ErrStaticPlacement", err)
	}
	if _, err := rt.Rebalance(); err != ErrStaticPlacement {
		t.Fatalf("Rebalance under static placement: %v, want ErrStaticPlacement", err)
	}
}

// Drain and Remove enforce the lifecycle: the last active member cannot
// drain, Remove requires a prior drain, and a drained member that still
// owns clients is refused.
func TestMembershipLifecycleGuards(t *testing.T) {
	a := ownershipNode(t, nil)
	b := ownershipNode(t, nil)
	rt := newTestRouter(t, []string{a.URL, b.URL})

	if err := rt.Remove(0); err == nil {
		t.Fatal("Remove of an active member succeeded; want drain-first error")
	}
	if _, err := rt.Drain(7); err == nil {
		t.Fatal("Drain of a nonexistent member succeeded")
	}
	if _, err := rt.Drain(0); err != nil {
		t.Fatalf("Drain(0): %v", err)
	}
	if _, err := rt.Drain(1); err == nil {
		t.Fatal("draining the last active member succeeded; want refusal")
	}
	if err := rt.Remove(0); err != nil {
		t.Fatalf("Remove(0) after drain: %v", err)
	}
	if rt.Nodes() != 1 {
		t.Fatalf("Nodes() after remove = %d, want 1", rt.Nodes())
	}
	if _, err := rt.Drain(0); err == nil {
		t.Fatal("Drain of a removed member succeeded")
	}
}

// The admin surface refuses unauthenticated calls when a token is
// configured and admits the bearer.
func TestAdminEndpointsRequireToken(t *testing.T) {
	n := ownershipNode(t, nil)
	rt := newTestRouter(t, []string{n.URL}, WithAdminToken("sekrit"))
	front := httptest.NewServer(rt.Handler())
	defer front.Close()

	resp, err := http.Get(front.URL + "/v1/admin/nodes")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusUnauthorized {
		t.Fatalf("tokenless admin call: %d, want 401", resp.StatusCode)
	}

	req, _ := http.NewRequest("GET", front.URL+"/v1/admin/nodes", nil)
	req.Header.Set("Authorization", "Bearer sekrit")
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("authenticated admin call: %d, want 200", resp.StatusCode)
	}
	var nr NodesReply
	if err := json.NewDecoder(resp.Body).Decode(&nr); err != nil {
		t.Fatal(err)
	}
	if len(nr.Nodes) != 1 || nr.Nodes[0].State != "active" {
		t.Fatalf("nodes reply %+v, want one active member", nr)
	}
}
