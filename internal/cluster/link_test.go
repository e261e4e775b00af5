package cluster

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/transport"
)

// hopOptions runs a test body once per hop implementation.
var hopOptions = []struct {
	name string
	opts func() []Option
}{
	{"hop=link", func() []Option { return nil }},
	{"hop=http", func() []Option {
		return []Option{WithHTTPClient(&http.Client{Timeout: 5 * time.Second})}
	}},
}

// binaryFrame is the routable prefix of a binary batch envelope: magic,
// client, now_ns. Routing reads nothing past it.
func binaryFrame(magic string, client int) []byte {
	b := []byte(magic)
	b = binary.LittleEndian.AppendUint64(b, uint64(client))
	b = binary.LittleEndian.AppendUint64(b, 0)
	if magic == "APB2" {
		b = append(b, 4, 'p', 'u', 'b', 'A')
	}
	return append(b, 0, 0) // nops
}

// Binary batch envelopes route by the client in their frame header —
// the tenant-declaring APB2 frame exactly like the plain APB1 one — and
// both hops hand the node the same request and the client the same
// reply.
func TestRouterRoutesBinaryFramesOnBothHops(t *testing.T) {
	for _, hop := range hopOptions {
		t.Run(hop.name, func(t *testing.T) {
			urls := make([]string, 3)
			for i := range urls {
				i := i
				urls[i] = newFakeNode(t, func(w http.ResponseWriter, r *http.Request) {
					body, _ := io.ReadAll(r.Body)
					w.Header().Set("Content-Type", transport.BinaryBatchContentType)
					w.Header().Set("Retry-After", "7")
					w.Header().Set(obs.ReplayedHeader, "true")
					w.Header().Set("X-Node-Private", "not relayed")
					w.WriteHeader(http.StatusAccepted)
					fmt.Fprintf(w, "node=%d key=%s tenant=%s ctype=%s len=%d/%d", i,
						r.Header.Get("Idempotency-Key"), r.Header.Get(transport.TenantHeader),
						r.Header.Get("Content-Type"), len(body), r.ContentLength)
				}).srv.URL
			}
			rt := newTestRouter(t, urls, append(hop.opts(), WithPlacement(func(id int) int { return id % 3 }))...)
			front := httptest.NewServer(rt.Handler())
			defer front.Close()

			for _, magic := range []string{"APB1", "APB2"} {
				for client := 3; client < 6; client++ {
					frame := binaryFrame(magic, client)
					req, _ := http.NewRequest("POST", front.URL+"/v1/batch", bytes.NewReader(frame))
					req.Header.Set("Content-Type", transport.BinaryBatchContentType)
					req.Header.Set("Idempotency-Key", "k-"+magic)
					req.Header.Set(transport.TenantHeader, "pubA")
					req.Header.Set("X-Client-Private", "not forwarded")
					resp, err := http.DefaultClient.Do(req)
					if err != nil {
						t.Fatal(err)
					}
					body, _ := io.ReadAll(resp.Body)
					resp.Body.Close()
					want := fmt.Sprintf("node=%d key=k-%s tenant=pubA ctype=%s len=%d/%d",
						client%3, magic, transport.BinaryBatchContentType, len(frame), len(frame))
					if resp.StatusCode != http.StatusAccepted || string(body) != want {
						t.Fatalf("%s client %d: %d %q, want 202 %q", magic, client, resp.StatusCode, body, want)
					}
					if resp.Header.Get("Content-Type") != transport.BinaryBatchContentType ||
						resp.Header.Get("Retry-After") != "7" || resp.Header.Get(obs.ReplayedHeader) != "true" ||
						resp.Header.Get("X-Node-Private") != "" {
						t.Fatalf("%s client %d: relayed headers %v", magic, client, resp.Header)
					}
				}
			}
			if got := rt.Registry().CounterTotal("cluster_forwards_total"); got != 6 {
				t.Fatalf("cluster_forwards_total = %d, want 6", got)
			}
		})
	}
}

// The router presents its admin token on the control-plane calls it
// makes to nodes, whichever hop carries them.
func TestRouterPresentsAdminTokenToNodes(t *testing.T) {
	for _, hop := range hopOptions {
		t.Run(hop.name, func(t *testing.T) {
			node := newFakeNode(t, func(w http.ResponseWriter, r *http.Request) {
				if r.Header.Get("Authorization") != "Bearer sekrit" {
					http.Error(w, "missing or invalid admin token", http.StatusUnauthorized)
					return
				}
				w.Header().Set("Content-Type", "application/json")
				io.WriteString(w, `{"clients":[1,2,3]}`)
			})
			rt := newTestRouter(t, []string{node.srv.URL}, append(hop.opts(), WithAdminToken("sekrit"))...)
			if _, err := rt.Plan(Change{DrainNode: -1}); err != nil {
				t.Fatalf("plan against a token-protected node: %v", err)
			}
		})
	}
}

// A handler that aborts (the WAL kill hook, the harness's down-gate)
// drops the link connection without a reply; the router must count that
// as a transport failure against the node's circuit — enough of them
// open it — and answer the client a well-formed 503.
func TestLinkAbortCountsAgainstCircuit(t *testing.T) {
	abort := make(chan struct{})
	node := newFakeNode(t, func(w http.ResponseWriter, r *http.Request) {
		select {
		case <-abort:
			panic(http.ErrAbortHandler)
		default:
		}
		io.WriteString(w, `{"ok":true}`)
	})
	rt := newTestRouter(t, []string{node.srv.URL}, withFailThreshold(2), withMaxForwards(3))
	front := httptest.NewServer(rt.Handler())
	defer front.Close()

	get := func() *http.Response {
		t.Helper()
		resp, err := http.Get(front.URL + "/v1/bundle?client=1")
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp
	}
	if resp := get(); resp.StatusCode != 200 {
		t.Fatalf("healthy node: %d", resp.StatusCode)
	}
	close(abort)
	resp := get()
	if resp.StatusCode != http.StatusServiceUnavailable || resp.Header.Get("Retry-After") == "" {
		t.Fatalf("aborting node: %d (Retry-After %q), want a well-formed 503", resp.StatusCode, resp.Header.Get("Retry-After"))
	}
	reg := rt.Registry()
	if f := reg.CounterTotal("cluster_node_failures_total"); f != 2 {
		t.Fatalf("cluster_node_failures_total = %d, want 2 (the threshold)", f)
	}
	if !rt.nodeDown(0) || reg.CounterTotal("cluster_node_down_total") != 1 {
		t.Fatal("aborted exchanges did not open the node's circuit")
	}
	if reg.CounterTotal("cluster_link_broken_total") == 0 {
		t.Fatal("aborted exchanges not counted in cluster_link_broken_total")
	}
	// A failure reported under the dead incarnation's epoch must not
	// reopen the circuit a rejoin just closed.
	n := rt.nodeAt(0)
	_, staleEpoch, _ := n.state()
	rt.Rejoin(0, "")
	n.fail(staleEpoch, 1)
	if rt.nodeDown(0) {
		t.Fatal("a stale-epoch failure reopened a rejoined node's circuit")
	}
}

// The router holds pooled link connections to a node that is then
// killed — its listener and its link connections closed, as a dead
// process's would be — while clients keep sending. Once a replacement
// is up at a new address and rejoined, every parked request completes
// there: zero client-visible errors, the dead address's pool gone.
func TestLinkRedialsAfterRejoinAtNewAddress(t *testing.T) {
	reply := func(who string) func(http.ResponseWriter, *http.Request) {
		return func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Content-Type", "application/json")
			io.WriteString(w, `{"node":"`+who+`"}`)
		}
	}
	old := serveNode(t, http.HandlerFunc(reply("old")))
	rt := newTestRouter(t, []string{old.URL}, WithRejoinWait(10*time.Second))
	front := httptest.NewServer(rt.Handler())
	defer front.Close()

	const clients = 8
	round := func(wantNode string) {
		t.Helper()
		var wg sync.WaitGroup
		for c := 0; c < clients; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				resp, err := http.Get(fmt.Sprintf("%s/v1/bundle?client=%d", front.URL, c))
				if err != nil {
					t.Error(err)
					return
				}
				body, _ := io.ReadAll(resp.Body)
				resp.Body.Close()
				if resp.StatusCode != 200 || !strings.Contains(string(body), wantNode) {
					t.Errorf("client %d: %d %s, want 200 from %q", c, resp.StatusCode, body, wantNode)
				}
			}(c)
		}
		wg.Wait()
	}
	round("old") // warms the pool
	reg := rt.Registry()
	if gaugeValue(t, reg, "cluster_link_conns") == 0 {
		t.Fatal("no link connection pooled after a round of traffic")
	}

	old.Close()
	done := make(chan struct{})
	go func() {
		defer close(done)
		round("new") // fails against the corpse, parks, completes after the rejoin
	}()
	deadline := time.Now().Add(5 * time.Second)
	for !rt.nodeDown(0) && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if !rt.nodeDown(0) {
		t.Fatal("killed node's circuit never opened")
	}
	replacement := serveNode(t, http.HandlerFunc(reply("new")))
	rt.Rejoin(0, replacement.URL)
	<-done

	if got := reg.CounterTotal("cluster_node_unavailable_total"); got != 0 {
		t.Fatalf("%d requests refused across the kill, want 0", got)
	}
	if reg.CounterTotal("cluster_link_broken_total") == 0 || reg.CounterTotal("cluster_link_dials_total") < 2 {
		t.Fatal("kill and re-dial left no trace in the link counters")
	}
	round("new")

	// Close leaves no link connection behind.
	rt.Close()
	if open := gaugeValue(t, reg, "cluster_link_conns"); open != 0 {
		t.Fatalf("Close left %v link connections open", open)
	}
}

// gaugeValue scrapes one unlabelled gauge from the registry's text
// exposition.
func gaugeValue(t *testing.T, reg *obs.Registry, name string) float64 {
	t.Helper()
	var buf bytes.Buffer
	if err := reg.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(buf.String(), "\n") {
		var v float64
		if _, err := fmt.Sscanf(line, name+" %g", &v); err == nil {
			return v
		}
	}
	t.Fatalf("gauge %s not exported", name)
	return 0
}
