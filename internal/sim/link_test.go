package sim

import (
	"net/http"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/faults"
)

// runClusterOverHTTPHop is RunTransportStream's cluster arm with the
// router→node hop swapped from the default link to an injected
// http.Client — the same nodes, router and devices otherwise.
func runClusterOverHTTPHop(cfg Config, o TransportOpts) (*Result, error) {
	env, err := newStreamEnv(cfg, o)
	if err != nil {
		return nil, err
	}
	back, err := newLocalBackend(env, cluster.WithHTTPClient(&http.Client{
		Transport: &http.Transport{MaxIdleConnsPerHost: 2 * env.workers},
		Timeout:   10 * time.Second,
	}))
	if err != nil {
		return nil, err
	}
	defer back.close()
	res, err := driveStream(env, back)
	if err != nil {
		return nil, err
	}
	if err := back.finish(res); err != nil {
		return nil, err
	}
	return res, nil
}

// TestClusterLinkHopEquivalence keeps the two hops honest against each
// other: a 3-node cluster reached over the persistent link must be
// indistinguishable from the same cluster reached over plain HTTP — on
// every accounting observable and on the devices' own wire counters
// (Net: what a device sends, retries and receives cannot depend on how
// the router reaches its nodes) — on both wires, fault-free, under
// seeded chaos, and across a node kill.
func TestClusterLinkHopEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("full HTTP replay across a multi-node cluster, twice per case")
	}
	cfg := crashConfig()
	for _, batched := range []bool{false, true} {
		wire := "sequential"
		if batched {
			wire = "binary"
		}
		cases := []struct {
			name string
			opts func(t *testing.T) TransportOpts
			kill bool
		}{
			{"fault-free", func(*testing.T) TransportOpts { return TransportOpts{} }, false},
			{"chaos", func(*testing.T) TransportOpts { return TransportOpts{Plan: chaosPlan(4242, false)} }, false},
			{"node-kill", func(t *testing.T) TransportOpts {
				op := "report"
				if batched {
					op = "batch"
				}
				return TransportOpts{WALDir: t.TempDir(), SnapshotEvery: 2,
					Crashes: faults.NewCrashSchedule(faults.CrashPoint{Op: op, After: 2, Node: 1})}
			}, true},
		}
		for _, tc := range cases {
			label := wire + "/" + tc.name
			mk := func() TransportOpts {
				o := tc.opts(t)
				o.Nodes, o.Workers, o.Batched, o.BinaryBatch = 3, 4, batched, batched
				return o
			}
			overLink, err := RunTransportStream(cfg, mk())
			if err != nil {
				t.Fatalf("%s over the link: %v", label, err)
			}
			overHTTP, err := runClusterOverHTTPHop(cfg, mk())
			if err != nil {
				t.Fatalf("%s over HTTP: %v", label, err)
			}
			assertCrashEquivalence(t, label, overHTTP, overLink)
			if overHTTP.Net != overLink.Net {
				t.Fatalf("%s: device wire counters differ:\n http: %+v\n link: %+v", label, overHTTP.Net, overLink.Net)
			}
			if tc.kill && (overLink.Restarts != 1 || overHTTP.Restarts != 1) {
				t.Fatalf("%s: restarts link %d http %d, want 1 each", label, overLink.Restarts, overHTTP.Restarts)
			}
			if got := overLink.Obs.CounterTotal("cluster_link_dials_total"); got == 0 {
				t.Fatalf("%s: the default hop dialed no link connection", label)
			}
			if got := overHTTP.Obs.CounterTotal("cluster_link_dials_total"); got != 0 {
				t.Fatalf("%s: the injected-client run dialed %d link connections", label, got)
			}
			if l, h := overLink.Obs.CounterTotal("cluster_forwards_total"), overHTTP.Obs.CounterTotal("cluster_forwards_total"); !tc.kill && l != h {
				t.Fatalf("%s: cluster_forwards_total %d over the link vs %d over HTTP", label, l, h)
			}
		}
	}
}
