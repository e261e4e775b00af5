// Command adserverd runs the prefetching ad server as an HTTP service:
// auctions, admission control, overbooked replication, claims and
// billing behind the JSON protocol in internal/transport. Devices (see
// transport.Device, or examples/httpdemo) speak to it with bundle
// fetches, slot observations, display reports and on-demand requests —
// either one request per operation, or one POST /v1/batch envelope per
// wake-up (transport.WithBatching); -max-batch bounds the envelope.
//
// With -shards > 1 the client id space is hash-partitioned across that
// many independent ad-server shards, each behind its own lock, so the
// serving path scales with cores. Each shard holds 1/N of every
// campaign's budget, so the node never spends more than one budget; a
// cluster node holds its own. For a given -seed the node sells the
// campaign set the replay (internal/sim) sells for that seed: both
// build it with auction.DemandConfig.NodeCampaigns and boot through
// transport.BootNode.
//
// With -wal DIR the server is crash-safe: every mutating operation is
// appended to a write-ahead log in DIR before its response is
// acknowledged, a full-state snapshot truncates the log every
// -snapshot-every period-end rounds, and boot replays whatever the
// directory holds — a kill -9 at any instant loses nothing that was
// acked, and client retries ride the recovered idempotency window
// instead of double-executing (see internal/wal and DESIGN.md §5d).
// Its snapshots carry the predictors too. -state (a predictor-only file
// loaded at boot and saved on SIGINT/SIGTERM) is for a node without
// -wal; the two together are refused, since replaying the log over
// loaded predictors would count their history twice.
//
// The serving handler instruments every endpoint into a metrics
// registry scraped at GET /v1/metrics (Prometheus text format). With
// -debug-addr set, a second listener — keep it off the public network —
// serves Go runtime profiling at /debug/pprof/, expvar at /debug/vars,
// and the same metrics exposition at /metrics.
//
// A multi-node cluster is N adserverd processes plus one more running
// the routing tier: with -route-nodes URL1,URL2,... the process serves
// no ads itself — it places each client onto one node by consistent
// hashing, proxies client traffic there, fans period rounds out to
// every node, and rides out node restarts (crashed nodes are probed on
// /v1/health and rejoined when they answer; see internal/cluster and
// README "Running a cluster"). The router talks to its nodes over
// persistent framed connections (internal/link) that start as an HTTP
// Upgrade on each node's -addr listener — no extra port or flag on
// either side. Give each node a -node-id so the label
// shows up in its /v1/health reply and as the adserver_node_info gauge
// in /v1/metrics.
//
// Example:
//
//	adserverd -addr :8480 -clients 100 -period 4h -campaigns 40 -shards 4 -debug-addr 127.0.0.1:8481
package main

import (
	"context"
	"encoding/json"
	"errors"
	"expvar"
	"flag"
	"fmt"
	"log"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/adserver"
	"repro/internal/auction"
	"repro/internal/cluster"
	"repro/internal/link"
	"repro/internal/predict"
	"repro/internal/shard"
	"repro/internal/simclock"
	"repro/internal/tenant"
	"repro/internal/transport"
	"repro/internal/wal"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("adserverd: ")

	var (
		addr      = flag.String("addr", ":8480", "listen address")
		clients   = flag.Int("clients", 100, "client id space (0..N-1)")
		period    = flag.Duration("period", 4*time.Hour, "prefetch period")
		campaigns = flag.Int("campaigns", 40, "synthetic campaign count")
		cpm       = flag.Float64("cpm", 1.0, "median campaign CPM in USD")
		reserve   = flag.Float64("reserve", auction.DefaultReserveUSD, "per-impression reserve price in USD")
		pctile    = flag.Float64("percentile", 0.9, "client forecast percentile")
		seed      = flag.Int64("seed", 1, "demand generation seed")
		shards    = flag.Int("shards", 1, "ad-server shards (clients hash-partitioned; one lock each)")
		maxBatch  = flag.Int("max-batch", transport.DefaultMaxBatchOps, "max sub-ops per /v1/batch envelope")
		statePath = flag.String("state", "", "predictor-state file: loaded at startup, saved on SIGINT/SIGTERM; not with -wal, whose snapshots carry the predictors")
		walDir    = flag.String("wal", "", "durability directory (write-ahead log + snapshots); empty disables crash safety")
		snapEvery = flag.Int("snapshot-every", 6, "with -wal: full-state checkpoint every N period-end rounds (0 = log only, never truncated)")
		debugAddr = flag.String("debug-addr", "", "debug listener (pprof, expvar, metrics); empty disables, keep it private")
		nodeID    = flag.String("node-id", "", "this node's id in a cluster; surfaced in /v1/health and as the adserver_node_info gauge")
		routeNode = flag.String("route-nodes", "", "comma-separated node base URLs: run the cluster routing tier over them instead of serving ads")
		probeEach = flag.Duration("probe-every", 2*time.Second, "with -route-nodes: how often down nodes are probed for rejoin")
		adminTok  = flag.String("admin-token", "", "bearer token protecting /v1/admin (node migration endpoints; router membership endpoints); empty leaves admin open")
		clNode    = flag.Int("cluster-node", 0, "with -cluster-size: this node's member index in the routing ring")
		clSize    = flag.Int("cluster-size", 0, "boot owning only the clients the routing ring places on member -cluster-node among this many members (a joiner passes the pre-join size and its new index, owning none), and mint impression ids from that member's disjoint block; 0 owns the whole id space")
		tenantsFl = flag.String("tenants", "", "JSON file with the boot tenant table ([{id, lo, hi, rate_per_sec, burst, max_open_book}, ...]); empty serves the legacy single tenant")
	)
	flag.Parse()
	if *routeNode != "" {
		runRouter(*addr, *routeNode, *probeEach, *adminTok)
		return
	}
	if *shards < 1 {
		log.Fatalf("-shards must be >= 1, got %d", *shards)
	}
	// A member index without a ring size would boot owning every client
	// and minting from the base id namespace, which the control plane
	// only notices later as overlapping partitions.
	if *clNode < 0 || *clSize < 0 {
		log.Fatalf("-cluster-node and -cluster-size must be >= 0, got %d and %d", *clNode, *clSize)
	}
	if *clNode != 0 && *clSize == 0 {
		log.Fatalf("-cluster-node %d needs -cluster-size, the member count of the routing ring", *clNode)
	}
	if *statePath != "" && *walDir != "" {
		log.Fatalf("-state with -wal: the log's snapshots already carry the predictors, and recovery would replay their history over the loaded file a second time; use -wal alone")
	}

	var tenantCfgs []tenant.Config
	if *tenantsFl != "" {
		data, err := os.ReadFile(*tenantsFl)
		if err != nil {
			log.Fatal(err)
		}
		if err := json.Unmarshal(data, &tenantCfgs); err != nil {
			log.Fatalf("-tenants %s: %v", *tenantsFl, err)
		}
	}

	cfg := adserver.DefaultConfig()
	cfg.Period = *period
	// In an elastic cluster every node must boot owning exactly its ring
	// share — the membership control plane plans moves from what nodes
	// report owning, and overlapping boot partitions make every plan
	// refuse. A joiner (index >= pre-join size) correctly owns nothing.
	ids := make([]int, 0, *clients)
	if *clSize > 0 {
		members := make([]int, *clSize)
		for i := range members {
			members[i] = i
		}
		ring := cluster.NewRingOf(members, 0)
		for c := 0; c < *clients; c++ {
			if *clNode < *clSize && ring.Place(c) == *clNode {
				ids = append(ids, c)
			}
		}
	} else {
		for c := 0; c < *clients; c++ {
			ids = append(ids, c)
		}
	}
	// The same -seed gives the campaign set the replay sells for that seed.
	demand := auction.DefaultDemand()
	demand.Campaigns = *campaigns
	demand.CPMMedianUSD = *cpm
	demandRNG := simclock.NewRand(*seed).Stream("sim")
	pool, err := shard.New(*shards, cfg, ids, func(int) (*auction.Exchange, error) {
		return auction.NewExchange(demand.NodeCampaigns(demandRNG, tenantCfgs, *shards), *reserve)
	}, func(int) predict.Predictor {
		return predict.NewPercentileHistogram(*pctile)
	}, nil)
	if err != nil {
		log.Fatal(err)
	}

	if *statePath != "" {
		f, err := os.Open(*statePath)
		switch {
		case err == nil:
			loadErr := pool.LoadPredictors(f)
			f.Close()
			if loadErr != nil {
				log.Fatal(loadErr)
			}
			fmt.Printf("adserverd: restored predictor state from %s\n", *statePath)
		case errors.Is(err, os.ErrNotExist):
			// First run: nothing to restore.
		default:
			log.Fatal(err)
		}
	}

	var l *wal.Log
	if *walDir != "" {
		if l, err = wal.Open(*walDir, wal.Options{}); err != nil {
			log.Fatal(err)
		}
		defer l.Close()
	}
	member := -1
	if *clSize > 0 {
		member = *clNode
	}
	ss, st, err := transport.BootNode(pool, member, *nodeID, tenantCfgs, l, *snapEvery)
	if err != nil {
		log.Fatal(err)
	}
	ss.MaxBatchOps = *maxBatch
	ss.AdminToken = *adminTok
	if len(tenantCfgs) > 0 {
		fmt.Printf("adserverd: %d tenant(s) under admission control (epoch 1)\n", len(tenantCfgs))
	}
	if l != nil {
		fmt.Printf("adserverd: recovered from %s (snapshot=%v, %d ops replayed)\n",
			*walDir, st.SnapshotRestored, st.Replayed)
	}

	// The debug listener is a separate server on purpose: profiling and
	// runtime internals never ride the public address, and an operator
	// can firewall the two independently. No timeouts — profile streams
	// (e.g. /debug/pprof/trace?seconds=60) are long-lived by design.
	if *debugAddr != "" {
		dbg := http.NewServeMux()
		dbg.HandleFunc("/debug/pprof/", pprof.Index)
		dbg.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		dbg.HandleFunc("/debug/pprof/profile", pprof.Profile)
		dbg.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		dbg.HandleFunc("/debug/pprof/trace", pprof.Trace)
		dbg.Handle("/debug/vars", expvar.Handler())
		dbg.Handle("/metrics", ss.Registry().Handler())
		go func() {
			fmt.Printf("adserverd: debug listener (pprof, expvar, metrics) on %s\n", *debugAddr)
			if err := http.ListenAndServe(*debugAddr, dbg); !errors.Is(err, http.ErrServerClosed) {
				log.Printf("debug listener: %v", err)
			}
		}()
	}
	if *clSize > 0 {
		fmt.Printf("adserverd: owns %d of %d clients (ring member %d of %d), %d campaigns, %d shard(s), period %v, listening on %s\n",
			len(ids), *clients, *clNode, *clSize, *campaigns, *shards, *period, *addr)
	} else {
		fmt.Printf("adserverd: %d clients, %d campaigns, %d shard(s), period %v, listening on %s\n",
			*clients, *campaigns, *shards, *period, *addr)
	}
	// A cluster router upgrades connections on this same listener into
	// its persistent link; the link server dispatches their frames to the
	// one handler everything else reaches. Shutdown neither waits for nor
	// closes upgraded connections: closing the link server after the
	// drain lets an exchange in flight finish its handler and drops the
	// rest, so the state saved below is final.
	links := link.NewServer(ss.Handler())
	serve(*addr, links, links.Close)

	if *statePath != "" {
		// Atomic save: a crash mid-write must leave the previous state
		// file intact, never a torn one.
		if err := wal.WriteFileAtomic(*statePath, pool.SavePredictors); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("adserverd: saved predictor state to %s\n", *statePath)
	}
}

// runRouter serves the cluster routing tier over the given node URLs:
// no local ad state, just placement, proxying, period fan-out, the
// background prober that rejoins restarted nodes, and the membership
// control plane under /v1/admin (add/drain/remove/plan — see README
// "Scaling the cluster live"). The router's own /v1/metrics exposes the
// cluster counters (forwards, failures, circuit opens, refusals,
// rejoins, migrations).
func runRouter(addr, nodeList string, probeEvery time.Duration, adminToken string) {
	urls := strings.Split(nodeList, ",")
	for i := range urls {
		urls[i] = strings.TrimSpace(urls[i])
		if urls[i] == "" {
			log.Fatalf("-route-nodes: empty URL at position %d", i)
		}
	}
	opts := []cluster.Option{}
	if adminToken != "" {
		opts = append(opts, cluster.WithAdminToken(adminToken))
	}
	rt, err := cluster.New(cluster.Membership{Nodes: urls}, opts...)
	if err != nil {
		log.Fatal(err)
	}
	rt.StartProber(probeEvery)
	fmt.Printf("adserverd: routing tier over %d node(s), listening on %s\n", len(urls), addr)
	serve(addr, rt.Handler(), rt.Close)
}

// serve runs h on addr until SIGINT or SIGTERM, then drains: Shutdown
// lets in-flight requests finish (so a deploy never truncates a
// half-served report), then afterDrain runs, and serve returns.
// Timeouts bound every connection: a stalled mobile client must not pin
// a handler goroutine forever.
func serve(addr string, h http.Handler, afterDrain func()) {
	srv := &http.Server{
		Addr:         addr,
		Handler:      h,
		ReadTimeout:  30 * time.Second,
		WriteTimeout: 30 * time.Second,
		IdleTimeout:  2 * time.Minute,
	}
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	drained := make(chan struct{})
	go func() {
		sig := <-sigc
		fmt.Printf("adserverd: %v: draining in-flight requests\n", sig)
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			log.Printf("shutdown: %v", err)
		}
		afterDrain()
		close(drained)
	}()
	if err := srv.ListenAndServe(); !errors.Is(err, http.ErrServerClosed) {
		log.Fatal(err)
	}
	<-drained
}
