package sim

import (
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/auction"
	"repro/internal/cluster"
	"repro/internal/link"
	"repro/internal/obs"
	"repro/internal/shard"
	"repro/internal/simclock"
	"repro/internal/transport"
	"repro/internal/wal"
)

// clusterRejoinWait is how long the in-test router parks a down node's
// requests awaiting its rejoin. Restarting a node is milliseconds of
// work; the window is generous so a parked request always outlives the
// recovery instead of burning its device's retry budget — the property
// that keeps kill/restart runs equal to the uninterrupted baseline.
const clusterRejoinWait = 60 * time.Second

// simNode is one cluster member: a single-shard ShardedServer on its
// own loopback listener with its own WAL directory. The node's mu
// guards the incarnation swap on restart; down is read by the handler
// wrapper so a "dead" node aborts connections exactly like a killed
// process until the replacement is up.
type simNode struct {
	idx     int
	members []int
	walDir  string

	mu       sync.Mutex
	pool     *shard.Pool
	ts       *transport.ShardedServer
	log      *wal.Log
	srv      *http.Server
	links    *link.Server // the router's link connections into srv
	ln       net.Listener
	down     bool
	restarts int

	restartCh chan struct{}
}

func (nd *simNode) isDown() bool {
	nd.mu.Lock()
	defer nd.mu.Unlock()
	return nd.down
}

// clusterBackend serves the replay from N simNodes behind a
// cluster.Router, and implements the node kill/restart machinery: the
// WAL hook of a dying node seals its log and signals its restart
// goroutine, which tears the incarnation down completely (listener
// included), rebuilds it from the node's own WAL, and tells the router
// to Rejoin it at the replacement's address.
type clusterBackend struct {
	env    *replayEnv
	nodes  []*simNode
	router *cluster.Router

	// elastic marks a run with scheduled membership changes: placement
	// rides the router's consistent-hash ring instead of the fixed
	// shard.Route partition, and each node mints impression ids from its
	// own namespace so client state can migrate without id collisions.
	elastic    bool
	migrations map[int][]MigrationStep

	routerSrv *http.Server
	routerURL string
	serveErr  chan error
	stopOnce  sync.Once
	done      chan struct{}
	doneOnce  sync.Once
	closeOnce sync.Once
	wg        sync.WaitGroup

	mu  sync.Mutex
	err error // first restart failure
}

// newClusterBackend builds the nodes and the router over them. The
// router→node hop is the router's default (the persistent link); extra
// router options are for the differential test that swaps the hop.
func newClusterBackend(env *replayEnv, extra ...cluster.Option) (*clusterBackend, error) {
	o := env.o
	b := &clusterBackend{env: env, serveErr: make(chan error, 1), done: make(chan struct{})}
	nodes := o.Nodes
	b.elastic = len(o.Migrations) > 0
	if b.elastic {
		b.migrations = make(map[int][]MigrationStep)
		for _, st := range o.Migrations {
			b.migrations[st.Period] = append(b.migrations[st.Period], st)
		}
	}

	// Partition clients onto nodes. The fixed-size tier uses the same
	// stable function the single-process server partitions them onto
	// shards, so a cluster of N and a single process at shards=N sell to
	// identical client subsets — the bit-for-bit comparability the
	// differential tier asserts. Elastic runs partition with the same
	// consistent-hash ring the router will place with, so boot ownership
	// matches placement exactly (and the partition-invariance contract
	// keeps the accounting equal to any other split).
	place := func(id int) int { return shard.Route(id, nodes) }
	if b.elastic {
		ring := cluster.NewRing(nodes, 0)
		place = ring.Place
	}
	members := make([][]int, nodes)
	for _, id := range env.ids {
		members[place(id)] = append(members[place(id)], id)
	}
	for i := 0; i < nodes; i++ {
		nd := &simNode{idx: i, members: members[i], restartCh: make(chan struct{}, 1)}
		if o.WALDir != "" {
			nd.walDir = filepath.Join(o.WALDir, fmt.Sprintf("node%d", i))
			if err := os.MkdirAll(nd.walDir, 0o755); err != nil {
				b.close()
				return nil, fmt.Errorf("sim: node %d wal dir: %w", i, err)
			}
		}
		if err := b.buildNode(nd); err != nil {
			b.close()
			return nil, err
		}
		b.nodes = append(b.nodes, nd)
	}

	urls := make([]string, nodes)
	for i, nd := range b.nodes {
		urls[i] = "http://" + nd.ln.Addr().String()
	}
	ropts := []cluster.Option{cluster.WithRejoinWait(clusterRejoinWait)}
	if !b.elastic {
		// Fixed-size runs freeze placement to the shard partition; an
		// elastic run keeps the router's own ring so membership can move.
		ropts = append(ropts, cluster.WithPlacement(place))
	}
	router, err := cluster.New(cluster.Membership{Nodes: urls}, append(ropts, extra...)...)
	if err != nil {
		b.close()
		return nil, err
	}
	b.router = router

	// Node restart goroutines: one per node, so two nodes killed
	// back-to-back recover independently (double-kill tolerance).
	if o.Crashes != nil {
		for _, nd := range b.nodes {
			b.wg.Add(1)
			go b.restartLoop(nd)
		}
	}

	// The router is the only address devices and the coordinator know.
	// The fault plan's middleware wraps it — faults are injected on the
	// device↔router leg, mirroring the single-process topology where
	// the plan fronts the whole server — and its partition routing maps
	// a client to its node.
	handler := http.Handler(router.Handler())
	if o.Plan != nil {
		handler = o.Plan.Middleware(handler, place)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.close()
		return nil, fmt.Errorf("sim: router listener: %w", err)
	}
	b.routerSrv = &http.Server{Handler: handler}
	b.routerURL = "http://" + ln.Addr().String()
	go func() { b.serveErr <- b.routerSrv.Serve(ln) }()
	return b, nil
}

// buildNode constructs one serving incarnation of a node — pool over
// its member clients, transport server, WAL recovery — and starts its
// listener. Called at boot and by the restart loop after a kill.
func (b *clusterBackend) buildNode(nd *simNode) error {
	env, o := b.env, b.env.o
	pool, err := env.makePool(1, nd.members)
	if err != nil {
		return err
	}
	if b.elastic {
		// Disjoint impression-id namespaces: each node mints from its own
		// 2^40 block, so state handed to another node can never collide
		// with ids the adopter minted itself. Seeded before WAL recovery,
		// so replayed sales mint exactly the ids the live run did.
		for i := 0; i < pool.Shards(); i++ {
			pool.Shard(i).Exchange().SeedImpressionIDs(auction.ImpressionID(nd.idx+1) << 40)
		}
	}
	ts := transport.NewShardedServer(pool)
	ts.SetNodeID(fmt.Sprintf("node%d", nd.idx))
	if err := setTenants(ts, o.Tenants); err != nil {
		return err
	}
	var l *wal.Log
	if nd.walDir != "" {
		var hook func(wal.Record)
		if o.Crashes != nil {
			hook = b.killHook(nd)
		}
		l, err = wal.Open(nd.walDir, wal.Options{NoSync: !o.Fsync, Hook: hook})
		if err != nil {
			return fmt.Errorf("sim: node %d wal: %w", nd.idx, err)
		}
		ts.AttachWAL(l, o.SnapshotEvery)
		if _, err := ts.Recover(); err != nil {
			l.Close()
			return fmt.Errorf("sim: node %d recovery: %w", nd.idx, err)
		}
	}
	// While the node is down its replacement is not serving yet; abort
	// any connection that still reaches the old incarnation, exactly
	// like a killed process would. The link server wraps the gate, so a
	// framed request dies the same death an HTTP one does.
	inner := ts.Handler()
	links := link.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if nd.isDown() {
			panic(http.ErrAbortHandler)
		}
		inner.ServeHTTP(w, r)
	}))
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		if l != nil {
			l.Close()
		}
		return fmt.Errorf("sim: node %d listener: %w", nd.idx, err)
	}
	srv := &http.Server{Handler: links}
	go srv.Serve(ln)
	nd.mu.Lock()
	nd.pool, nd.ts, nd.log, nd.srv, nd.links, nd.ln = pool, ts, l, srv, links, ln
	nd.mu.Unlock()
	return nil
}

// killHook returns the WAL hook that turns a fired crash point into a
// node death: mark the node down, seal its log so nothing further
// becomes durable or acked, signal the restart loop, and abort the
// in-flight request — its client never learns the outcome and must
// retry against the recovered node.
func (b *clusterBackend) killHook(nd *simNode) func(wal.Record) {
	crashes := b.env.o.Crashes
	return func(rec wal.Record) {
		if !crashes.ObserveNode(nd.idx, rec.Op) {
			return
		}
		nd.mu.Lock()
		if !nd.down {
			nd.down = true
			nd.log.Seal()
			nd.restartCh <- struct{}{}
		}
		nd.mu.Unlock()
		panic(http.ErrAbortHandler)
	}
}

// restartLoop recovers a node after each kill. The router learns of
// the death organically — consecutive failures open its circuit and
// park the node's clients — and is told to Rejoin once the replacement
// is serving, at its new address.
func (b *clusterBackend) restartLoop(nd *simNode) {
	defer b.wg.Done()
	for {
		select {
		case <-nd.restartCh:
		case <-b.done:
			return
		}
		nd.mu.Lock()
		oldSrv, oldLinks, oldLog := nd.srv, nd.links, nd.log
		nd.mu.Unlock()
		// Kill the incarnation completely: Close aborts in-flight
		// requests and the listener — and, separately, the hijacked link
		// connections http.Server no longer tracks — so the router sees
		// connection failures exactly as if the process died. Then quiesce the
		// sealed log — Close waits out an append already past the seal
		// check, so the replacement reads a complete tail (such a
		// record was acked and must be replayed, not truncated).
		oldSrv.Close()
		oldLinks.Close()
		if oldLog != nil {
			_ = oldLog.Close()
		}
		err := b.buildNode(nd)
		nd.mu.Lock()
		if err != nil {
			b.setErr(err)
		} else {
			nd.restarts++
		}
		nd.down = false
		newURL := "http://" + nd.ln.Addr().String()
		nd.mu.Unlock()
		b.router.Rejoin(nd.idx, newURL)
	}
}

// migrate fires the membership steps scheduled for this period (the
// migrator hook driveStream calls concurrently with slot replay). A
// grow step builds a brand-new empty node and joins it — the router
// hands it its ring share live; a shrink step drains the member onto
// the survivors and then removes it. The drained node's process stays
// up for the rest of the run: its ledger history is part of the final
// accounting, which finish() sums directly from every node ever built.
func (b *clusterBackend) migrate(period int) error {
	for _, st := range b.migrations[period] {
		if st.AddNode {
			if err := b.addNode(); err != nil {
				return err
			}
			continue
		}
		if _, err := b.router.Drain(st.DrainNode); err != nil {
			return err
		}
		if err := b.router.Remove(st.DrainNode); err != nil {
			return err
		}
	}
	return nil
}

// addNode builds one fresh member — empty pool, own WAL directory, own
// impression-id namespace — and joins it to the live cluster.
func (b *clusterBackend) addNode() error {
	o := b.env.o
	nd := &simNode{idx: len(b.nodes), restartCh: make(chan struct{}, 1)}
	if o.WALDir != "" {
		nd.walDir = filepath.Join(o.WALDir, fmt.Sprintf("node%d", nd.idx))
		if err := os.MkdirAll(nd.walDir, 0o755); err != nil {
			return fmt.Errorf("sim: node %d wal dir: %w", nd.idx, err)
		}
	}
	if err := b.buildNode(nd); err != nil {
		return err
	}
	b.nodes = append(b.nodes, nd)
	if o.Crashes != nil {
		b.wg.Add(1)
		go b.restartLoop(nd)
	}
	id, _, err := b.router.AddNode("http://" + nd.ln.Addr().String())
	if err != nil {
		return err
	}
	if id != nd.idx {
		return fmt.Errorf("sim: router assigned member id %d to node %d", id, nd.idx)
	}
	return nil
}

func (b *clusterBackend) setErr(err error) {
	b.mu.Lock()
	if b.err == nil {
		b.err = err
	}
	b.mu.Unlock()
}

func (b *clusterBackend) url() string { return b.routerURL }

// registry surfaces the router's cluster-level metrics as Result.Obs;
// per-node serving metrics live on each node's own registry.
func (b *clusterBackend) registry() *obs.Registry { return b.router.Registry() }

func (b *clusterBackend) stopServe() {
	b.stopOnce.Do(func() {
		if b.routerSrv != nil {
			_ = b.routerSrv.Close()
			<-b.serveErr
		}
	})
}

func (b *clusterBackend) finish(res *Result) error {
	b.stopServe()
	b.doneOnce.Do(func() { close(b.done) })
	b.wg.Wait() // no restart in flight: every node's state is final
	b.mu.Lock()
	rerr := b.err
	b.mu.Unlock()
	if rerr != nil {
		return fmt.Errorf("sim: node restart: %w", rerr)
	}
	span := b.env.span
	res.CampaignBilled = make(map[auction.CampaignID]float64, b.env.cfg.Demand.Campaigns)
	if len(b.env.o.Tenants) > 0 {
		res.TenantLedgers = make(map[string]auction.Ledger, len(b.env.o.Tenants))
	}
	for _, nd := range b.nodes {
		nd.mu.Lock()
		pool := nd.pool
		res.Restarts += nd.restarts
		nd.mu.Unlock()
		for i := 0; i < pool.Shards(); i++ {
			pool.Shard(i).Exchange().SweepExpired(span + simclock.Week)
		}
		l := pool.Ledger()
		res.Ledger.Sold += l.Sold
		res.Ledger.BilledUSD += l.BilledUSD
		res.Ledger.Billed += l.Billed
		res.Ledger.FreeUSD += l.FreeUSD
		res.Ledger.FreeShows += l.FreeShows
		res.Ledger.Violations += l.Violations
		res.Ledger.ViolatedUSD += l.ViolatedUSD
		res.Ledger.PotentialUSD += l.PotentialUSD
		for i := 0; i < b.env.cfg.Demand.Campaigns; i++ {
			id := auction.CampaignID(i)
			for s := 0; s < pool.Shards(); s++ {
				if billed, _, err := pool.Shard(s).Exchange().CampaignSpend(id); err == nil {
					res.CampaignBilled[id] += billed
				}
			}
		}
		for _, tc := range b.env.o.Tenants {
			tl := res.TenantLedgers[tc.ID]
			for s := 0; s < pool.Shards(); s++ {
				addLedgers(&tl, pool.Shard(s).Exchange().LedgerOf(tc.ID))
			}
			res.TenantLedgers[tc.ID] = tl
		}
	}
	return nil
}

func (b *clusterBackend) close() {
	b.stopServe()
	b.doneOnce.Do(func() { close(b.done) })
	b.wg.Wait()
	b.closeOnce.Do(func() {
		for _, nd := range b.nodes {
			nd.mu.Lock()
			srv, links, l := nd.srv, nd.links, nd.log
			nd.mu.Unlock()
			if srv != nil {
				_ = srv.Close()
				links.Close()
			}
			if l != nil {
				_ = l.Close()
			}
		}
		if b.router != nil {
			b.router.Close()
		}
	})
}
