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

// localBackend serves the replay in-process from a list of nodes. A
// node is a ShardedServer over its own pool and its own WAL directory.
// The single process is one node holding every client on Shards
// shards, reached directly; a cluster is Nodes one-shard nodes behind a
// cluster.Router. Building an incarnation (buildNode), the WAL kill
// hook (killHook), the restart loop (restartLoop) and the final settle
// (finish) exist once. What differs by mode is stated once each:
//
//   - (F1) what a dead node looks like from outside: the single process
//     parks requests on the node until the replacement is up
//     (newLocalBackend); a cluster node aborts them behind its own
//     listener (buildNode) and the router's circuit parks its clients
//     until Rejoin (restartLoop);
//   - (F2) identity: a cluster node's id, WAL subdirectory (addNode)
//     and, in elastic runs, impression-id namespace (buildNode);
//   - (F3) Result.Obs: the single process's first incarnation's
//     registry, or the router's (newLocalBackend).
type localBackend struct {
	env    *replayEnv
	nodes  []*simNode
	router *cluster.Router // nil for the single process
	reg    *obs.Registry

	// elastic marks a run with scheduled membership changes: placement
	// rides the router's consistent-hash ring instead of the fixed
	// shard.Route partition, and each node mints impression ids from its
	// own namespace so client state can migrate without id collisions.
	elastic    bool
	migrations map[int][]MigrationStep

	front     *http.Server
	frontURL  string
	serveErr  chan error
	stopOnce  sync.Once
	done      chan struct{}
	doneOnce  sync.Once
	closeOnce sync.Once
	wg        sync.WaitGroup // restart loops

	mu  sync.Mutex
	err error // first restart failure
}

// simNode is one serving node. Its mu guards the incarnation swap on
// restart, and the kill hook consults the crash schedule under it, so
// observation is atomic with the node's down state.
type simNode struct {
	idx     int
	id      string // "" for the single process (F2)
	shards  int
	members []int
	walDir  string

	mu       sync.Mutex
	cond     *sync.Cond // broadcast when a replacement is up
	down     bool
	restarts int
	pool     *shard.Pool
	ts       *transport.ShardedServer
	handler  http.Handler // the current incarnation's ts.Handler()
	log      *wal.Log
	// A cluster node's own listener, the router's link connections into
	// it and its address; unset in the single process (F1).
	srv   *http.Server
	links *link.Server
	url   string

	restartCh chan struct{}
}

func (nd *simNode) isDown() bool {
	nd.mu.Lock()
	defer nd.mu.Unlock()
	return nd.down
}

// newLocalBackend builds the nodes, the router over them in cluster
// mode, and the one front listener devices and the coordinator talk to.
// The router→node hop is the router's default (the persistent link);
// extra router options are for the differential test that swaps the hop.
func newLocalBackend(env *replayEnv, extra ...cluster.Option) (*localBackend, error) {
	o := env.o
	b := &localBackend{env: env, serveErr: make(chan error, 1), done: make(chan struct{})}

	// Partition clients. The single process's pool routes with
	// shard.Route over its shards, and a fixed-size cluster places with
	// the same function over its nodes, so a cluster of N and a single
	// process at shards=N sell to identical client subsets — the
	// bit-for-bit comparability the differential tier asserts. Elastic
	// runs partition with the consistent-hash ring the router will place
	// with, so boot ownership matches placement exactly (and the
	// partition-invariance contract keeps the accounting equal to any
	// other split).
	parts := o.Shards
	if o.Nodes > 0 {
		parts = o.Nodes
	}
	place := func(id int) int { return shard.Route(id, parts) }
	if len(o.Migrations) > 0 {
		b.elastic = true
		b.migrations = make(map[int][]MigrationStep)
		for _, st := range o.Migrations {
			b.migrations[st.Period] = append(b.migrations[st.Period], st)
		}
		place = cluster.NewRing(o.Nodes, 0).Place
	}

	var front http.Handler
	if o.Nodes == 0 {
		nd, err := b.addNode(o.Shards, env.ids)
		if err != nil {
			b.close()
			return nil, err
		}
		b.reg = nd.ts.Registry()
		front = nd.handler
		if o.Crashes != nil {
			// (F1) No router parks for the single process: while it is
			// dead, requests wait here until the replacement is up, so
			// clients ride out the outage inside their retry budget
			// instead of burning attempts against a dead socket.
			front = http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				nd.mu.Lock()
				for nd.down {
					nd.cond.Wait()
				}
				h := nd.handler
				nd.mu.Unlock()
				h.ServeHTTP(w, r)
			})
		}
	} else {
		members := make([][]int, o.Nodes)
		for _, id := range env.ids {
			members[place(id)] = append(members[place(id)], id)
		}
		urls := make([]string, o.Nodes)
		for i := range members {
			nd, err := b.addNode(1, members[i])
			if err != nil {
				b.close()
				return nil, err
			}
			urls[i] = nd.url
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
		b.router, b.reg = router, router.Registry()
		front = router.Handler()
	}

	// The front is the only address devices and the coordinator know.
	// The fault plan wraps it in both modes — faults are injected on the
	// device↔server leg — and its partition routing maps a client to its
	// shard or node. Fault decisions are pure hashes, so the single
	// process's parking gate sitting inside the plan changes none.
	if o.Plan != nil {
		front = o.Plan.Middleware(front, place)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.close()
		return nil, fmt.Errorf("sim: transport listener: %w", err)
	}
	b.front = &http.Server{Handler: front}
	b.frontURL = "http://" + ln.Addr().String()
	go func() { b.serveErr <- b.front.Serve(ln) }()
	return b, nil
}

// addNode builds member len(b.nodes)'s first incarnation over the given
// clients and, with a crash schedule armed, starts its restart loop —
// one per node, so two nodes killed back-to-back recover independently.
func (b *localBackend) addNode(shards int, members []int) (*simNode, error) {
	o := b.env.o
	nd := &simNode{idx: len(b.nodes), shards: shards, members: members, walDir: o.WALDir,
		restartCh: make(chan struct{}, 1)}
	nd.cond = sync.NewCond(&nd.mu)
	if o.Nodes > 0 {
		// (F2) A cluster node is named and logs under its own
		// subdirectory; the single process's log stays directly in WALDir.
		nd.id = fmt.Sprintf("node%d", nd.idx)
		if nd.walDir != "" {
			nd.walDir = filepath.Join(nd.walDir, nd.id)
			if err := os.MkdirAll(nd.walDir, 0o755); err != nil {
				return nil, fmt.Errorf("sim: node %d wal dir: %w", nd.idx, err)
			}
		}
	}
	if err := b.buildNode(nd); err != nil {
		return nil, err
	}
	b.nodes = append(b.nodes, nd)
	if o.Crashes != nil {
		b.wg.Add(1)
		go b.restartLoop(nd)
	}
	return nd, nil
}

// buildNode constructs one serving incarnation of a node — pool over
// its member clients, transport server, WAL opened with the kill hook
// and recovered — and installs it. Called at boot and by the restart
// loop after a kill.
func (b *localBackend) buildNode(nd *simNode) error {
	o := b.env.o
	pool, err := b.env.makePool(nd.shards, nd.members)
	if err != nil {
		return err
	}
	member := -1
	if b.elastic {
		// (F2) Each node mints impression ids from its own block, so
		// state handed to another node never collides with the adopter's.
		member = nd.idx
	}
	var l *wal.Log
	if nd.walDir != "" {
		var hook func(wal.Record)
		if o.Crashes != nil {
			hook = b.killHook(nd)
		}
		if l, err = wal.Open(nd.walDir, wal.Options{NoSync: !o.Fsync, Hook: hook}); err != nil {
			return fmt.Errorf("sim: node %d wal: %w", nd.idx, err)
		}
	}
	ts, _, err := transport.BootNode(pool, member, nd.id, o.Tenants, l, o.SnapshotEvery)
	if err != nil {
		if l != nil {
			l.Close()
		}
		return fmt.Errorf("sim: node %d: %w", nd.idx, err)
	}
	handler := ts.Handler()
	var srv *http.Server
	var links *link.Server
	var url string
	if o.Nodes > 0 {
		// (F1) While a cluster node is down its replacement is not serving
		// yet; abort any connection that still reaches the old
		// incarnation, exactly like a killed process would. The link
		// server wraps the gate, so a framed request dies the same death
		// an HTTP one does.
		links = link.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if nd.isDown() {
				panic(http.ErrAbortHandler)
			}
			handler.ServeHTTP(w, r)
		}))
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			if l != nil {
				l.Close()
			}
			return fmt.Errorf("sim: node %d listener: %w", nd.idx, err)
		}
		srv = &http.Server{Handler: links}
		go srv.Serve(ln)
		url = "http://" + ln.Addr().String()
	}
	nd.mu.Lock()
	nd.pool, nd.ts, nd.handler, nd.log = pool, ts, handler, l
	nd.srv, nd.links, nd.url = srv, links, url
	nd.mu.Unlock()
	return nil
}

// killHook returns the WAL hook that turns a fired crash point into a
// node death: mark the node down, seal its log so nothing further
// becomes durable or acked, signal the restart loop, and abort the
// in-flight request — its client never learns the outcome and must
// retry against the recovered node.
func (b *localBackend) killHook(nd *simNode) func(wal.Record) {
	crashes := b.env.o.Crashes
	return func(rec wal.Record) {
		// A record that slipped past the seal of an incarnation already
		// being killed (another shard's append racing the kill) belongs
		// to that outage: it must not consume the next crash point.
		nd.mu.Lock()
		if nd.down || !crashes.ObserveNode(nd.idx, rec.Op) {
			nd.mu.Unlock()
			return
		}
		nd.down = true
		nd.log.Seal()
		nd.restartCh <- struct{}{} // never blocks: down stays set until the loop has taken it
		nd.mu.Unlock()
		panic(http.ErrAbortHandler)
	}
}

// restartLoop recovers a node after each kill: quiesce the dying
// incarnation, rebuild it from the node's own WAL, mark it up and wake
// whoever waits for it — the single process's parked requests, or the
// router, told to Rejoin the node at its new address (F1). A failed
// rebuild leaves the dead incarnation in place; finish reports it.
func (b *localBackend) restartLoop(nd *simNode) {
	defer b.wg.Done()
	for {
		select {
		case <-nd.restartCh:
		case <-b.done:
			return
		}
		nd.mu.Lock()
		srv, links, old := nd.srv, nd.links, nd.log
		nd.mu.Unlock()
		if srv != nil {
			// Kill a cluster node completely: Close aborts in-flight
			// requests and the listener — and, separately, the hijacked
			// link connections http.Server no longer tracks — so the router
			// sees connection failures exactly as if the process died.
			srv.Close()
			links.Close()
		}
		// Quiesce the sealed log before reopening the directory: Close
		// waits out an append already past the seal check, so the
		// replacement reads a complete tail (such a record was acked and
		// must be replayed, not truncated).
		_ = old.Close()
		err := b.buildNode(nd)
		if err != nil {
			b.setErr(err)
		}
		nd.mu.Lock()
		if err == nil {
			nd.restarts++
		}
		nd.down = false
		url := nd.url
		nd.cond.Broadcast()
		nd.mu.Unlock()
		if b.router != nil {
			b.router.Rejoin(nd.idx, url)
		}
	}
}

// migrate fires the membership steps scheduled for this period (the
// migrator hook driveStream calls concurrently with slot replay). A
// grow step builds a brand-new empty node and joins it — the router
// hands it its ring share live; a shrink step drains the member onto
// the survivors and then removes it. The drained node's process stays
// up for the rest of the run: its ledger history is part of the final
// accounting, which finish sums directly from every node ever built.
func (b *localBackend) migrate(period int) error {
	for _, st := range b.migrations[period] {
		if st.AddNode {
			nd, err := b.addNode(1, nil)
			if err != nil {
				return err
			}
			id, _, err := b.router.AddNode(nd.url)
			if err != nil {
				return err
			}
			if id != nd.idx {
				return fmt.Errorf("sim: router assigned member id %d to node %d", id, nd.idx)
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

func (b *localBackend) setErr(err error) {
	b.mu.Lock()
	if b.err == nil {
		b.err = err
	}
	b.mu.Unlock()
}

func (b *localBackend) url() string             { return b.frontURL }
func (b *localBackend) registry() *obs.Registry { return b.reg }

// stopServe releases the front port and waits the serve goroutine out.
func (b *localBackend) stopServe() {
	b.stopOnce.Do(func() {
		if b.front != nil {
			_ = b.front.Close()
			<-b.serveErr
		}
	})
}

// finish stops serving, waits out any restart in flight, sweeps
// impressions still open at trace end, and sums ledger, campaign spend
// and tenant ledgers over every node ever built (drained members
// included), node by node and shard by shard — the order every float
// total has always been added in.
func (b *localBackend) finish(res *Result) error {
	b.stopServe()
	b.doneOnce.Do(func() { close(b.done) })
	b.wg.Wait() // no restart in flight: every node's state is final
	b.mu.Lock()
	rerr := b.err
	b.mu.Unlock()
	if rerr != nil {
		return fmt.Errorf("sim: node restart: %w", rerr)
	}
	env := b.env
	res.CampaignBilled = make(map[auction.CampaignID]float64, env.cfg.Demand.Campaigns)
	if len(env.o.Tenants) > 0 {
		res.TenantLedgers = make(map[string]auction.Ledger, len(env.o.Tenants))
	}
	for _, nd := range b.nodes {
		nd.mu.Lock()
		pool := nd.pool
		res.Restarts += nd.restarts
		nd.mu.Unlock()
		for s := 0; s < pool.Shards(); s++ {
			pool.Shard(s).Exchange().SweepExpired(env.span + simclock.Week)
		}
		res.Ledger.Add(pool.Ledger())
		for i := 0; i < env.cfg.Demand.Campaigns; i++ {
			id := auction.CampaignID(i)
			for s := 0; s < pool.Shards(); s++ {
				if billed, _, err := pool.Shard(s).Exchange().CampaignSpend(id); err == nil {
					res.CampaignBilled[id] += billed
				}
			}
		}
		for _, tc := range env.o.Tenants {
			tl := res.TenantLedgers[tc.ID]
			tl.Add(pool.LedgerOf(tc.ID))
			res.TenantLedgers[tc.ID] = tl
		}
	}
	return nil
}

func (b *localBackend) close() {
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
