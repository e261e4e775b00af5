package sim

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/auction"
	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/obs"
	"repro/internal/predict"
	"repro/internal/shard"
	"repro/internal/simclock"
	"repro/internal/tenant"
	"repro/internal/trace"
	"repro/internal/transport"
	"repro/internal/wal"
)

// TransportOpts selects the wire-path variants of a transport replay.
type TransportOpts struct {
	// Shards is the server shard count (must be >= 1 for the
	// single-process path; leave 0 with Nodes set — cluster nodes each
	// run exactly one shard).
	Shards int
	// Workers bounds device concurrency; <1 means GOMAXPROCS.
	Workers int
	// Nodes, when positive, serves the replay from a multi-node cluster
	// instead of one process: Nodes independent single-shard serving
	// nodes — each its own ShardedServer, own metrics, own WAL directory
	// — behind a cluster.Router that places clients with the same
	// partition shard.Route uses, so a cluster of N is comparable
	// observable for observable with a single process at Shards=N.
	Nodes int
	// Plan, when non-nil, runs the replay under that seeded fault plan:
	// its wire faults wrap the shared HTTP client, its server faults and
	// shard partitions wrap the handler, and every device carries a radio
	// meter so the energy cost of retries (transport.RetryOwner) lands in
	// Result.RetryEnergyJ. Chaos runs stay deterministic because fault
	// decisions are pure hashes of (seed, endpoint, idempotency key,
	// attempt) — see internal/faults — and the device request sequences
	// are deterministic per device. Pass a fresh Plan per run: its
	// injection counters accumulate.
	Plan *faults.Plan
	// Batched switches every device to the coalesced wire mode
	// (transport.WithBatching): one POST /v1/batch envelope per wake-up
	// instead of one request per op, display reports delivered
	// write-behind. Outcomes are equivalent to the sequential mode — the
	// differential suite pins ledger, violation and counter equality —
	// but the run spends far fewer HTTP round trips (Result.Net).
	Batched bool
	// BinaryBatch additionally switches batched devices to the binary
	// envelope codec (transport.WithBinaryBatch). Requires Batched; the
	// codec differential suite pins outcome equality against the JSON
	// envelope.
	BinaryBatch bool
	// WALDir, when non-empty, attaches a write-ahead log under that
	// directory (fsync disabled by default — the harness emulates process
	// crashes, not power loss, and the page cache survives those). In
	// cluster mode each node logs under its own node<i> subdirectory.
	WALDir string
	// Fsync turns real group-commit fsync on for the WAL (wal.Options
	// NoSync off): one flush covers every envelope written before it, and
	// no op is acknowledged before its covering flush. The group-commit
	// crash tier runs with this set to pin that ack-after-flush ordering.
	Fsync bool
	// SnapshotEvery checkpoints the full state every N period-end
	// rounds (0 = never; the log then carries the whole run).
	SnapshotEvery int
	// Crashes, when non-nil, kills and restarts the serving process at
	// the scheduled WAL-append instants. Requires WALDir. A point is
	// observed at the instant between a record becoming durable and its
	// response being acknowledged: the process is torn down mid-request
	// and a replacement is built from scratch, recovering from the newest
	// snapshot plus WAL replay. Requests arriving while it is down block
	// until the replacement is up; the aborted in-flight requests ride
	// the devices' normal retry + idempotency machinery. In cluster mode
	// kills are node-scoped (faults.CrashPoint.Node): the victim's
	// listener drops, the router's circuit opens and parks that node's
	// clients, and the router is told to Rejoin the recovered node. The
	// single-process harness observes as node 0.
	Crashes *faults.CrashSchedule
	// Energy attaches a per-device radio (the Config's Radio profile) and
	// charges app and ad transfer bytes through it, filling the Result's
	// energy fields the same way the in-process simulator does.
	Energy bool
	// Lean drops the O(population) Result fields — PerClient and the
	// per-user energy sample — so a million-device run's result stays
	// small.
	Lean bool
	// Migrations schedules live membership changes mid-run (cluster
	// mode only). Each step fires during the slot-replay phase of its
	// period, concurrently with device traffic, exercising the router's
	// quiesce/handoff path under load. Scheduling any step switches the
	// cluster to elastic placement: the router places clients with its
	// consistent-hash ring (not the shard.Route partition), and every
	// node mints impression ids from its own namespace so state can move
	// between nodes without colliding.
	Migrations []MigrationStep
	// Tenants, when non-empty, runs the replay multi-tenant: every
	// serving incarnation is given a tenant.Registry built from this
	// table at epoch 1 — installed before WAL recovery, so a logged
	// config epoch supersedes it — and each named tenant gets its own
	// campaign set (cfg.Demand regenerated from a tenant-keyed seed
	// stream, ids offset past the legacy set). Devices owned by a named
	// tenant declare it on the wire (transport.WithTenant), and the
	// replay records per-tenant latency and ledger views in the Result.
	Tenants []tenant.Config
	// ConfigEpochs schedules crash-safe tenant-config hot reloads: at
	// the opening of each step's period the harness POSTs
	// /v1/admin/config with the step's full table, retrying until
	// acknowledged — a process killed on the config WAL record recovers
	// and answers the retry idempotently. Step epochs must be >= 2 (the
	// boot registry holds epoch 1) and strictly increasing in schedule
	// order.
	ConfigEpochs []ConfigEpochStep
	// Flood attaches a noisy-neighbor load source (see FloodSpec); the
	// tenant-isolation tier measures victim SLA against it.
	Flood *FloodSpec
	// TargetURL, when non-empty, drives the replay against an external
	// serving deployment at that base URL (adloadgen -target) instead of
	// building a backend in-process. In-process backend options (Shards,
	// Nodes, WALDir, Crashes, Plan, Migrations) do not apply.
	TargetURL string
}

// ConfigEpochStep schedules one tenant-config hot reload: at the
// opening of period Period — before that period's selling round — the
// replay pushes the full tenant table under Epoch to the serving side's
// admin config endpoint.
type ConfigEpochStep struct {
	Period  int
	Epoch   uint64
	Tenants []tenant.Config
}

// FloodSpec is the noisy-neighbor load source: Devices synthetic
// clients — ids from FloodClientBase up, outside any trace population —
// owned by Tenant, each issuing PerPeriod on-demand requests per
// selling period, concurrently with the victim fleet's slot replay.
// Flood requests carry no idempotency keys and are never retried; their
// accepted and rate-limited outcomes land in Result.FloodAdmitted and
// Result.FloodShed.
type FloodSpec struct {
	Tenant    string
	Devices   int
	PerPeriod int
}

// FloodClientBase is the first flood client id, so a flood tenant's
// [Lo, Hi) range covers its synthetic fleet without overlapping real
// clients. A replay whose population reaches past it rejects Flood.
const FloodClientBase = 1 << 20

// MigrationStep is one scheduled membership change: during period
// Period's slot replay, either join one new node (AddNode) or drain —
// and then remove — member DrainNode.
type MigrationStep struct {
	Period    int
	AddNode   bool
	DrainNode int
}

// replayEnv is everything a transport replay prepares before a serving
// backend exists: the lazy trace source, the client ids and their
// derived predictor inputs, and the pool factory the backends build
// their engines from.
type replayEnv struct {
	cfg       Config
	o         TransportOpts
	ids       []int
	cat       *trace.Catalog
	span      simclock.Time
	days      int
	warmupEnd simclock.Time
	period    time.Duration
	workers   int

	// hints and oracle feed the server's per-client targeting hints and
	// the oracle predictor series: hints from interned init-sweep data
	// (the server asks for them every period), oracle from a transient
	// per-id trace derivation.
	hints  func(id int) []trace.Category
	oracle func(id int) []int

	// stream is the lazy trace source; firstWake each client's earliest
	// timeline event (-1 when the client's trace is empty).
	stream    *trace.Stream
	firstWake []simclock.Time

	// makePool builds a pool of `shards` engines over the given member
	// clients. Each shard sees an identical campaign set with a full
	// budget: stream derivation is pure, so every call — including a
	// crash harness rebuilding after a kill — regenerates the exact
	// same demand before recovery overwrites its mutable state.
	makePool func(shards int, members []int) (*shard.Pool, error)
}

// migrator is the optional serving extension for backends that can
// reshape cluster membership mid-run: driveStream calls migrate for
// every period, concurrently with that period's device slot replay, so
// handoffs always race live traffic.
type migrator interface {
	migrate(period int) error
}

// serving is one backend of the replay: something that serves the
// transport protocol at url and can settle the server-side result
// fields when the replay loop is done. Two implementations: the
// single-process ShardedServer (with its kill/restart gate) and the
// multi-node cluster behind a router.
type serving interface {
	url() string
	// registry is the server-side metrics surfaced as Result.Obs (the
	// router's own registry in cluster mode).
	registry() *obs.Registry
	// finish stops serving, resolves the final live state (after any
	// restarts), sweeps trailing expiries, and fills Result.Ledger,
	// Result.Restarts and Result.CampaignBilled.
	finish(res *Result) error
	// close tears the backend down; idempotent, safe after finish and
	// on error paths.
	close()
}

// singleBackend is the single-process serving backend: one
// ShardedServer over one pool on one loopback listener, with the
// kill/restart gate when a crash schedule is armed.
type singleBackend struct {
	env      *replayEnv
	gate     *crashGate
	reg      *obs.Registry
	httpSrv  *http.Server
	serveErr chan error
	stopOnce sync.Once
	restarts chan struct{} // signals the restart goroutine; nil without crashes
	done     chan struct{}
	doneOnce sync.Once
	logOnce  sync.Once
}

func newSingleBackend(env *replayEnv) (*singleBackend, error) {
	o, plan := env.o, env.o.Plan
	b := &singleBackend{env: env, serveErr: make(chan error, 1), done: make(chan struct{})}

	// The crash gate: while a kill is being recovered, new requests
	// block here until the replacement handler is installed, so clients
	// ride out the outage inside their retry budget instead of burning
	// attempts against a dead socket.
	gate := &crashGate{}
	gate.cond = sync.NewCond(&gate.mu)
	b.gate = gate
	restartCh := make(chan struct{}, 1)
	var hook func(wal.Record)
	if o.Crashes != nil {
		hook = func(rec wal.Record) {
			// A record that slipped past the seal of an incarnation already
			// being killed (another shard's append racing the kill) belongs
			// to that outage: it must not consume the next crash point.
			gate.mu.Lock()
			if gate.down || !o.Crashes.Observe(rec.Op) {
				gate.mu.Unlock()
				return
			}
			gate.down = true
			gate.log.Seal() // no further op can become durable or acked
			restartCh <- struct{}{}
			gate.mu.Unlock()
			// Abort the request that tripped the kill: its client never
			// learns the outcome and must retry against the recovered
			// process.
			panic(http.ErrAbortHandler)
		}
	}

	// mkServer builds one serving incarnation: pool, transport server,
	// and — with durability on — an opened WAL plus recovery of whatever
	// state the directory already holds.
	mkServer := func() (*shard.Pool, *transport.ShardedServer, *wal.Log, error) {
		pool, err := env.makePool(o.Shards, env.ids)
		if err != nil {
			return nil, nil, nil, err
		}
		ts := transport.NewShardedServer(pool)
		if err := setTenants(ts, o.Tenants); err != nil {
			return nil, nil, nil, err
		}
		if o.WALDir == "" {
			return pool, ts, nil, nil
		}
		l, err := wal.Open(o.WALDir, wal.Options{NoSync: !o.Fsync, Hook: hook})
		if err != nil {
			return nil, nil, nil, err
		}
		ts.AttachWAL(l, o.SnapshotEvery)
		if _, err := ts.Recover(); err != nil {
			l.Close()
			return nil, nil, nil, err
		}
		return pool, ts, l, nil
	}
	mkHandler := func(ts *transport.ShardedServer, pool *shard.Pool) http.Handler {
		h := http.Handler(ts.Handler())
		if plan != nil {
			h = plan.Middleware(h, pool.IndexFor)
		}
		return h
	}

	pool, ts, wlog, err := mkServer()
	if err != nil {
		return nil, err
	}
	gate.pool, gate.log = pool, wlog
	b.reg = ts.Registry()

	// Serve the sharded transport on a loopback listener.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		if wlog != nil {
			wlog.Close()
		}
		return nil, fmt.Errorf("sim: transport listener: %w", err)
	}
	handler := mkHandler(ts, pool)
	if o.Crashes != nil {
		gate.handler = handler
		handler = http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			gate.mu.Lock()
			for gate.down {
				gate.cond.Wait()
			}
			h := gate.handler
			gate.mu.Unlock()
			h.ServeHTTP(w, r)
		})
		go func() {
			for {
				select {
				case <-restartCh:
				case <-b.done:
					return
				}
				// Quiesce the dying incarnation's log before reopening the
				// directory: Close waits out an append already past the seal
				// check, so the replacement reads a complete tail (such a
				// record was acked and must be replayed, not truncated).
				gate.mu.Lock()
				old := gate.log
				gate.mu.Unlock()
				if old != nil {
					_ = old.Close()
				}
				p2, ts2, l2, rerr := mkServer()
				gate.mu.Lock()
				if rerr != nil {
					gate.err = rerr
					gate.handler = http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
						http.Error(w, "sim: crash restart failed", http.StatusInternalServerError)
					})
				} else {
					gate.pool, gate.log = p2, l2
					gate.handler = mkHandler(ts2, p2)
					gate.restarts++
				}
				gate.down = false
				gate.cond.Broadcast()
				gate.mu.Unlock()
			}
		}()
	}
	b.httpSrv = &http.Server{Handler: handler}
	b.gate.baseURL = "http://" + ln.Addr().String()
	go func() { b.serveErr <- b.httpSrv.Serve(ln) }()
	return b, nil
}

func (b *singleBackend) url() string             { return b.gate.baseURL }
func (b *singleBackend) registry() *obs.Registry { return b.reg }

// stopServe releases the port and waits the serve goroutine out.
func (b *singleBackend) stopServe() {
	b.stopOnce.Do(func() {
		_ = b.httpSrv.Shutdown(context.Background())
		<-b.serveErr // http.ErrServerClosed after Shutdown
	})
}

func (b *singleBackend) finish(res *Result) error {
	// The HTTP phase is over: release the port, then sweep impressions
	// still open at trace end directly on the pool. After crashes, the
	// live state is the latest incarnation's.
	b.stopServe()
	gate := b.gate
	gate.mu.Lock()
	pool := gate.pool
	res.Restarts = gate.restarts
	gerr := gate.err
	gate.mu.Unlock()
	if gerr != nil {
		return fmt.Errorf("sim: crash restart: %w", gerr)
	}
	span := b.env.span
	for i := 0; i < pool.Shards(); i++ {
		pool.Shard(i).Exchange().SweepExpired(span + simclock.Week)
	}
	res.Ledger = pool.Ledger()
	res.CampaignBilled = make(map[auction.CampaignID]float64, b.env.cfg.Demand.Campaigns)
	for i := 0; i < b.env.cfg.Demand.Campaigns; i++ {
		id := auction.CampaignID(i)
		for s := 0; s < pool.Shards(); s++ {
			if billed, _, err := pool.Shard(s).Exchange().CampaignSpend(id); err == nil {
				res.CampaignBilled[id] += billed
			}
		}
	}
	if tcs := b.env.o.Tenants; len(tcs) > 0 {
		res.TenantLedgers = make(map[string]auction.Ledger, len(tcs))
		for _, tc := range tcs {
			var l auction.Ledger
			for s := 0; s < pool.Shards(); s++ {
				addLedgers(&l, pool.Shard(s).Exchange().LedgerOf(tc.ID))
			}
			res.TenantLedgers[tc.ID] = l
		}
	}
	return nil
}

func (b *singleBackend) close() {
	b.stopServe()
	b.doneOnce.Do(func() { close(b.done) })
	b.logOnce.Do(func() {
		b.gate.mu.Lock()
		wlog := b.gate.log
		b.gate.mu.Unlock()
		if wlog != nil {
			wlog.Close()
		}
	})
}

// setTenants installs a run's boot tenant registry (epoch 1) on a
// fresh serving incarnation. Installed before WAL recovery, so a
// higher config epoch logged by a previous incarnation supersedes it —
// a crash-rebuilt process converges to exactly the table the dead one
// last acknowledged, never a blend.
func setTenants(ts *transport.ShardedServer, cfgs []tenant.Config) error {
	if len(cfgs) == 0 {
		return nil
	}
	reg, err := tenant.NewRegistry(1, cfgs)
	if err != nil {
		return err
	}
	ts.SetTenants(reg)
	return nil
}

// targetBackend drives an external serving deployment (adloadgen
// -target): devices speak to the operator's own node or cluster router
// at the given base URL, and the harness owns no server-side state.
// finish fills Result.Ledger from the deployment's merged GET
// /v1/ledger; restarts, campaign spend and server metrics stay with the
// deployment's own monitoring surfaces.
type targetBackend struct {
	base string
}

func newTargetBackend(env *replayEnv) (*targetBackend, error) {
	return &targetBackend{base: strings.TrimRight(env.o.TargetURL, "/")}, nil
}

func (b *targetBackend) url() string             { return b.base }
func (b *targetBackend) registry() *obs.Registry { return nil }

func (b *targetBackend) finish(res *Result) error {
	hc := &http.Client{Timeout: 10 * time.Second}
	resp, err := hc.Get(b.base + "/v1/ledger")
	if err != nil {
		return fmt.Errorf("sim: target ledger: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("sim: target ledger: status %d", resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(&res.Ledger)
}

func (b *targetBackend) close() {}

// postTenantConfig pushes one scheduled config epoch until the serving
// side acknowledges it. A kill aimed at the config WAL record aborts
// the in-flight POST; the recovered process — which either replayed the
// record or never made it durable — answers the retry idempotently, so
// the loop converges on exactly the new table, never a blend.
func postTenantConfig(hc *http.Client, baseURL string, step ConfigEpochStep) error {
	body, err := json.Marshal(transport.ConfigMsg{Epoch: step.Epoch, Tenants: step.Tenants})
	if err != nil {
		return err
	}
	var lastErr error
	for attempt := 0; attempt < 50; attempt++ {
		resp, err := hc.Post(baseURL+"/v1/admin/config", "application/json", bytes.NewReader(body))
		if err != nil {
			lastErr = err
			time.Sleep(10 * time.Millisecond)
			continue
		}
		_, _ = io.Copy(io.Discard, resp.Body)
		status := resp.StatusCode
		resp.Body.Close()
		switch status {
		case http.StatusOK:
			return nil
		case http.StatusServiceUnavailable:
			lastErr = fmt.Errorf("sim: config epoch %d: node unavailable", step.Epoch)
			time.Sleep(10 * time.Millisecond)
		default:
			return fmt.Errorf("sim: config epoch %d refused: status %d", step.Epoch, status)
		}
	}
	return fmt.Errorf("sim: config epoch %d never acknowledged: %w", step.Epoch, lastErr)
}

// runFlood issues one selling period's noisy-neighbor load: every
// flood device spreads its PerPeriod on-demand requests across the
// period's timestamps, concurrently with the victim fleet's slot
// replay. The flood is raw pressure, not a well-behaved client — no
// idempotency keys, no retries, errors dropped on the floor; refusals
// are the admission controller doing its job and land in the shed
// counter.
func runFlood(hc *http.Client, baseURL string, f *FloodSpec, now, end simclock.Time, admitted, shed *atomic.Int64) {
	span := int64(end - now)
	var wg sync.WaitGroup
	for d := 0; d < f.Devices; d++ {
		wg.Add(1)
		go func(d int) {
			defer wg.Done()
			id := FloodClientBase + d
			for k := 0; k < f.PerPeriod; k++ {
				at := int64(now) + span*int64(k)/int64(f.PerPeriod)
				body, err := json.Marshal(struct {
					Client int   `json:"client"`
					NowNS  int64 `json:"now_ns"`
				}{id, at})
				if err != nil {
					return
				}
				req, err := http.NewRequest(http.MethodPost, baseURL+"/v1/ondemand", bytes.NewReader(body))
				if err != nil {
					return
				}
				req.Header.Set("Content-Type", "application/json")
				if f.Tenant != "" {
					req.Header.Set(transport.TenantHeader, f.Tenant)
				}
				resp, err := hc.Do(req)
				if err != nil {
					continue // a kill mid-flood just drops load
				}
				_, _ = io.Copy(io.Discard, resp.Body)
				switch resp.StatusCode {
				case http.StatusOK:
					admitted.Add(1)
				case http.StatusTooManyRequests:
					shed.Add(1)
				}
				resp.Body.Close()
			}
		}(d)
	}
	wg.Wait()
}

// addLedgers accumulates src into dst field by field (the sim-side twin
// of the serving health merge).
func addLedgers(dst *auction.Ledger, src auction.Ledger) {
	dst.Sold += src.Sold
	dst.Billed += src.Billed
	dst.BilledUSD += src.BilledUSD
	dst.FreeShows += src.FreeShows
	dst.FreeUSD += src.FreeUSD
	dst.Violations += src.Violations
	dst.ViolatedUSD += src.ViolatedUSD
	dst.PotentialUSD += src.PotentialUSD
}

// crashGate serializes the crash harness's kill/restart cycle: the
// WAL hook marks the service down and seals the dying log, the restart
// goroutine swaps in the recovered incarnation, and the outer handler
// parks requests on the condition variable in between. Everything the
// current incarnation owns (handler, pool, log) lives behind mu so the
// swap is atomic from the requests' point of view.
type crashGate struct {
	mu       sync.Mutex
	cond     *sync.Cond
	down     bool
	handler  http.Handler
	pool     *shard.Pool
	log      *wal.Log
	restarts int
	err      error
	baseURL  string
}

// transportPredictor mirrors core.New's per-mode predictor factory for
// the HTTP replay path.
func transportPredictor(cfg core.Config, id int, oracleSeries func(int) []int) predict.Predictor {
	switch cfg.Mode {
	case core.ModeNaiveBulk:
		return constKPredictor{k: cfg.NaiveK}
	case core.ModeOracle:
		return predict.NewOracle(oracleSeries(id))
	default:
		if cfg.AdaptivePercentile {
			a, err := predict.NewAdaptivePercentile(cfg.Percentile, 0.15)
			if err != nil {
				panic(err) // percentile validated by cfg.Validate
			}
			return a
		}
		return predict.NewPercentileHistogram(cfg.Percentile)
	}
}

// constKPredictor backs ModeNaiveBulk on the transport path: it always
// "predicts" K slots (mirrors core's constPredictor).
type constKPredictor struct{ k int }

func (c constKPredictor) Name() string { return fmt.Sprintf("const-%d", c.k) }
func (c constKPredictor) Predict(predict.Period) predict.Estimate {
	return predict.Estimate{Slots: float64(c.k), Mean: float64(c.k), NoShowProb: 0}
}
func (c constKPredictor) Observe(predict.Period, int) {}

// ProbAtMost implements predict.Distribution: the naive client "will
// show" exactly its K configured slots.
func (c constKPredictor) ProbAtMost(_ predict.Period, k int) float64 {
	if k < c.k {
		return 0
	}
	return 1
}

// eachDevice runs fn(i) for i in [0,n) across at most `workers`
// goroutines and returns the first error (in index order).
func eachDevice(n, workers int, fn func(i int) error) error {
	if workers > n {
		workers = n
	}
	errs := make([]error, n)
	jobs := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				errs[i] = fn(i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		jobs <- i
	}
	close(jobs)
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// LedgerJSON renders a ledger in a stable byte form, for
// determinism assertions across runs and shard counts.
func LedgerJSON(l auction.Ledger) string {
	return fmt.Sprintf(
		`{"sold":%d,"billed":%d,"billed_usd":%.9f,"free_shows":%d,"free_usd":%.9f,"violations":%d,"violated_usd":%.9f,"potential_usd":%.9f}`,
		l.Sold, l.Billed, l.BilledUSD, l.FreeShows, l.FreeUSD, l.Violations, l.ViolatedUSD, l.PotentialUSD)
}
