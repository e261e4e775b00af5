package sim

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/auction"
	"repro/internal/faults"
	"repro/internal/link"
	"repro/internal/obs"
	"repro/internal/shard"
	"repro/internal/simclock"
	"repro/internal/tenant"
	"repro/internal/trace"
	"repro/internal/transport"
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
	// Crashes, when non-nil, kills and restarts serving nodes at the
	// scheduled WAL-append instants. Requires WALDir. A point is
	// observed at the instant between a record becoming durable and its
	// response being acknowledged: the node is torn down mid-request and
	// a replacement is built from scratch, recovering from the newest
	// snapshot plus WAL replay; the aborted in-flight requests ride the
	// devices' normal retry + idempotency machinery. Kills are
	// node-scoped (faults.CrashPoint.Node), and the single process is
	// node 0. While a node is down, requests to the single process block
	// until the replacement is up; a cluster node's listener drops, the
	// router's circuit opens and parks that node's clients, and the
	// router is told to Rejoin the recovered node.
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
	cfg     Config
	o       TransportOpts
	ids     []int
	cat     *trace.Catalog
	span    simclock.Time
	workers int

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
// in-process nodes (localBackend: one process, or a cluster behind a
// router) and an external deployment at TargetURL (targetBackend).
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
	rt := link.NewTransport(obs.NewRegistry())
	defer rt.CloseIdleConnections()
	hc := &http.Client{Timeout: 10 * time.Second, Transport: rt}
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
