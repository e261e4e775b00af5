# gofmt must have nothing to say about the module's Go sources (the
# benchmark harness is its own module with its own rules).
fmt:
	@dirty="$$(gofmt -l *.go cmd examples internal)"; \
	if [ -n "$$dirty" ]; then echo "gofmt -w needed on:"; echo "$$dirty"; exit 1; fi

# Tier-1: everything must be formatted, build, vet clean, and pass.
test: fmt
	go build ./...
	go vet ./...
	go test ./...

# Race tier: the concurrent serving path (sharded transport, HTTP
# replay, shard pool, lock-isolated ops metrics, the obs registry)
# under the race detector. Includes the 32-goroutine stress tests in
# internal/transport/race_test.go — one lock per shard guards engine,
# staged shelf and dedup window, and TestShardedStress races the serving
# mix against health and metrics scrapes, a checkpoint every round and a
# migration loop — internal/link (one pooled client, one node,
# exchanges racing Forget), and internal/trace (the generator state
# concurrent UserAt calls borrow from one pool).
race:
	go test -race -timeout 30m ./internal/transport ./internal/sim ./internal/adserver ./internal/shard ./internal/obs ./internal/wal ./internal/cluster ./internal/link ./internal/trace

# Observability tier: the metrics registry (atomic counters/gauges,
# log-bucketed histograms, Prometheus exposition) under the race
# detector — 32 goroutines hammering one registry with concurrent
# scrapes, plus the exposition golden and the histogram-vs-P2 quantile
# agreement checks.
obs:
	go test -race -count=1 ./internal/obs

# Stream tier: what the transport replay's lazy-trace, event-driven
# driver rests on. Lazy derivation properties (UserAt == Generate
# byte-for-byte, order- and concurrency-independence, the UserAt fuzz
# seeds, exactly two allocations per derivation), the traces' own
# fingerprint at three seeds, the wake-heap ordering invariants, the
# light-RNG stream split, the fast-seeded source against math/rand's
# (400+ seeds, every distribution the generator draws, re-seeding in
# place), the HTTP-free scheduler property tests on the one walker both
# drivers use (seedHeaps + drainDue: every timeline event of every
# client visited exactly once, in order, in the period that contains it,
# the partial last period included, each worker in (time, user id)
# order, one load per client and period, no timeline held at a
# boundary), sim.Run's golden tables (its outcomes per mode and
# feature), the wire replay against sim.Run at one worker (ledger,
# counters, totals and energy equal, naive and predictive), the
# replay's input validation, and the bounded-memory regression (100k
# devices under a pinned heap budget, ~50 s).
stream:
	go test -count=1 -run 'TestUserAt|TestStreamConcurrent|TestStreamMetadata|TestValidateRejects|FuzzUserAt|TestGenerateFingerprintGolden|TestPermIntoMatchesPerm' ./internal/trace
	go test -count=1 -run 'TestWakeHeap|TestLightRand|TestLFSourceMatchesStdlib|TestNewRandStreamsMatchStdlib|TestDeriveHashIsFNV1a' ./internal/simclock
	go test -count=1 -run 'TestStreamScheduler|TestDrainDue|TestRunGoldenTable|TestPredictiveRunGolden|TestTransportMatchesInProcessSlots|TestStreamValidation|TestStreamBoundedMemory' ./internal/sim

# Mega: a million simulated devices with the diurnal two-peak load
# through the sharded serving path — the headline replay run. Lazy
# trace derivation keeps the heap bounded; expect minutes of wall time
# on one core (see README "Million-device runs" for the envelope).
mega:
	go run ./cmd/adloadgen -users 1000000 -days 1 -shards 4 -batched -energy -lean

# Throughput scaling of the sharded serving path (1 vs 2 vs 4 shards),
# the wake-up round-trip comparison (sequential vs batched wire), one
# device op over loopback under net/http's client and under the
# replay's synchronous one (link.Transport), the cluster routing tier's proxy overhead (1 vs 3 nodes over an HTTP hop,
# then the HTTP hop and the persistent link side by side against real
# nodes), and the live shard-migration handoff (clients/s transferred, serving p99 while a
# handoff holds the rebalance lock), one auction sale's cost and
# allocations at 40, 400 and 4000 campaigns, one bundle of 8 merged
# into a device cache of 64, one lazily derived device trace, and one
# stream derivation (FNV hash and a seeded 607-word register) beside
# math/rand's own seeding of that register.
bench:
	go test -bench 'ShardedServing|WakeUp|FleetRoundTrip' -benchtime 2s -run '^$$' ./internal/transport
	go test -bench 'ClusterRoundTrip|MigrationHandoff' -benchtime 2s -run '^$$' ./internal/cluster
	go test -bench 'StreamingReplay' -benchtime 1x -run '^$$' ./internal/sim
	go test -bench 'SellOne' -benchtime 1s -run '^$$' ./internal/auction
	go test -bench 'CacheAdd' -benchtime 1s -run '^$$' ./internal/client
	go test -bench 'UserAt' -benchtime 1s -run '^$$' ./internal/trace
	go test -bench 'NewRand|Seed' -benchtime 1s -run '^$$' ./internal/simclock

# Benchmark smoke: every workload of BENCHMARK.json for one second,
# untraced and then traced, through benchmark/run.sh as the benchmark
# runs it. A run that fails a round or a validation exits non-zero
# (2), and so does this target, at the first such run. About a minute;
# not part of tier-1 or verify. Run it before handing in a change that
# touches anything a workload runs.
SMOKE_WORKLOADS = diurnal_batched slots_sequential_wal routed_binary paper_inproc
bench-smoke:
	@set -e; for w in $(SMOKE_WORKLOADS); do \
		for tr in 0 1; do \
			echo "== $$w --trace $$tr"; \
			bash benchmark/run.sh --workload $$w --seconds 1 --trace $$tr; \
		done; \
	done

# Engine profile: one paper_inproc-sized sim.Run (BenchmarkPaperInproc)
# under the CPU and allocation profilers, then the two pprof -top tables.
# Start an engine change here; confirm it with
# `bash benchmark/run.sh --workload paper_inproc`. The test binary and
# the profiles land in PROF_DIR, outside the checkout.
PROF_DIR ?= /tmp/adprefetch-prof
prof-inproc:
	mkdir -p $(PROF_DIR)
	go test -run '^$$' -bench 'PaperInproc' -benchtime 3x -o $(PROF_DIR)/inproc.test \
		-cpuprofile $(PROF_DIR)/cpu.prof -memprofile $(PROF_DIR)/mem.prof .
	go tool pprof -top -nodecount 30 $(PROF_DIR)/inproc.test $(PROF_DIR)/cpu.prof
	go tool pprof -top -nodecount 20 -sample_index alloc_objects $(PROF_DIR)/inproc.test $(PROF_DIR)/mem.prof

# Wire profile: one wire workload-sized sim.RunTransportStream (device,
# loopback HTTP, handler, engine) under the same two profilers. WIRE
# picks the root benchmark: DiurnalBatched (the default),
# SlotsSequentialWAL or RoutedBinary, each sized like the benchmark
# workload of the same name. Start a wire-path change here; confirm it
# with `bash benchmark/run.sh --workload <name>`. Add
# `-memprofilerate 1` to the go test line for exact allocation counts.
WIRE ?= DiurnalBatched
prof-wire:
	mkdir -p $(PROF_DIR)
	go test -run '^$$' -bench '^Benchmark$(WIRE)$$' -benchtime 3x -o $(PROF_DIR)/wire.test \
		-cpuprofile $(PROF_DIR)/wire-cpu.prof -memprofile $(PROF_DIR)/wire-mem.prof .
	go tool pprof -top -nodecount 30 $(PROF_DIR)/wire.test $(PROF_DIR)/wire-cpu.prof
	go tool pprof -top -nodecount 30 -sample_index alloc_objects $(PROF_DIR)/wire.test $(PROF_DIR)/wire-mem.prof

# Fuzz tier: every Fuzz* target in the module, FUZZTIME each, stopping
# at the first crasher (go test writes it under the package's
# testdata/fuzz; commit it as a regression seed). `go test -fuzz` takes
# one target and one package per run, hence the loop. The seeds alone
# run as ordinary tests in tier-1.
FUZZTIME ?= 10s
fuzz:
	@set -e; for pkg in $$(go list ./...); do \
		for f in $$(go test -list '^Fuzz' $$pkg | grep '^Fuzz' || true); do \
			echo "== $$pkg $$f"; \
			go test -run '^$$' -fuzz "^$$f\$$" -fuzztime $(FUZZTIME) $$pkg; \
		done; \
	done

# Batch tier: the coalesced wire protocol. Equivalence of the wire forms
# (every op kind on its per-op endpoint vs inside an envelope, both
# directions, JSON/APB1/APB2 — one executor, one stored response), the
# sequential-vs-batched and binary-vs-JSON differentials (fault-free and
# under chaos, at shards=1 and shards=4), per-sub-op idempotency
# properties (intra-batch duplicates, envelope resends, partial
# failure), the frame codec's golden frame and round trips, the fault
# layer's codec-agnostic identities, and the envelope fuzz seeds. The
# wire codec rides here too: the device's byte goldens (a fault-free
# session and a degraded one — dead link, shed and refused ops, an outbox
# past one envelope — with the device's counters beside the bytes) and
# its exact allocations per wake-up (TestDeviceWakeUpAllocationBudget),
# the Retry-After floor and shed counters alike on the coordinator, the
# per-op device and both envelope codecs (TestClientRetryAfterFloor),
# the encoder differentials and strict-decoder parity seeds against encoding/json
# (internal/envelope's own suite and TestWire*/FuzzWireJSONParity), the
# three codec traps (exact-size stored bodies, keys that outlive the
# pooled request buffer, reply buffers and request bodies nobody
# reuses), the FNV and canonical-header one-liners, and the
# fallback-counters-stay-zero replays (TestBatchWireFallbackStaysZero).
batch:
	go test -count=1 ./internal/envelope
	go test -count=1 -run 'TestBatch|TestBinary|TestSequentialWireGolden|TestDeviceWireGolden|TestServingAllocationBudget|TestDeviceWakeUpAllocationBudget|TestClientRetryAfterFloor' ./internal/transport ./internal/sim
	go test -count=1 -run 'TestWireEncoders|TestStoredBodiesAreExactSize|TestKeyedOpsOutliveTheirRequestBuffer|TestReplyBufferMutation|TestRequestBodyIsTheRequestsOwn|TestRequestHashIsFNV1a|TestHeaderConstantsAreCanonical' ./internal/transport
	go test -count=1 -run 'TestRelayedHeaderNamesAreCanonical' ./internal/cluster
	go test -count=1 -run 'TestBatchIdentities' ./internal/faults
	go test -count=1 -run 'FuzzBatchDecode|FuzzBinaryBatchDecode|FuzzWireJSONParity' ./internal/transport

# Chaos tier: seeded fault injection (drops, 5xx, lost replies, resets,
# truncated bodies, one timed shard partition) replayed through the HTTP
# serving path at shards=1 and shards=4. Asserts ledger conservation
# (billed+violations == sold, spend == revenue), no double billing
# across retries, run-to-run determinism for a fixed seed, and the
# idempotency double-send property.
chaos:
	go test -count=1 -run 'TestChaos' ./internal/sim
	go test -count=1 -run 'TestDoubleSend|TestIdempotency|TestRetry|TestLoadShedding|TestGraceful' ./internal/transport

# Crash tier: durability and kill/restart recovery. The WAL unit suite
# (framing, corruption truncation, generation rotation, torn-tail
# fuzz seeds, group-commit coverage), the snapshot/replay round-trip and
# replay-idempotence properties, the dedup-window-straddles-restart
# regression, the kill hook's rule that a straggler record of a dying
# incarnation never consumes the next crash point (driven directly, as
# node 0 and as a cluster node — one hook serves both), and the
# kill/restart equivalence matrix: the service
# killed mid-period, mid-batch, during the period-end sweep, in the
# group-commit window between a batched fsync and its ack, and at every
# single record position of a small run — each recovered run must match
# the uninterrupted baseline on every accounting observable. Checkpoints
# and migrations racing live traffic ride here under the race detector
# (TestShardedStress), so `make verify` checks the shard lock too.
crash:
	go test -count=1 ./internal/wal
	go test -count=1 -run 'TestCheckpoint|TestDedupWindow|TestWALReplay|TestWALRecordStreamGolden' ./internal/transport
	go test -race -count=1 -run TestShardedStress ./internal/transport
	go test -count=1 -run 'TestCrash|TestKillHook' ./internal/sim

# Cluster tier: the multi-node routing tier. Router/ring unit tests
# (placement, fan-out merge, 503 + Retry-After refusals, circuit
# open/rejoin, the background prober), the router→node link (framing
# and its fuzz seeds, pooling, abort/kill/re-dial semantics, no leaked
# connection or goroutine), node-scoped crash scheduling, the shared
# kill hook's straggler rule, degenerate WAL-file recovery, the
# router's refusal of bodies past transport.MaxBodyBytes (400, nothing
# forwarded), one merge per aggregate view (each reply type's Add or
# Merge* — field coverage, the rounds-weighted stats mean, the health
# merge rules — shared by a node's shards and the router's nodes), and the
# cluster differential suite: a cluster of N
# nodes behind the router must match a single process at shards=N on
# every accounting observable — fault-free, under seeded chaos, and
# across node kill/restart (double kills and a kill mid-period-fan-out
# included) — and the link hop must match the injected-HTTP-client hop.
cluster:
	go test -count=1 ./internal/cluster ./internal/link
	go test -count=1 -run 'AddSumsEveryField|TestTenantHealthAdd|TestMerge' ./internal/transport
	go test -count=1 -run 'TestCrashSchedule' ./internal/faults
	go test -count=1 -run 'TestRecoverDegenerateFiles' ./internal/wal
	go test -count=1 -run 'TestCluster|TestKillHook' ./internal/sim

# Migrate tier: elastic membership and live shard migration. The
# membership control plane (Plan diffs pinned exact against brute-force
# reassignment, ring shrink/grow stability, lifecycle guards, admin
# auth), the health wire-DTO goldens, and the migration differential
# suite: a cluster that grows 2→3 and drains 3→2 mid-run — rebalancing
# against live device traffic — must match the uninterrupted fixed-size
# baseline on every accounting observable, with zero client-visible
# non-2xx, fault-free, under seeded chaos, and with a node killed on a
# migration record inside the handoff window.
migrate:
	go test -count=1 -run 'TestPlan|TestMembership|TestAdmin|TestRing' ./internal/cluster
	go test -count=1 -run 'TestHealthReplyGolden|TestMovedClient' ./internal/transport
	go test -count=1 -run 'TestMigration' ./internal/sim

# Tenant tier: multi-tenant isolation. The tenant registry unit suite
# (range attribution, token-bucket refill monotonicity, validation),
# the transport-level admission contract (429 + pressure-scaled
# Retry-After from both the token bucket and the per-tenant open-book
# bound, wire/envelope tenant mismatch 403s, config-epoch idempotency,
# per-tenant ledger views partitioning the aggregate, APB2 codec
# equivalence, the client's Retry-After backoff floor), and the
# noisy-neighbor differential suite: a victim tenant beside a flooding
# aggressor must match its solo baseline exactly — ledger, SLA
# violations, per-device counters — with the aggressor's admitted work
# within its admission contract every period, fault-free, under seeded
# chaos, through the cluster router, and across a kill on the
# config-epoch WAL record itself. Here, and only here (the wallclock
# build tag), the suite also bounds the victim's wall-clock slot p99
# under the flood: a timing bound that the machine's scheduling sets,
# so tier-1 does not carry it.
tenant:
	go test -count=1 ./internal/tenant
	go test -count=1 -run 'TestTenant|TestRetryAfterSecs|TestConfigEpoch|TestLedgerTenantViews|TestBatchTenantCodec|TestClientRetryAfterFloor|TestHealthReplyGolden' ./internal/transport
	go test -count=1 -timeout 30m -tags wallclock -run 'TestTenant' ./internal/sim

# Line budgets, counted instead of hand-copied: non-test .go lines per
# internal/* package, their total over all of internal/*, the sum ROADMAP
# item 4's acceptance counts (core + sim), then the sum ROADMAP item 8
# bounds (transport + sim + cluster + envelope <= 9 000).
# benchmark/ is its own module and is not counted; neither are cmd/,
# examples/ or the root package.
loc:
	@for d in internal/*/; do \
		printf '%6d %s\n' "$$(cat $$(ls $$d*.go | grep -v _test.go) | wc -l)" "$${d%/}"; \
	done
	@printf '%6d %s\n' "$$(cat $$(ls internal/*/*.go | grep -v _test.go) | wc -l)" "internal/* (all packages)"
	@printf '%6d %s\n' "$$(cat $$(ls internal/core/*.go internal/sim/*.go | grep -v _test.go) | wc -l)" \
		"internal/core + sim"
	@printf '%6d %s\n' "$$(cat $$(ls internal/transport/*.go internal/sim/*.go internal/cluster/*.go internal/envelope/*.go | grep -v _test.go) | wc -l)" \
		"internal/transport + sim + cluster + envelope"

# Examples tier: every examples/* program runs to completion (each in
# about a second); a non-zero exit fails the target. The programs' output
# is discarded, their errors are not.
examples:
	@for d in examples/*/; do \
		echo "go run ./$$d"; \
		go run ./$$d >/dev/null || exit 1; \
	done

# Benchmark-harness tier: benchmark/ is a module of its own, so the
# root `go build ./...` never compiles it. Vetting it here catches an
# internal API change that would break the harness.
bench-vet:
	cd benchmark && go vet ./...

# Aggregate correctness gate: every functional tier in one command.
# (`make bench` and benchmark/run.sh stay separate — they are about
# machines, not logic — and so does the time-boxed `make fuzz`.)
verify: test bench-vet examples batch chaos crash cluster migrate stream tenant

# Everything: the functional gate plus the race-detector tiers. This is
# the pre-merge command; `verify` alone used to silently skip race and
# obs, which let schedule-dependent regressions through.
verify-full: verify race obs

.PHONY: fmt test race obs bench bench-smoke bench-vet prof-inproc prof-wire fuzz chaos batch crash cluster migrate stream tenant mega loc examples verify verify-full
