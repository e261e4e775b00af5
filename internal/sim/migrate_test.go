package sim

import (
	"testing"

	"repro/internal/faults"
)

// The migrate tier: live membership changes — a node joining and
// taking its ring share, a node draining onto the survivors and being
// removed — fire mid-run, concurrently with device slot replay, and the
// run must land on accounting identical to an uninterrupted fixed-size
// baseline. The partition-invariance contract (budget-unconstrained
// demand, no rescue, fixed replication) is what makes the comparison
// exact: ownership layout is an implementation detail, so handing
// clients between nodes mid-run must be invisible to every observable.

// growSteps joins one new node during period 9's slot replay: the
// cluster grows 2→3 while devices are mid-conversation.
func growSteps() []MigrationStep {
	return []MigrationStep{{Period: 9, AddNode: true}}
}

// drainSteps empties member 1 onto the survivors during period 11 and
// removes it: the cluster shrinks 3→2 mid-run.
func drainSteps() []MigrationStep {
	return []MigrationStep{{Period: 11, DrainNode: 1}}
}

// TestMigrationEquivalenceFaultFree is the tentpole's core acceptance:
// a 2→3 grow and a 3→2 drain, each rebalancing live against concurrent
// device traffic, must match the uninterrupted single-process baseline
// on ledger, violations, per-client counters and campaign spend — with
// zero client-visible non-2xx (no device burned a single retry on the
// handoff) and zero misdirected requests (the quiesced handoff never
// exposed a half-moved client).
func TestMigrationEquivalenceFaultFree(t *testing.T) {
	if testing.Short() {
		t.Skip("full HTTP replay with live migration")
	}
	cfg := crashConfig()
	base, err := RunTransportStream(cfg, TransportOpts{Shards: 3, Workers: 4})
	if err != nil {
		t.Fatalf("baseline: %v", err)
	}

	grow, err := RunTransportStream(cfg, TransportOpts{Nodes: 2, Workers: 4, Migrations: growSteps()})
	if err != nil {
		t.Fatalf("grow 2→3: %v", err)
	}
	if grow.Net.Retries != 0 {
		t.Fatalf("grow 2→3: devices burned %d retries; the handoff must be client-invisible", grow.Net.Retries)
	}
	if got := grow.Obs.CounterTotal("cluster_migrations_total"); got < 1 {
		t.Fatalf("grow 2→3: %d completed migrations, want >= 1", got)
	}
	if got := grow.Obs.CounterTotal("cluster_clients_moved_total"); got == 0 {
		t.Fatal("grow 2→3: no clients moved onto the new node")
	}
	if got := grow.Obs.CounterTotal("cluster_misdirected_total"); got != 0 {
		t.Fatalf("grow 2→3: %d misdirected requests in a clean run, want 0", got)
	}
	assertCrashEquivalence(t, "grow 2→3", base, grow)

	drain, err := RunTransportStream(cfg, TransportOpts{Nodes: 3, Workers: 4, Migrations: drainSteps()})
	if err != nil {
		t.Fatalf("drain 3→2: %v", err)
	}
	if drain.Net.Retries != 0 {
		t.Fatalf("drain 3→2: devices burned %d retries; the handoff must be client-invisible", drain.Net.Retries)
	}
	if got := drain.Obs.CounterTotal("cluster_clients_moved_total"); got == 0 {
		t.Fatal("drain 3→2: no clients left the drained node")
	}
	assertCrashEquivalence(t, "drain 3→2", base, drain)

	// Both directions in one run: grow 2→3, then drain the original
	// member 0 away again — the cluster the run ends with shares no
	// member set with the one it started with.
	churn, err := RunTransportStream(cfg, TransportOpts{Nodes: 2, Workers: 4, Migrations: []MigrationStep{
		{Period: 8, AddNode: true},
		{Period: 12, DrainNode: 0},
	}})
	if err != nil {
		t.Fatalf("grow+drain churn: %v", err)
	}
	if churn.Net.Retries != 0 {
		t.Fatalf("churn: devices burned %d retries", churn.Net.Retries)
	}
	if got := churn.Obs.CounterTotal("cluster_migrations_total"); got < 2 {
		t.Fatalf("churn: %d completed migrations, want >= 2", got)
	}
	assertCrashEquivalence(t, "grow+drain churn", base, churn)
}

// TestMigrationEquivalenceUnderChaos reruns the grow+drain churn under
// the seeded fault plan: drops, 5xx and timeouts on the device↔router
// leg while the cluster is reshaping itself. Fault decisions are pure
// hashes of (seed, endpoint, identity, attempt), so the single-process
// baseline faces the identical adversary — and the idempotency windows
// must survive their clients being handed between nodes mid-retry.
func TestMigrationEquivalenceUnderChaos(t *testing.T) {
	if testing.Short() {
		t.Skip("full HTTP chaos replay with live migration")
	}
	cfg := crashConfig()
	base, err := RunTransportStream(cfg, TransportOpts{Shards: 3, Workers: 4, Plan: chaosPlan(7777, false)})
	if err != nil {
		t.Fatalf("chaos baseline: %v", err)
	}
	plan := chaosPlan(7777, false)
	res, err := RunTransportStream(cfg, TransportOpts{Nodes: 2, Workers: 4,
		Plan: plan,
		Migrations: []MigrationStep{
			{Period: 8, AddNode: true},
			{Period: 12, DrainNode: 0},
		},
	})
	if err != nil {
		t.Fatalf("chaos churn: %v", err)
	}
	if plan.Injected(faults.Drop) == 0 || plan.Injected(faults.ServerErr) == 0 {
		t.Fatalf("chaos did not fire on the elastic cluster: drops=%d 5xx=%d",
			plan.Injected(faults.Drop), plan.Injected(faults.ServerErr))
	}
	if res.Net.Retries == 0 {
		t.Fatalf("no retries under chaos: %+v", res.Net)
	}
	if got := res.Obs.CounterTotal("cluster_migrations_total"); got < 2 {
		t.Fatalf("chaos churn: %d completed migrations, want >= 2", got)
	}
	assertCrashEquivalence(t, "chaos grow+drain churn", base, res)
}

// TestMigrationNodeKillDuringHandoff is the acceptance's hardest case:
// a node dies inside the migration window — on the WAL append of a
// migration record itself, after the op executed but before anyone saw
// the reply — restarts, recovers the half-done handoff from its WAL,
// and the router's parked retry finishes the transfer idempotently.
// Devices are quiesced behind the rebalance for the whole episode, so
// even the kill run must show zero client-visible errors, and the
// accounting must still match the uninterrupted baseline.
func TestMigrationNodeKillDuringHandoff(t *testing.T) {
	if testing.Short() {
		t.Skip("full HTTP replay with node kill inside a live migration")
	}
	cfg := crashConfig()
	base, err := RunTransportStream(cfg, TransportOpts{Shards: 3, Workers: 4})
	if err != nil {
		t.Fatalf("baseline: %v", err)
	}

	// Grow 2→3, killing source node 0 on its first migrate-out record:
	// the extracted clients are in its WAL-recovered outbox, the
	// router's retry collects the identical blob.
	outKill := faults.NewCrashSchedule(
		faults.CrashPoint{Op: "migrate_out", After: 1, Node: 0},
	)
	grow, err := RunTransportStream(cfg, TransportOpts{Nodes: 2, Workers: 4,
		WALDir: t.TempDir(), SnapshotEvery: 2, Crashes: outKill,
		Migrations: growSteps(),
	})
	if err != nil {
		t.Fatalf("grow with migrate-out kill: %v", err)
	}
	if grow.Restarts != 1 || outKill.Fired() != 1 {
		t.Fatalf("migrate-out kill: restarts %d fired %d, want 1", grow.Restarts, outKill.Fired())
	}
	if got := grow.Obs.CounterTotal("cluster_rejoins_total"); got != 1 {
		t.Fatalf("migrate-out kill: router saw %d rejoins, want 1", got)
	}
	if grow.Net.Retries != 0 {
		t.Fatalf("migrate-out kill leaked to devices: %d retries", grow.Net.Retries)
	}
	assertCrashEquivalence(t, "grow, source killed mid-handoff", base, grow)

	// Drain 3→2, killing whichever survivor first appends a migrate-in
	// record: the adopter dies mid-absorb, recovers the blob from its
	// WAL, and acks the retry from its applied-epoch memory.
	inKill := faults.NewCrashSchedule(
		faults.CrashPoint{Op: "migrate_in", After: 1, Node: faults.AnyNode},
	)
	drain, err := RunTransportStream(cfg, TransportOpts{Nodes: 3, Workers: 4,
		WALDir: t.TempDir(), SnapshotEvery: 2, Crashes: inKill,
		Migrations: drainSteps(),
	})
	if err != nil {
		t.Fatalf("drain with migrate-in kill: %v", err)
	}
	if drain.Restarts != 1 || inKill.Fired() != 1 {
		t.Fatalf("migrate-in kill: restarts %d fired %d, want 1", drain.Restarts, inKill.Fired())
	}
	if drain.Net.Retries != 0 {
		t.Fatalf("migrate-in kill leaked to devices: %d retries", drain.Net.Retries)
	}
	assertCrashEquivalence(t, "drain, adopter killed mid-handoff", base, drain)
}
