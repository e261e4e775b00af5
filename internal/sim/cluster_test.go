package sim

import (
	"fmt"
	"testing"

	"repro/internal/faults"
)

// TestClusterEquivalenceFaultFree is the cluster tier's baseline
// acceptance: a cluster of N independent single-shard nodes behind the
// routing tier must be indistinguishable from one process at shards=N
// on every accounting observable — ledger, violations, per-device and
// aggregate counters, sales totals, campaign spend — at N=1 and N=3,
// on both wire modes, and with per-node WALs attached as pure
// observers.
func TestClusterEquivalenceFaultFree(t *testing.T) {
	if testing.Short() {
		t.Skip("full HTTP replay across a multi-node cluster")
	}
	cfg := crashConfig()
	var base3 *Result
	for _, nodes := range []int{1, 3} {
		label := fmt.Sprintf("nodes=%d", nodes)
		base, err := RunTransportStream(cfg, TransportOpts{Shards: nodes, Workers: 4})
		if err != nil {
			t.Fatalf("%s baseline: %v", label, err)
		}
		clu, err := RunTransportStream(cfg, TransportOpts{Nodes: nodes, Workers: 4})
		if err != nil {
			t.Fatalf("%s cluster: %v", label, err)
		}
		assertCrashEquivalence(t, label, base, clu)
		if nodes == 3 {
			base3 = base
		}
	}

	// The coalesced wire mode rides through the router unchanged: the
	// binary batch frame carries its routing client in the header.
	baseB, err := RunTransportStream(cfg, TransportOpts{Shards: 3, Workers: 4, Batched: true, BinaryBatch: true})
	if err != nil {
		t.Fatalf("batched baseline: %v", err)
	}
	cluB, err := RunTransportStream(cfg, TransportOpts{Nodes: 3, Workers: 4, Batched: true, BinaryBatch: true})
	if err != nil {
		t.Fatalf("batched cluster: %v", err)
	}
	assertCrashEquivalence(t, "nodes=3/batched", baseB, cluB)

	// Per-node durability with no kills must be a pure observer.
	walled, err := RunTransportStream(cfg, TransportOpts{Nodes: 3, Workers: 4, WALDir: t.TempDir(), SnapshotEvery: 3})
	if err != nil {
		t.Fatalf("walled cluster: %v", err)
	}
	if walled.Restarts != 0 {
		t.Fatalf("cluster restarts without a crash schedule: %d", walled.Restarts)
	}
	assertCrashEquivalence(t, "nodes=3/wal-on", base3, walled)
}

// TestClusterEquivalenceUnderChaos runs the same seeded fault plan
// against one process at shards=3 and against a 3-node cluster. Fault
// decisions are pure hashes of (seed, endpoint, identity, attempt), so
// both topologies face the identical adversary on the device leg and
// must land on identical accounting.
func TestClusterEquivalenceUnderChaos(t *testing.T) {
	if testing.Short() {
		t.Skip("full HTTP chaos replay across a multi-node cluster")
	}
	cfg := crashConfig()
	base, err := RunTransportStream(cfg, TransportOpts{Shards: 3, Workers: 4, Plan: chaosPlan(4242, false)})
	if err != nil {
		t.Fatalf("chaos baseline: %v", err)
	}
	plan := chaosPlan(4242, false)
	clu, err := RunTransportStream(cfg, TransportOpts{Nodes: 3, Workers: 4, Plan: plan})
	if err != nil {
		t.Fatalf("chaos cluster: %v", err)
	}
	if plan.Injected(faults.Drop) == 0 || plan.Injected(faults.ServerErr) == 0 {
		t.Fatalf("chaos did not fire on the cluster: drops=%d 5xx=%d",
			plan.Injected(faults.Drop), plan.Injected(faults.ServerErr))
	}
	if clu.Net.Retries == 0 {
		t.Fatalf("no retries under cluster chaos: %+v", clu.Net)
	}
	assertCrashEquivalence(t, "nodes=3/chaos", base, clu)
}

// TestClusterNodeKillEquivalence is the tentpole acceptance: whole
// nodes are killed at adversarial WAL-append instants — two different
// nodes in one run (double kill), mid-serving and mid-period-round —
// and each victim restarts, recovers from its own WAL, and rejoins the
// router. The recovered cluster runs must be indistinguishable from
// the uninterrupted single-process baseline, on both wire modes.
func TestClusterNodeKillEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("full HTTP replay with node kill/restart")
	}
	cfg := crashConfig()
	var baseSeq *Result
	for _, batched := range []bool{false, true} {
		wire := "sequential"
		if batched {
			wire = "batched"
		}
		label := "nodes=3/" + wire
		base, err := RunTransportStream(cfg, TransportOpts{Shards: 3, Workers: 4, Batched: batched})
		if err != nil {
			t.Fatalf("%s baseline: %v", label, err)
		}
		if !batched {
			baseSeq = base
		}

		// Kill node 1 early, then node 2 later, with checkpoints
		// between: the second victim recovers from a snapshot plus a
		// log tail while the first is already back in rotation.
		var kills *faults.CrashSchedule
		if batched {
			kills = faults.NewCrashSchedule(
				faults.CrashPoint{Op: "batch", After: 2, Node: 1},
				faults.CrashPoint{Op: "batch", After: 8, Node: 2},
			)
		} else {
			kills = faults.NewCrashSchedule(
				faults.CrashPoint{Op: "report", After: 2, Node: 1},
				faults.CrashPoint{Op: "slot", After: 12, Node: 2},
			)
		}
		res, err := RunTransportStream(cfg, TransportOpts{Nodes: 3, Workers: 4,
			Batched: batched, WALDir: t.TempDir(), SnapshotEvery: 2, Crashes: kills,
		})
		if err != nil {
			t.Fatalf("%s double-kill: %v", label, err)
		}
		if res.Restarts != 2 || kills.Fired() != 2 {
			t.Fatalf("%s double-kill: restarts %d fired %d, want 2", label, res.Restarts, kills.Fired())
		}
		if got := res.Obs.CounterTotal("cluster_rejoins_total"); got != 2 {
			t.Fatalf("%s double-kill: router saw %d rejoins, want 2", label, got)
		}
		assertCrashEquivalence(t, label+" double-kill", base, res)
	}

	// Mid-fan-out: node 1 dies on its own period-round record, while
	// the coordinator's barrier is in flight across all three nodes;
	// the second kill lands on whichever node appends 30 records after
	// the first recovery (pure log replay — no checkpoints).
	barrier := faults.NewCrashSchedule(
		faults.CrashPoint{Op: "period_start", After: 1, Node: 1},
		faults.CrashPoint{After: 30, Node: faults.AnyNode},
	)
	res, err := RunTransportStream(cfg, TransportOpts{Nodes: 3, Workers: 4, WALDir: t.TempDir(), Crashes: barrier})
	if err != nil {
		t.Fatalf("mid-fan-out: %v", err)
	}
	if res.Restarts != 2 || barrier.Fired() != 2 {
		t.Fatalf("mid-fan-out: restarts %d fired %d, want 2", res.Restarts, barrier.Fired())
	}
	assertCrashEquivalence(t, "nodes=3 mid-fan-out", baseSeq, res)
}
