package sim

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/faults"
	"repro/internal/tenant"
	"repro/internal/wal"
)

// crashConfig shrinks transportConfig so the kill/restart matrix stays
// affordable; the shard/interleaving-invariance contract is unchanged.
func crashConfig() Config {
	cfg := transportConfig()
	cfg.TraceCfg.Users = 24
	cfg.MaxUsers = 24
	cfg.TraceCfg.Days = 3
	return cfg
}

// TestCrashRecoveryEquivalence is the tentpole acceptance: the service
// is killed at adversarial instants — mid-period between a WAL append
// and its ack, inside a batch envelope, during the period-end sweep,
// and again on the very first record the replacement appends — and the
// recovered runs must be indistinguishable from the uninterrupted
// baseline at 1 shard and at 4, on both wire modes.
func TestCrashRecoveryEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("full HTTP replay with kill/restart")
	}
	cfg := crashConfig()
	for _, shards := range []int{1, 4} {
		for _, batched := range []bool{false, true} {
			wire := "sequential"
			if batched {
				wire = "batched"
			}
			label := fmt.Sprintf("shards=%d/%s", shards, wire)
			base, err := RunTransportStream(cfg, TransportOpts{Shards: shards, Workers: 4, Batched: batched})
			if err != nil {
				t.Fatalf("%s baseline: %v", label, err)
			}

			// Mid-period kills, two of them, with checkpoints between:
			// the second recovery starts from a snapshot plus a log tail.
			var midPeriod *faults.CrashSchedule
			if batched {
				midPeriod = faults.NewCrashSchedule(
					faults.CrashPoint{Op: "batch", After: 3},
					faults.CrashPoint{Op: "batch", After: 40},
				)
			} else {
				midPeriod = faults.NewCrashSchedule(
					faults.CrashPoint{Op: "report", After: 3},
					faults.CrashPoint{Op: "slot", After: 40},
				)
			}
			res, err := RunTransportStream(cfg, TransportOpts{Shards: shards, Workers: 4, Batched: batched,
				WALDir: t.TempDir(), SnapshotEvery: 2, Crashes: midPeriod})
			if err != nil {
				t.Fatalf("%s mid-period: %v", label, err)
			}
			if res.Restarts != 2 || midPeriod.Fired() != 2 {
				t.Fatalf("%s mid-period: restarts %d fired %d, want 2", label, res.Restarts, midPeriod.Fired())
			}
			assertSameOutcome(t, label+" mid-period", base, res, netMayDiffer)

			// A kill during the period-end round, then another on the
			// first record the replacement makes durable — recovery under
			// immediate re-crash, with no checkpoints (pure log replay).
			boundary := faults.NewCrashSchedule(
				faults.CrashPoint{Op: "period_end", After: 1},
				faults.CrashPoint{After: 1},
			)
			res, err = RunTransportStream(cfg, TransportOpts{Shards: shards, Workers: 4, Batched: batched,
				WALDir: t.TempDir(), Crashes: boundary})
			if err != nil {
				t.Fatalf("%s period-end: %v", label, err)
			}
			if res.Restarts != 2 || boundary.Fired() != 2 {
				t.Fatalf("%s period-end: restarts %d fired %d, want 2", label, res.Restarts, boundary.Fired())
			}
			assertSameOutcome(t, label+" period-end", base, res, netMayDiffer)
		}
	}
}

// With durability on but no kills, the WAL must be a pure observer:
// identical outcomes to a bare run of the same trace.
func TestCrashWALIsPureObserver(t *testing.T) {
	if testing.Short() {
		t.Skip("full HTTP replay")
	}
	cfg := crashConfig()
	bare, err := RunTransportStream(cfg, TransportOpts{Shards: 2, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	walled, err := RunTransportStream(cfg, TransportOpts{Shards: 2, Workers: 4, WALDir: t.TempDir(), SnapshotEvery: 3})
	if err != nil {
		t.Fatal(err)
	}
	if walled.Restarts != 0 {
		t.Fatalf("restarts without a crash schedule: %d", walled.Restarts)
	}
	assertSameOutcome(t, "wal-on", bare, walled, netMayDiffer)
}

// TestCrashAtEveryRecord kills the service once at record K for every
// K in the log of a tiny run: no append position — mid-batch, between
// append and ack, inside a period round — may exist where a crash loses
// or double-executes an operation.
func TestCrashAtEveryRecord(t *testing.T) {
	if testing.Short() {
		t.Skip("one full replay per WAL record")
	}
	if raceEnabled {
		t.Skip("correctness matrix, not a concurrency test: hundreds of replays blow the race-detector time budget (the kill matrix still runs under -race)")
	}
	cfg := transportConfig()
	cfg.TraceCfg.Users = 2
	cfg.MaxUsers = 2
	cfg.TraceCfg.Days = 1
	cfg.WarmupDays = 0

	base, err := RunTransportStream(cfg, TransportOpts{Shards: 2, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	// Count the records an uninterrupted durable run appends.
	refDir := t.TempDir()
	if _, err := RunTransportStream(cfg, TransportOpts{Shards: 2, Workers: 2, WALDir: refDir}); err != nil {
		t.Fatal(err)
	}
	n := countWALRecords(t, refDir)
	if n == 0 {
		t.Fatal("reference run appended no WAL records")
	}
	t.Logf("sweeping a kill across %d record positions", n)
	for k := 1; k <= n; k++ {
		sched := faults.NewCrashSchedule(faults.CrashPoint{After: k})
		res, err := RunTransportStream(cfg, TransportOpts{Shards: 2, Workers: 2, WALDir: t.TempDir(), Crashes: sched})
		if err != nil {
			t.Fatalf("kill at record %d: %v", k, err)
		}
		if res.Restarts != 1 {
			t.Fatalf("kill at record %d: restarts %d", k, res.Restarts)
		}
		assertSameOutcome(t, fmt.Sprintf("kill at record %d", k), base, res, netMayDiffer)
	}
}

func countWALRecords(t *testing.T, dir string) int {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, e := range entries {
		if !strings.HasPrefix(e.Name(), "wal-") || !strings.HasSuffix(e.Name(), ".log") {
			continue
		}
		f, err := os.Open(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		res, err := wal.Scan(f, nil)
		f.Close()
		if err != nil {
			t.Fatal(err)
		}
		if res.Damaged {
			t.Fatalf("%s: damaged log from a clean run", e.Name())
		}
		total += int(res.Records)
	}
	return total
}

// TestCrashOnConfigEpochRecord extends the kill matrix to the config
// hot-reload path: the process is killed on the first config-epoch WAL
// record — the instant between the reload becoming durable and its ack
// — and must recover to exactly the post-reload table (the harness's
// posting retry is answered idempotently by the replayed epoch). The
// tenant limits are non-binding, so the recovered run must equal a
// baseline that hot-reloaded without being killed, on every accounting
// observable.
func TestCrashOnConfigEpochRecord(t *testing.T) {
	if testing.Short() {
		t.Skip("full HTTP replay with kill/restart")
	}
	cfg := crashConfig()
	table := []tenant.Config{{ID: "pubA", Lo: 0, Hi: 1 << 16}}
	epochs := []ConfigEpochStep{
		{Period: 8, Epoch: 2, Tenants: []tenant.Config{
			{ID: "pubA", Lo: 0, Hi: 1 << 16, RatePerSec: 1e6, Burst: 1e6},
		}},
	}
	for _, batched := range []bool{false, true} {
		wire := "sequential"
		if batched {
			wire = "batched"
		}
		base, err := RunTransportStream(cfg, TransportOpts{
			Shards: 2, Workers: 4, Batched: batched, Tenants: table, ConfigEpochs: epochs})
		if err != nil {
			t.Fatalf("%s baseline: %v", wire, err)
		}
		sched := faults.NewCrashSchedule(faults.CrashPoint{Op: "config_epoch", After: 1})
		res, err := RunTransportStream(cfg, TransportOpts{
			Shards: 2, Workers: 4, Batched: batched, Tenants: table, ConfigEpochs: epochs,
			WALDir: t.TempDir(), SnapshotEvery: 2, Crashes: sched,
		})
		if err != nil {
			t.Fatalf("%s config-epoch kill: %v", wire, err)
		}
		if res.Restarts != 1 || sched.Fired() != 1 {
			t.Fatalf("%s: config-epoch kill did not fire: restarts %d fired %d", wire, res.Restarts, sched.Fired())
		}
		assertSameOutcome(t, wire+" config-epoch kill", base, res, netMayDiffer)
	}
}

// TestCrashGroupCommitFsync runs the kill/restart matrix with real
// group-commit fsync on (TransportOpts.Fsync): one flush covers every
// envelope framed before it, and wal.Options.Hook fires after that
// covering flush but before the append returns — so each scheduled kill
// lands exactly between the batched fsync and the client ack, the
// group-commit window where an op is durable but unacknowledged. The
// client's retry straddles the restart and hits the replayed dedup
// window, so the recovered run must equal the uninterrupted baseline on
// every accounting observable, on both wire modes.
func TestCrashGroupCommitFsync(t *testing.T) {
	if testing.Short() {
		t.Skip("full HTTP replay with kill/restart and fsync")
	}
	cfg := crashConfig()
	for _, batched := range []bool{false, true} {
		wire := "sequential"
		crashOp := "report"
		if batched {
			wire = "batched"
			crashOp = "batch"
		}
		label := "group-commit/" + wire
		base, err := RunTransportStream(cfg, TransportOpts{Shards: 2, Workers: 4, Batched: batched})
		if err != nil {
			t.Fatalf("%s baseline: %v", label, err)
		}
		// One kill inside the serving flow, one during the period-end
		// round, with a checkpoint between: the second recovery replays a
		// snapshot plus a fsynced log tail.
		sched := faults.NewCrashSchedule(
			faults.CrashPoint{Op: crashOp, After: 3},
			faults.CrashPoint{Op: "period_end", After: 1},
		)
		res, err := RunTransportStream(cfg, TransportOpts{
			Shards: 2, Workers: 4, Batched: batched,
			WALDir: t.TempDir(), SnapshotEvery: 2, Crashes: sched, Fsync: true,
		})
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		if res.Restarts != 2 || sched.Fired() != 2 {
			t.Fatalf("%s: restarts %d fired %d, want 2", label, res.Restarts, sched.Fired())
		}
		assertSameOutcome(t, label, base, res, netMayDiffer)
	}
}
