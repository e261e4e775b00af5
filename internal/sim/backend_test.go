package sim

import (
	"net/http"
	"testing"

	"repro/internal/faults"
	"repro/internal/wal"
)

// TestKillHookIgnoresRecordsOfADyingNode drives the WAL kill hook
// directly, with no HTTP: once a point has fired, a record that slipped
// past the seal of the dying incarnation (another shard's append racing
// the kill) belongs to that outage and must not consume the next crash
// point. One hook serves both modes, so the table runs it as the single
// process (node 0) and as a cluster node.
func TestKillHookIgnoresRecordsOfADyingNode(t *testing.T) {
	for _, tc := range []struct {
		name string
		idx  int
	}{{"single-process", 0}, {"cluster-node", 1}} {
		t.Run(tc.name, func(t *testing.T) {
			sched := faults.NewCrashSchedule(
				faults.CrashPoint{After: 1, Node: faults.AnyNode},
				faults.CrashPoint{After: 1, Node: faults.AnyNode},
			)
			l, err := wal.Open(t.TempDir(), wal.Options{NoSync: true})
			if err != nil {
				t.Fatal(err)
			}
			defer l.Close()
			b := &localBackend{env: &replayEnv{o: TransportOpts{Crashes: sched}}}
			nd := &simNode{idx: tc.idx, log: l, restartCh: make(chan struct{}, 1)}
			hook := b.killHook(nd)
			call := func() (aborted any) {
				defer func() { aborted = recover() }()
				hook(wal.Record{Op: "report"})
				return nil
			}

			if got := call(); got != http.ErrAbortHandler {
				t.Fatalf("the first record must kill the node with http.ErrAbortHandler, got %v", got)
			}
			if sched.Fired() != 1 {
				t.Fatalf("fired %d after the kill, want 1", sched.Fired())
			}
			call() // the straggler
			if f, p := sched.Fired(), sched.Pending(); f != 1 || p != 1 {
				t.Fatalf("a record of a dying incarnation consumed the next crash point: fired %d pending %d", f, p)
			}
		})
	}
}
