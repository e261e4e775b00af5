package transport

import (
	"sync"

	"repro/internal/adserver"
	"repro/internal/simclock"
)

// fanOut runs fn once per shard concurrently and returns the first
// error (errgroup-style fan-out/fan-in barrier; shards share nothing,
// so per-shard rounds are independent). A panic inside fn — the WAL's
// fail-stop append path, or a crash-emulation hook — is carried back to
// the request goroutine and re-raised there, instead of killing the
// process from an untended goroutine.
func (s *ShardedServer) fanOut(fn func(i int, sh *shardState) error) error {
	errs := make([]error, len(s.shards))
	panics := make([]any, len(s.shards))
	var wg sync.WaitGroup
	for i, sh := range s.shards {
		wg.Add(1)
		go func(i int, sh *shardState) {
			defer wg.Done()
			defer func() { panics[i] = recover() }()
			errs[i] = fn(i, sh)
		}(i, sh)
	}
	wg.Wait()
	for _, p := range panics {
		if p != nil {
			panic(p)
		}
	}
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// execPeriodStart opens a prefetch round. Period rounds fan out to
// every shard, so their dedup window is the server-wide store: a
// coordinator retry after a lost reply must not sell the round twice.
func (s *ShardedServer) execPeriodStart(msg periodMsg) (PeriodStartReply, *httpError) {
	var (
		mu    sync.Mutex
		reply PeriodStartReply
	)
	// Fan-out: each shard runs its own forecast/sale/replication round
	// under its own lock; the barrier completes when every shard has
	// staged its bundles.
	_ = s.fanOut(func(_ int, sh *shardState) error {
		// Deferred unlock: the durability hook inside the round may
		// panic (fail-stop or crash emulation), and the lock must not
		// stay held on that path.
		sh.mu.Lock()
		defer sh.mu.Unlock()
		part := periodStartPart(s.periodStartShardLocked(sh, msg))
		mu.Lock()
		reply.Add(part)
		mu.Unlock()
		return nil
	})
	return reply, nil
}

// periodStartShardLocked runs one shard's slice of a period-start
// round; sh.mu must be held. The per-shard cache makes the round
// exactly-once: a repeat of the same (instant, index) — a coordinator
// retry racing a crash, or a WAL replay of a round whose reply was
// already acked — returns the cached outcome without selling again.
func (s *ShardedServer) periodStartShardLocked(sh *shardState, msg periodMsg) (adserver.PeriodStats, int) {
	if r := sh.startRounds[periodKey{msg.NowNS, msg.Index}]; r != nil {
		return r.Stats, r.Bundled
	}
	now := simclock.Time(msg.NowNS)
	bundles, stats := sh.srv.StartPeriod(now, msg.period())
	for _, b := range bundles {
		sh.staged[b.Client] = append(sh.staged[b.Client], b.Ads...)
	}
	sh.startRounds[periodKey{msg.NowNS, msg.Index}] = &periodRound{NowNS: msg.NowNS, Index: msg.Index, Stats: stats, Bundled: len(bundles)}
	s.walAppend(sh, opPeriodStart, "", msg)
	return stats, len(bundles)
}

func (s *ShardedServer) execPeriodEnd(msg periodMsg) (PeriodEndReply, *httpError) {
	var (
		mu    sync.Mutex
		reply PeriodEndReply
	)
	_ = s.fanOut(func(_ int, sh *shardState) error {
		sh.mu.Lock()
		defer sh.mu.Unlock()
		part := PeriodEndReply{Expired: s.periodEndShardLocked(sh, msg)}
		mu.Lock()
		reply.Add(part)
		mu.Unlock()
		return nil
	})
	return reply, nil
}

// periodEndShardLocked closes one shard's slice of a period round;
// sh.mu must be held, and periodMu too on a live round (WAL replay runs
// single-threaded). Cached like periodStartShardLocked, and for the
// same reason. Live rounds and replay run this one copy of the dedup
// sweeps.
func (s *ShardedServer) periodEndShardLocked(sh *shardState, msg periodMsg) int {
	now := simclock.Time(msg.NowNS)
	// The dedup windows ride the period cadence: anything older than two
	// periods can no longer be a live retry (the retry policy's backoff
	// horizon is seconds), so the period boundary bounds the stores'
	// memory the same way it bounds staged bundles. Shard 0 sweeps the
	// period store for the round.
	cutoff := now - 2*simclock.Time(sh.srv.Config().Period)
	sh.dedup.sweep(cutoff)
	if sh.idx == 0 {
		s.periodDedup.sweep(cutoff)
		s.periodSweep = int64(cutoff)
	}
	if r := sh.endRounds[periodKey{msg.NowNS, msg.Index}]; r != nil {
		return r.Expired
	}
	expired := sh.srv.EndPeriod(now, msg.period())
	// Bound staged-bundle memory: ads a client never downloaded are
	// worthless once expired, so sweep them with the period. Without
	// this, clients that stop contacting the server pin their
	// bundles forever.
	for cid, ads := range sh.staged {
		kept := ads[:0]
		for _, ad := range ads {
			if !now.After(ad.Deadline) {
				kept = append(kept, ad)
			}
		}
		if len(kept) == 0 {
			delete(sh.staged, cid)
		} else {
			sh.staged[cid] = kept
		}
	}
	sh.endRounds[periodKey{msg.NowNS, msg.Index}] = &periodRound{NowNS: msg.NowNS, Index: msg.Index, Expired: expired}
	if sh.idx == 0 {
		// Count executed rounds once (shard 0 stands in for the round):
		// the counter must advance identically live and under replay,
		// since it drives the snapshot cadence and the health report's
		// snapshot age.
		s.periodEndRounds.Add(1)
	}
	s.walAppend(sh, opPeriodEnd, "", msg)
	return expired
}
