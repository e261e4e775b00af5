// Package shard scales the ad service horizontally: clients are
// partitioned across independent ad-server shards by a stable hash, each
// shard owning its clients' predictors, assignments, claims and
// frequency caps. Because replicas of one impression only ever live on
// clients of the shard that sold it, shards share nothing and scale
// linearly — the deployment story behind the T2 throughput table.
//
// The trade-off is pooling: overbooked replication and the rescue path
// only see one shard's clients, so very small shards lose some of the
// statistical multiplexing a single big server enjoys (the X8 experiment
// measures this).
package shard

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"sort"
	"sync"

	"repro/internal/adserver"
	"repro/internal/auction"
	"repro/internal/predict"
	"repro/internal/simclock"
	"repro/internal/trace"
)

// Pool is a set of ad-server shards behind a stable client partition.
type Pool struct {
	shards []*adserver.Server
	// byClient caches the routing decision per known client.
	byClient map[int]int
}

// Route returns the shard index a client maps to among n shards.
func Route(clientID, n int) int {
	h := fnv.New64a()
	var buf [8]byte
	u := uint64(int64(clientID))
	for i := range buf {
		buf[i] = byte(u >> (8 * i))
	}
	h.Write(buf[:])
	return int(h.Sum64() % uint64(n))
}

// New partitions clientIDs across n shards. Each shard gets its own
// exchange built by mkExchange, so budgets are per shard: a node builds
// them with auction.DemandConfig.NodeCampaigns, which gives each shard
// 1/n of every campaign's budget.
func New(n int, cfg adserver.Config, clientIDs []int,
	mkExchange func(shard int) (*auction.Exchange, error),
	mkPredictor func(clientID int) predict.Predictor,
	hints func(clientID int) []trace.Category) (*Pool, error) {

	if n < 1 {
		return nil, fmt.Errorf("shard: need at least one shard, got %d", n)
	}
	members := make([][]int, n)
	byClient := make(map[int]int, len(clientIDs))
	for _, id := range clientIDs {
		s := Route(id, n)
		members[s] = append(members[s], id)
		byClient[id] = s
	}
	p := &Pool{shards: make([]*adserver.Server, n), byClient: byClient}
	for i := 0; i < n; i++ {
		ex, err := mkExchange(i)
		if err != nil {
			return nil, fmt.Errorf("shard %d: %w", i, err)
		}
		srv, err := adserver.New(cfg, ex, members[i], mkPredictor, hints)
		if err != nil {
			return nil, fmt.Errorf("shard %d: %w", i, err)
		}
		p.shards[i] = srv
	}
	return p, nil
}

// Shards returns the number of shards.
func (p *Pool) Shards() int { return len(p.shards) }

// LedgerOf returns one tenant's ledger view summed across shards.
func (p *Pool) LedgerOf(tenant string) auction.Ledger {
	var total auction.Ledger
	for _, s := range p.shards {
		total.Add(s.Exchange().LedgerOf(tenant))
	}
	return total
}

// Shard returns shard i (for tests and per-shard inspection).
func (p *Pool) Shard(i int) *adserver.Server { return p.shards[i] }

// ShardFor returns the shard owning a client (nil if unknown).
func (p *Pool) ShardFor(clientID int) *adserver.Server {
	i, ok := p.byClient[clientID]
	if !ok {
		return nil
	}
	return p.shards[i]
}

// IndexFor returns the index of the shard owning a client. Unknown
// clients fall back to the stable hash route, so lookups for ids that
// joined after partitioning still map deterministically.
func (p *Pool) IndexFor(clientID int) int {
	if i, ok := p.byClient[clientID]; ok {
		return i
	}
	return Route(clientID, len(p.shards))
}

// StartPeriod runs the prefetch round on every shard concurrently (each
// shard is single-threaded internally; shards share nothing). Bundles
// from all shards are concatenated; stats are summed.
func (p *Pool) StartPeriod(now simclock.Time, per predict.Period) ([]adserver.Bundle, adserver.PeriodStats) {
	type out struct {
		bundles []adserver.Bundle
		stats   adserver.PeriodStats
	}
	outs := make([]out, len(p.shards))
	var wg sync.WaitGroup
	for i, s := range p.shards {
		wg.Add(1)
		go func(i int, s *adserver.Server) {
			defer wg.Done()
			b, st := s.StartPeriod(now, per)
			outs[i] = out{b, st}
		}(i, s)
	}
	wg.Wait()
	var bundles []adserver.Bundle
	var stats adserver.PeriodStats
	for _, o := range outs {
		bundles = append(bundles, o.bundles...)
		stats.Add(o.stats)
	}
	sort.Slice(bundles, func(i, j int) bool { return bundles[i].Client < bundles[j].Client })
	return bundles, stats
}

// EndPeriod closes the round on every shard concurrently and returns the
// total expirations.
func (p *Pool) EndPeriod(now simclock.Time, per predict.Period) int {
	expired := make([]int, len(p.shards))
	var wg sync.WaitGroup
	for i, s := range p.shards {
		wg.Add(1)
		go func(i int, s *adserver.Server) {
			defer wg.Done()
			expired[i] = s.EndPeriod(now, per)
		}(i, s)
	}
	wg.Wait()
	total := 0
	for _, n := range expired {
		total += n
	}
	return total
}

// Ledger returns the ledgers of all shards summed.
func (p *Pool) Ledger() auction.Ledger {
	var total auction.Ledger
	for _, s := range p.shards {
		total.Add(s.Exchange().Ledger())
	}
	return total
}

// SavePredictors persists every shard's predictor state (concatenated
// JSON documents, one per shard).
func (p *Pool) SavePredictors(w io.Writer) error {
	for i, s := range p.shards {
		if err := s.SavePredictors(w); err != nil {
			return fmt.Errorf("shard %d: %w", i, err)
		}
	}
	return nil
}

// LoadPredictors restores state saved by SavePredictors: one JSON
// document per shard, in shard order. The snapshot must come from a
// pool with the same shard count (the partition is stable, so the same
// client set + shard count reproduces the same membership); a snapshot
// with a different document count is rejected, since loading it would
// silently pair shards with the wrong client subsets.
func (p *Pool) LoadPredictors(r io.Reader) error {
	dec := json.NewDecoder(r)
	for i, s := range p.shards {
		var raw json.RawMessage
		if err := dec.Decode(&raw); err != nil {
			return fmt.Errorf("shard %d: decoding predictor snapshot (snapshot from a smaller pool?): %w", i, err)
		}
		if err := s.LoadPredictors(bytes.NewReader(raw)); err != nil {
			return fmt.Errorf("shard %d: %w", i, err)
		}
	}
	var extra json.RawMessage
	if err := dec.Decode(&extra); err != io.EOF {
		return fmt.Errorf("shard: snapshot has more than %d shard documents (saved by a larger pool?)", len(p.shards))
	}
	return nil
}
