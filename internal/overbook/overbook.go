// Package overbook implements the paper's overbooking model: the
// mechanism that reconciles unreliable client slot predictions with the
// hard obligations of sold impressions.
//
// A sold impression must be displayed before its deadline. If the server
// placed each ad on exactly one client, that client's no-show
// probability q̂ would translate directly into an SLA violation rate of
// q̂ — far too high. Instead, like an airline overbooking seats, the
// server (1) admits only as many impressions for sale as the population
// will almost surely supply slots for, and (2) replicates each sold ad
// across k clients so the probability that *none* of them shows it,
// ∏ᵢ q̂ᵢ, falls below the target SLA. The first replica to display claims
// the impression; the rest are cancelled at their next server sync, and
// any displays that race ahead of the cancellation are impressions given
// away free (revenue loss). Both failure modes are therefore tunable
// against each other through TargetSLA and MaxReplicas.
package overbook

import (
	"fmt"
	"math"

	"repro/internal/metrics"
	"repro/internal/minheap"
	"repro/internal/predict"
)

// Config holds the overbooking policy parameters.
type Config struct {
	// TargetSLA is the acceptable per-impression no-show probability;
	// the paper operates at "negligible", i.e. well below 1%.
	TargetSLA float64

	// MaxReplicas caps the replication factor k regardless of target.
	MaxReplicas int

	// FixedReplicas, if positive, disables the adaptive choice and
	// replicates every impression exactly this many times (the k-sweep
	// baseline in figures F5/F6).
	FixedReplicas int

	// AdmissionEpsilon is the acceptable probability that aggregate
	// realized supply falls short of the impressions sold; admission
	// control sells mean - z(1-eps)*stddev of predicted aggregate supply.
	AdmissionEpsilon float64

	// CacheCap bounds how many replicas one client can hold per period
	// (its prefetch cache size).
	CacheCap int

	// SpreadWeight balances replica placement between reliability (low
	// q̂) and load-spreading across clients. Zero places purely by q̂.
	SpreadWeight float64
}

// DefaultConfig returns the operating point used in the evaluation.
func DefaultConfig() Config {
	return Config{
		// The per-impression replication target is modest because the
		// rescue path (adserver.RescueOpen) catches stragglers; pushing
		// the product much lower only multiplies racing duplicates.
		TargetSLA:        0.05,
		MaxReplicas:      3,
		AdmissionEpsilon: 0.05,
		CacheCap:         64,
		SpreadWeight:     0.3,
	}
}

// Validate checks the policy parameters.
func (c Config) Validate() error {
	switch {
	case c.TargetSLA <= 0 || c.TargetSLA >= 1:
		return fmt.Errorf("overbook: TargetSLA must be in (0,1), got %v", c.TargetSLA)
	case c.MaxReplicas < 1:
		return fmt.Errorf("overbook: MaxReplicas must be >= 1, got %d", c.MaxReplicas)
	case c.FixedReplicas < 0:
		return fmt.Errorf("overbook: FixedReplicas must be >= 0, got %d", c.FixedReplicas)
	case c.AdmissionEpsilon <= 0 || c.AdmissionEpsilon >= 1:
		return fmt.Errorf("overbook: AdmissionEpsilon must be in (0,1), got %v", c.AdmissionEpsilon)
	case c.CacheCap < 1:
		return fmt.Errorf("overbook: CacheCap must be >= 1, got %d", c.CacheCap)
	case c.SpreadWeight < 0:
		return fmt.Errorf("overbook: SpreadWeight must be >= 0, got %v", c.SpreadWeight)
	}
	return nil
}

// Candidate is one client able to hold replicas in the upcoming period.
type Candidate struct {
	Client int

	// PredictedSlots is the client's conservative cache-sizing forecast
	// (the percentile estimate); it bounds how many replicas the planner
	// spreads onto the client.
	PredictedSlots float64

	// ExpectedSlots is the unbiased supply forecast used by admission
	// control. Selling against the conservative estimate instead would
	// oversell by construction.
	ExpectedSlots float64

	// VarSlots is the estimated variance of the client's slot count;
	// zero means unknown (admission assumes Poisson dispersion).
	VarSlots float64

	// NoShowProb is q̂: the estimated probability the client displays
	// nothing during the period.
	NoShowProb float64

	// Shortfall, when non-nil, is the client's slot-count distribution
	// for the period: P(the client produces <= rank slots), its
	// ProbAtMost(rank), is the rank-aware no-show probability of a
	// replica placed at cache position rank. Nil falls back to the
	// rank-independent NoShowProb (the binary model).
	Shortfall *predict.CDF

	// Assigned counts replicas already placed on this client this
	// period (mutated by the planner).
	Assigned int
}

// nextQ returns the no-show probability of the next replica placed on
// this candidate, given how many it already holds.
func (c *Candidate) nextQ() float64 {
	if c.Shortfall != nil {
		return c.Shortfall.ProbAtMost(c.Assigned)
	}
	return c.NoShowProb
}

// AdmissionCount decides how many impressions to sell for the upcoming
// period given per-client forecasts. It models aggregate supply as a
// normal sum of independent per-client counts (mean = expected forecast,
// variance = max(mean, 1) per client — Poisson-like dispersion) and
// sells its AdmissionEpsilon-quantile, so supply falls short with
// probability at most ~epsilon.
func AdmissionCount(cands []Candidate, cfg Config) int {
	var mu, varSum float64
	for _, c := range cands {
		p := c.ExpectedSlots
		if p <= 0 {
			continue
		}
		mu += p
		v := c.VarSlots
		if v <= 0 {
			// Unknown dispersion: assume Poisson-like, floored at 1.
			v = p
			if v < 1 {
				v = 1
			}
		}
		varSum += v
	}
	if mu == 0 {
		return 0
	}
	z := metrics.NormInvCDF(cfg.AdmissionEpsilon) // negative for eps < 0.5
	n := int(math.Floor(mu + z*math.Sqrt(varSum)))
	if n < 0 {
		n = 0
	}
	return n
}

// Planner assigns replicas of sold impressions to candidate clients.
// It mutates the candidates' Assigned counters so repeated Plan calls in
// the same period respect cache capacity.
//
// Selection runs on a lazy-update priority queue: a candidate's score
// (rank-aware no-show probability plus load penalty) only ever grows as
// replicas land on it, so a popped entry whose cached score is stale is
// simply reinserted with its current score. This makes one assignment
// O(k log n) instead of re-sorting all n candidates per impression —
// the difference between seconds and minutes per round at fleet scale
// (see the X8 experiment).
type Planner struct {
	cfg Config
	h   []candEntry // min-heap by candLess

	// chosen is PlanOne's scratch: the entries held aside while one
	// impression's holders are picked, reused across calls.
	chosen []candEntry

	// slab is where PlanOne carves the holder lists it returns: callers
	// keep them per impression, so they are handed out, never reused.
	slab []int
}

// slabChunk is how many holder ids one slab allocation covers.
const slabChunk = 512

// candEntry caches a candidate's score at insertion time.
type candEntry struct {
	score float64
	c     *Candidate
}

// candLess orders the planner's heap by (score, client id).
func candLess(a, b *candEntry) bool {
	if a.score != b.score {
		return a.score < b.score
	}
	return a.c.Client < b.c.Client
}

// score computes a candidate's current selection score.
func (p *Planner) score(c *Candidate, q float64) float64 {
	load := float64(c.Assigned) / math.Max(c.PredictedSlots, 1)
	return q + p.cfg.SpreadWeight*load
}

// NewPlanner validates the config and indexes the period's candidates.
func NewPlanner(cfg Config, cands []*Candidate) (*Planner, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	p := &Planner{cfg: cfg, h: make([]candEntry, 0, len(cands))}
	for _, c := range cands {
		if c.PredictedSlots <= 0 {
			continue
		}
		q := c.nextQ()
		if q >= 1 {
			continue
		}
		p.h = append(p.h, candEntry{score: p.score(c, q), c: c})
	}
	minheap.Init(p.h, candLess)
	return p, nil
}

// PlanOne chooses the replica holders for a single impression: clients
// are ranked by q̂ plus a load-spreading penalty, and taken greedily
// until the no-show product reaches the target SLA (or the fixed k, or
// the replica cap, or capacity runs out). It returns the chosen client
// ids and the modeled no-show probability; an empty result means no
// capacity remained anywhere. The ids are the caller's to keep: each
// list is its own full-cap stretch of the planner's slab.
func (p *Planner) PlanOne() (clients []int, noShow float64) {
	wantK := p.cfg.MaxReplicas
	fixed := p.cfg.FixedReplicas > 0
	if fixed {
		wantK = p.cfg.FixedReplicas
	}

	noShow = 1.0
	// Selected candidates are held aside so the same client is never
	// chosen twice for one impression, then reinserted with refreshed
	// scores.
	chosen := p.chosen[:0]
	for len(p.h) > 0 {
		if len(chosen) >= wantK {
			break
		}
		if !fixed && len(chosen) > 0 && noShow <= p.cfg.TargetSLA {
			break
		}
		var e candEntry
		p.h, e = minheap.Pop(p.h, candLess)
		c := e.c
		if c.Assigned >= p.cfg.CacheCap || c.PredictedSlots <= 0 {
			continue // permanently exhausted: drop from the pool
		}
		// A replica that is certain not to display (the client already
		// holds at least as many ads as it can possibly show)
		// contributes nothing; since q is monotone in rank, drop it.
		q := c.nextQ()
		if q >= 1 {
			continue
		}
		if cur := p.score(c, q); cur != e.score {
			// Stale entry: the candidate gained replicas since it was
			// scored. Reinsert at its current score and re-pop.
			p.h = minheap.Push(p.h, candEntry{score: cur, c: c}, candLess)
			continue
		}
		c.Assigned++
		noShow *= q
		chosen = append(chosen, e)
	}
	if n := len(chosen); n > 0 {
		if cap(p.slab)-len(p.slab) < n {
			p.slab = make([]int, 0, max(slabChunk, n))
		}
		// Full-cap: an append by the caller cannot reach the next list.
		clients = p.slab[len(p.slab) : len(p.slab)+n : len(p.slab)+n]
		p.slab = p.slab[:len(p.slab)+n]
	}
	for i, e := range chosen {
		c := e.c
		clients[i] = c.Client
		if c.Assigned >= p.cfg.CacheCap {
			continue
		}
		q := c.nextQ()
		if q >= 1 {
			continue
		}
		p.h = minheap.Push(p.h, candEntry{score: p.score(c, q), c: c}, candLess)
	}
	p.chosen = chosen[:0]
	if clients == nil {
		return nil, 1
	}
	return clients, noShow
}

// Plan assigns n impressions and returns one client list per impression
// (in impression order). Impressions that could not be placed anywhere
// get a nil entry.
func (p *Planner) Plan(n int) [][]int {
	out := make([][]int, n)
	for i := 0; i < n; i++ {
		clients, _ := p.PlanOne()
		out[i] = clients
	}
	return out
}
