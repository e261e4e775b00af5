package overbook

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/simclock"
)

func TestConfigValidation(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []func(*Config){
		func(c *Config) { c.TargetSLA = 0 },
		func(c *Config) { c.TargetSLA = 1 },
		func(c *Config) { c.MaxReplicas = 0 },
		func(c *Config) { c.FixedReplicas = -1 },
		func(c *Config) { c.AdmissionEpsilon = 0 },
		func(c *Config) { c.CacheCap = 0 },
		func(c *Config) { c.SpreadWeight = -1 },
	}
	for i, mutate := range bad {
		cfg := DefaultConfig()
		mutate(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Errorf("case %d: expected error", i)
		}
	}
}

func TestAdmissionCount(t *testing.T) {
	cfg := DefaultConfig()
	cands := []Candidate{
		{Client: 0, PredictedSlots: 120, ExpectedSlots: 100},
		{Client: 1, PredictedSlots: 120, ExpectedSlots: 100},
		{Client: 2, PredictedSlots: 0, ExpectedSlots: 0}, // contributes nothing
	}
	n := AdmissionCount(cands, cfg)
	// mean 200, sd sqrt(200)=14.1, z(0.05)=-1.645: ~176.
	if n < 160 || n >= 200 {
		t.Fatalf("admission %d, want below mean 200 but near it", n)
	}
	// Looser epsilon sells more.
	loose := cfg
	loose.AdmissionEpsilon = 0.4
	if AdmissionCount(cands, loose) <= n {
		t.Fatal("looser admission should sell more")
	}
	if AdmissionCount(nil, cfg) != 0 {
		t.Fatal("no candidates should admit 0")
	}
	if AdmissionCount([]Candidate{{PredictedSlots: 0.01, ExpectedSlots: 0.01}}, cfg) != 0 {
		t.Fatal("tiny supply should clamp at 0, not go negative")
	}
}

func newPlanner(t *testing.T, cfg Config, cands []*Candidate) *Planner {
	t.Helper()
	p, err := NewPlanner(cfg, cands)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestPlanOneStopsAtTarget(t *testing.T) {
	cfg := DefaultConfig()
	cfg.TargetSLA = 0.01
	cfg.MaxReplicas = 10
	cands := []*Candidate{
		{Client: 0, NoShowProb: 0.05, PredictedSlots: 10},
		{Client: 1, NoShowProb: 0.05, PredictedSlots: 10},
		{Client: 2, NoShowProb: 0.05, PredictedSlots: 10},
	}
	p := newPlanner(t, cfg, cands)
	clients, noShow := p.PlanOne()
	// One client at q=0.05 already beats 0.01? No: 0.05 > 0.01, needs 2.
	if len(clients) != 2 {
		t.Fatalf("clients %v", clients)
	}
	if math.Abs(noShow-0.0025) > 1e-12 {
		t.Fatalf("noShow %v", noShow)
	}
}

func TestPlanOnePrefersReliableClients(t *testing.T) {
	cfg := DefaultConfig()
	cfg.SpreadWeight = 0
	cfg.TargetSLA = 0.2
	cands := []*Candidate{
		{Client: 0, NoShowProb: 0.9, PredictedSlots: 10},
		{Client: 1, NoShowProb: 0.1, PredictedSlots: 10},
		{Client: 2, NoShowProb: 0.5, PredictedSlots: 10},
	}
	p := newPlanner(t, cfg, cands)
	clients, _ := p.PlanOne()
	if len(clients) == 0 || clients[0] != 1 {
		t.Fatalf("should pick the most reliable first: %v", clients)
	}
}

func TestPlanFixedReplicas(t *testing.T) {
	cfg := DefaultConfig()
	cfg.FixedReplicas = 3
	cfg.MaxReplicas = 10
	cands := []*Candidate{
		{Client: 0, NoShowProb: 0.0001, PredictedSlots: 10},
		{Client: 1, NoShowProb: 0.0001, PredictedSlots: 10},
		{Client: 2, NoShowProb: 0.0001, PredictedSlots: 10},
		{Client: 3, NoShowProb: 0.0001, PredictedSlots: 10},
	}
	p := newPlanner(t, cfg, cands)
	clients, _ := p.PlanOne()
	if len(clients) != 3 {
		t.Fatalf("fixed k=3 gave %d replicas", len(clients))
	}
}

func TestPlanRespectsCacheCap(t *testing.T) {
	cfg := DefaultConfig()
	cfg.CacheCap = 2
	cfg.FixedReplicas = 1
	cands := []*Candidate{
		{Client: 0, NoShowProb: 0.01, PredictedSlots: 100},
	}
	p := newPlanner(t, cfg, cands)
	plan := p.Plan(5)
	placed := 0
	for _, c := range plan {
		if len(c) > 0 {
			placed++
		}
	}
	if placed != 2 {
		t.Fatalf("placed %d, cache cap is 2", placed)
	}
	if cands[0].Assigned != 2 {
		t.Fatalf("assigned %d", cands[0].Assigned)
	}
}

func TestPlanSpreadsLoad(t *testing.T) {
	cfg := DefaultConfig()
	cfg.FixedReplicas = 1
	cfg.SpreadWeight = 1.0
	cands := []*Candidate{
		{Client: 0, NoShowProb: 0.10, PredictedSlots: 5},
		{Client: 1, NoShowProb: 0.12, PredictedSlots: 5},
	}
	p := newPlanner(t, cfg, cands)
	p.Plan(10)
	// With spreading, the slightly-flakier client still gets real load.
	if cands[1].Assigned == 0 {
		t.Fatal("load not spread at all")
	}
	if cands[0].Assigned+cands[1].Assigned != 10 {
		t.Fatalf("assignments lost: %d + %d", cands[0].Assigned, cands[1].Assigned)
	}
}

// TestPlanOneAllocationBudget is the planner's allocation gate: once
// its scratch has grown, a placement allocates nothing — heap entries
// move as plain values, nothing is boxed, and the clients slice it
// returns is carved from the planner's slab (one allocation per
// slabChunk ids, which AllocsPerRun's per-call average rounds to 0).
func TestPlanOneAllocationBudget(t *testing.T) {
	cfg := DefaultConfig()
	cfg.CacheCap = 1 << 30
	cands := make([]*Candidate, 200)
	for i := range cands {
		cands[i] = &Candidate{Client: i, PredictedSlots: 12, ExpectedSlots: 8, NoShowProb: 0.1 + 0.002*float64(i)}
	}
	p := newPlanner(t, cfg, cands)
	for i := 0; i < 500; i++ { // steady state: scratch and heap at capacity
		p.PlanOne()
	}
	clients, _ := p.PlanOne()
	if len(clients) < 2 {
		t.Fatalf("expected a replicated placement, got %v", clients)
	}
	if cap(clients) != len(clients) {
		t.Fatalf("holder list has cap %d beyond its %d ids: an append would overwrite the next list", cap(clients), len(clients))
	}
	if n := testing.AllocsPerRun(500, func() { p.PlanOne() }); n != 0 {
		t.Errorf("PlanOne allocates %v objects per call, want 0 amortised", n)
	}
}

func TestPlanExhaustion(t *testing.T) {
	cfg := DefaultConfig()
	cfg.CacheCap = 1
	cfg.FixedReplicas = 1
	p := newPlanner(t, cfg, []*Candidate{{Client: 0, NoShowProb: 0.1, PredictedSlots: 1}})
	plan := p.Plan(3)
	if plan[0] == nil || plan[1] != nil || plan[2] != nil {
		t.Fatalf("exhaustion handling wrong: %v", plan)
	}
	clients, noShow := p.PlanOne()
	if clients != nil || noShow != 1 {
		t.Fatalf("empty pool should return nil,1: %v,%v", clients, noShow)
	}
}

func TestNewPlannerRejectsBadConfig(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MaxReplicas = 0
	if _, err := NewPlanner(cfg, nil); err == nil {
		t.Fatal("expected error")
	}
}

// Property: adaptive planning meets the target SLA whenever enough
// distinct low-q clients exist, and never assigns the same client twice
// to one impression.
func TestPlanOneProperty(t *testing.T) {
	f := func(seed int64, nRaw uint8) bool {
		r := simclock.NewRand(seed)
		n := int(nRaw%20) + 5
		cands := make([]*Candidate, n)
		for i := range cands {
			cands[i] = &Candidate{
				Client:         i,
				NoShowProb:     0.05 + 0.4*r.Float64(),
				PredictedSlots: 1 + 10*r.Float64(),
			}
		}
		cfg := DefaultConfig()
		cfg.TargetSLA = 0.01
		cfg.MaxReplicas = 6
		p, err := NewPlanner(cfg, cands)
		if err != nil {
			return false
		}
		clients, noShow := p.PlanOne()
		seen := map[int]bool{}
		for _, c := range clients {
			if seen[c] {
				return false
			}
			seen[c] = true
		}
		// q <= 0.45 each, so 6 replicas give <= 0.45^6 ~ 0.008 <= target;
		// the planner must have met the target or hit the cap trying.
		if noShow > cfg.TargetSLA && len(clients) < cfg.MaxReplicas {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
