package trace

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/simclock"
)

// The lazy generator's core contract: UserAt(cfg, id) is bit-identical
// to Generate(cfg).Users[id], for every user, under any visit order,
// with repeated visits, across independent Stream instances.
func TestUserAtMatchesGenerate(t *testing.T) {
	cfg := DefaultGenConfig()
	cfg.Users = 60
	cfg.Days = 6
	cfg.Seed = 42

	pop, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	st, err := NewStream(cfg)
	if err != nil {
		t.Fatal(err)
	}

	// Scrambled visit order, every id visited twice: laziness must be
	// order-free and side-effect-free.
	order := rand.New(rand.NewSource(3)).Perm(cfg.Users)
	order = append(order, order...)
	for _, id := range order {
		got := st.UserAt(id)
		if !reflect.DeepEqual(got, pop.Users[id]) {
			t.Fatalf("UserAt(%d) diverges from Generate:\n lazy:        %+v\n materialized: %+v",
				id, got, pop.Users[id])
		}
	}

	// A fresh stream visiting only one late id must agree too — deriving
	// user N-1 without touching users 0..N-2.
	st2, err := NewStream(cfg)
	if err != nil {
		t.Fatal(err)
	}
	last := cfg.Users - 1
	if !reflect.DeepEqual(st2.UserAt(last), pop.Users[last]) {
		t.Fatalf("cold UserAt(%d) diverges from Generate", last)
	}

	// And the checked package-level form.
	u, err := UserAt(cfg, 17)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(u, pop.Users[17]) {
		t.Fatal("package-level UserAt diverges from Generate")
	}
}

// Streams must be safe for concurrent derivation: a parallel sweep has
// to produce the same users as a serial one.
func TestStreamConcurrentDerivation(t *testing.T) {
	cfg := DefaultGenConfig()
	cfg.Users = 32
	cfg.Days = 3
	pop, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	st, err := NewStream(cfg)
	if err != nil {
		t.Fatal(err)
	}
	errc := make(chan error, cfg.Users)
	for id := 0; id < cfg.Users; id++ {
		go func(id int) {
			if !reflect.DeepEqual(st.UserAt(id), pop.Users[id]) {
				errc <- fmt.Errorf("concurrent UserAt(%d) diverged", id)
				return
			}
			errc <- nil
		}(id)
	}
	for i := 0; i < cfg.Users; i++ {
		if err := <-errc; err != nil {
			t.Fatal(err)
		}
	}
}

// TestUserAtAllocationBudget pins what a derivation allocates once its
// generator state is pooled: exactly the trace it returns — the User
// and one exact-size session slice — whatever the user's session
// count. The register, app permutation, Zipf sampler and session
// buffer are re-used, so a fresh 4.9 KB register per derivation (the
// cost before pooling: 9–10 objects and about 6 KB here) fails this.
func TestUserAtAllocationBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's sync.Pool drops pooled state at random")
	}
	cfg := DefaultGenConfig()
	cfg.Users, cfg.Days = 6000, 3
	st, err := NewStream(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range []int{0, 1, 17, 4242, 5999} {
		st.UserAt(id) // warm the pool and grow its session buffer
		if n := testing.AllocsPerRun(100, func() { st.UserAt(id) }); n != 2 {
			t.Errorf("UserAt(%d) (%d sessions) allocates %v objects, want exactly 2",
				id, len(st.UserAt(id).Sessions), n)
		}
	}
}

// permInto must be rand.Perm's loop exactly: the same permutation from
// the same draws, leaving the stream where Perm leaves it, whatever a
// re-used buffer held before.
func TestPermIntoMatchesPerm(t *testing.T) {
	buf := make([]int, 64)
	for i := range buf {
		buf[i] = -7 * i
	}
	for seed := int64(0); seed < 20; seed++ {
		for _, n := range []int{0, 1, 2, 13, 64} {
			a, b := simclock.NewRand(seed), simclock.NewRand(seed)
			want := a.Perm(n)
			got := permInto(b, buf[:n])
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("seed %d n %d: permInto %v, Perm %v", seed, n, got, want)
			}
			if a.Int63() != b.Int63() {
				t.Fatalf("seed %d n %d: streams diverge after the permutation", seed, n)
			}
		}
	}
}

// BenchmarkUserAt is one lazily derived device trace over one day at
// the diurnal_batched population's size, as the wire replay derives one
// per client at set-up and per period.
func BenchmarkUserAt(b *testing.B) {
	cfg := DefaultGenConfig()
	cfg.Users, cfg.Days = 6000, 1
	st, err := NewStream(cfg)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		st.UserAt(i % cfg.Users)
	}
}

func TestStreamMetadata(t *testing.T) {
	cfg := DefaultGenConfig()
	cfg.Users = 5
	cfg.Days = 4
	st, err := NewStream(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if st.Users() != 5 || st.Days() != 4 {
		t.Fatalf("metadata: %d users, %d days", st.Users(), st.Days())
	}
	if st.Span() != 4*simclock.Day {
		t.Fatalf("span %v", st.Span())
	}
	if st.Catalog() == nil || st.Catalog().Len() == 0 {
		t.Fatal("no catalog")
	}
	if st.Config().Users != 5 {
		t.Fatalf("config echo: %+v", st.Config())
	}
}

func TestUserAtValidation(t *testing.T) {
	cfg := DefaultGenConfig()
	cfg.Users = 0
	if _, err := UserAt(cfg, 0); err == nil {
		t.Fatal("invalid config accepted")
	}
	if _, err := NewStream(cfg); err == nil {
		t.Fatal("invalid config accepted by NewStream")
	}
	cfg = DefaultGenConfig()
	cfg.Users = 3
	if _, err := UserAt(cfg, 3); err == nil {
		t.Fatal("out-of-range id accepted")
	}
	if _, err := UserAt(cfg, -1); err == nil {
		t.Fatal("negative id accepted")
	}
	st, err := NewStream(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Stream.UserAt out of range did not panic")
		}
	}()
	st.UserAt(3)
}

// Non-finite generator parameters must be rejected, not sampled: NaN
// passes every ordered range check and then wedges Poisson sampling.
func TestValidateRejectsNonFinite(t *testing.T) {
	nan := func(mut func(*GenConfig)) GenConfig {
		cfg := DefaultGenConfig()
		mut(&cfg)
		return cfg
	}
	bad := []GenConfig{
		nan(func(c *GenConfig) { c.Regularity = math.NaN() }),
		nan(func(c *GenConfig) { c.SessionsPerDayMedian = math.Inf(1) }),
		nan(func(c *GenConfig) { c.WeekendFactor = math.NaN() }),
		nan(func(c *GenConfig) { c.MaxSessionSec = math.Inf(1) }),
	}
	for i, cfg := range bad {
		if err := cfg.Validate(); err == nil {
			t.Fatalf("case %d: non-finite config accepted", i)
		}
	}
}
