package trace

import (
	"fmt"
	"math/rand"
	"sync"

	"repro/internal/simclock"
)

// Stream is the lazy form of the population generator: it can derive
// any single user's full trace on demand, without materializing the
// rest of the population. Generate is literally a materialized Stream,
// so for a given GenConfig the two are bit-identical by construction —
// Stream.UserAt(id) returns exactly Generate(cfg).Users[id] — and the
// property suite pins it.
//
// Laziness comes from the seed-derivation scheme: every user's
// randomness is an independent sub-stream keyed by a hash of
// (root seed, "user", id) — a splitmix-style per-client seed — so
// deriving user 999_999 never touches users 0..999_998, any visit
// order yields the same bytes, and a million-device simulation holds
// only the traces it is actively replaying. A Stream's configuration
// is immutable and it is safe for concurrent UserAt calls from any
// number of goroutines: each derivation borrows its generator state
// from a pool, so a derivation allocates only the trace it returns.
type Stream struct {
	cfg  GenConfig
	cat  *Catalog
	root *simclock.Rand
	gens sync.Pool // of *userGen
}

// userGen is the generator state one derivation uses and the next one
// re-uses: a stream re-seeded in place as user id's sub-stream (its
// 4.9 KB register is the cost a fresh stream per derivation paid), the
// buffer the user's app permutation is drawn into, the Zipf sampler
// over that stream, whose parameters are the Stream's own, and the
// buffer sessions are drawn and sorted in.
type userGen struct {
	r        *simclock.Rand
	perm     []int
	zipf     *rand.Zipf
	sessions []Session
}

// NewStream validates the configuration and returns a lazy view of the
// population Generate would materialize from it.
func NewStream(cfg GenConfig) (*Stream, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	s := &Stream{cfg: cfg, cat: NewCatalog(DefaultCatalog()), root: simclock.NewRand(cfg.Seed).Stream("tracegen")}
	s.gens.New = func() any {
		r := s.root.StreamN("user", 0)
		return &userGen{r: r, perm: make([]int, s.cat.Len()), zipf: r.ZipfRanks(cfg.ZipfExponent, s.cat.Len())}
	}
	return s, nil
}

// Users returns the population size.
func (s *Stream) Users() int { return s.cfg.Users }

// Span returns the exclusive end of the trace window.
func (s *Stream) Span() simclock.Time { return simclock.Time(s.cfg.Days) * simclock.Day }

// Days returns the trace span in whole days.
func (s *Stream) Days() int { return s.cfg.Days }

// Catalog returns the app catalog the stream generates against.
func (s *Stream) Catalog() *Catalog { return s.cat }

// Config returns the generator configuration the stream derives from.
func (s *Stream) Config() GenConfig { return s.cfg }

// UserAt derives user id's complete trace. It panics on an
// out-of-range id (a caller bug, like indexing past a materialized
// Population); use the package-level UserAt for a checked variant.
func (s *Stream) UserAt(id int) *User {
	if id < 0 || id >= s.cfg.Users {
		panic(fmt.Sprintf("trace: UserAt(%d) outside population of %d", id, s.cfg.Users))
	}
	g := s.gens.Get().(*userGen)
	s.root.StreamNInto(g.r, "user", id)
	u := generateUser(s.cfg, s.cat, g, id)
	s.gens.Put(g)
	return u
}

// UserAt derives one user's trace directly from a configuration: the
// checked, stand-alone form of Stream.UserAt. It is bit-identical to
// Generate(cfg).Users[id] without materializing the population.
func UserAt(cfg GenConfig, id int) (*User, error) {
	s, err := NewStream(cfg)
	if err != nil {
		return nil, err
	}
	if id < 0 || id >= cfg.Users {
		return nil, fmt.Errorf("trace: UserAt(%d) outside population of %d", id, cfg.Users)
	}
	return s.UserAt(id), nil
}
