package trace

import (
	"fmt"

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
// only the traces it is actively replaying. A Stream is immutable and
// safe for concurrent UserAt calls from any number of goroutines.
type Stream struct {
	cfg  GenConfig
	cat  *Catalog
	root *simclock.Rand
}

// NewStream validates the configuration and returns a lazy view of the
// population Generate would materialize from it.
func NewStream(cfg GenConfig) (*Stream, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Stream{cfg: cfg, cat: NewCatalog(DefaultCatalog()), root: simclock.NewRand(cfg.Seed).Stream("tracegen")}, nil
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
	return generateUser(s.cfg, s.cat, s.root.StreamN("user", id), id)
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
