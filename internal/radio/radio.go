package radio

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/simclock"
)

// Owner identifies who caused a transfer for energy attribution, e.g.
// "app:facebook" or "ads". Any string works; the energy package defines
// the conventions used by the experiments.
type Owner string

// Usage is the energy attributed to a single owner.
type Usage struct {
	PromoJ    float64 // promotion ramps this owner triggered
	TransferJ float64 // active transmission energy
	TailJ     float64 // (possibly truncated) tails this owner left behind
	Bytes     int64
	Transfers int64
}

// TotalJ returns the owner's total attributed energy in joules.
func (u Usage) TotalJ() float64 { return u.PromoJ + u.TransferJ + u.TailJ }

// Add accumulates another usage record into u.
func (u *Usage) Add(o Usage) {
	u.PromoJ += o.PromoJ
	u.TransferJ += o.TransferJ
	u.TailJ += o.TailJ
	u.Bytes += o.Bytes
	u.Transfers += o.Transfers
}

// Radio replays a time-ordered stream of transfers against a Profile and
// attributes energy to owners. It is the exact accounting engine: tails
// are truncated when a later transfer re-wakes the radio, promotions are
// skipped or downgraded when the radio is still warm, and concurrent
// requests are serialized on the single link.
//
// Radio is not safe for concurrent use; in the simulator each simulated
// device owns one Radio.
type Radio struct {
	profile Profile

	// lastEnd is the instant the most recent transfer finished on the
	// air; lastOwner is who gets charged for the tail that follows it;
	// lastFACH records whether that transfer ran on the shared channel
	// (leaving only the low-power tail).
	started   bool
	lastEnd   simclock.Time
	lastOwner Owner
	lastFACH  bool

	usage map[Owner]*Usage

	onTime   time.Duration // ACTIVE + promotion time
	tailTime time.Duration // settled tail time (truncated or full)
	flushed  bool
}

// New creates a replay engine for the given profile. It panics if the
// profile is invalid, since a bad profile poisons every later result.
func New(p Profile) *Radio {
	if err := p.Validate(); err != nil {
		panic(err)
	}
	return &Radio{profile: p, usage: make(map[Owner]*Usage)}
}

// Transfer replays a transfer of the given size requested at instant at,
// attributed to owner. It returns the instant the transfer completes on
// the air. Requests may arrive while an earlier transfer is still in
// flight; they are serialized (the radio is a single link), starting when
// the link frees up.
//
// Transfers must be requested in nondecreasing time order; out-of-order
// requests panic, since they indicate a simulator bug.
func (r *Radio) Transfer(at simclock.Time, bytes int64, owner Owner) simclock.Time {
	if r.flushed {
		panic("radio: Transfer after Flush")
	}
	if bytes < 0 {
		bytes = 0
	}
	p := r.profile
	u := r.ownerUsage(owner)

	// rrcState classifies where the radio is when the transfer arrives.
	type rrcState int
	const (
		stateActive rrcState = iota // dedicated channel still hot
		stateShared                 // low-power shared channel (FACH)
		stateIdle
	)

	start := at
	state := stateIdle
	if r.started {
		if at < r.lastEnd {
			// Link busy: serialize. No gap, no tail for the previous
			// transfer, no promotion needed.
			start = r.lastEnd
			if r.lastFACH {
				state = stateShared
			} else {
				state = stateActive
			}
		} else {
			gap := at.Sub(r.lastEnd)
			prev := r.ownerUsage(r.lastOwner)
			if r.lastFACH {
				// Shared-channel transfers leave only the low tail.
				prev.TailJ += p.FACHTailEnergy(gap)
				if gap < p.TailLowDur {
					r.tailTime += gap
					state = stateShared
				} else {
					r.tailTime += p.TailLowDur
					state = stateIdle
				}
			} else {
				prev.TailJ += p.TailEnergyAfter(gap)
				switch {
				case gap <= p.TailHighDur:
					r.tailTime += gap
					state = stateActive
				case gap < p.TailDur():
					r.tailTime += gap
					state = stateShared
				default:
					r.tailTime += p.TailDur()
					state = stateIdle
				}
			}
		}
	}

	// Channel choice: small transfers ride the shared channel unless the
	// dedicated channel is already hot.
	useFACH := p.FACHEligible(bytes) && state != stateActive

	var promoJ float64
	var promoDur time.Duration
	switch {
	case state == stateActive:
		// No promotion needed.
	case state == stateShared:
		if !useFACH {
			promoJ = p.PromoLowPower * p.PromoLowDur.Seconds()
			promoDur = p.PromoLowDur
		}
		// Staying on the shared channel needs no ramp.
	default: // idle
		if useFACH {
			// Ramp to the shared channel only: the cheap promotion.
			promoJ = p.PromoLowPower * p.PromoLowDur.Seconds()
			promoDur = p.PromoLowDur
		} else {
			promoJ = p.PromoIdlePower * p.PromoIdleDur.Seconds()
			promoDur = p.PromoIdleDur
		}
	}

	var dur time.Duration
	var xferJ float64
	if useFACH {
		dur = p.FACHTransferDuration(bytes)
		xferJ = p.TailLowPower * dur.Seconds()
	} else {
		dur = p.TransferDuration(bytes)
		xferJ = p.ActivePower * dur.Seconds()
	}
	end := start.Add(promoDur + dur)

	u.PromoJ += promoJ
	u.TransferJ += xferJ
	u.Bytes += bytes
	u.Transfers++

	r.onTime += promoDur + dur
	r.started = true
	r.lastEnd = end
	r.lastOwner = owner
	r.lastFACH = useFACH
	return end
}

// Flush settles the final tail (charged in full to the last transfer's
// owner). After Flush the radio accepts no more transfers. Flushing an
// unused or already-flushed radio is a no-op.
func (r *Radio) Flush() {
	if r.flushed || !r.started {
		r.flushed = true
		return
	}
	prev := r.ownerUsage(r.lastOwner)
	if r.lastFACH {
		prev.TailJ += r.profile.TailLowPower * r.profile.TailLowDur.Seconds()
		r.tailTime += r.profile.TailLowDur
	} else {
		prev.TailJ += r.profile.FullTailEnergy()
		r.tailTime += r.profile.TailDur()
	}
	r.flushed = true
}

// UsageOf returns the accumulated usage for one owner (zero value if the
// owner never transferred).
func (r *Radio) UsageOf(owner Owner) Usage {
	if u, ok := r.usage[owner]; ok {
		return *u
	}
	return Usage{}
}

// Owners returns all owners seen, sorted for deterministic iteration.
func (r *Radio) Owners() []Owner {
	out := make([]Owner, 0, len(r.usage))
	for o := range r.usage {
		out = append(out, o)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Total returns the usage summed over all owners.
func (r *Radio) Total() Usage {
	var t Usage
	for _, o := range r.Owners() {
		t.Add(*r.usage[o])
	}
	return t
}

// OnTime returns cumulative promotion+active air time.
func (r *Radio) OnTime() time.Duration { return r.onTime }

// TailTime returns cumulative settled tail time.
func (r *Radio) TailTime() time.Duration { return r.tailTime }

func (r *Radio) ownerUsage(o Owner) *Usage {
	u, ok := r.usage[o]
	if !ok {
		u = &Usage{}
		r.usage[o] = u
	}
	return u
}

// String summarizes total energy for debugging.
func (r *Radio) String() string {
	t := r.Total()
	return fmt.Sprintf("radio(%s): %.2f J over %d transfers (%d B)", r.profile.Name, t.TotalJ(), t.Transfers, t.Bytes)
}
