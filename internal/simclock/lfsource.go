package simclock

import "math/rand"

// lfSource is math/rand's additive lagged-Fibonacci source (Mitchell
// and Reeds: x[n] = x[n-607] + x[n-273] mod 2⁶⁴), the generator behind
// rand.NewSource, with the same register, taps, seeding and output:
// for any seed it draws exactly the sequence rand.NewSource(seed)
// draws. What differs is the cost of a seed. The stdlib fills the
// 607-word register from one Lehmer chain (x·48271 mod 2³¹−1) walked
// 1 841 steps in sequence, each step a Schrage division that waits on
// the one before; lfSource jumps six interleaved chains ahead by
// 48271⁶ with a Mersenne fold, so six independent multiplies run side
// by side. Seeding is what deriving a stream costs, and every device
// trace is one derivation.
type lfSource struct {
	tap, feed int
	vec       [lfLen]int64
}

const (
	lfLen   = 607       // register length
	lfTap   = 273       // the second tap's lag
	lfLast  = lfLen - 1 // the odd word out of 303 rounds of two
	lfMask  = 1<<63 - 1 // Int63's mask
	lehmerM = 1<<31 - 1 // the seed chain's modulus, a Mersenne prime
	lehmerA = 48271     // the seed chain's multiplier
	lfSkip  = 21        // chain steps before the first register word
	lfLanes = 6         // interleaved chains: two register words per round
	zeroSub = 89482311  // what the stdlib seeds in place of 0 (mod lehmerM)
)

var (
	// lfCooked is the stdlib's rngCooked table, the register's fixed
	// whitening: each word is XORed into the seed's own bits. It is
	// recovered from math/rand at init rather than copied.
	lfCooked [lfLen]int64

	// lehmerStart[k] is 48271^(lfSkip+k) mod lehmerM: it takes a seed
	// to the k-th of the first lfLanes chain values a register uses.
	lehmerStart [lfLanes]uint64

	// lehmerJump is 48271^lfLanes mod lehmerM: one round's step.
	lehmerJump uint64
)

// mulMod returns a·b mod 2³¹−1 for a, b < 2³¹, folding the 62-bit
// product's high bits onto its low ones (2³¹ ≡ 1).
func mulMod(a, b uint64) uint64 {
	p := a * b
	p = p&lehmerM + p>>31
	if p >= lehmerM {
		p -= lehmerM
	}
	return p
}

func init() {
	pow := uint64(1)
	for k := 0; k < lfSkip+lfLanes; k++ {
		if k == lfLanes {
			lehmerJump = pow
		}
		if k >= lfSkip {
			lehmerStart[k-lfSkip] = pow
		}
		pow = mulMod(pow, lehmerA)
	}
	lfCooked = cookedFromStdlib()
}

// cookedFromStdlib recovers math/rand's rngCooked table. Seeded with
// 1, the stdlib register holds seed 1's own words XOR rngCooked. Its
// first 607 draws each overwrite one word — the feed slot — with the
// draw itself, so after them the register is exactly those draws, and
// each draw can be undone, last first, by subtracting the tap word it
// added. What is left is the seeded register; XORing out the seed's own
// words (a Seed(1) while lfCooked is still zero) leaves the table.
func cookedFromStdlib() [lfLen]int64 {
	src := rand.NewSource(1).(rand.Source64)
	var reg lfSource
	reg.tap, reg.feed = 0, lfLen-lfTap
	for i := 0; i < lfLen; i++ {
		reg.step()
		reg.vec[reg.feed] = int64(src.Uint64())
	}
	for i := 0; i < lfLen; i++ {
		reg.vec[reg.feed] -= reg.vec[reg.tap]
		reg.tap, reg.feed = (reg.tap+1)%lfLen, (reg.feed+1)%lfLen
	}
	var own lfSource
	own.Seed(1)
	var cooked [lfLen]int64
	for i := range cooked {
		cooked[i] = reg.vec[i] ^ own.vec[i]
	}
	return cooked
}

// Seed fills the register as rand.NewSource(seed) does. The stdlib
// walks x ← x·48271 mod 2³¹−1 from the reduced seed, discards 20
// values, and builds word i from values 21+3i, 22+3i and 23+3i (the
// first shifted left 40, the second 20, XORed together and with
// rngCooked[i]). Here lane k of six chains holds value 21+6j+k after j
// rounds, so round j yields words 2j and 2j+1; word 606 is the first
// three lanes one round on.
func (s *lfSource) Seed(seed int64) {
	s.tap = 0
	s.feed = lfLen - lfTap

	seed %= lehmerM
	if seed < 0 {
		seed += lehmerM
	}
	if seed == 0 {
		seed = zeroSub
	}
	x := uint64(seed)
	x0, x1, x2 := mulMod(x, lehmerStart[0]), mulMod(x, lehmerStart[1]), mulMod(x, lehmerStart[2])
	x3, x4, x5 := mulMod(x, lehmerStart[3]), mulMod(x, lehmerStart[4]), mulMod(x, lehmerStart[5])
	for i := 0; i < lfLast; i += 2 {
		s.vec[i] = int64(x0)<<40 ^ int64(x1)<<20 ^ int64(x2) ^ lfCooked[i]
		s.vec[i+1] = int64(x3)<<40 ^ int64(x4)<<20 ^ int64(x5) ^ lfCooked[i+1]
		x0, x1, x2 = mulMod(x0, lehmerJump), mulMod(x1, lehmerJump), mulMod(x2, lehmerJump)
		x3, x4, x5 = mulMod(x3, lehmerJump), mulMod(x4, lehmerJump), mulMod(x5, lehmerJump)
	}
	s.vec[lfLast] = int64(x0)<<40 ^ int64(x1)<<20 ^ int64(x2) ^ lfCooked[lfLast]
}

// step moves both taps back one word, wrapping, as a draw does first.
func (s *lfSource) step() {
	s.tap--
	if s.tap < 0 {
		s.tap += lfLen
	}
	s.feed--
	if s.feed < 0 {
		s.feed += lfLen
	}
}

// Uint64 returns the next 64-bit value, the stdlib source's draw.
func (s *lfSource) Uint64() uint64 {
	s.step()
	x := s.vec[s.feed] + s.vec[s.tap]
	s.vec[s.feed] = x
	return uint64(x)
}

// Int63 returns the next value with its top bit cleared.
func (s *lfSource) Int63() int64 { return int64(s.Uint64() & lfMask) }
