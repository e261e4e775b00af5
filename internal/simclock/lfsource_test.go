package simclock

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"math/rand"
	"testing"
)

// lfTestSeeds is every seed the stdlib-equality test runs: the
// reduction's edges (0 and the multiples of 2³¹−1 it maps to 89482311,
// ±1, ±(2³¹−1), ±2³¹, the int64 extremes) and 400 more from a fixed
// splitmix64 walk over the whole int64 range.
func lfTestSeeds() []int64 {
	seeds := []int64{
		0, 1, -1, 2, lehmerM, -lehmerM, lehmerM - 1, lehmerM + 1, 2 * lehmerM,
		1 << 31, -1 << 31, zeroSub, -zeroSub, math.MinInt64, math.MaxInt64,
		math.MinInt64 + 1, math.MaxInt64 - 1,
	}
	mix := splitmix64{state: 20240607}
	for i := 0; i < 400; i++ {
		seeds = append(seeds, int64(mix.Uint64()))
	}
	return seeds
}

// TestLFSourceMatchesStdlib is the contract NewRand rests on: for every
// seed, lfSource draws exactly what rand.NewSource draws, raw and
// through every rand.Rand method the simulator uses — Float64,
// NormFloat64, ExpFloat64, Intn (both the 31- and 63-bit paths) and
// Perm — for 3 000 rounds, so the 607-word register wraps several
// times. Any wrong register word, cooked constant or chain value shows
// by the first wrap. One source serves every seed, re-seeded in place
// after its last seed's draws, as the trace generator's pooled stream
// is.
func TestLFSourceMatchesStdlib(t *testing.T) {
	var src lfSource
	got := rand.New(&src)
	for _, seed := range lfTestSeeds() {
		want := rand.New(rand.NewSource(seed))
		got.Seed(seed)
		for i := 0; i < 3000; i++ {
			var g, w any
			switch i % 8 {
			case 0:
				g, w = got.Uint64(), want.Uint64()
			case 1:
				g, w = got.Int63(), want.Int63()
			case 2:
				g, w = got.Float64(), want.Float64()
			case 3:
				g, w = got.NormFloat64(), want.NormFloat64()
			case 4:
				g, w = got.ExpFloat64(), want.ExpFloat64()
			case 5:
				n := 1 + i%1000
				g, w = got.Intn(n), want.Intn(n)
			case 6:
				n := 1<<40 + i
				g, w = got.Intn(n), want.Intn(n)
			case 7:
				if i%64 == 7 {
					gp, wp := got.Perm(i%50), want.Perm(i%50)
					for k := range wp {
						if gp[k] != wp[k] {
							t.Fatalf("seed %d round %d: Perm(%d)[%d] = %d, stdlib %d", seed, i, i%50, k, gp[k], wp[k])
						}
					}
					continue
				}
				g, w = got.Int31(), want.Int31()
			}
			if g != w {
				t.Fatalf("seed %d round %d: got %v, stdlib %v", seed, i, g, w)
			}
		}
	}
}

// NewRand and its derived streams keep the stdlib's sequence, and a
// stream re-seeded with StreamNInto draws what a fresh StreamN draws.
func TestNewRandStreamsMatchStdlib(t *testing.T) {
	root := NewRand(42).Stream("tracegen")
	reused := root.StreamN("user", 0)
	for _, n := range []int{0, 1, 7, 5999, 1 << 40} {
		fresh := root.StreamN("user", n)
		root.StreamNInto(reused, "user", n)
		want := rand.New(rand.NewSource(fresh.Seed()))
		if reused.Seed() != fresh.Seed() {
			t.Fatalf("StreamNInto(%d) seed %d, StreamN seed %d", n, reused.Seed(), fresh.Seed())
		}
		for i := 0; i < 1000; i++ {
			w := want.Int63()
			if a, b := fresh.Int63(), reused.Int63(); a != w || b != w {
				t.Fatalf("user %d draw %d: StreamN %d, StreamNInto %d, stdlib %d", n, i, a, b, w)
			}
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("StreamNInto re-seeded a light stream from a heavy parent")
		}
	}()
	root.StreamNInto(NewLightRand(1), "user", 0)
}

// The derivation's inline hash is hash/fnv's New64a over the same
// bytes: the parent seed and n little-endian, then the name.
func TestDeriveHashIsFNV1a(t *testing.T) {
	for _, seed := range []int64{0, 1, -1, math.MinInt64, 42} {
		for _, name := range []string{"", "user", "tracegen", "jitter/ü"} {
			for _, n := range []int{0, 3, -5, 1 << 40} {
				h := fnv.New64a()
				h.Write(binary.LittleEndian.AppendUint64(nil, uint64(seed)))
				h.Write([]byte(name))
				if got := NewRand(seed).Stream(name).Seed(); got != int64(h.Sum64()) {
					t.Fatalf("Stream(%q) of %d: seed %d, fnv %d", name, seed, got, int64(h.Sum64()))
				}
				h.Reset()
				h.Write(binary.LittleEndian.AppendUint64(nil, uint64(seed)))
				h.Write(binary.LittleEndian.AppendUint64(nil, uint64(n)))
				h.Write([]byte(name))
				if got := NewRand(seed).StreamN(name, n).Seed(); got != int64(h.Sum64()) {
					t.Fatalf("StreamN(%q, %d) of %d: seed %d, fnv %d", name, n, seed, got, int64(h.Sum64()))
				}
			}
		}
	}
}

// BenchmarkNewRand is one heavy stream derivation, as every device
// trace and per-user stream costs: the FNV hash, a register seeded,
// the wrappers allocated.
func BenchmarkNewRand(b *testing.B) {
	root := NewRand(1).Stream("tracegen")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		root.StreamN("user", i)
	}
}

// BenchmarkSeed is one register seeded in place, by this package's
// source and by math/rand's (a fresh one per op: the stdlib offers no
// other way to re-seed its source alone).
func BenchmarkSeed(b *testing.B) {
	b.Run("simclock", func(b *testing.B) {
		var src lfSource
		for i := 0; i < b.N; i++ {
			src.Seed(int64(i))
		}
	})
	b.Run("math-rand", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			benchSource = rand.NewSource(int64(i))
		}
	})
}

var benchSource rand.Source
