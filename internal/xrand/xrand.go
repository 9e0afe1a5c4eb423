// Package xrand is math/rand's seeded generator with a fast Seed.
//
// rand.NewSource(seed) fills its 607-word additive lagged-Fibonacci state
// from a Lehmer chain, x_n = 48271 * x_(n-1) mod (2^31-1), walked 1841 steps
// with every step waiting for the one before (about 11 us). The chain is
// multiplicative, so x_n = 48271^n * x_0: with the powers tabulated each state
// word is three independent multiplies. Source does that and nothing else
// differently: its stream is rand.NewSource(seed)'s for every int64 seed, it
// can be re-seeded in place, and wrapped in a *rand.Rand every derived draw
// (Float64, Intn, Perm, ...) is the standard library's own code.
//
// The 607 additive constants math/rand mixes into a fresh state are not
// copied here. Package init recovers them from math/rand itself and checks the
// result against it on a second seed, so a toolchain whose generator differs
// panics at start-up and never yields a different stream.
package xrand

import "math/rand"

const (
	rngLen = 607
	rngTap = 273

	lcgMul  = 48271
	lcgMod  = 1<<31 - 1 // the Mersenne prime 2^31-1
	lcgWarm = 20        // chain steps math/rand discards before the first word
)

var (
	// lcgPow[i][k] is 48271^(lcgWarm+3i+k+1) mod (2^31-1): per unit of seed,
	// the three chain values math/rand packs into state word i.
	lcgPow [rngLen][3]uint32
	// cooked[i] is what math/rand XORs into state word i after the chain.
	cooked [rngLen]int64
)

// Source is a rand.Source64 whose stream equals rand.NewSource(seed)'s. The
// zero value is not a seeded generator: call Seed before drawing.
type Source struct {
	tap, feed int
	vec       [rngLen]int64
}

// New returns a *rand.Rand over a new Source seeded with seed; it draws what
// rand.New(rand.NewSource(seed)) draws.
func New(seed int64) *rand.Rand {
	s := new(Source)
	s.Seed(seed)
	return rand.New(s)
}

// mulmod is a*b mod (2^31-1) for a, b below 2^31, by two Mersenne folds. The
// result is in [1, 2^31-2] when neither factor is a multiple of the modulus.
func mulmod(a, b uint64) uint64 {
	p := a * b
	p = p&lcgMod + p>>31
	return p&lcgMod + p>>31
}

// lcgSeed maps a seed onto the chain's start value, as rngSource.Seed does.
func lcgSeed(seed int64) uint64 {
	seed %= lcgMod
	if seed < 0 {
		seed += lcgMod
	}
	if seed == 0 {
		seed = 89482311
	}
	return uint64(seed)
}

// lcgWord is the chain's contribution to state word i for start value x.
func lcgWord(x uint64, i int) int64 {
	p := &lcgPow[i]
	return int64(mulmod(x, uint64(p[0])))<<40 ^
		int64(mulmod(x, uint64(p[1])))<<20 ^
		int64(mulmod(x, uint64(p[2])))
}

// Seed puts the generator in the state rand.NewSource(seed) starts in.
func (s *Source) Seed(seed int64) {
	s.tap = 0
	s.feed = rngLen - rngTap
	x := lcgSeed(seed)
	for i := range s.vec {
		s.vec[i] = lcgWord(x, i) ^ cooked[i]
	}
}

// Uint64 returns a pseudo-random 64-bit value.
func (s *Source) Uint64() uint64 {
	s.tap--
	if s.tap < 0 {
		s.tap += rngLen
	}
	s.feed--
	if s.feed < 0 {
		s.feed += rngLen
	}
	x := s.vec[s.feed] + s.vec[s.tap]
	s.vec[s.feed] = x
	return uint64(x)
}

// Int63 returns a non-negative pseudo-random 63-bit integer.
func (s *Source) Int63() int64 { return int64(s.Uint64() &^ (1 << 63)) }

func init() {
	p := uint64(1)
	for n := 0; n < lcgWarm; n++ {
		p = mulmod(p, lcgMul)
	}
	for i := range lcgPow {
		for k := range lcgPow[i] {
			p = mulmod(p, lcgMul)
			lcgPow[i][k] = uint32(p)
		}
	}

	// Every one of a generator's first 607 outputs is also the word it has
	// just stored at feed, and feed (counting down from 334) visits each
	// index once, so those outputs are the whole state after 607 draws, with
	// tap and feed back where they started. Undoing the 607 additions, last
	// first, gives the state Seed left; XOR out that seed's chain words and
	// what remains is the constant table.
	const seed = 1
	ref := rand.NewSource(seed).(rand.Source64)
	var vec [rngLen]int64
	for k := rngLen - 1; k >= 0; k-- {
		vec[(rngLen-rngTap+k)%rngLen] = int64(ref.Uint64())
	}
	for k := range vec { // the draw stored above at step k read vec[k] as its tap
		vec[(rngLen-rngTap+k)%rngLen] -= vec[k]
	}
	for i := range cooked {
		cooked[i] = vec[i] ^ lcgWord(lcgSeed(seed), i)
	}

	// Self-check on a seed the derivation did not see.
	const check = 0x5eed<<32 | 20201
	ref = rand.NewSource(check).(rand.Source64)
	var s Source
	s.Seed(check)
	for i := 0; i < rngLen; i++ {
		if got, want := s.Uint64(), ref.Uint64(); got != want {
			panic("xrand: math/rand's seeded generator is not the one this package reproduces")
		}
	}
}
