// Package xrand is math/rand's seeded generator with an O(1) Seed.
//
// rand.NewSource(seed) fills its 607-word additive lagged-Fibonacci register
// from a Lehmer chain, x_n = 48271 * x_(n-1) mod (2^31-1), walked 1841 steps
// with every step waiting for the one before (about 11 us). The chain is
// multiplicative, so x_n = 48271^n * x_0: with the powers tabulated, any state
// word is three independent multiplies of the start value.
//
// Source uses that to put the register off until a draw needs it. Draw k
// (counting from 1) adds state words 334-k and 607-k and stores the sum at
// 334-k, so the first 273 draws read only words that no earlier draw has
// written: Source computes each of them straight from the seed, and Seed only
// records the chain's start. Draw 274 is the first to read a stored sum. It
// allocates the register (once per Source; Seed keeps it) and fills it as
// math/rand's state after 273 draws; from then on Source runs math/rand's
// recurrence. A stream drawn fewer than 274 times never allocates or fills a
// register. After a re-seed, the early draws store the words they compute in
// the kept register, so filling it costs 61 more words, not 607. Either way
// the stream is rand.NewSource(seed)'s for every int64 seed, and wrapped in a
// *rand.Rand every derived draw (Float64, Intn, Perm, ...) is the standard
// library's own code.
//
// The 607 additive constants math/rand mixes into a fresh state are not
// copied here. Package init recovers them from math/rand itself and checks the
// result against it on a second seed, so a toolchain whose generator differs
// panics at start-up and never yields a different stream.
package xrand

import "math/rand"

const (
	rngLen  = 607
	rngTap  = 273
	rngMask = 1<<63 - 1

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
//
// A Source must not be copied: once it has a register, a copy shares it with
// the original. go vet's copylocks check reports copies.
type Source struct {
	_ noCopy

	// vec is reg once it holds the state, nil from Seed until draw rngTap+1
	// fills it.
	vec       *[rngLen]int64
	tap, feed int

	reg   *[rngLen]int64 // the register, allocated by the first fill and kept
	x     uint64         // the chain's start value for the current seed
	drawn int            // draws since Seed while vec is nil
}

// noCopy has the Lock method go vet's copylocks check looks for.
type noCopy struct{}

func (*noCopy) Lock()   {}
func (*noCopy) Unlock() {}

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

// Seed puts the generator in the state rand.NewSource(seed) starts in. It
// keeps the register of an earlier seed for the first draw that needs one.
func (s *Source) Seed(seed int64) {
	s.x = lcgSeed(seed)
	s.vec, s.drawn = nil, 0
}

// Uint64 returns a pseudo-random 64-bit value.
func (s *Source) Uint64() uint64 {
	vec := s.vec
	if vec == nil {
		return uint64(s.early())
	}
	return uint64(s.step(vec))
}

// Int63 returns a non-negative pseudo-random 63-bit integer.
func (s *Source) Int63() int64 {
	vec := s.vec
	if vec == nil {
		return s.early() & rngMask
	}
	return s.step(vec) & rngMask
}

// step is math/rand's recurrence on the register.
func (s *Source) step(vec *[rngLen]int64) int64 {
	tap, feed := s.tap-1, s.feed-1
	if tap < 0 {
		tap += rngLen
	}
	if feed < 0 {
		feed += rngLen
	}
	s.tap, s.feed = tap, feed
	x := vec[feed] + vec[tap]
	vec[feed] = x
	return x
}

// early is the next draw of a Source whose register does not hold the state.
// A register kept from an earlier seed records the two words each draw
// computes, which are what fill would otherwise compute again.
func (s *Source) early() int64 {
	if s.drawn == rngTap {
		return s.step(s.fill())
	}
	s.drawn++
	feed, tap := rngLen-rngTap-s.drawn, rngLen-s.drawn
	w := s.word(tap)
	x := s.word(feed) + w
	if reg := s.reg; reg != nil {
		reg[feed], reg[tap] = x, w
	}
	return x
}

// word is state word i as rand.NewSource leaves it.
func (s *Source) word(i int) int64 { return lcgWord(s.x, i) ^ cooked[i] }

// fill puts the register in the state math/rand's holds after rngTap draws:
// each of those draws k stored its output, word 334-k plus the still
// unwritten word 607-k, at 334-k. A kept register already holds words 61 to
// 606 (early stored them); words 0 to 60 no early draw reads. fill returns
// the register.
func (s *Source) fill() *[rngLen]int64 {
	vec := s.reg
	if vec == nil {
		vec = new([rngLen]int64)
		s.reg = vec
		for i := rngLen - 2*rngTap; i < rngLen; i++ {
			vec[i] = s.word(i)
		}
		for k := 1; k <= rngTap; k++ {
			vec[rngLen-rngTap-k] += vec[rngLen-k]
		}
	}
	for i := 0; i < rngLen-2*rngTap; i++ {
		vec[i] = s.word(i)
	}
	s.vec = vec
	s.tap, s.feed = rngLen-rngTap, rngLen-2*rngTap
	return vec
}

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
