package xrand

import (
	"math"
	"math/rand"
	"reflect"
	"strconv"
	"testing"
)

// edgeSeeds are the seeds where rngSource.Seed's reduction changes branch:
// zero (replaced by 89482311), the modulus and its multiples' neighbours
// (which reduce to 0, 1 and modulus-1), and the ends of int64.
var edgeSeeds = []int64{
	0, 1, -1,
	lcgMod, lcgMod - 1, lcgMod + 1, -lcgMod, -lcgMod - 1, -lcgMod + 1,
	2 * lcgMod, 2*lcgMod + 1, 1 << 31, 1 << 32,
	math.MinInt64, math.MinInt64 + 1, math.MaxInt64, math.MaxInt64 - 1,
	89482311, -89482311,
}

func testSeeds() []int64 {
	seeds := append([]int64(nil), edgeSeeds...)
	pick := rand.New(rand.NewSource(20201))
	for i := 0; i < 2000; i++ {
		seeds = append(seeds, int64(pick.Uint64()))
	}
	return seeds
}

func TestMatchesMathRand(t *testing.T) {
	var s Source
	for _, seed := range testSeeds() {
		ref := rand.NewSource(seed).(rand.Source64)
		s.Seed(seed)
		for i := 0; i < 2000; i++ {
			if got, want := s.Uint64(), ref.Uint64(); got != want {
				t.Fatalf("seed %d draw %d: Uint64 %#x, math/rand %#x", seed, i, got, want)
			}
		}
		if got, want := s.Int63(), ref.Int63(); got != want {
			t.Fatalf("seed %d: Int63 %#x, math/rand %#x", seed, got, want)
		}

		// The derived draws are math/rand's own code on both sides; this
		// holds New to handing it the Source64 fast path too.
		a, b := New(seed), rand.New(rand.NewSource(seed))
		for i := 0; i < 50; i++ {
			if x, y := a.Float64(), b.Float64(); x != y {
				t.Fatalf("seed %d: Float64 %v, math/rand %v", seed, x, y)
			}
			if x, y := a.Intn(7), b.Intn(7); x != y {
				t.Fatalf("seed %d: Intn(7) %d, math/rand %d", seed, x, y)
			}
			if x, y := a.Int63n(1<<40+1), b.Int63n(1<<40+1); x != y {
				t.Fatalf("seed %d: Int63n %d, math/rand %d", seed, x, y)
			}
			if x, y := a.Uint64(), b.Uint64(); x != y {
				t.Fatalf("seed %d: Rand.Uint64 %#x, math/rand %#x", seed, x, y)
			}
		}
		if x, y := a.Perm(9), b.Perm(9); !reflect.DeepEqual(x, y) {
			t.Fatalf("seed %d: Perm(9) %v, math/rand %v", seed, x, y)
		}
	}
}

// TestReseedInPlaceEqualsFresh re-seeds a Source that has drawn nothing, one
// part way into its lazy draws and one whose register holds the state, and
// holds each to a new Source's stream for two register lengths.
func TestReseedInPlaceEqualsFresh(t *testing.T) {
	for _, taken := range []int{0, 100, 1234} {
		for _, seed := range edgeSeeds {
			var used, fresh Source
			used.Seed(99)
			for i := 0; i < taken; i++ {
				used.Uint64()
			}
			used.Seed(seed)
			fresh.Seed(seed)
			for i := 0; i < 2*rngLen; i++ {
				if got, want := used.Uint64(), fresh.Uint64(); got != want {
					t.Fatalf("%d draws taken, re-seeded %d: draw %d %#x, fresh %#x", taken, seed, i, got, want)
				}
			}
		}
	}

	// The same through the *rand.Rand a caller holds.
	r := New(5)
	r.Float64()
	r.Seed(6)
	if got, want := r.Uint64(), New(6).Uint64(); got != want {
		t.Fatalf("Rand.Seed: first draw %#x, fresh %#x", got, want)
	}
}

// TestLazySourceAllocations: a stream that stops within its first rngTap
// draws never allocates a register, and a Source re-seeded after one was
// allocated reuses it.
func TestLazySourceAllocations(t *testing.T) {
	var s Source
	seed := int64(0)
	if a := testing.AllocsPerRun(20, func() {
		seed++
		s.Seed(seed)
		for i := 0; i < rngTap; i++ {
			s.Uint64()
		}
	}); a != 0 {
		t.Errorf("Seed and %d draws: %v allocations, want 0", rngTap, a)
	}
	if s.reg != nil {
		t.Errorf("Seed and %d draws allocated the register", rngTap)
	}

	s.Seed(1)
	for i := 0; i < 2000; i++ {
		s.Uint64()
	}
	if a := testing.AllocsPerRun(20, func() {
		seed++
		s.Seed(seed)
		for i := 0; i < 2000; i++ {
			s.Uint64()
		}
	}); a != 0 {
		t.Errorf("re-seeded Source, 2000 draws: %v allocations, want 0", a)
	}
}

func FuzzSourceMatchesMathRand(f *testing.F) {
	for _, seed := range edgeSeeds {
		f.Add(seed, uint16(0))
	}
	f.Fuzz(func(t *testing.T, seed int64, skip uint16) {
		ref := rand.NewSource(seed).(rand.Source64)
		var s Source
		s.Seed(seed)
		for i := 0; i < int(skip); i++ {
			s.Uint64()
			ref.Uint64()
		}
		for i := 0; i < rngLen; i++ {
			if got, want := s.Uint64(), ref.Uint64(); got != want {
				t.Fatalf("seed %d draw %d: %#x, math/rand %#x", seed, int(skip)+i, got, want)
			}
		}
	})
}

var (
	sinkSource rand.Source
	sinkDraw   uint64
)

// BenchmarkDraw is one steady-state draw from a Source whose register holds
// the state, on its own and through the *rand.Rand every caller draws with.
func BenchmarkDraw(b *testing.B) {
	b.Run("Uint64", func(b *testing.B) {
		var s Source
		s.Seed(17)
		for i := 0; i < rngLen; i++ {
			s.Uint64()
		}
		var x uint64
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			x += s.Uint64()
		}
		sinkDraw = x
	})
	b.Run("rand_Int63", func(b *testing.B) {
		r := New(17)
		for i := 0; i < rngLen; i++ {
			r.Int63()
		}
		var x uint64
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			x += uint64(r.Int63())
		}
		sinkDraw = x
	})
}

// BenchmarkSeedAndDraw re-seeds one Source and takes n draws through the
// *rand.Rand over it, as an APU system re-seeds its streams: 66 and 132 are
// what a CU draws from its cycle and op streams in an apu_infer episode (lazy
// draws only), 2000 a stream long enough to fill the register.
func BenchmarkSeedAndDraw(b *testing.B) {
	for _, n := range []int{66, 132, 2000} {
		b.Run(strconv.Itoa(n), func(b *testing.B) {
			r := New(0)
			var x uint64
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				r.Seed(int64(i))
				for j := 0; j < n; j++ {
					x += uint64(r.Int63())
				}
			}
			sinkDraw = x
		})
	}
}

// BenchmarkNewAndDraw takes n draws from a new *rand.Rand over a new Source,
// as a freshly built APU system does: at 2000 draws this is the one-time
// price of a long stream, 273 lazy draws and then a register filled.
func BenchmarkNewAndDraw(b *testing.B) {
	for _, n := range []int{132, 2000} {
		b.Run(strconv.Itoa(n), func(b *testing.B) {
			var x uint64
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				r := New(int64(i))
				for j := 0; j < n; j++ {
					x += uint64(r.Int63())
				}
			}
			sinkDraw = x
		})
	}
}

func BenchmarkSeed(b *testing.B) {
	b.Run("xrand", func(b *testing.B) {
		var s Source
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			s.Seed(int64(i))
		}
		sinkSource = &s
	})
	b.Run("xrand_new", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			s := new(Source)
			s.Seed(int64(i))
			sinkSource = s
		}
	})
	b.Run("mathrand_NewSource", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			sinkSource = rand.NewSource(int64(i))
		}
	})
}
