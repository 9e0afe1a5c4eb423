package xrand

import (
	"math"
	"math/rand"
	"reflect"
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

func TestReseedInPlaceEqualsFresh(t *testing.T) {
	var used Source
	used.Seed(99)
	for i := 0; i < 1234; i++ { // leaves tap and feed mid-register
		used.Uint64()
	}
	for _, seed := range edgeSeeds {
		var fresh Source
		fresh.Seed(seed)
		used.Seed(seed)
		if used != fresh {
			t.Fatalf("seed %d: a re-seeded Source differs from a new one", seed)
		}
		used.Uint64()
	}

	// The same through the *rand.Rand a caller holds.
	r := New(5)
	r.Float64()
	r.Seed(6)
	if got, want := r.Uint64(), New(6).Uint64(); got != want {
		t.Fatalf("Rand.Seed: first draw %#x, fresh %#x", got, want)
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

var sinkSource rand.Source

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
