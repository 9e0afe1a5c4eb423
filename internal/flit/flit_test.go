package flit

import (
	"math/rand"
	"testing"
	"testing/quick"

	"mlnoc/internal/arb"
	"mlnoc/internal/noc"
)

func TestSinglePacketTiming(t *testing.T) {
	// One 5-flit packet across 3 hops on an empty 4x1 line: head needs
	// 1 cycle per stage per hop, tail follows 4 cycles behind.
	e := New(Config{Width: 4, Height: 1, VCs: 1}, arb.NewFIFO())
	e.Inject(0, 3, 0, 5)
	if !e.Drain(200) {
		t.Fatal("did not drain")
	}
	st := e.Stats()
	if st.Delivered != 1 {
		t.Fatalf("delivered %d", st.Delivered)
	}
	// Lower bound: serialization (5 flits) + path traversal (3 links).
	lat := st.Latency.Mean()
	if lat < 8 || lat > 40 {
		t.Fatalf("latency %v outside plausible single-packet range", lat)
	}
	if st.FlitsMoved < 5*4 { // 5 flits times (3 links + ejection)
		t.Fatalf("flits moved %d", st.FlitsMoved)
	}
}

func TestKindPredicates(t *testing.T) {
	if !Head.IsHead() || !HeadTail.IsHead() || Body.IsHead() || Tail.IsHead() {
		t.Fatal("IsHead wrong")
	}
	if !Tail.IsTail() || !HeadTail.IsTail() || Head.IsTail() || Body.IsTail() {
		t.Fatal("IsTail wrong")
	}
}

func TestConservationUnderLoad(t *testing.T) {
	e := New(Config{Width: 4, Height: 4, VCs: 2}, arb.NewFIFO())
	rng := rand.New(rand.NewSource(3))
	n := 0
	for i := 0; i < 1500; i++ {
		if rng.Float64() < 0.4 {
			src := rng.Intn(16)
			dst := rng.Intn(16)
			if dst == src {
				dst = (dst + 1) % 16
			}
			size := 1
			if rng.Intn(3) == 0 {
				size = 5
			}
			e.Inject(src, dst, noc.Class(rng.Intn(2)), size)
			n++
		}
		e.Step()
	}
	if !e.Drain(200000) {
		t.Fatal("network did not drain")
	}
	if e.Stats().Delivered != int64(n) {
		t.Fatalf("delivered %d of %d packets", e.Stats().Delivered, n)
	}
}

// TestWormholeSpanning: with 4-flit buffers, a 5-flit packet cannot fit in
// one buffer, so delivery requires flits in multiple routers simultaneously;
// the engine's internal ordering assertions (panic on out-of-order or
// incomplete ejection) double as the correctness check.
func TestWormholeSpanning(t *testing.T) {
	e := New(Config{Width: 6, Height: 1, VCs: 1, BufFlits: 2}, arb.NewFIFO())
	for i := 0; i < 10; i++ {
		e.Inject(0, 5, 0, 5)
	}
	if !e.Drain(5000) {
		t.Fatal("did not drain")
	}
	if e.Stats().Delivered != 10 {
		t.Fatalf("delivered %d of 10", e.Stats().Delivered)
	}
}

// TestNoVCInterleaving: two same-class packets converging on one link must
// not interleave flits; the per-packet ejection counter panics if they do.
func TestNoVCInterleaving(t *testing.T) {
	e := New(Config{Width: 3, Height: 3, VCs: 1}, arb.NewRoundRobin())
	// Both packets target node 5 (row 1, col 2) through router (1,1).
	e.Inject(3, 5, 0, 5) // west neighbor of center
	e.Inject(1, 5, 0, 5) // north neighbor of center
	if !e.Drain(1000) {
		t.Fatal("did not drain")
	}
	if e.Stats().Delivered != 2 {
		t.Fatalf("delivered %d of 2", e.Stats().Delivered)
	}
}

func TestQuickFlitConservation(t *testing.T) {
	f := func(seed int64, n8 uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		e := New(Config{Width: 3, Height: 3, VCs: 2, BufFlits: 3}, arb.NewGlobalAge())
		n := int(n8)%60 + 1
		for i := 0; i < n; i++ {
			src := rng.Intn(9)
			dst := rng.Intn(9)
			if dst == src {
				dst = (dst + 1) % 9
			}
			e.Inject(src, dst, noc.Class(rng.Intn(2)), 1+rng.Intn(5))
			e.Step()
		}
		return e.Drain(100000) && e.Stats().Delivered == int64(n)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestInjectValidation(t *testing.T) {
	e := New(Config{Width: 2, Height: 2, VCs: 1}, arb.NewFIFO())
	for _, f := range []func(){
		func() { e.Inject(0, 1, 0, 0) }, // zero flits
		func() { e.Inject(0, 1, 5, 1) }, // class out of range
		func() { e.Inject(1, 1, 0, 1) }, // self send
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			f()
		}()
	}
}

func TestEngineValidation(t *testing.T) {
	func() {
		defer func() {
			if recover() == nil {
				t.Error("nil policy accepted")
			}
		}()
		New(Config{Width: 2, Height: 2}, nil)
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("zero-size mesh accepted")
			}
		}()
		New(Config{}, arb.NewFIFO())
	}()
}
