package traffic

import (
	"math/rand"
	"testing"
	"testing/quick"

	"mlnoc/internal/arb"
	"mlnoc/internal/noc"
)

func nodes4x4(t *testing.T) (*noc.Network, []*noc.Node) {
	t.Helper()
	return noc.BuildMeshCores(noc.Config{Width: 4, Height: 4, VCs: 2})
}

func TestUniformRandomNeverSelf(t *testing.T) {
	_, ns := nodes4x4(t)
	rng := rand.New(rand.NewSource(1))
	p := UniformRandom{}
	counts := make([]int, len(ns))
	for i := 0; i < 5000; i++ {
		src := rng.Intn(len(ns))
		d := p.Dest(rng, ns, src)
		if d == src {
			t.Fatal("uniform random chose self")
		}
		counts[d]++
	}
	for i, c := range counts {
		if c == 0 {
			t.Fatalf("destination %d never chosen", i)
		}
	}
}

func TestTranspose(t *testing.T) {
	_, ns := nodes4x4(t)
	rng := rand.New(rand.NewSource(2))
	p := Transpose{}
	// (1,2) -> (2,1): node index 2*4+1=9 -> 1*4+2=6.
	if d := p.Dest(rng, ns, 9); d != 6 {
		t.Fatalf("transpose dest = %d, want 6", d)
	}
	// Diagonal nodes fall back to uniform (never self).
	for i := 0; i < 100; i++ {
		if d := p.Dest(rng, ns, 0); d == 0 {
			t.Fatal("diagonal transpose chose self")
		}
	}
}

func TestBitComplement(t *testing.T) {
	_, ns := nodes4x4(t)
	rng := rand.New(rand.NewSource(3))
	p := BitComplement{}
	if d := p.Dest(rng, ns, 0); d != 15 {
		t.Fatalf("bit-complement dest = %d, want 15", d)
	}
	if d := p.Dest(rng, ns, 5); d != 10 {
		t.Fatalf("bit-complement dest = %d, want 10", d)
	}
}

func TestHotspotConcentration(t *testing.T) {
	_, ns := nodes4x4(t)
	rng := rand.New(rand.NewSource(4))
	p := Hotspot{Spots: []int{7}, Fraction: 0.8}
	hits := 0
	const trials = 5000
	for i := 0; i < trials; i++ {
		if p.Dest(rng, ns, 0) == 7 {
			hits++
		}
	}
	frac := float64(hits) / trials
	if frac < 0.75 || frac > 0.85 {
		t.Fatalf("hotspot fraction %.3f, want ~0.8", frac)
	}
}

func TestTornado(t *testing.T) {
	_, ns := nodes4x4(t)
	rng := rand.New(rand.NewSource(5))
	p := Tornado{Width: 4}
	// (0,0) -> ((0+1)%4, 0) = node 1.
	if d := p.Dest(rng, ns, 0); d != 1 {
		t.Fatalf("tornado dest = %d, want 1", d)
	}
}

func TestInjectorRate(t *testing.T) {
	net, ns := nodes4x4(t)
	net.SetPolicy(arb.NewGlobalAge())
	in := NewInjector(ns, UniformRandom{}, 0.25, rand.New(rand.NewSource(6)))
	in.Classes = 2
	const cycles = 2000
	for i := 0; i < cycles; i++ {
		in.Tick()
		net.Step()
	}
	expect := 0.25 * float64(len(ns)) * cycles
	// Every generated message has either entered the network or is queued.
	got := float64(net.Stats().Injected + int64(net.PendingInjections()))
	if got < 0.9*expect || got > 1.1*expect {
		t.Fatalf("generated %v messages, want ~%v", got, expect)
	}
}

func TestInjectorValidation(t *testing.T) {
	_, ns := nodes4x4(t)
	rng := rand.New(rand.NewSource(7))
	func() {
		defer func() {
			if recover() == nil {
				t.Error("injector accepted rate > 1")
			}
		}()
		NewInjector(ns, UniformRandom{}, 1.5, rng)
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("injector accepted single node")
			}
		}()
		NewInjector(ns[:1], UniformRandom{}, 0.1, rng)
	}()
}

func TestSizeMixSample(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	mix := SizeMix{Short: 1, Long: 5, LongFrac: 0.3}
	longs := 0
	const trials = 10000
	for i := 0; i < trials; i++ {
		switch mix.sample(rng) {
		case 5:
			longs++
		case 1:
		default:
			t.Fatal("unexpected size")
		}
	}
	frac := float64(longs) / trials
	if frac < 0.27 || frac > 0.33 {
		t.Fatalf("long fraction %.3f, want ~0.3", frac)
	}
}

func TestRunPhases(t *testing.T) {
	net, ns := nodes4x4(t)
	net.SetPolicy(arb.NewFIFO())
	in := NewInjector(ns, UniformRandom{}, 0.1, rand.New(rand.NewSource(9)))
	in.Classes = 2
	res := Run(net, in, 500, 1000)
	if res.Delivered == 0 {
		t.Fatal("nothing delivered")
	}
	if res.AvgLatency <= 0 {
		t.Fatalf("avg latency %v", res.AvgLatency)
	}
	if res.MaxLatency < res.AvgLatency {
		t.Fatal("max < avg")
	}
}

// TestQuickPatternsInRange: every pattern returns a valid non-self index for
// arbitrary sources (self allowed only never).
func TestQuickPatternsInRange(t *testing.T) {
	_, ns := nodes4x4(t)
	rng := rand.New(rand.NewSource(10))
	patterns := []Pattern{
		UniformRandom{}, Transpose{}, BitComplement{},
		Hotspot{Spots: []int{3, 9}, Fraction: 0.5}, Tornado{Width: 4},
	}
	f := func(src8 uint8, seed int64) bool {
		src := int(src8) % len(ns)
		r := rand.New(rand.NewSource(seed))
		for _, p := range patterns {
			d := p.Dest(r, ns, src)
			if d < 0 || d >= len(ns) || d == src {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300, Rand: rng}); err != nil {
		t.Fatal(err)
	}
}

func TestPatternNames(t *testing.T) {
	for _, p := range []Pattern{
		UniformRandom{}, Transpose{}, BitComplement{}, Hotspot{}, Tornado{},
	} {
		if p.Name() == "" {
			t.Errorf("%T empty name", p)
		}
	}
}

// hookedPolicy is global-age arbitration with a per-cycle hook, as a learning
// agent has one; it counts the cycles it was called on.
type hookedPolicy struct {
	noc.Policy
	cycles int64
}

func (p *hookedPolicy) OnCycle(*noc.Network) { p.cycles++ }

// TestMeshInstallsOnCycle: a policy's OnCycle hook runs on every cycle of a
// Mesh's network, whether Start steps it or Evaluate runs it, and Start's
// step is one cycle of injection and network.
func TestMeshInstallsOnCycle(t *testing.T) {
	m := Mesh{Config: noc.Config{Width: 3, Height: 3, VCs: 2, BufferCap: 1}, Rate: 0.2, Seed: 3}
	p := &hookedPolicy{Policy: arb.NewGlobalAge()}
	net, step := m.Start(p)
	for i := 0; i < 50; i++ {
		step()
	}
	if net.Cycle() != 50 || p.cycles != 50 || net.Stats().Injected == 0 {
		t.Fatalf("50 steps: cycle %d, hook ran %d times, %d injected",
			net.Cycle(), p.cycles, net.Stats().Injected)
	}
	if ports, vcs := m.StatePorts(); len(ports) != 5 || vcs != 2 {
		t.Fatalf("state ports %v x %d VCs, want the 5 mesh ports x 2", ports, vcs)
	}

	p.cycles = 0
	res := m.Evaluate(p, 100, 200)
	if p.cycles != res.Cycles || res.Delivered == 0 {
		t.Fatalf("hook ran %d times in a %d-cycle evaluation (%d delivered)", p.cycles, res.Cycles, res.Delivered)
	}
}
