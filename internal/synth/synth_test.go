package synth

import (
	"math"
	"testing"
	"testing/quick"
)

func TestTable3Shape(t *testing.T) {
	reports := Table3(algorithm2)
	if len(reports) != 3 {
		t.Fatalf("Table3 rows = %d, want 3", len(reports))
	}
	nn, rr, prop := reports[0], reports[1], reports[2]

	// The paper's Table 3 relationships:
	// NN cannot make a 1 GHz cycle; the arbiters can.
	if nn.LatencyNS < 5 {
		t.Fatalf("NN latency %.2f ns implausibly fast", nn.LatencyNS)
	}
	if rr.LatencyNS > 1.0 || prop.LatencyNS > 1.5 {
		t.Fatalf("arbiter latencies rr=%.2f prop=%.2f exceed a router cycle", rr.LatencyNS, prop.LatencyNS)
	}
	// NN orders of magnitude larger and hungrier than the proposed arbiter.
	if nn.AreaMM2/prop.AreaMM2 < 50 {
		t.Fatalf("NN/proposed area ratio %.1f, want > 50x", nn.AreaMM2/prop.AreaMM2)
	}
	if nn.PowerMW/prop.PowerMW < 50 {
		t.Fatalf("NN/proposed power ratio %.1f, want > 50x", nn.PowerMW/prop.PowerMW)
	}
	// The proposed arbiter costs only a small factor over round-robin.
	if ratio := prop.AreaMM2 / rr.AreaMM2; ratio < 1.5 || ratio > 10 {
		t.Fatalf("proposed/rr area ratio %.1f, want a small factor", ratio)
	}
}

func TestTable3Magnitudes(t *testing.T) {
	// The model should land in the same decade as the paper's numbers
	// (NN 8.17ns / 1.2344mm2 / 63.67mW; RR 0.89/0.0012/0.07;
	// proposed 1.10/0.0044/0.27).
	reports := Table3(algorithm2)
	within := func(got, want, factor float64) bool {
		return got > want/factor && got < want*factor
	}
	paper := []struct {
		lat, area, power float64
	}{
		{8.17, 1.2344, 63.67},
		{0.89, 0.0012, 0.07},
		{1.10, 0.0044, 0.27},
	}
	for i, rep := range reports {
		if !within(rep.LatencyNS, paper[i].lat, 2) {
			t.Errorf("%s latency %.2f vs paper %.2f (>2x off)", rep.Name, rep.LatencyNS, paper[i].lat)
		}
		if !within(rep.AreaMM2, paper[i].area, 2) {
			t.Errorf("%s area %.4f vs paper %.4f (>2x off)", rep.Name, rep.AreaMM2, paper[i].area)
		}
		if !within(rep.PowerMW, paper[i].power, 2) {
			t.Errorf("%s power %.2f vs paper %.2f (>2x off)", rep.Name, rep.PowerMW, paper[i].power)
		}
	}
}

func TestCircuitAccounting(t *testing.T) {
	c := &Circuit{
		Name: "test",
		Comps: []Component{
			{Name: "a", Gates: 10, Depth: 3, Count: 4, Serial: true},
			{Name: "b", Gates: 5, Depth: 7, Count: 2, Serial: true, Passes: 3},
			{Name: "c", Gates: 100, Depth: 9, Count: 1}, // parallel: no delay
			{Name: "m", SRAMBits: 64},
		},
	}
	if got := c.Gates(); got != 10*4+5*2+100 {
		t.Fatalf("Gates = %d", got)
	}
	if got := c.SRAMBits(); got != 64 {
		t.Fatalf("SRAMBits = %d", got)
	}
	lib := GateLib{AreaUM2: 1, DelayNS: 0.1, PowerMW: 0.001, SRAMBitUM2: 0.5}
	wantDelay := (3 + 7*3) * 0.1
	if got := c.LatencyNS(lib); math.Abs(got-wantDelay) > 1e-9 {
		t.Fatalf("LatencyNS = %v, want %v", got, wantDelay)
	}
	wantArea := (float64(c.Gates()) + 0.5*64) / 1e6
	if got := c.AreaMM2(lib); got != wantArea {
		t.Fatalf("AreaMM2 = %v, want %v", got, wantArea)
	}
	if got := c.PowerMW(lib); got != float64(c.Gates())*0.001 {
		t.Fatalf("PowerMW = %v", got)
	}
}

func TestNNEnginePasses(t *testing.T) {
	// 504*42 + 42*42 = 22932 MACs on 2048 units: ceil(21168/2048)=11 plus
	// ceil(1764/2048)=1 -> 12 passes.
	c := NNEngine([]int{504, 42, 42}, 2048)
	for _, comp := range c.Comps {
		if comp.Name == "mac-array" {
			if comp.Passes != 12 {
				t.Fatalf("mac-array passes = %d, want 12", comp.Passes)
			}
			return
		}
	}
	t.Fatal("mac-array component missing")
}

func TestQuickScalingMonotonic(t *testing.T) {
	lib := Lib32nm
	// More requesters => more gates and no less delay, for both arbiters.
	f := func(p8, v8 uint8) bool {
		ports := int(p8)%5 + 2
		vcs := int(v8)%7 + 1
		smallRR := RoundRobinArbiter(ports, vcs)
		bigRR := RoundRobinArbiter(ports+1, vcs+1)
		smallP := ProposedArbiter(algorithm2, ports, vcs)
		bigP := ProposedArbiter(algorithm2, ports+1, vcs+1)
		return bigRR.Gates() > smallRR.Gates() &&
			bigP.Gates() > smallP.Gates() &&
			bigRR.LatencyNS(lib) >= smallRR.LatencyNS(lib) &&
			bigP.LatencyNS(lib) >= smallP.LatencyNS(lib)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestEvaluateAndString(t *testing.T) {
	rep := Evaluate(ProposedArbiter(algorithm2, 6, 7), Lib32nm)
	if rep.Name != "proposed" || rep.Gates == 0 || rep.String() == "" {
		t.Fatalf("bad report: %+v", rep)
	}
}

func TestLog2Ceil(t *testing.T) {
	cases := map[int]int{1: 0, 2: 1, 3: 2, 4: 2, 5: 3, 42: 6, 64: 6}
	for n, want := range cases {
		if got := log2ceil(n); got != want {
			t.Errorf("log2ceil(%d) = %d, want %d", n, got, want)
		}
	}
}
