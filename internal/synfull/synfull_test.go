package synfull

import (
	"testing"
	"testing/quick"
)

func TestCatalogComplete(t *testing.T) {
	names := map[string]string{
		"dct":       "AMD SDK",
		"histogram": "AMD SDK",
		"matrixmul": "AMD SDK",
		"reduction": "AMD SDK",
		"spmv":      "OpenDwarfs",
		"bfs":       "Rodinia",
		"hotspot":   "Rodinia",
		"comd":      "HPC proxy",
		"minife":    "HPC proxy",
	}
	cat := Catalog()
	if len(cat) != 9 {
		t.Fatalf("catalog has %d models, want 9 (Table 1)", len(cat))
	}
	for _, m := range cat {
		suite, ok := names[m.Name]
		if !ok {
			t.Errorf("unexpected model %q", m.Name)
			continue
		}
		if m.Suite != suite {
			t.Errorf("%s suite = %q, want %q", m.Name, m.Suite, suite)
		}
		delete(names, m.Name)
	}
	for n := range names {
		t.Errorf("missing Table 1 model %q", n)
	}
}

func TestCatalogIsACopy(t *testing.T) {
	a := Catalog()
	a[0] = nil
	if Catalog()[0] == nil {
		t.Fatal("Catalog exposes internal slice")
	}
}

func TestByName(t *testing.T) {
	m, err := ByName("bfs")
	if err != nil || m.Name != "bfs" {
		t.Fatalf("ByName(bfs) = %v, %v", m, err)
	}
	if _, err := ByName("quake3"); err == nil {
		t.Fatal("ByName accepted unknown model")
	}
}

func TestInjectionGroups(t *testing.T) {
	his, lows := HighInjection(), LowInjection()
	if len(his)+len(lows) != 9 {
		t.Fatalf("groups cover %d models", len(his)+len(lows))
	}
	if len(his) < 4 || len(lows) < 4 {
		t.Fatalf("need >= 4 models per group for Fig. 11 (have %dH %dL)", len(his), len(lows))
	}
	for _, m := range his {
		if !m.HighInjection {
			t.Errorf("%s misclassified as high-injection", m.Name)
		}
	}
	for _, m := range lows {
		if m.HighInjection {
			t.Errorf("%s misclassified as low-injection", m.Name)
		}
	}
}

func TestMix(t *testing.T) {
	for high := 0; high <= 4; high++ {
		ms, err := Mix(4-high, high)
		if err != nil {
			t.Fatalf("Mix(%d,%d): %v", 4-high, high, err)
		}
		if len(ms) != 4 {
			t.Fatalf("Mix returned %d models", len(ms))
		}
		gotHigh := 0
		for _, m := range ms {
			if m.HighInjection {
				gotHigh++
			}
		}
		if gotHigh != high {
			t.Fatalf("Mix(%d,%d) has %d high models", 4-high, high, gotHigh)
		}
	}
	if _, err := Mix(2, 3); err == nil {
		t.Fatal("Mix accepted low+high != 4")
	}
	if _, err := Mix(-1, 5); err == nil {
		t.Fatal("Mix accepted negative count")
	}
}

func TestMixDeterministic(t *testing.T) {
	a, _ := Mix(2, 2)
	b, _ := Mix(2, 2)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("Mix not deterministic")
		}
	}
}

func TestModelValidation(t *testing.T) {
	bad := &Model{
		Name: "bad", Phases: []Phase{{Next: []float64{0.5}}},
		PhaseLen: 10, OpsPerCU: 1, IssueWidth: 1, Window: 1,
	}
	defer func() {
		if recover() == nil {
			t.Fatal("validate accepted transition probabilities summing to 0.5")
		}
	}()
	bad.validate()
}

func TestInstancePhaseMachine(t *testing.T) {
	m, _ := ByName("bfs")
	var in Instance
	in.Reset(m, 99)
	if in.phase != 0 {
		t.Fatal("instance must start in phase 0")
	}
	seen := map[int]bool{0: true}
	for cycle := int64(0); cycle < m.PhaseLen*200; cycle++ {
		in.Tick(cycle)
		p := in.phase
		if p < 0 || p >= len(m.Phases) {
			t.Fatalf("phase index %d out of range", p)
		}
		seen[p] = true
	}
	// bfs has two phases with healthy transition probabilities; over 200
	// phase draws both must occur.
	if !seen[1] {
		t.Fatal("Markov chain never left phase 0 in 200 draws")
	}
}

func TestInstanceDeterministicPerSeed(t *testing.T) {
	m, _ := ByName("spmv")
	var a, b Instance
	a.Reset(m, 5)
	b.Reset(m, 5)
	for cycle := int64(0); cycle < m.PhaseLen*50; cycle++ {
		a.Tick(cycle)
		b.Tick(cycle)
		if a.phase != b.phase {
			t.Fatal("same-seed instances diverged")
		}
	}
}

func TestQuickPhaseProbabilitiesAreDistributions(t *testing.T) {
	// Property over the catalog: every phase's transitions form a
	// distribution and all rates are probabilities.
	f := func(mi, pi uint8) bool {
		m := Catalog()[int(mi)%9]
		p := m.Phases[int(pi)%len(m.Phases)]
		sum := 0.0
		for _, pr := range p.Next {
			if pr < 0 || pr > 1 {
				return false
			}
			sum += pr
		}
		if sum < 0.999 || sum > 1.001 {
			return false
		}
		for _, v := range []float64{p.MemRatio, p.WriteRatio, p.L1Hit, p.L2Hit,
			p.CoherenceRate, p.CPUMemRate, p.LLCHit} {
			if v < 0 || v > 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestModelString(t *testing.T) {
	m, _ := ByName("dct")
	if m.String() == "" {
		t.Fatal("empty model string")
	}
}
