package main

import (
	"encoding/json"
	"math/rand"
	"os"
	"reflect"
	"runtime"
	"testing"

	"mlnoc/internal/apu"
	"mlnoc/internal/arb"
	"mlnoc/internal/core"
	"mlnoc/internal/fault"
	"mlnoc/internal/noc"
	"mlnoc/internal/traffic"
)

// manifest mirrors BENCHMARK.json.
type manifest struct {
	Command    []string           `json:"command"`
	Paths      []string           `json:"paths"`
	RunSeconds int                `json:"run_seconds"`
	Workloads  []manifestWorkload `json:"workloads"`
	EndToEnd   []manifestMetric   `json:"end_to_end"`
	PerLayer   []manifestMetric   `json:"per_layer"`
}

type manifestWorkload struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type manifestMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

// TestManifestMatchesTables keeps BENCHMARK.json and the tables in this
// package saying the same thing; on a mismatch it logs the expected file.
func TestManifestMatchesTables(t *testing.T) {
	want := manifest{
		Command:    []string{"bash", "benchmark/run.sh"},
		Paths:      []string{"benchmark"},
		RunSeconds: defaultSeconds,
	}
	for _, w := range workloads {
		want.Workloads = append(want.Workloads, manifestWorkload{w.Name, w.Why})
	}
	for _, d := range endToEnd {
		bound := d.Bound
		want.EndToEnd = append(want.EndToEnd, manifestMetric{d.Name, d.Unit, d.Better, &bound})
	}
	for _, d := range perLayer {
		want.PerLayer = append(want.PerLayer, manifestMetric{d.Name, d.Unit, d.Better, nil})
	}
	data, err := os.ReadFile("../BENCHMARK.json")
	var got manifest
	if err == nil {
		err = json.Unmarshal(data, &got)
	}
	if err != nil || !reflect.DeepEqual(got, want) {
		out, _ := json.MarshalIndent(want, "", "  ")
		t.Fatalf("BENCHMARK.json (%v) does not match the tables; expected:\n%s", err, out)
	}
	for _, name := range simulated {
		found := false
		for _, d := range perLayer {
			found = found || d.Name == name
		}
		if !found {
			t.Errorf("simulated metric %q is not a per-layer metric", name)
		}
	}
}

// fakePolicy implements only noc.Policy; the types below add the optional
// interfaces one at a time.
type fakePolicy struct{ selects, matches, grants, cycles int }

func (p *fakePolicy) Name() string { return "fake" }
func (p *fakePolicy) Select(*noc.ArbContext, []noc.Candidate) int {
	p.selects++
	return 0
}
func (p *fakePolicy) match(reqs []noc.Request) []int { p.matches++; return make([]int, len(reqs)) }
func (p *fakePolicy) grant()                         { p.grants++ }
func (p *fakePolicy) cycle()                         { p.cycles++ }

type (
	polM   struct{ *fakePolicy }
	polG   struct{ *fakePolicy }
	polC   struct{ *fakePolicy }
	polMG  struct{ *fakePolicy }
	polMC  struct{ *fakePolicy }
	polGC  struct{ *fakePolicy }
	polMGC struct{ *fakePolicy }
)

func (p polM) Match(_ *noc.MatchContext, r []noc.Request) []int     { return p.match(r) }
func (p polMG) Match(_ *noc.MatchContext, r []noc.Request) []int    { return p.match(r) }
func (p polMC) Match(_ *noc.MatchContext, r []noc.Request) []int    { return p.match(r) }
func (p polMGC) Match(_ *noc.MatchContext, r []noc.Request) []int   { return p.match(r) }
func (p polG) ObserveGrant(*noc.ArbContext, []noc.Candidate, int)   { p.grant() }
func (p polMG) ObserveGrant(*noc.ArbContext, []noc.Candidate, int)  { p.grant() }
func (p polGC) ObserveGrant(*noc.ArbContext, []noc.Candidate, int)  { p.grant() }
func (p polMGC) ObserveGrant(*noc.ArbContext, []noc.Candidate, int) { p.grant() }
func (p polC) OnCycle(*noc.Network)                                 { p.cycle() }
func (p polMC) OnCycle(*noc.Network)                                { p.cycle() }
func (p polGC) OnCycle(*noc.Network)                                { p.cycle() }
func (p polMGC) OnCycle(*noc.Network)                               { p.cycle() }

// TestWrapPolicyForwardsOptionalInterfaces: the decorator has exactly the
// optional methods of the policy it wraps, and each one reaches the policy.
func TestWrapPolicyForwardsOptionalInterfaces(t *testing.T) {
	cases := []struct {
		name    string
		make    func(*fakePolicy) noc.Policy
		m, g, c bool
	}{
		{"plain", func(f *fakePolicy) noc.Policy { return f }, false, false, false},
		{"M", func(f *fakePolicy) noc.Policy { return polM{f} }, true, false, false},
		{"G", func(f *fakePolicy) noc.Policy { return polG{f} }, false, true, false},
		{"C", func(f *fakePolicy) noc.Policy { return polC{f} }, false, false, true},
		{"MG", func(f *fakePolicy) noc.Policy { return polMG{f} }, true, true, false},
		{"MC", func(f *fakePolicy) noc.Policy { return polMC{f} }, true, false, true},
		{"GC", func(f *fakePolicy) noc.Policy { return polGC{f} }, false, true, true},
		{"MGC", func(f *fakePolicy) noc.Policy { return polMGC{f} }, true, true, true},
	}
	for _, tc := range cases {
		f := &fakePolicy{}
		wrapped, timers := wrapPolicy(tc.make(f))
		if wrapped.Name() != "fake" {
			t.Errorf("%s: Name not forwarded", tc.name)
		}
		wrapped.Select(nil, make([]noc.Candidate, 3))
		if f.selects != 1 || timers.sel.calls != 1 || timers.cands != 3 {
			t.Errorf("%s: Select not forwarded and counted: %+v %+v", tc.name, f, timers.sel)
		}
		m, isM := wrapped.(noc.Matcher)
		g, isG := wrapped.(noc.GrantObserver)
		c, isC := wrapped.(cycleHook)
		if isM != tc.m || isG != tc.g || isC != tc.c {
			t.Errorf("%s: decorator is Matcher=%t GrantObserver=%t OnCycle=%t, want %t %t %t",
				tc.name, isM, isG, isC, tc.m, tc.g, tc.c)
			continue
		}
		if isM {
			m.Match(nil, make([]noc.Request, 2))
		}
		if isG {
			g.ObserveGrant(nil, nil, 0)
		}
		if isC {
			c.OnCycle(nil)
		}
		if (f.matches == 1) != tc.m || (f.grants == 1) != tc.g || (f.cycles == 1) != tc.c {
			t.Errorf("%s: optional calls did not reach the policy: %+v", tc.name, f)
		}
		if isM && timers.match.calls != 1 || isC && timers.cycle.calls != 1 {
			t.Errorf("%s: optional calls not counted: match %+v cycle %+v", tc.name, timers.match, timers.cycle)
		}
	}
}

// TestWrapRealPolicies pins the three cases the workloads and the engine rely
// on: the arbiter is a bare policy, iSLIP keeps whole-router matching, and the
// agent keeps the OnCycle hook apu.RunWorkload looks for.
func TestWrapRealPolicies(t *testing.T) {
	ga, _ := wrapPolicy(arb.NewGlobalAge())
	if _, ok := ga.(noc.Matcher); ok {
		t.Error("decorated GlobalAge became a Matcher")
	}
	islip, _ := wrapPolicy(arb.NewISLIP(2))
	if _, ok := islip.(noc.Matcher); !ok {
		t.Error("decorated iSLIP lost noc.Matcher: the engine would fall back to per-output Select")
	}
	agent, _ := wrapPolicy(core.NewAgent(core.MeshSpec(3), core.AgentConfig{Seed: 1}))
	if _, ok := agent.(interface{ OnCycle(*noc.Network) }); !ok {
		t.Error("decorated agent lost OnCycle: apu.RunWorkload would not train it")
	}
}

type plainRouting struct{}

func (plainRouting) Name() string                                   { return "plain" }
func (plainRouting) Route(r *noc.Router, m *noc.Message) noc.PortID { return r.XYPort(m) }

// TestWrapRoutingForwardsShardSafe: losing the marker would push the traced
// run off the route-once path onto per-output probes and full eviction.
func TestWrapRoutingForwardsShardSafe(t *testing.T) {
	net, _ := noc.BuildMeshCores(noc.Config{Width: 4, Height: 4, VCs: 3, BufferCap: 4})
	safe, timers := wrapRouting(fault.NewTableRouting(net))
	ss, ok := safe.(noc.ShardSafeRouting)
	if !ok || !ss.ShardSafe() {
		t.Fatal("decorated TableRouting is not ShardSafe")
	}
	if safe.Name() != fault.NewTableRouting(net).Name() {
		t.Error("Name not forwarded")
	}
	if plain, _ := wrapRouting(plainRouting{}); plain != nil {
		if _, ok := plain.(noc.ShardSafeRouting); ok {
			t.Error("decorated opaque routing claims ShardSafe")
		}
	}
	net.SetRouting(safe)
	net.SetPolicy(arb.NewGlobalAge())
	in := traffic.NewInjector(net.Nodes(), traffic.UniformRandom{}, 0.1, rand.New(rand.NewSource(1)))
	for i := 0; i < 50; i++ {
		in.Tick()
		net.Step()
	}
	if timers.route.calls == 0 {
		t.Error("Route calls were not counted")
	}
}

// TestDecoratedMatcherSameRun: a mesh under decorated iSLIP computes what it
// computes under bare iSLIP, so the Matcher path really is the one taken.
func TestDecoratedMatcherSameRun(t *testing.T) {
	run := func(decorate bool) string {
		net, cores := noc.BuildMeshCores(noc.Config{Width: 4, Height: 4, VCs: 3, BufferCap: 2})
		var p noc.Policy = arb.NewISLIP(2)
		var timers *timedPolicy
		if decorate {
			p, timers = wrapPolicy(p)
		}
		net.SetPolicy(p)
		in := traffic.NewInjector(cores, traffic.UniformRandom{}, 0.3, rand.New(rand.NewSource(5)))
		in.Classes = 3
		for i := 0; i < 400; i++ {
			in.Tick()
			net.Step()
		}
		if decorate && (timers.match.calls == 0 || timers.sel.calls != 0) {
			t.Errorf("decorated iSLIP ran Match %d times and Select %d times, want Match only", timers.match.calls, timers.sel.calls)
		}
		return netState(net)
	}
	if a, b := run(false), run(true); a != b {
		t.Errorf("decorating changed the run:\n bare      %s\n decorated %s", a, b)
	}
}

// TestTracedRunsMatchUntraced runs every simulator workload, scaled down,
// traced and untraced: the two must report the same State after every window
// and pass their own checks.
func TestTracedRunsMatchUntraced(t *testing.T) {
	small := []struct {
		name  string
		build func(int64, *tracer, func()) (instance, error)
	}{
		{"mesh8_dense", meshConfig{Size: 8, BufferCap: 4, Rate: 0.18, Warmup: 300, Cycles: 100}.build},
		{"mesh32_sparse_faulted", meshConfig{Size: 32, BufferCap: 8, Rate: 0.005, Faulted: true, Warmup: 200, Cycles: 100}.build},
		{"apu_infer", apuInferConfig{OpScale: 0.002, WarmupOps: 0}.build},
		{"apu_train", apuTrainConfig{Warmup: 60, Cycles: 8}.build},
	}
	for _, w := range small {
		tr := newTracer()
		plain, err := w.build(42, nil, func() {})
		if err != nil {
			t.Fatal(err)
		}
		traced, err := w.build(42, tr, func() {})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 3; i++ {
			plain.Window()
			root := tr.open(now())
			traced.Window()
			tr.close(root, now())
			for _, in := range []instance{plain, traced} {
				if n, why := in.Check(); n != 0 {
					t.Errorf("%s window %d: %d ops failed: %s", w.name, i, n, why)
				}
			}
			if a, b := plain.State(), traced.State(); a != b || a == "" {
				t.Errorf("%s window %d: states differ:\n untraced %s\n traced   %s", w.name, i, a, b)
			}
		}
		if len(tr.spans) < 3*3 {
			t.Errorf("%s: traced run recorded %d spans", w.name, len(tr.spans))
		}
		plain.Close()
		traced.Close()
	}
}

// TestInferEpisodeIsRunWorkload: the episode apu_infer times in laps is the one
// apu.RunWorkload computes.
func TestInferEpisodeIsRunWorkload(t *testing.T) {
	inst, err := apuInferConfig{OpScale: 0.004}.build(7, nil, func() {})
	if err != nil {
		t.Fatal(err)
	}
	a := inst.(*apuInferInst)
	a.Window()
	agent := core.NewAgentWithNet(a.spec, a.weights, a.seed)
	want := apu.RunWorkload(apu.Config{}, agent, a.models, a.cfg)
	if !reflect.DeepEqual(a.res, want) {
		t.Errorf("episode %+v, apu.RunWorkload %+v", a.res, want)
	}
	if n := len(a.Laps()); n != int(want.Cycles)/inferLap+1 && n != int(want.Cycles-1)/inferLap+1 {
		t.Errorf("%d laps for %d cycles", n, want.Cycles)
	}
}

// TestSimdWindow: cold set-up, then one window of cache hits that all check.
func TestSimdWindow(t *testing.T) {
	inst, err := buildSimd(42, newTracer(), func() {})
	if err != nil {
		t.Fatal(err)
	}
	defer inst.Close()
	s := inst.(*simdInst)
	root := s.tr.open(now())
	s.Window()
	s.tr.close(root, now())
	if n, why := s.Check(); n != 0 {
		t.Fatalf("%d ops failed: %s", n, why)
	}
	s.results[3].WriteString("x")
	if n, _ := s.Check(); n != 1 {
		t.Errorf("a corrupted payload failed %d ops, want 1", n)
	}
	out := map[string]float64{}
	s.Layers(out)
	if out["serve.cache_hit_ratio"] != 1 {
		t.Errorf("cache hit ratio %v, want 1", out["serve.cache_hit_ratio"])
	}
}

type scriptedInst struct {
	states []string
	i      int
}

func (s *scriptedInst) Window()                   { s.i++ }
func (s *scriptedInst) Check() (int, string)      { return 0, "" }
func (s *scriptedInst) State() string             { return s.states[s.i-1] }
func (s *scriptedInst) Finish() error             { return nil }
func (s *scriptedInst) Layers(map[string]float64) {}
func (s *scriptedInst) Close()                    {}

// TestCheckerCountsFailedOps: a checkpoint that disagrees with the golden
// fails every op since the last checkpoint, and only those.
func TestCheckerCountsFailedOps(t *testing.T) {
	w := &workload{OpsPerWindow: 10, GoldenEvery: 2}
	rep := &report{}
	inst := &scriptedInst{states: []string{"a", "b", "c", "d", "e", "f"}}
	chk := newChecker(w, rep, []string{"b", "X"}, 6) // third checkpoint has no golden
	for i := 0; i < 6; i++ {
		inst.Window()
		chk.after(i, inst)
	}
	if got := chk.total(); got != 20 {
		t.Errorf("failed ops = %d, want 20 (windows 2 and 3)", got)
	}
	if !reflect.DeepEqual(chk.states, []string{"b", "d", "f"}) {
		t.Errorf("recorded checkpoints %v", chk.states)
	}

	same := &workload{OpsPerWindow: 1}
	rep = &report{}
	inst = &scriptedInst{states: []string{"a", "a", "z"}}
	chk = newChecker(same, rep, nil, 3)
	for i := 0; i < 3; i++ {
		inst.Window()
		chk.after(i, inst)
	}
	if got := chk.total(); got != 1 {
		t.Errorf("op that differs from the first op: failed = %d, want 1", got)
	}
}

func TestEstimators(t *testing.T) {
	times := make([]int64, 10000)
	for i := range times {
		times[i] = int64(1000 + i)
	}
	if got := fastest(times); got != 1009.5 { // mean of the 20 smallest
		t.Errorf("fastest = %v, want 1009.5", got)
	}
	if got := fastest(times[:400]); got != 1004.5 { // never fewer than 10
		t.Errorf("fastest of 400 = %v, want 1004.5", got)
	}
	// statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
	if got := quartiles([]float64{5, 1, 4, 2, 3}); got != [3]float64{1.5, 3, 4.5} {
		t.Errorf("quartiles = %v", got)
	}
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	if got := quartiles([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); got != [3]float64{2.75, 5.5, 8.25} {
		t.Errorf("quartiles = %v", got)
	}
}

func TestSpanSelfTime(t *testing.T) {
	tr := &tracer{cur: -1}
	root := tr.open(100)
	step := tr.child(root, "step", 70, 5)
	tr.child(step, "select", 30, 9)
	tr.child(root, "tick", 20, 5)
	tr.close(root, 200)
	self := tr.selfTimes()
	want := map[string]int64{"window": 10, "step": 40, "select": 30, "tick": 20}
	if !reflect.DeepEqual(self, want) {
		t.Errorf("self times %v, want %v", self, want)
	}
	if tr.spans[3].Start != 170 {
		t.Errorf("second child starts at %d, want 170 (after its sibling)", tr.spans[3].Start)
	}
}

// TestGoldenCoversGoldenSeeds: on the platform the goldens were recorded on,
// every simulator workload has an entry for every golden seed.
func TestGoldenCoversGoldenSeeds(t *testing.T) {
	g, err := loadGolden()
	if err != nil {
		t.Fatal(err)
	}
	if runtime.GOARCH != "amd64" || nnKernel() != "fma" {
		t.Skip("goldens are recorded on amd64 with the FMA kernel")
	}
	for _, w := range workloads {
		if w.Name == "simd_cached" {
			continue
		}
		for _, seed := range goldenSeeds {
			states := g.lookup(w, seed)
			want := 1
			if w.GoldenEvery > 0 {
				want = w.windowCount(defaultSeconds) / w.GoldenEvery
			}
			if len(states) != want {
				t.Errorf("%s %s: %d golden states, want %d", w.Name, goldenKey(w, seed), len(states), want)
			}
		}
	}
}
