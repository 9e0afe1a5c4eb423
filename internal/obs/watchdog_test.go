package obs

import (
	"math/rand"
	"testing"

	"mlnoc/internal/arb"
	"mlnoc/internal/noc"
	"mlnoc/internal/traffic"
)

// biasPolicy always grants the candidate from the highest-numbered input
// port, so a through-flow on PortWest (4) permanently beats a local
// injection waiting on PortCore (0): the core head ages unboundedly.
type biasPolicy struct{}

func (biasPolicy) Name() string { return "bias" }
func (biasPolicy) Select(_ *noc.ArbContext, cands []noc.Candidate) int {
	best := 0
	for i, c := range cands {
		if c.Port > cands[best].Port {
			best = i
		}
	}
	return best
}

// deadMatcher never grants anything: every injected message freezes in its
// source buffer, producing a zero-delivery livelock.
type deadMatcher struct{}

func (deadMatcher) Name() string                                    { return "dead" }
func (deadMatcher) Select(_ *noc.ArbContext, _ []noc.Candidate) int { return 0 }
func (deadMatcher) Match(_ *noc.MatchContext, reqs []noc.Request) []int {
	out := make([]int, len(reqs))
	for i := range out {
		out[i] = -1
	}
	return out
}

// TestWatchdogCatchesStarvation builds a deterministic starvation scenario:
// on a 3x1 mesh, node 0 and node 1 both stream to node 2. At router 1 the
// east output arbitrates between the west input (node 0's traffic) and the
// core input (node 1's); the biased policy always grants the west input, so
// node 1's head message starves in the core buffer.
func TestWatchdogCatchesStarvation(t *testing.T) {
	net, cores := noc.BuildMeshCores(noc.Config{Width: 3, Height: 1, VCs: 1, BufferCap: 4})
	net.SetPolicy(biasPolicy{})
	w := AttachWatchdog(net, WatchdogConfig{Threshold: 200})

	// Node 1 queues four messages once: its head starves in router 1's core
	// buffer, so at most four injections stay pending there, and topping the
	// total up to eight keeps node 0's flow saturated and the contested
	// output never idle.
	var id uint64
	for ; id < 4; id++ {
		cores[1].Inject(&noc.Message{ID: id, Dst: cores[2].ID, SizeFlits: 1})
	}
	for cycle := 0; cycle < 2000; cycle++ {
		if net.PendingInjections() < 8 {
			id++
			cores[0].Inject(&noc.Message{ID: id, Dst: cores[2].ID, SizeFlits: 1})
		}
		net.Step()
	}
	if !w.Tripped() {
		t.Fatal("watchdog did not trip on a starved head message")
	}
	var starved *Alert
	for i := range w.Alerts() {
		if w.Alerts()[i].Kind == AlertStarvation {
			starved = &w.Alerts()[i]
			break
		}
	}
	if starved == nil {
		t.Fatalf("no starvation alert in %v", w.Alerts())
	}
	// Router 1's core input is the starved buffer.
	if starved.Router != 1 || starved.Port != noc.PortCore.String() {
		t.Fatalf("starvation flagged at router#%d %s, want router#1 core: %+v",
			starved.Router, starved.Port, *starved)
	}
	if starved.Age <= 200 {
		t.Fatalf("flagged age %d not above threshold", starved.Age)
	}
	if w.Summary() == "" {
		t.Fatal("tripped watchdog has empty summary")
	}
}

// TestWatchdogCatchesLivelock freezes a network mid-flight with a matcher
// that never grants, and checks the zero-delivery window alert fires with
// the in-flight count attached, and re-arms instead of firing every scan.
func TestWatchdogCatchesLivelock(t *testing.T) {
	net, cores := noc.BuildMeshCores(noc.Config{Width: 2, Height: 2, VCs: 1})
	net.SetPolicy(deadMatcher{})
	w := AttachWatchdog(net, WatchdogConfig{Threshold: 300})

	cores[0].Inject(&noc.Message{ID: 1, Dst: cores[3].ID, SizeFlits: 1})
	cores[1].Inject(&noc.Message{ID: 2, Dst: cores[2].ID, SizeFlits: 1})
	for range 1000 {
		net.Step()
	}

	if !w.Tripped() {
		t.Fatal("watchdog did not trip on a zero-delivery window")
	}
	a := w.Alerts()[0]
	if a.Kind != AlertLivelock {
		t.Fatalf("first alert = %+v, want livelock", a)
	}
	if a.InFlight != 2 {
		t.Fatalf("livelock alert reports %d in flight, want 2", a.InFlight)
	}
	if a.Window < 300 {
		t.Fatalf("livelock window %d below threshold", a.Window)
	}
	// Re-armed, not spamming: one livelock alert per elapsed window. (The
	// two stuck heads also raise one over-age alert each.)
	livelocks := 0
	for _, a := range w.Alerts() {
		if a.Kind == AlertLivelock {
			livelocks++
		}
	}
	if livelocks != 3 {
		t.Fatalf("livelock alert fired %d times in 1000 cycles, want 3", livelocks)
	}
}

// TestWatchdogQuietOnHealthyRun checks the control case: a healthy
// uniform-random run under a fair policy must not trip either check.
func TestWatchdogQuietOnHealthyRun(t *testing.T) {
	net, cores := noc.BuildMeshCores(noc.Config{Width: 4, Height: 4, VCs: 2})
	net.SetPolicy(arb.NewGlobalAge())
	w := AttachWatchdog(net, WatchdogConfig{Threshold: 500})

	in := traffic.NewInjector(cores, traffic.UniformRandom{}, 0.08, rand.New(rand.NewSource(9)))
	in.Classes = 2
	for i := 0; i < 6000; i++ {
		in.Tick()
		net.Step()
	}
	if w.Tripped() {
		t.Fatalf("watchdog tripped on a healthy run:\n%s", w.Summary())
	}
	// An idle drained network must not look like a livelock either.
	net.Drain(20000)
	for range 2000 {
		net.Step()
	}
	if w.Tripped() {
		t.Fatalf("watchdog tripped on an idle network:\n%s", w.Summary())
	}
}

// TestWatchdogDrainedThenIdle pins the livelock window reset: a network that
// delivered its traffic and then sits idle for many windows has zero
// deliveries but nothing in flight — that is quiescence, not livelock. Late
// traffic arriving after the idle gap must be measured against a fresh
// window, not inherit the gap.
func TestWatchdogDrainedThenIdle(t *testing.T) {
	net, cores := noc.BuildMeshCores(noc.Config{Width: 2, Height: 2, VCs: 1})
	net.SetPolicy(arb.NewGlobalAge())
	w := AttachWatchdog(net, WatchdogConfig{Threshold: 100})

	cores[0].Inject(&noc.Message{ID: 1, Dst: cores[3].ID, SizeFlits: 1})
	if !net.Drain(1000) {
		t.Fatal("network did not drain")
	}
	for range 2000 { // twenty livelock windows of drained idleness
		net.Step()
	}
	if w.Tripped() {
		t.Fatalf("watchdog tripped on a drained idle network:\n%s", w.Summary())
	}
	cores[0].Inject(&noc.Message{ID: 2, Dst: cores[3].ID, SizeFlits: 1})
	if !net.Drain(1000) {
		t.Fatal("late message did not drain")
	}
	if w.Tripped() {
		t.Fatalf("watchdog tripped on prompt post-idle traffic:\n%s", w.Summary())
	}
}

// TestWatchdogAlertCap checks that the alert list is bounded and overflow is
// counted, not dropped silently: a dead network re-raises its livelock alert
// every 10-cycle window, well past the cap.
func TestWatchdogAlertCap(t *testing.T) {
	net, cores := noc.BuildMeshCores(noc.Config{Width: 2, Height: 1, VCs: 1})
	net.SetPolicy(deadMatcher{})
	w := AttachWatchdog(net, WatchdogConfig{Threshold: 10})
	cores[0].Inject(&noc.Message{ID: 1, Dst: cores[1].ID, SizeFlits: 1})
	for range 1000 {
		net.Step()
	}
	if len(w.Alerts()) != maxAlerts {
		t.Fatalf("recorded %d alerts, want cap %d", len(w.Alerts()), maxAlerts)
	}
	if w.Suppressed() == 0 {
		t.Fatal("no suppressed alerts counted past the cap")
	}
	snapAlerts := (&Suite{Collector: AttachCollector(net, 1), Watchdog: w}).Snapshot()
	if len(snapAlerts.Alerts) != maxAlerts || snapAlerts.SuppressedAlerts != w.Suppressed() {
		t.Fatalf("suite snapshot lost alerts: %d recorded, %d suppressed",
			len(snapAlerts.Alerts), snapAlerts.SuppressedAlerts)
	}
}

// TestWatchdogFaultBlackhole checks that an over-age head whose route crosses
// a dead link is reported as fault damage, not as policy starvation.
func TestWatchdogFaultBlackhole(t *testing.T) {
	net, cores := noc.BuildMeshCores(noc.Config{Width: 2, Height: 1, VCs: 1})
	net.SetPolicy(arb.NewGlobalAge())
	net.SetLinkDown(0, noc.PortEast, true)
	w := AttachWatchdog(net, WatchdogConfig{Threshold: 50})
	cores[0].Inject(&noc.Message{ID: 1, Dst: cores[1].ID, SizeFlits: 1})
	for range 500 {
		net.Step()
	}
	var holes int
	for _, a := range w.Alerts() {
		switch a.Kind {
		case AlertStarvation:
			t.Fatalf("head behind a dead link reported as starvation: %v", a)
		case AlertFaultBlackhole:
			holes++
			if a.Router != 0 || a.Port != noc.PortCore.String() || a.MsgID != 1 {
				t.Fatalf("blackhole flagged at %+v, want msg#1 at router#0 core", a)
			}
		}
	}
	if holes != 1 {
		t.Fatalf("%d fault-blackhole alerts, want 1 (deduplicated per message): %v", holes, w.Alerts())
	}
}
