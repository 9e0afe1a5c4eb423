package trace_test

import (
	"bytes"
	"encoding/json"
	"math"
	"strings"
	"testing"

	"mlnoc/internal/noc"
	"mlnoc/internal/trace"
)

// firstPolicy deterministically grants the first candidate, mirroring the
// policy the engine tests pin their regressions with.
type firstPolicy struct{}

func (firstPolicy) Name() string                                    { return "first" }
func (firstPolicy) Select(_ *noc.ArbContext, _ []noc.Candidate) int { return 0 }

// delivery is one entry of a delivery log used for bit-identical comparisons.
type delivery struct {
	cycle int64
	id    uint64
	hops  int
}

// runScenario drives the deterministic 3x3 mesh scenario from the engine's
// fault-inertness test, optionally with a tracer attached, and returns the
// exact delivery log plus the network and tracer for inspection.
func runScenario(traced bool, cfg trace.Config) ([]delivery, *noc.Network, *trace.Tracer) {
	net, cores := noc.BuildMeshCores(noc.Config{Width: 3, Height: 3, VCs: 2})
	net.SetPolicy(firstPolicy{})
	var tr *trace.Tracer
	if traced {
		tr = trace.Attach(net, cfg)
	}
	var log []delivery
	for _, c := range cores {
		c.Sink = func(now int64, m *noc.Message) {
			log = append(log, delivery{cycle: now, id: m.ID, hops: int(m.HopCount)})
		}
	}
	id := uint64(0)
	for i := 0; i < 40; i++ {
		src := cores[i%len(cores)]
		dst := cores[(i*3+1)%len(cores)]
		if src == dst {
			continue
		}
		id++
		src.Inject(&noc.Message{ID: id, Dst: dst.ID, Class: noc.Class(i % 2), SizeFlits: int32(1 + i%4)})
		net.Step()
	}
	net.Drain(10000)
	return log, net, tr
}

// TestTracedRunIsBitIdentical pins the tentpole's zero-cost contract: a run
// with the tracer attached produces the exact delivery trace (per-message
// delivery cycle, order and hop count) of an untraced run.
func TestTracedRunIsBitIdentical(t *testing.T) {
	base, baseNet, _ := runScenario(false, trace.Config{})
	traced, tracedNet, tr := runScenario(true, trace.Config{})
	if len(base) == 0 {
		t.Fatal("scenario delivered nothing")
	}
	if len(base) != len(traced) {
		t.Fatalf("delivery counts diverged: %d untraced, %d traced", len(base), len(traced))
	}
	for i := range base {
		if base[i] != traced[i] {
			t.Fatalf("delivery %d diverged: untraced %+v, traced %+v", i, base[i], traced[i])
		}
	}
	bs, ts := baseNet.Stats(), tracedNet.Stats()
	if bs.Delivered != ts.Delivered || bs.Latency.Mean() != ts.Latency.Mean() {
		t.Fatalf("stats diverged: delivered %d/%d, latency %v/%v",
			bs.Delivered, ts.Delivered, bs.Latency.Mean(), ts.Latency.Mean())
	}
	if tr.Recorded() == 0 {
		t.Fatal("tracer recorded nothing")
	}
}

// TestBreakdownIdentity pins the latency decomposition on a healthy network:
// every delivered message is analyzed, its Total equals the sum of its
// components, no component is negative, and the analyzer's overall mean
// matches the engine's own latency statistic.
func TestBreakdownIdentity(t *testing.T) {
	_, net, tr := runScenario(true, trace.Config{})
	b := trace.Analyze(tr)
	st := net.Stats()
	if int64(len(b.Msgs)) != st.Delivered {
		t.Fatalf("analyzed %d messages, engine delivered %d", len(b.Msgs), st.Delivered)
	}
	if b.Incomplete != 0 || b.InFlight != 0 || b.Unreachable != 0 {
		t.Fatalf("drained healthy run excluded messages: %d incomplete, %d in flight, %d unreachable",
			b.Incomplete, b.InFlight, b.Unreachable)
	}
	for _, m := range b.Msgs {
		if m.Total != m.SourceQueue+m.Queue+m.ArbLosses+m.Link {
			t.Fatalf("msg %d: total %d != srcq %d + queue %d + arb %d + link %d",
				m.ID, m.Total, m.SourceQueue, m.Queue, m.ArbLosses, m.Link)
		}
		if m.SourceQueue < 0 || m.Queue < 0 || m.ArbLosses < 0 || m.Link <= 0 {
			t.Fatalf("msg %d: negative component in %+v", m.ID, m)
		}
		if m.Total != m.DeliverCycle-(m.InjectCycle-m.SourceQueue) {
			t.Fatalf("msg %d: total %d does not span generation %d to delivery %d",
				m.ID, m.Total, m.InjectCycle-m.SourceQueue, m.DeliverCycle)
		}
		if m.Hops < 1 {
			t.Fatalf("msg %d delivered with %d link traversals", m.ID, m.Hops)
		}
	}
	// The engine accumulates its mean incrementally (Welford), the analyzer
	// sums then divides; agreement is up to floating-point reassociation.
	if got, want := b.Overall.Total.Mean, st.Latency.Mean(); math.Abs(got-want) > 1e-9 {
		t.Fatalf("analyzer mean latency %v != engine mean %v", got, want)
	}
	if b.Overall.Count != len(b.Msgs) {
		t.Fatalf("overall count %d != %d messages", b.Overall.Count, len(b.Msgs))
	}
	if out := b.Render(); !strings.Contains(out, "all") {
		t.Fatalf("rendered breakdown missing overall row:\n%s", out)
	}
}

// TestSampling pins ID-modulo sampling: with SampleEvery=2 only even message
// IDs appear in the trace, and their lifecycles are still complete.
func TestSampling(t *testing.T) {
	_, _, tr := runScenario(true, trace.Config{SampleEvery: 2})
	if tr.SampleEvery() != 2 {
		t.Fatalf("SampleEvery = %d, want 2", tr.SampleEvery())
	}
	events := tr.Events()
	if len(events) == 0 {
		t.Fatal("sampled trace is empty")
	}
	for _, e := range events {
		if e.MsgID%2 != 0 {
			t.Fatalf("unsampled message %d traced: %+v", e.MsgID, e)
		}
	}
	b := trace.AnalyzeEvents(events)
	if len(b.Msgs) == 0 || b.Incomplete != 0 {
		t.Fatalf("sampled lifecycles incomplete: %d analyzed, %d incomplete",
			len(b.Msgs), b.Incomplete)
	}
	for _, m := range b.Msgs {
		if m.ID%2 != 0 {
			t.Fatalf("analyzer produced record for unsampled message %d", m.ID)
		}
	}
}

// TestRingEviction pins the bounded-memory contract: a tiny ring keeps only
// the newest events, reports the eviction count, and the analyzer counts
// messages whose inject fell off the ring as incomplete instead of folding a
// truncated lifecycle into the aggregates.
func TestRingEviction(t *testing.T) {
	_, _, tr := runScenario(true, trace.Config{Capacity: 8})
	if tr.Len() != 8 {
		t.Fatalf("ring holds %d events, want capacity 8", tr.Len())
	}
	if tr.Dropped() <= 0 {
		t.Fatalf("Dropped = %d, want > 0 after wrap-around", tr.Dropped())
	}
	if tr.Recorded() != tr.Dropped()+int64(tr.Len()) {
		t.Fatalf("accounting broken: recorded %d != dropped %d + retained %d",
			tr.Recorded(), tr.Dropped(), tr.Len())
	}
	b := trace.Analyze(tr)
	if b.Incomplete == 0 {
		t.Fatal("no incomplete messages despite inject eviction")
	}
	for _, m := range b.Msgs {
		if m.InjectCycle == 0 && m.SourceQueue == 0 && m.Link == 0 {
			t.Fatalf("truncated lifecycle leaked into aggregates: %+v", m)
		}
	}
}

// TestArbLossEvents forces a two-candidate arbitration and checks the win and
// loss events carry the competing slot set and the arbiter's chosen priority.
func TestArbLossEvents(t *testing.T) {
	// 3x1 mesh: messages from the two edge routers, both bound for the middle
	// node, arrive at the middle router on the same cycle and compete for its
	// ejection (core) output from the west- and east-side input buffers.
	net, cores := noc.BuildMeshCores(noc.Config{Width: 3, Height: 1, VCs: 1})
	net.SetPolicy(firstPolicy{})
	tr := trace.Attach(net, trace.Config{})
	cores[0].Inject(&noc.Message{ID: 1, Dst: cores[1].ID, SizeFlits: 1})
	cores[2].Inject(&noc.Message{ID: 2, Dst: cores[1].ID, SizeFlits: 1})
	net.Drain(100)
	var wins, losses []trace.Event
	for _, e := range tr.Events() {
		switch e.Kind {
		case trace.KindArbWin:
			wins = append(wins, e)
		case trace.KindArbLoss:
			losses = append(losses, e)
		}
	}
	if len(wins) == 0 || len(losses) == 0 {
		t.Fatalf("contested arbitration not traced: %d wins, %d losses", len(wins), len(losses))
	}
	// The contested round: one candidate per side buffer, VC 0, with 1 VC per
	// port, so the competing mask is bit int(PortWest) plus bit int(PortEast).
	wantMask := uint64(1)<<uint(noc.PortWest) | uint64(1)<<uint(noc.PortEast)
	w, l := wins[0], losses[0]
	if w.Competing != wantMask || l.Competing != wantMask {
		t.Fatalf("competing masks %#x/%#x, want %#x", w.Competing, l.Competing, wantMask)
	}
	if w.NumCands != 2 || l.NumCands != 2 {
		t.Fatalf("candidate counts %d/%d, want 2", w.NumCands, l.NumCands)
	}
	if w.Out != noc.PortCore || l.Out != noc.PortCore {
		t.Fatalf("arbitration not for the ejection port: %+v vs %+v", w, l)
	}
	if w.MsgID == l.MsgID || w.Port == l.Port {
		t.Fatalf("win and loss describe the same candidate: %+v vs %+v", w, l)
	}
	// Both events must agree on the arbiter's chosen slot — the winner's.
	if w.WinPort != w.Port || w.WinVC != w.VC {
		t.Fatalf("win event disagrees with its own slot: %+v", w)
	}
	if l.WinPort != w.Port || l.WinVC != w.VC {
		t.Fatalf("loss event disagrees with win: %+v vs %+v", l, w)
	}
	if w.Cycle != l.Cycle {
		t.Fatalf("win and loss not from the same arbitration: %+v vs %+v", w, l)
	}
	// The analyzer charges the loser exactly its lost cycles.
	b := trace.Analyze(tr)
	charged := false
	for _, m := range b.Msgs {
		if m.ID == l.MsgID {
			charged = true
			if m.ArbLosses < 1 {
				t.Fatalf("losing msg %d charged %d arb-loss cycles, want >= 1", m.ID, m.ArbLosses)
			}
		}
	}
	if !charged {
		t.Fatalf("losing msg %d missing from the breakdown", l.MsgID)
	}
}

// TestChromeExport pins the trace-event JSON shape Perfetto loads: metadata,
// complete link slices, and paired async begin/end per message lifetime.
func TestChromeExport(t *testing.T) {
	_, _, tr := runScenario(true, trace.Config{})
	var buf bytes.Buffer
	if err := trace.WriteChromeTrace(&buf, tr); err != nil {
		t.Fatal(err)
	}
	var out struct {
		DisplayTimeUnit string `json:"displayTimeUnit"`
		TraceEvents     []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			Ts   int64          `json:"ts"`
			Dur  int64          `json:"dur"`
			Pid  int            `json:"pid"`
			ID   string         `json:"id"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &out); err != nil {
		t.Fatalf("export is not valid JSON: %v", err)
	}
	if len(out.TraceEvents) == 0 {
		t.Fatal("empty traceEvents")
	}
	phases := map[string]int{}
	begins, ends := map[string]bool{}, map[string]bool{}
	for _, e := range out.TraceEvents {
		phases[e.Ph]++
		switch e.Ph {
		case "X":
			if e.Dur <= 0 {
				t.Fatalf("link slice without duration: %+v", e)
			}
		case "b":
			begins[e.ID] = true
		case "e":
			ends[e.ID] = true
		}
	}
	for _, ph := range []string{"M", "X", "b", "e"} {
		if phases[ph] == 0 {
			t.Fatalf("no %q events in export; phases: %v", ph, phases)
		}
	}
	// The drained run delivered everything: every async begin has its end.
	for id := range begins {
		if !ends[id] {
			t.Fatalf("message lifetime %s begun but never ended", id)
		}
	}
}

// TestCSVExport pins the compact CSV companion: a header plus one row per
// retained event.
func TestCSVExport(t *testing.T) {
	_, _, tr := runScenario(true, trace.Config{})
	var buf bytes.Buffer
	if err := trace.WriteCSV(&buf, tr); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSuffix(buf.String(), "\n"), "\n")
	if lines[0] != "cycle,kind,msg,src,dst,class,router,port,vc,out,dur,cands,competing,win_port,win_vc" {
		t.Fatalf("unexpected CSV header %q", lines[0])
	}
	if got, want := len(lines)-1, tr.Len(); got != want {
		t.Fatalf("CSV has %d rows, tracer retains %d events", got, want)
	}
}

// benchStep drives a steady 4x4 mesh load; the traced/untraced pair
// quantifies the tracer's overhead and the observer seams' zero-cost-off
// claim (compare with: go test -bench Step -benchmem ./internal/trace/).
func benchStep(b *testing.B, traced bool) {
	net, cores := noc.BuildMeshCores(noc.Config{Width: 4, Height: 4, VCs: 2, BufferCap: 8})
	net.SetPolicy(firstPolicy{})
	if traced {
		trace.Attach(net, trace.Config{})
	}
	id := uint64(0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		src := cores[i%len(cores)]
		dst := cores[(i*5+3)%len(cores)]
		if src != dst {
			id++
			src.Inject(&noc.Message{ID: id, Dst: dst.ID, Class: noc.Class(i % 2), SizeFlits: 2})
		}
		net.Step()
	}
}

func BenchmarkStepUntraced(b *testing.B) { benchStep(b, false) }
func BenchmarkStepTraced(b *testing.B)   { benchStep(b, true) }
