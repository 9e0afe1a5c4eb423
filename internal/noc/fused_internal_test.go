package noc

import (
	"fmt"
	"math/rand"
	"testing"
)

// orderPolicy is deliberately sensitive to candidate order and count: any
// divergence between the mask arbitration kernel and the legacy per-output
// gather (extra, missing or reordered candidates) changes which message wins
// and cascades through the rest of the run.
type orderPolicy struct{}

func (orderPolicy) Name() string { return "order-sensitive" }

func (orderPolicy) Select(ctx *ArbContext, cands []Candidate) int {
	return int(ctx.Cycle+int64(len(cands))+int64(ctx.Out)) % len(cands)
}

// orderMatcher adds a whole-router matching with the same order sensitivity:
// per request it prefers the (cycle+len)-th candidate, falling back to the
// first whose input port is still free, and leaves the output idle otherwise.
type orderMatcher struct{ orderPolicy }

func (orderMatcher) Match(ctx *MatchContext, reqs []Request) []int {
	grants := make([]int, len(reqs))
	var used [MaxPorts]bool
	for i, req := range reqs {
		grants[i] = -1
		start := int(ctx.Cycle+int64(len(req.Cands))) % len(req.Cands)
		for k := 0; k < len(req.Cands); k++ {
			j := (start + k) % len(req.Cands)
			if !used[req.Cands[j].Port] {
				grants[i] = j
				used[req.Cands[j].Port] = true
				break
			}
		}
	}
	return grants
}

// driveEquivalence runs two identically-seeded copies of the same workload,
// one on the mask arbitration kernel and one forced onto the legacy full-scan
// oracle, and requires bit-identical delivery traces.
func driveEquivalence(t *testing.T, policy Policy) {
	t.Helper()
	build := func(legacy bool) (*Network, []*Node, *[]string) {
		net, nodes := BuildMeshCores(Config{Width: 4, Height: 4, VCs: 3, BufferCap: 2})
		if legacy {
			legacyOpt(net)
		}
		net.SetPolicy(policy)
		log := &[]string{}
		for _, nd := range nodes {
			nd.Sink = func(now int64, m *Message) {
				*log = append(*log, fmt.Sprintf("%d:%d->%d@%d", m.ID, m.Src, m.Dst, now))
			}
		}
		return net, nodes, log
	}
	run := func(net *Network, nodes []*Node) {
		rng := rand.New(rand.NewSource(21))
		var id uint64
		for cycle := 0; cycle < 600; cycle++ {
			for i, nd := range nodes {
				if rng.Float64() >= 0.3 {
					continue
				}
				d := rng.Intn(len(nodes) - 1)
				if d >= i {
					d++
				}
				id++
				m := net.AllocMessage()
				m.ID = id
				m.Dst = nodes[d].ID
				m.Class = Class(rng.Intn(3))
				m.SizeFlits = 1 + 4*rng.Intn(2)
				nd.Inject(m)
			}
			net.Step()
		}
		net.Drain(4000)
	}

	maskNet, maskNodes, maskLog := build(false)
	legacyNet, legacyNodes, legacyLog := build(true)
	run(maskNet, maskNodes)
	run(legacyNet, legacyNodes)

	if len(*maskLog) == 0 {
		t.Fatal("no deliveries recorded; workload is vacuous")
	}
	if len(*maskLog) != len(*legacyLog) {
		t.Fatalf("delivery counts diverge: mask %d, legacy %d", len(*maskLog), len(*legacyLog))
	}
	for i := range *maskLog {
		if (*maskLog)[i] != (*legacyLog)[i] {
			t.Fatalf("delivery %d diverges: mask %q, legacy %q", i, (*maskLog)[i], (*legacyLog)[i])
		}
	}
	fs, ls := maskNet.Stats(), legacyNet.Stats()
	if fs.Latency.Mean() != ls.Latency.Mean() || fs.Injected != ls.Injected {
		t.Fatalf("stats diverge: mask avg=%v inj=%d, legacy avg=%v inj=%d",
			fs.Latency.Mean(), fs.Injected, ls.Latency.Mean(), ls.Injected)
	}
}

func TestFusedArbitrationMatchesLegacy(t *testing.T) {
	driveEquivalence(t, orderPolicy{})
}

func TestFusedMatchedArbitrationMatchesLegacy(t *testing.T) {
	driveEquivalence(t, orderMatcher{})
}
