package fault

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"mlnoc/internal/noc"
	"mlnoc/internal/xrand"
)

// Link identifies a directed link by its upstream router and output port. In
// undirected contexts (MeshLinks) links are canonicalized to their east- or
// south-facing direction.
type Link struct {
	Router int
	Port   noc.PortID
}

// MeshLinks enumerates the undirected router-to-router mesh links of the
// network in canonical form (east and south ports only), in deterministic
// order: ascending router ID, east before south.
func MeshLinks(net *noc.Network) []Link {
	var links []Link
	for _, r := range net.Routers() {
		if r.Neighbor(noc.PortEast) != nil {
			links = append(links, Link{Router: r.ID(), Port: noc.PortEast})
		}
		if r.Neighbor(noc.PortSouth) != nil {
			links = append(links, Link{Router: r.ID(), Port: noc.PortSouth})
		}
	}
	return links
}

// RandomLinkKills builds a plan killing approximately fraction of the mesh's
// undirected links at cycle at, sampling without replacement from rng. The
// selection is connectivity-preserving: a candidate whose removal would
// disconnect the router graph is skipped, so every destination stays
// reachable for a table-rebuilding router and request/response protocols
// retain liveness. When preserving connectivity leaves fewer than the
// requested number of kills, the plan holds as many as possible.
func RandomLinkKills(net *noc.Network, fraction float64, at int64, rng *rand.Rand) (Plan, error) {
	if fraction < 0 || fraction > 1 {
		return Plan{}, fmt.Errorf("fault: kill fraction %v outside [0,1]", fraction)
	}
	if at < 0 {
		return Plan{}, fmt.Errorf("fault: negative kill cycle %d", at)
	}
	if rng == nil {
		return Plan{}, fmt.Errorf("fault: RandomLinkKills requires an explicit RNG")
	}
	links := MeshLinks(net)
	target := int(math.Round(fraction * float64(len(links))))
	var plan Plan
	if target == 0 {
		return plan, nil
	}
	killed := make(map[Link]bool, target)
	for _, i := range rng.Perm(len(links)) {
		if len(killed) == target {
			break
		}
		l := links[i]
		killed[l] = true
		if !connectedWithout(net, links, killed) {
			delete(killed, l)
			continue
		}
		plan.KillLink(l.Router, l.Port, at)
	}
	return plan, nil
}

// connectedWithout reports whether the router graph stays connected using
// only the undirected links not in killed.
func connectedWithout(net *noc.Network, links []Link, killed map[Link]bool) bool {
	routers := net.Routers()
	if len(routers) == 0 {
		return true
	}
	adj := make([][]int, len(routers))
	for _, l := range links {
		if killed[l] {
			continue
		}
		u := l.Router
		v := routers[u].Neighbor(l.Port).ID()
		adj[u] = append(adj[u], v)
		adj[v] = append(adj[v], u)
	}
	seen := make([]bool, len(routers))
	queue := []int{0}
	seen[0] = true
	reached := 1
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		for _, v := range adj[u] {
			if !seen[v] {
				seen[v] = true
				reached++
				queue = append(queue, v)
			}
		}
	}
	return reached == len(routers)
}

// Spec is the one-struct description of a fault scenario used by the CLIs and
// experiment sweeps: an explicit plan plus an optional random kill wave,
// reproducible from Seed. The zero value is the all-healthy scenario (which
// still installs fault-aware routing, so equipping it must not change
// results — the regression tests pin this).
type Spec struct {
	// Plan is an explicit kill schedule, applied as given.
	Plan Plan
	// KillFraction, if positive, kills that fraction of the mesh's undirected
	// links at cycle KillAt, chosen connectivity-preservingly at random from
	// Seed.
	KillFraction float64
	// KillAt is the cycle the random kill wave lands.
	KillAt int64
	// Seed seeds the RNG behind KillFraction.
	Seed int64
}

// Equip installs the fault scenario on net: fault-aware table routing plus an
// Injector applying the spec's plan and random kill wave, each kill in force
// from its cycle's arbitration on and followed by a table rebuild. It returns
// the injector for stats.
func (s Spec) Equip(net *noc.Network) (*Injector, error) {
	plan := Plan{Events: append([]Event(nil), s.Plan.Events...)}
	if s.KillFraction != 0 {
		kills, err := RandomLinkKills(net, s.KillFraction, s.KillAt, xrand.New(s.Seed))
		if err != nil {
			return nil, err
		}
		plan.Events = append(plan.Events, kills.Events...)
	}
	if err := plan.Validate(net); err != nil {
		return nil, err
	}
	rt := NewTableRouting(net)
	net.SetRouting(rt)
	// Kills already due (at or before the next cycle) apply now, the rest
	// from the OnCycle hook.
	in := &Injector{net: net, rt: rt, kills: plan.Events}
	sort.SliceStable(in.kills, func(i, j int) bool { return in.kills[i].From < in.kills[j].From })
	in.advance(net.Cycle() + 1)
	net.AddOnCycle(in.onCycle)
	return in, nil
}
