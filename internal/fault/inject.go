package fault

import (
	"fmt"
	"math/rand"

	"mlnoc/internal/noc"
)

// Hazard is a stochastic fault process: each cycle, with probability Rate, one
// randomly chosen healthy undirected mesh link suffers an outage lasting
// Repair cycles. Draws come from the Config's explicit RNG, so a hazard run
// is exactly reproducible from its seed. The zero value disables the process.
type Hazard struct {
	// Rate is the per-cycle probability of a new link outage, in [0,1].
	Rate float64
	// Repair is the outage duration in cycles; must be positive when Rate is.
	Repair int64
}

// UnreachableReport records one message evicted with an unreachable verdict.
type UnreachableReport struct {
	Cycle  int64      `json:"cycle"`
	Router int        `json:"router"`
	Src    noc.NodeID `json:"src"`
	Dst    noc.NodeID `json:"dst"`
}

// Config configures an Injector.
type Config struct {
	// Plan is the deterministic fault schedule to apply.
	Plan Plan
	// Hazard, if its Rate is positive, adds stochastic link outages on top of
	// the plan. It requires RNG.
	Hazard Hazard
	// RNG drives the hazard process. It is never seeded or shared implicitly;
	// callers pass xrand.New(seed).
	RNG *rand.Rand
	// OnChange, if set, runs after every cycle on which the fault state
	// changed (links flipped, routers frozen or thawed). Table-based routers
	// hook their Rebuild here.
	OnChange func(now int64)
	// OnUnreachable, if set, runs for every message evicted with an
	// unreachable verdict, including those beyond the MaxReports bound.
	OnUnreachable func(UnreachableReport)
	// MaxReports bounds the retained unreachable-report list (default 64).
	MaxReports int
}

// Stats aggregates the engine's fault counters with the injector's own event
// counts.
type Stats struct {
	noc.FaultStats
	// LinkKills counts permanent link kills applied (undirected events, not
	// directed links).
	LinkKills int64 `json:"link_kills"`
	// LinkOutages counts scheduled transient outages applied.
	LinkOutages int64 `json:"link_outages"`
	// HazardOutages counts outages raised by the stochastic hazard process.
	HazardOutages int64 `json:"hazard_outages"`
	// RouterFreezes counts router freezes applied.
	RouterFreezes int64 `json:"router_freezes"`
	// Repairs counts links restored (outage ends and hazard repairs).
	Repairs int64 `json:"repairs"`
}

// repair is a pending hazard repair; the queue stays sorted because every
// hazard outage lasts the same Repair duration.
type repair struct {
	at   int64
	link Link
}

// Injector applies a fault Config to a network cycle by cycle. It installs
// itself as an OnCycle hook at Attach time and needs no further driving.
type Injector struct {
	net *noc.Network
	cfg Config

	timeline []transition
	tnext    int
	repairs  []repair

	downSince map[Link]int64
	downtime  map[Link]int64
	reports   []UnreachableReport

	kills, outages, hazards, freezes, repaired int64
}

// Attach validates cfg against net and installs an Injector on it: scheduled
// transitions already due (at or before the next cycle) apply immediately,
// the rest apply from an OnCycle hook as the simulation advances. Messages
// evicted as unreachable are recorded through the network's unreachable
// handler.
func Attach(net *noc.Network, cfg Config) (*Injector, error) {
	if err := cfg.Plan.Validate(net); err != nil {
		return nil, err
	}
	if cfg.Hazard.Rate < 0 || cfg.Hazard.Rate > 1 {
		return nil, fmt.Errorf("fault: hazard rate %v outside [0,1]", cfg.Hazard.Rate)
	}
	if cfg.Hazard.Rate > 0 {
		if cfg.Hazard.Repair <= 0 {
			return nil, fmt.Errorf("fault: hazard repair time must be positive, got %d", cfg.Hazard.Repair)
		}
		if cfg.RNG == nil {
			return nil, fmt.Errorf("fault: hazard process requires an explicit RNG")
		}
	}
	if cfg.MaxReports <= 0 {
		cfg.MaxReports = 64
	}
	in := &Injector{
		net:       net,
		cfg:       cfg,
		timeline:  cfg.Plan.timeline(),
		downSince: make(map[Link]int64),
		downtime:  make(map[Link]int64),
	}
	net.SetUnreachableHandler(func(now int64, r *noc.Router, m *noc.Message) {
		rep := UnreachableReport{Cycle: now, Router: r.ID(), Src: m.Src, Dst: m.Dst}
		if len(in.reports) < in.cfg.MaxReports {
			in.reports = append(in.reports, rep)
		}
		if in.cfg.OnUnreachable != nil {
			in.cfg.OnUnreachable(rep)
		}
	})
	if in.advance(net.Cycle()+1) && cfg.OnChange != nil {
		cfg.OnChange(net.Cycle())
	}
	net.AddOnCycle(in.onCycle)
	return in, nil
}

// onCycle runs at the end of every cycle `now`: transitions and repairs due
// for cycle now+1 apply so they are in force when that cycle arbitrates, then
// the hazard process samples.
func (in *Injector) onCycle(net *noc.Network) {
	now := net.Cycle()
	eff := now + 1
	changed := in.advance(eff)
	if in.cfg.Hazard.Rate > 0 && in.cfg.RNG.Float64() < in.cfg.Hazard.Rate {
		if l, ok := in.pickHealthyLink(); ok {
			in.setLink(l.Router, l.Port, false, true, eff)
			in.hazards++
			in.repairs = append(in.repairs, repair{at: eff + in.cfg.Hazard.Repair, link: l})
			changed = true
		}
	}
	if changed && in.cfg.OnChange != nil {
		in.cfg.OnChange(now)
	}
}

// advance applies every scheduled transition and pending hazard repair due at
// or before cycle eff, reporting whether anything changed.
func (in *Injector) advance(eff int64) bool {
	changed := false
	for in.tnext < len(in.timeline) && in.timeline[in.tnext].at <= eff {
		in.apply(in.timeline[in.tnext], eff)
		in.tnext++
		changed = true
	}
	for len(in.repairs) > 0 && in.repairs[0].at <= eff {
		in.setLink(in.repairs[0].link.Router, in.repairs[0].link.Port, false, false, eff)
		in.repaired++
		in.repairs = in.repairs[1:]
		changed = true
	}
	return changed
}

// apply executes one transition, effective at cycle eff.
func (in *Injector) apply(tr transition, eff int64) {
	e := tr.ev
	switch e.Kind {
	case KindLinkKill:
		in.setLink(e.Router, e.Port, e.OneWay, true, eff)
		in.kills++
	case KindLinkOutage:
		in.setLink(e.Router, e.Port, e.OneWay, tr.down, eff)
		if tr.down {
			in.outages++
		} else {
			in.repaired++
		}
	case KindRouterFreeze:
		in.net.FreezeRouter(e.Router, tr.down)
		if tr.down {
			in.freezes++
		}
	}
}

// setLink flips the directed link (router, port) and, for two-way direction
// events, its reverse, maintaining the per-link downtime ledger.
func (in *Injector) setLink(router int, port noc.PortID, oneWay, down bool, eff int64) {
	in.setDir(router, port, down, eff)
	if oneWay || !port.IsDirection() {
		return
	}
	if peer := in.net.Routers()[router].Neighbor(port); peer != nil {
		in.setDir(peer.ID(), port.Opposite(), down, eff)
	}
}

func (in *Injector) setDir(router int, port noc.PortID, down bool, eff int64) {
	in.net.SetLinkDown(router, port, down)
	l := Link{Router: router, Port: port}
	if down {
		if _, dup := in.downSince[l]; !dup {
			in.downSince[l] = eff
		}
		return
	}
	if since, ok := in.downSince[l]; ok {
		in.downtime[l] += eff - since
		delete(in.downSince, l)
	}
}

// pickHealthyLink draws one undirected mesh link with both directions up,
// uniformly at random from the configured RNG, or reports none available.
func (in *Injector) pickHealthyLink() (Link, bool) {
	routers := in.net.Routers()
	healthy := make([]Link, 0, 2*len(routers))
	for _, l := range MeshLinks(in.net) {
		r := routers[l.Router]
		peer := r.Neighbor(l.Port)
		if r.LinkUp(l.Port) && peer.LinkUp(l.Port.Opposite()) {
			healthy = append(healthy, l)
		}
	}
	if len(healthy) == 0 {
		return Link{}, false
	}
	return healthy[in.cfg.RNG.Intn(len(healthy))], true
}

// Stats returns the combined engine and injector fault counters.
func (in *Injector) Stats() Stats {
	return Stats{
		FaultStats:    in.net.FaultStats(),
		LinkKills:     in.kills,
		LinkOutages:   in.outages,
		HazardOutages: in.hazards,
		RouterFreezes: in.freezes,
		Repairs:       in.repaired,
	}
}

// Reports returns a copy of the retained unreachable reports (bounded by
// Config.MaxReports; the engine's FaultStats.Unreachable has the full count).
func (in *Injector) Reports() []UnreachableReport {
	return append([]UnreachableReport(nil), in.reports...)
}

// Downtime returns the accumulated per-directed-link downtime in cycles,
// counting still-open outages up to the current cycle.
func (in *Injector) Downtime() map[Link]int64 {
	cur := in.net.Cycle() + 1
	out := make(map[Link]int64, len(in.downtime)+len(in.downSince))
	for l, d := range in.downtime {
		out[l] = d
	}
	for l, since := range in.downSince {
		out[l] += cur - since
	}
	return out
}
