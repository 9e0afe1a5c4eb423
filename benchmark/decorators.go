package main

import "mlnoc/internal/noc"

// The engine picks its stepping path from the optional interfaces of the
// installed policy and routing (noc.Matcher, noc.GrantObserver,
// noc.ShardSafeRouting), and apu.RunWorkload installs a policy's OnCycle by
// the same kind of assertion. A timing decorator must therefore expose
// exactly the optional methods its inner value has — no more, or the engine
// would call a method the policy does not have; no fewer, or the traced run
// would take another engine path than the run it explains.

// callTimer accumulates the raw duration and count of the calls into one
// layer. Raw means each call's duration still includes one clock read.
type callTimer struct{ ns, calls int64 }

// delta returns the growth since prev and advances prev.
func (c *callTimer) delta(prev *callTimer) (ns, calls int64) {
	ns, calls = c.ns-prev.ns, c.calls-prev.calls
	*prev = *c
	return ns, calls
}

// cycleHook is the method apu.RunWorkload looks for on a policy.
type cycleHook interface{ OnCycle(*noc.Network) }

// timedPolicy times Select. It is returned bare for a policy with no optional
// interface and embedded in the combinations below otherwise.
type timedPolicy struct {
	inner  noc.Policy
	sel    callTimer
	cands  int64
	match  callTimer
	cycle  callTimer
	before func(ctx *noc.ArbContext, cands []noc.Candidate) // runs untimed ahead of Select; may be nil
}

func (p *timedPolicy) Name() string { return p.inner.Name() }

func (p *timedPolicy) Select(ctx *noc.ArbContext, cands []noc.Candidate) int {
	if p.before != nil {
		p.before(ctx, cands)
	}
	t0 := now()
	i := p.inner.Select(ctx, cands)
	p.sel.ns += now() - t0
	p.sel.calls++
	p.cands += int64(len(cands))
	return i
}

type matchFwd struct {
	p *timedPolicy
	m noc.Matcher
}

func (f matchFwd) Match(ctx *noc.MatchContext, reqs []noc.Request) []int {
	t0 := now()
	out := f.m.Match(ctx, reqs)
	f.p.match.ns += now() - t0
	f.p.match.calls++
	return out
}

type grantFwd struct{ g noc.GrantObserver }

func (f grantFwd) ObserveGrant(ctx *noc.ArbContext, cands []noc.Candidate, chosen int) {
	f.g.ObserveGrant(ctx, cands, chosen)
}

type cycleFwd struct {
	p *timedPolicy
	c cycleHook
}

func (f cycleFwd) OnCycle(n *noc.Network) {
	t0 := now()
	f.c.OnCycle(n)
	f.p.cycle.ns += now() - t0
	f.p.cycle.calls++
}

// wrapPolicy returns a timing decorator with exactly inner's optional
// methods, and the timedPolicy that collects the timings.
func wrapPolicy(inner noc.Policy) (noc.Policy, *timedPolicy) {
	p := &timedPolicy{inner: inner}
	m, isM := inner.(noc.Matcher)
	g, isG := inner.(noc.GrantObserver)
	c, isC := inner.(cycleHook)
	mf, gf, cf := matchFwd{p, m}, grantFwd{g}, cycleFwd{p, c}
	switch {
	case isM && isG && isC:
		return struct {
			*timedPolicy
			matchFwd
			grantFwd
			cycleFwd
		}{p, mf, gf, cf}, p
	case isM && isG:
		return struct {
			*timedPolicy
			matchFwd
			grantFwd
		}{p, mf, gf}, p
	case isM && isC:
		return struct {
			*timedPolicy
			matchFwd
			cycleFwd
		}{p, mf, cf}, p
	case isG && isC:
		return struct {
			*timedPolicy
			grantFwd
			cycleFwd
		}{p, gf, cf}, p
	case isM:
		return struct {
			*timedPolicy
			matchFwd
		}{p, mf}, p
	case isG:
		return struct {
			*timedPolicy
			grantFwd
		}{p, gf}, p
	case isC:
		return struct {
			*timedPolicy
			cycleFwd
		}{p, cf}, p
	}
	return p, p
}

// timedRouting times Route.
type timedRouting struct {
	inner noc.Routing
	route callTimer
}

func (r *timedRouting) Name() string { return r.inner.Name() }

func (r *timedRouting) Route(rt *noc.Router, m *noc.Message) noc.PortID {
	t0 := now()
	p := r.inner.Route(rt, m)
	r.route.ns += now() - t0
	r.route.calls++
	return p
}

// timedShardSafeRouting carries the ShardSafe marker through, which keeps the
// route-once arbitration path and lazy eviction (and sharding) available.
type timedShardSafeRouting struct {
	*timedRouting
	safe noc.ShardSafeRouting
}

func (r timedShardSafeRouting) ShardSafe() bool { return r.safe.ShardSafe() }

// wrapRouting returns a timing decorator that is a noc.ShardSafeRouting
// exactly when inner is.
func wrapRouting(inner noc.Routing) (noc.Routing, *timedRouting) {
	r := &timedRouting{inner: inner}
	if s, ok := inner.(noc.ShardSafeRouting); ok {
		return timedShardSafeRouting{r, s}, r
	}
	return r, r
}
