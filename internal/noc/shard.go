package noc

import "math/bits"

// Sharded two-phase stepping.
//
// SetShards(K) with K > 1 splits the router array into K contiguous shards
// and turns the arbitrate stage of Step into two phases:
//
//   - Phase 1 (parallel): each shard brings its routers' cached routes up to
//     date — one Route call per head that became head since the router's last
//     turn — and lays the heads routed to each grantable output out in a
//     per-router plan. The scan is read-only outside shard-owned memory: it
//     writes only the shard's own plans, the scanned routers' arbitration
//     state and the scanned messages' routing scratch, all of which are owned
//     by the shard that owns the buffering router.
//   - Phase 2 (serial): one goroutine walks the routers in the same fixed
//     ascending order as the sequential engine and commits grants from the
//     plans, re-checking the two facts phase 1 could not know: whether an
//     earlier output of the same router already granted the input port this
//     cycle, and whether the downstream buffer still has space (an earlier
//     router's grant may have reserved the last slot — or freed one by
//     popping its own head). Policy Select/Match calls, grant application,
//     delivery scheduling and all stats run exclusively in this phase, in
//     the exact sequential order.
//
// Because deliveries land on future cycles and a grant pops only from the
// granting router's own buffers, every router's buffer heads are invariant
// across the whole arbitrate stage — so phase 1's head snapshot is exact,
// and the only state that moves under phase 2's feet is what it re-checks
// live. A seeded run is therefore bit-identical to the sequential engine for
// any shard count (pinned by TestShardInvariance). See DESIGN.md §13.
//
// A router whose scan meets a RouteUnreachable head falls back wholesale:
// phase 2 replays the sequential turn (arbitrateRouter) for it, because
// evicting a head touches network-wide counters and exposes a successor the
// scan never saw.

// ShardSafeRouting marks a Routing implementation whose verdicts the engine may
// cache and compute out of order: Route must depend only on the queried
// router, the message, and state that changes only at a fault or routing
// transition (topology, link health, routing tables rebuilt from fault
// events), and may write only to the message itself, idempotently. The engine
// then calls Route once when a message reaches a buffer head and once more
// after each such transition, possibly from the parallel phase-1 scan. A
// routing whose verdict may change at any other time must not declare
// ShardSafe. Routings that do not implement it — or return false — get the
// legacy arbitration path (every head re-routed every cycle, in a fixed
// order) and sequential stepping regardless of SetShards.
type ShardSafeRouting interface {
	Routing
	ShardSafe() bool
}

// routerPlan is one router's phase-1 output: for each output port with at
// least one grantable head, the candidate group in (input port, VC) ascending
// order — the exact order the sequential gather produces.
type routerPlan struct {
	cands    []Candidate     // per-output groups, packed ascending by output
	off, cnt [MaxPorts]uint8 // group bounds: cands[off[out]:off[out]+cnt[out]]
	filled   uint32          // bitmask of outputs with a non-empty group
	fallback bool            // unreachable head seen; replay sequentially
}

// SetShards sets the number of router shards stepped in parallel during
// arbitration. K <= 1 restores pure sequential stepping and stops the worker
// goroutines; K is clamped to the router count. Seeded runs are bit-identical
// across every K. Call SetShards(1) when done with a network to release its
// workers.
//
// Sharding engages only while the network keeps arbitration state with cached
// routes: MaxPorts*VCs <= 64 and either built-in X-Y routing or an installed
// ShardSafeRouting. Otherwise Step silently runs the sequential engine, so
// SetShards is always safe to call.
func (n *Network) SetShards(k int) {
	if k < 1 {
		k = 1
	}
	if k > len(n.routers) {
		k = len(n.routers)
	}
	if k == n.shards || (k == 1 && n.shards == 0) {
		return
	}
	n.stopShardWorkers()
	n.shards = k
	if k == 1 {
		return
	}
	n.shardBounds = make([]int, k+1)
	for i := 0; i <= k; i++ {
		n.shardBounds[i] = i * len(n.routers) / k
	}
	if len(n.plans) != len(n.routers) {
		n.plans = make([]routerPlan, len(n.routers))
	}
	n.shardWake = make([]chan struct{}, k-1)
	n.shardDone = make(chan struct{}, k-1)
	for i := range n.shardWake {
		wake := make(chan struct{}, 1)
		n.shardWake[i] = wake
		shard := i + 1
		go func() {
			for range wake {
				n.scanShard(shard)
				n.shardDone <- struct{}{}
			}
		}()
	}
}

// Shards returns the configured shard count (1 when sequential).
func (n *Network) Shards() int {
	if n.shards < 1 {
		return 1
	}
	return n.shards
}

// stopShardWorkers terminates the phase-1 worker goroutines. Only called
// between cycles, so no wake is ever pending when the channels close.
func (n *Network) stopShardWorkers() {
	for _, wake := range n.shardWake {
		close(wake)
	}
	n.shardWake = nil
	n.shardDone = nil
}

// arbitrateSharded runs one two-phase arbitration: wake the workers, scan
// shard 0 on this goroutine, barrier on the workers, then commit serially.
func (n *Network) arbitrateSharded() {
	n.shardForks++
	for _, wake := range n.shardWake {
		wake <- struct{}{}
	}
	n.scanShard(0)
	for range n.shardWake {
		<-n.shardDone
	}
	n.commitPlans()
}

// scanShard builds the phase-1 plans for every router of one shard. It runs
// concurrently with the other shards' scans and must only write shard-owned
// state (see the file comment).
func (n *Network) scanShard(shard int) {
	lo, hi := n.shardBounds[shard], n.shardBounds[shard+1]
	if n.activeOK() {
		// Scan only the active routers of [lo, hi) by masking the shard's
		// boundary words of the activity bitmap. Phase 1 never mutates the
		// bitmap (it pops nothing), so the words are stable under the
		// concurrent shard scans. Plans of skipped routers go stale, which
		// is fine: phase 2 iterates the same activity snapshot, so a plan is
		// only read in the cycle that refreshed it.
		loWord := lo >> 6
		hiWord := (hi + 63) >> 6
		for wi := loWord; wi < hiWord; wi++ {
			word := n.actR[wi]
			if wi == loWord {
				word &^= (1 << (uint(lo) & 63)) - 1
			}
			if wi<<6+64 > hi {
				word &= (1 << (uint(hi) & 63)) - 1
			}
			base := wi << 6
			for ; word != 0; word &= word - 1 {
				id := base + bits.TrailingZeros64(word)
				n.scanRouter(n.routers[id], &n.plans[id])
			}
		}
		return
	}
	for id := lo; id < hi; id++ {
		n.scanRouter(n.routers[id], &n.plans[id])
	}
}

// scanRouter builds one router's phase-1 plan: route the heads that became
// head since the router's last turn — writing only r's own arbitration state
// — and lay out, per free output, the heads routed to it.
func (n *Network) scanRouter(r *Router, p *routerPlan) {
	p.filled = 0
	p.fallback = false
	if r.occ == 0 || (n.faulty && r.frozen) {
		return
	}
	if r.stale != 0 && !n.routeHeads(r, false) {
		// Evicting the head exposes a successor this scan never routed;
		// replay the router sequentially in phase 2.
		p.fallback = true
		return
	}
	cands := p.cands[:0]
	for out := PortID(0); out < MaxPorts; out++ {
		req := r.requests(out, n.cycle)
		if req == 0 {
			continue
		}
		p.filled |= 1 << out
		p.off[out] = uint8(len(cands))
		cands = n.appendHeads(cands, r, req)
		p.cnt[out] = uint8(len(cands)) - p.off[out]
	}
	p.cands = cands
}

// commitPlans is phase 2: walk routers in ascending order — on the active-set
// path the same activity snapshot phase 1 scanned (phase 1 pops nothing, and
// within phase 2 only the router currently committing can clear its own bit,
// so per-word snapshots stay exact) — and commit each router's plan. A router
// whose scan met an unreachable head replays the sequential turn instead.
func (n *Network) commitPlans() {
	if !n.activeOK() {
		for id := range n.routers {
			n.commitPlan(id)
		}
		return
	}
	for wi, word := range n.actR {
		for base := wi << 6; word != 0; word &= word - 1 {
			n.commitPlan(base + bits.TrailingZeros64(word))
		}
	}
}

func (n *Network) commitPlan(id int) {
	r, p := n.routers[id], &n.plans[id]
	switch {
	case p.fallback:
		n.arbitrateRouter(r)
	case p.filled == 0:
	case n.matcher != nil:
		n.commitRouterMatched(r, p)
	default:
		n.commitRouter(r, p)
	}
}

// commitRouter applies one router's phase-1 plan for a per-output selection
// policy: filter each group by the two live facts (input port already granted
// this cycle by an earlier output; downstream buffer full) and select/grant
// exactly as the sequential engine does.
func (n *Network) commitRouter(r *Router, p *routerPlan) {
	for out := PortID(0); out < MaxPorts; out++ {
		if p.filled&(1<<out) == 0 {
			continue
		}
		group := p.cands[p.off[out] : int(p.off[out])+int(p.cnt[out])]
		var down []*Buffer
		if next := r.peerRouter[out]; next != nil {
			down = next.in[out.Opposite()]
		}
		cands := n.candScratch[:0]
		for _, c := range group {
			if r.inGrantedAt[c.Port] == n.cycle {
				continue
			}
			if down != nil && !down[c.VC].Free() {
				continue
			}
			cands = append(cands, c)
		}
		n.candScratch = cands
		if len(cands) == 0 {
			continue
		}
		n.selectAndGrant(r, out, cands)
	}
}

// commitRouterMatched is commitRouter's counterpart for whole-router matchers:
// build the request list from the plan with the live downstream-space filter
// (no granted-input filter is needed — grants apply only after Match) and run
// the sequential match-and-apply tail.
func (n *Network) commitRouterMatched(r *Router, p *routerPlan) {
	arena, reqs := n.matchArena(), n.reqScratch[:0]
	for out := PortID(0); out < MaxPorts; out++ {
		if p.filled&(1<<out) == 0 {
			continue
		}
		group := p.cands[p.off[out] : int(p.off[out])+int(p.cnt[out])]
		var down []*Buffer
		if next := r.peerRouter[out]; next != nil {
			down = next.in[out.Opposite()]
		}
		start := len(arena)
		for _, c := range group {
			if down != nil && !down[c.VC].Free() {
				continue
			}
			arena = append(arena, c)
		}
		if len(arena) == start {
			continue
		}
		reqs = append(reqs, Request{Out: out, Cands: arena[start:len(arena):len(arena)]})
	}
	n.matchAndApply(r, reqs)
}
