package noc

// Observer receives the structural events of a simulation: injections into the
// network, arbitration grants, and deliveries. Observers are the engine-level
// instrumentation hook used by the obs and trace packages; they see every
// event regardless of the installed policy.
//
// Observer methods run inside Network.Step and must not call Step, Run or
// Drain. They may inspect any exported network state. ObserveInject
// additionally must not call Node.Inject: it fires mid-way through the
// inject stage's walk over the node-activity bitmap, and a node activated
// during that walk may or may not be visited in the same cycle. Node.Sink
// and OnCycle run after the stages that scan the bitmaps and remain the
// supported injection points.
type Observer interface {
	// ObserveInject runs when a message leaves its node's injection queue and
	// enters the network at the source router.
	ObserveInject(now int64, node *Node, m *Message)
	// ObserveGrant runs for every arbitration grant, including the
	// single-candidate grants that bypass Policy.Select. The candidate's head
	// message has been granted output port out of router r.
	ObserveGrant(now int64, r *Router, out PortID, c Candidate)
	// ObserveDeliver runs when a message is ejected at its destination node.
	ObserveDeliver(now int64, node *Node, m *Message)
}

// ArbObserver is an optional extension of Observer for instrumentation that
// needs to see whole arbitration decisions — the full competing candidate set
// and the arbiter's choice — not just the resulting grants. It runs for every
// contested (two-or-more-candidate) arbitration, and additionally whenever a
// Matcher leaves a requested output idle (chosen == -1, every candidate
// lost). Observers that also implement ArbObserver are registered for both
// event streams by AddObserver.
//
// The cands slice is only valid for the duration of the call.
type ArbObserver interface {
	ObserveArb(now int64, r *Router, out PortID, cands []Candidate, chosen int)
}

// FaultObserver is an optional extension of Observer for instrumentation that
// follows messages through fault events: requeues (off a killed link, or
// stranded by a routing-table rebuild) and unreachable evictions. Observers
// that also implement FaultObserver are registered by AddObserver.
type FaultObserver interface {
	// ObserveRequeue runs when a message is pulled out of harm's way: r and p
	// identify the buffer (link requeue) or in-flight channel (stranded
	// rescue) it was removed from.
	ObserveRequeue(now int64, r *Router, p PortID, m *Message)
	// ObserveUnreachable runs when a message is evicted with an explicit
	// unreachable-destination verdict at router r.
	ObserveUnreachable(now int64, r *Router, m *Message)
}

// AddObserver registers an engine observer. Multiple observers run in
// registration order. Observers that also implement ArbObserver or
// FaultObserver receive those event streams too.
func (n *Network) AddObserver(o Observer) {
	n.observers = append(n.observers, o)
	if ao, ok := o.(ArbObserver); ok {
		n.arbObs = append(n.arbObs, ao)
	}
	if fo, ok := o.(FaultObserver); ok {
		n.faultObs = append(n.faultObs, fo)
	}
}

// AddOnCycle chains f to run after the currently installed OnCycle hook (if
// any) at the end of every Step. It lets instrumentation attach without
// clobbering a hook already claimed by a policy or trainer.
func (n *Network) AddOnCycle(f func(*Network)) {
	prev := n.OnCycle
	if prev == nil {
		n.OnCycle = f
		return
	}
	n.OnCycle = func(net *Network) {
		prev(net)
		f(net)
	}
}

func (n *Network) observeInject(node *Node, m *Message) {
	for _, o := range n.observers {
		o.ObserveInject(n.cycle, node, m)
	}
}

func (n *Network) observeGrant(r *Router, out PortID, c Candidate) {
	for _, o := range n.observers {
		o.ObserveGrant(n.cycle, r, out, c)
	}
}

func (n *Network) observeDeliver(node *Node, m *Message) {
	for _, o := range n.observers {
		o.ObserveDeliver(n.cycle, node, m)
	}
}

func (n *Network) observeArb(r *Router, out PortID, cands []Candidate, chosen int) {
	for _, o := range n.arbObs {
		o.ObserveArb(n.cycle, r, out, cands, chosen)
	}
}

func (n *Network) observeRequeue(r *Router, p PortID, m *Message) {
	for _, o := range n.faultObs {
		o.ObserveRequeue(n.cycle, r, p, m)
	}
}

func (n *Network) observeUnreachable(r *Router, m *Message) {
	for _, o := range n.faultObs {
		o.ObserveUnreachable(n.cycle, r, m)
	}
}
