package noc

// Candidate describes one input buffer whose head message competes for an
// output port in the current arbitration.
type Candidate struct {
	Port PortID
	VC   int
	Msg  *Message
}

// ArbContext carries the arbitration site: which router and output port are
// being arbitrated, at which cycle, inside which network.
type ArbContext struct {
	Net    *Network
	Router *Router
	Out    PortID
	Cycle  int64
}

// Policy selects, for one output port, which competing input buffer is
// granted. Select is only invoked with two or more candidates; a sole
// requester is granted directly without consulting the policy (Section 4.5 of
// the paper). Implementations may keep per-(router,output) state keyed by
// ctx.Router.ID() and ctx.Out.
//
// Select must return an index into cands.
type Policy interface {
	Name() string
	Select(ctx *ArbContext, cands []Candidate) int
}

// Request is one output port's arbitration problem, used by router-level
// matchers such as iSLIP.
type Request struct {
	Out   PortID
	Cands []Candidate
}

// Matcher is an optional interface for policies that compute a whole-router
// input/output matching (e.g. iSLIP's iterative grant/accept). When a Policy
// also implements Matcher, the engine calls Match once per router per cycle
// with every free, requested output port; the returned slice gives, for each
// request, the index of the winning candidate or -1 to leave the output idle.
//
// A valid matching grants each input port at most once; the engine verifies
// this and panics on violation, since it indicates a policy bug.
type Matcher interface {
	Match(ctx *MatchContext, reqs []Request) []int
}

// MatchContext carries the matching site for Matcher policies.
type MatchContext struct {
	Net    *Network
	Router *Router
	Cycle  int64
}

// GrantObserver is a marker the engine ignores: no policy needs to see its
// grants (an instrument that does attaches an Observer). It survives only
// because benchmark/ names it, and is deleted together with benchmark/'s
// decorator for it when the benchmark harness is unified.
type GrantObserver interface {
	ObserveGrant(ctx *ArbContext, cands []Candidate, chosen int)
}
