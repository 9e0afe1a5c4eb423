// Package rl implements the reinforcement-learning machinery of the paper's
// methodology: experience replay, deep Q-learning with a target network
// (Mnih et al. 2015, as cited by the paper), and the three reward functions
// compared in Section 6.3 (global age, reciprocal accumulated latency, link
// utilization).
package rl

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"

	"mlnoc/internal/nn"
	"mlnoc/internal/noc"
)

// Experience is one <state, action, reward, next state> tuple (Fig. 3 of the
// paper). States are held in the sparse form the Q-network takes them in
// (nn.SparseVec: a dozen entries per competing message of a state that is
// otherwise zero padding): the replay memory, which stores Transitions,
// decodes them so when it draws them.
type Experience struct {
	State  nn.SparseVec
	Action int
	Reward float64
	// Next is the successor state. It is meaningless when Terminal is set: no
	// successor was observed before the episode ended, and the experience
	// trains without a bootstrapped future term. An empty Next is a state
	// like any other (all zeros), never a terminal marker.
	Next     nn.SparseVec
	Terminal bool
	// NextValid lists the action indices that were actually available in the
	// next state (occupied buffer slots). When non-empty, the Bellman max is
	// restricted to them, so the bootstrap never flows through Q-values of
	// empty buffers that can never be selected.
	NextValid []int
}

// bootstrap returns the Bellman max over the next state's Q-values q: over
// the actions valid lists when it lists any, else over all of q.
func bootstrap(q []float64, valid []int) float64 {
	if len(valid) > 0 {
		best := q[valid[0]]
		for _, a := range valid[1:] {
			if q[a] > best {
				best = q[a]
			}
		}
		return best
	}
	best := q[0]
	for _, v := range q[1:] {
		if v > best {
			best = v
		}
	}
	return best
}

// StateCodec decodes the states the replay memory stores: each is kept as a
// record, the raw readings it was built from, and becomes the state vector
// the Q-network takes only when an experience holding it is drawn.
type StateCodec interface {
	InputSize() int  // the width of the decoded states
	ActionSize() int // the Q-network's output width
	// Expand decodes rec into a state vector, well-formed and InputSize
	// wide, and the actions, each below ActionSize, that were available in
	// that state. Like append, it builds into v's and valid's storage when
	// they have the capacity and returns the results. It panics on a record
	// it could not have been given.
	Expand(v nn.SparseVec, valid []int, rec []byte) (nn.SparseVec, []int)
}

// Transition is an experience as the replay memory takes it: its states are
// records its StateCodec decodes. Next is not stored when Terminal is set.
type Transition struct {
	State    []byte
	Action   int
	Reward   float64
	Next     []byte
	Terminal bool
}

// The bits of the kind byte that opens a stored transition: the reward is 1,
// or the eight bytes after the header (else it is 0); the transition is
// terminal; its action and record lengths take eight bytes each, not one.
const rewardOne, rewardBits, terminal, wide = 1, 2, 4, 8

// appendTransition appends t's bytes to dst, as the replay arena and a dataset
// file hold it: the kind byte; the action and the two records' lengths, one
// byte each while all three are below 256, else eight each; the reward's
// bits unless it is 0 or 1 (eight bytes little-endian, like the others);
// then the records, a terminal's Next left out. So the header of a
// transition whose action and records are under 256 takes four bytes.
func appendTransition(dst []byte, t Transition) []byte {
	if t.Action < 0 {
		panic("rl: negative action")
	}
	succ, kind, bits := t.Next, byte(0), math.Float64bits(t.Reward)
	if t.Terminal {
		succ, kind = nil, terminal
	}
	if bits == math.Float64bits(1) {
		kind |= rewardOne
	} else if bits != 0 {
		kind |= rewardBits
	}
	if max(t.Action, len(t.State), len(succ)) < 256 {
		dst = append(dst, kind, byte(t.Action), byte(len(t.State)), byte(len(succ)))
	} else {
		dst = append(dst, kind|wide)
		for _, x := range [...]int{t.Action, len(t.State), len(succ)} {
			dst = binary.LittleEndian.AppendUint64(dst, uint64(x))
		}
	}
	if kind&rewardBits != 0 {
		dst = binary.LittleEndian.AppendUint64(dst, bits)
	}
	return append(append(dst, t.State...), succ...)
}

// parseTransition parses the transition appendTransition wrote at the start of
// b: it returns the transition, whose records are slices of b, and its length
// in bytes, or ok false when b does not start with one. The arena holds
// nothing else, so the ring does not look at ok.
func parseTransition(b []byte) (t Transition, n int, ok bool) {
	if len(b) < 4 || b[0]&wide != 0 && len(b) < 25 || b[0] > terminal|wide|rewardBits ||
		b[0]&rewardOne != 0 && b[0]&rewardBits != 0 {
		return t, 0, false
	}
	kind, u := b[0], [3]uint64{uint64(b[1]), uint64(b[2]), uint64(b[3])}
	if n = 4; kind&wide != 0 {
		le := binary.LittleEndian
		u, n = [3]uint64{le.Uint64(b[1:]), le.Uint64(b[9:]), le.Uint64(b[17:])}, 25
	}
	t.Reward = float64(kind & rewardOne)
	if kind&rewardBits != 0 {
		if len(b)-n < 8 {
			return t, 0, false
		}
		t.Reward, n = math.Float64frombits(binary.LittleEndian.Uint64(b[n:])), n+8
	}
	if rest := uint64(len(b) - n); u[0] > math.MaxInt || u[1] > rest || u[2] > rest-u[1] {
		return t, 0, false
	}
	ns := n + int(u[1])
	end := ns + int(u[2])
	return Transition{b[n:ns], int(u[0]), t.Reward, b[ns:end], kind&terminal != 0}, end, true
}

// Replay is the circular experience-replay buffer used to decorrelate
// training samples (Section 3.1.2). The zero value is unusable; create one
// with NewReplay.
//
// The experiences are Transitions, stored back to back in ring order in one
// byte arena as appendTransition writes them, each behind a header that is
// four bytes while its action and records are under 256. The arena holds no
// pointer, so the garbage collector never scans it. An experience is
// decoded, through Codec, only when SampleInto or At draws it.
type Replay struct {
	// Codec decodes the stored states; it must be set before the first
	// SampleInto or At.
	Codec StateCodec

	cap  int
	next int // the slot the next Add fills
	size int

	// arena holds the records; off[k] is where slot k's starts, and end is
	// where the youngest one ends. Both are allocated by the first Add: a
	// frozen evaluation agent owns a Replay and never fills it.
	arena []byte
	off   []uint32
	end   int
	// enc is where Add encodes a transition before placing it.
	enc []byte

	// out holds the experiences the last SampleInto or At decoded. Their
	// vectors and Next's valid actions are cut from idx, val and valid, which
	// grow after a draw that did not fit in them (spilled), to twice what it
	// took.
	out     []Experience
	idx     []int32
	val     []float64
	valid   []int
	nIdx    int
	nValid  int
	spilled bool
}

// NewReplay creates a replay memory holding up to capacity experiences.
func NewReplay(capacity int) *Replay {
	if capacity <= 0 {
		panic("rl: replay capacity must be positive")
	}
	return &Replay{cap: capacity}
}

// minArena is the size in bytes of the arena the first Add allocates.
const minArena = 4096

// Add stores a copy of one experience, evicting the oldest when full.
func (r *Replay) Add(t Transition) {
	r.enc = appendTransition(r.enc[:0], t)
	if r.off == nil {
		r.off = make([]uint32, r.cap)
	}
	p := r.place(len(r.enc))
	r.off[r.next] = uint32(p)
	r.end = p + copy(r.arena[p:], r.enc)
	r.next = (r.next + 1) % r.cap
	if r.size < r.cap {
		r.size++
	}
}

// place returns where a record of n bytes goes, the slot it fills given up
// if the ring is full: right after the youngest record, or at the start of
// the arena when the end has no room. Where either would overrun the oldest
// live record, the arena doubles, and the live records move to its start in
// ring order.
func (r *Replay) place(n int) int {
	live := r.size
	if live == r.cap {
		live--
	}
	if live == 0 {
		if n > len(r.arena) {
			r.arena = make([]byte, max(minArena, 2*len(r.arena), n))
		}
		return 0
	}
	first := (r.next - live + r.cap) % r.cap
	oldest, youngest := int(r.off[first]), int(r.off[(r.next-1+r.cap)%r.cap])
	switch {
	case youngest >= oldest && r.end+n <= len(r.arena):
		return r.end
	case youngest >= oldest && n <= oldest:
		return 0
	case youngest < oldest && r.end+n <= oldest:
		return r.end
	}
	size := 2 * len(r.arena)
	for size < len(r.arena)+n {
		size *= 2
	}
	if uint64(size) > math.MaxUint32 {
		panic("rl: replay arena past 4 GB")
	}
	arena, w := make([]byte, size), 0
	for i := 0; i < live; i++ {
		k := (first + i) % r.cap
		p := r.off[k]
		_, n, _ := parseTransition(r.arena[p:])
		r.off[k] = uint32(w)
		w += copy(arena[w:], r.arena[p:p+uint32(n)])
	}
	r.arena = arena
	return w
}

// At returns the i-th stored experience in insertion order (0 = oldest),
// decoded into storage the replay owns: it is valid until the next At or
// SampleInto.
func (r *Replay) At(i int) *Experience {
	if i < 0 || i >= r.size {
		panic("rl: replay index out of range")
	}
	r.startDecoding(1)
	return r.decode(0, (r.next-r.size+i+r.cap)%r.cap)
}

// Len returns the number of stored experiences.
func (r *Replay) Len() int { return r.size }

// Cap returns the capacity of the replay memory.
func (r *Replay) Cap() int { return r.cap }

// SampleInto fills dst with len(dst) experiences drawn uniformly at random
// with replacement — the same slot can appear several times in one batch, and
// the draw probability is uniform over stored experiences regardless of age.
// It draws exactly len(dst) values from rng, one Intn(Len()) per element in
// order. The experiences are decoded into storage the replay owns, which
// stays valid until the next SampleInto or At; once that storage has grown to
// fit the batches drawn, sampling allocates nothing. It panics if the buffer
// is empty.
func (r *Replay) SampleInto(rng *rand.Rand, dst []*Experience) {
	if r.size == 0 {
		panic("rl: sampling from empty replay memory")
	}
	r.startDecoding(len(dst))
	for i := range dst {
		dst[i] = r.decode(i, rng.Intn(r.size))
	}
}

// startDecoding readies out for n experiences and the vector storage for a
// new draw, growing it if the last draw spilled out of it.
func (r *Replay) startDecoding(n int) {
	if r.Codec == nil {
		panic("rl: replay memory has no Codec")
	}
	if len(r.out) < n {
		r.out = make([]Experience, n)
	}
	if r.spilled {
		entries, valid := max(2*r.nIdx, 2*len(r.idx), 64), max(2*r.nValid, 2*len(r.valid), 16)
		r.idx, r.val, r.valid = make([]int32, entries), make([]float64, entries), make([]int, valid)
		r.spilled = false
	}
	r.nIdx, r.nValid = 0, 0
}

// decode decodes slot k's experience into out[i] and returns it.
func (r *Replay) decode(i, k int) *Experience {
	t, _, _ := parseTransition(r.arena[r.off[k]:])
	e := &r.out[i]
	e.Action, e.Reward, e.Terminal = t.Action, t.Reward, t.Terminal
	// The state's valid actions are not kept: they are decoded into free
	// storage, which Next's may then take.
	e.State, _ = r.expand(t.State, false)
	e.Next, e.NextValid = nn.SparseVec{}, nil
	if !t.Terminal {
		e.Next, e.NextValid = r.expand(t.Next, true)
	}
	return e
}

// expand decodes rec into the free part of the vector storage and takes what
// it used, and, if keepValid, the valid actions' storage too. nIdx and nValid
// count what the draw has taken, whether it fit or spilled.
func (r *Replay) expand(rec []byte, keepValid bool) (nn.SparseVec, []int) {
	i, j := min(r.nIdx, len(r.idx)), min(r.nValid, len(r.valid))
	free := nn.SparseVec{Idx: r.idx[i:i], Val: r.val[i:i]}
	v, valid := r.Codec.Expand(free, r.valid[j:j], rec)
	if cap(v.Idx) != cap(free.Idx) || cap(v.Val) != cap(free.Val) || cap(valid) != len(r.valid)-j {
		r.spilled = true
	}
	r.nIdx += len(v.Idx)
	if keepValid {
		r.nValid += len(valid)
	}
	return v, valid
}

// DQLConfig configures a deep Q-learner. The defaults (applied by NewDQL for
// zero fields) are the training harness's recipe, the one place it is
// written. The paper's Section 4.6 values, in the field comments, converge
// over industrial-length simulations; at laptop scale a larger batch and a
// higher learning rate reach the same policies in tens of thousands of
// cycles.
type DQLConfig struct {
	Gamma     float64 // discount factor (paper: 0.9)
	LR        float64 // learning rate (paper: 0.001)
	ReplayCap int     // replay memory entries (paper: 4000)
	BatchSize int     // records sampled per training step (paper: 2)
	SyncEvery int64   // training steps between target-network refreshes
	Epsilon   float64 // exploration rate (paper: 0.001)
}

func (c *DQLConfig) applyDefaults() {
	if c.Gamma == 0 {
		c.Gamma = 0.5
	}
	if c.LR == 0 {
		c.LR = 0.05
	}
	if c.ReplayCap == 0 {
		c.ReplayCap = 16000
	}
	if c.BatchSize == 0 {
		c.BatchSize = 32
	}
	if c.SyncEvery == 0 {
		c.SyncEvery = 2000
	}
}

// DQL is a deep Q-learner: an online network trained by SGD against targets
// bootstrapped from a periodically synchronized target network.
type DQL struct {
	Online *nn.MLP
	// Target is nil on a learner from NewInferenceDQL until it first trains.
	Target *nn.MLP
	Replay *Replay
	Cfg    DQLConfig

	steps int64
	loss  float64

	// batch, nextStates and nextValid are TrainBatch scratch, grown once and
	// reused so steady-state training performs zero heap allocations.
	batch      []*Experience
	nextStates []nn.SparseVec
	nextValid  [][]int
}

// NewDQL wraps an online network with a target copy and replay memory.
func NewDQL(online *nn.MLP, cfg DQLConfig) *DQL {
	d := NewInferenceDQL(online, cfg)
	d.ensureTarget()
	return d
}

// NewInferenceDQL is NewDQL for a network that is deployed, not trained: the
// target copy, which only training reads, is not made. Should the learner be
// trained after all, its first TrainBatch or TrainOffline clones the target
// from the online weights as they are then.
func NewInferenceDQL(online *nn.MLP, cfg DQLConfig) *DQL {
	cfg.applyDefaults()
	return &DQL{Online: online, Replay: NewReplay(cfg.ReplayCap), Cfg: cfg}
}

// ensureTarget makes the target copy a NewInferenceDQL learner went without.
func (d *DQL) ensureTarget() {
	if d.Target == nil {
		d.Target = d.Online.Clone()
	}
}

// Observe stores one experience in replay memory.
func (d *DQL) Observe(t Transition) { d.Replay.Add(t) }

// TrainBatch samples Cfg.BatchSize experiences and applies one Bellman update
// each: Q(s,a) <- r + gamma * max_a' Qtarget(s',a'). It returns the mean
// squared TD error of the batch and is a no-op returning 0 when replay is
// empty.
//
// The target network's Q-values are computed by one ForwardBatchFastSparse
// call per chunk of the batch, a chunk never straddling a target sync, so
// every experience sees the target weights a one-forward-per-experience loop
// would have used. Each non-terminal experience asks for the outputs its
// NextValid lists, the ones the Bellman max reads (all of them when it lists
// none): on the APU traffic 2 or 3 of 42. A listed Q-value has the bits the
// all-outputs call gives it. On amd64 with AVX2 that call's FMA contraction may
// perturb target Q-values by a few ULPs relative to a sequential forward pass,
// deterministically for a given platform and seed, so trajectories are pinned
// per platform. Where nn has its kernels both networks keep layer 0
// input-major (see nn.MLP, "Layer 0 storage"): a sync's CopyFrom is one copy
// between the two stores, and Target.Layers[0].W, like Online's, is current
// only after its WriteBack. The returned rows alias the target network's batch
// scratch; each chunk is consumed (Bellman max extracted) before the next
// chunk's call invalidates them.
func (d *DQL) TrainBatch(rng *rand.Rand) float64 {
	if d.Replay.Len() == 0 {
		return 0
	}
	d.ensureTarget()
	n := d.Cfg.BatchSize
	if cap(d.batch) < n {
		d.batch = make([]*Experience, n)
		d.nextStates = make([]nn.SparseVec, n)
		d.nextValid = make([][]int, n)
	}
	batch := d.batch[:n]
	d.Replay.SampleInto(rng, batch)
	total := 0.0
	for start := 0; start < n; {
		chunk := n - start
		if d.Cfg.SyncEvery > 0 {
			if until := int(d.Cfg.SyncEvery - d.steps%d.Cfg.SyncEvery); until < chunk {
				chunk = until
			}
		}
		// Batched target inference for this chunk's non-terminal successors.
		ns, nv := d.nextStates[:0], d.nextValid[:0]
		for _, e := range batch[start : start+chunk] {
			if !e.Terminal {
				ns, nv = append(ns, e.Next), append(nv, e.NextValid)
			}
		}
		qs := d.Target.ForwardBatchFastSparse(ns, nv)
		qi := 0
		for _, e := range batch[start : start+chunk] {
			target := e.Reward
			if !e.Terminal {
				target += float64(d.Cfg.Gamma * bootstrap(qs[qi], e.NextValid))
				qi++
			}
			total += d.Online.TrainActionSparse(e.State, e.Action, target, d.Cfg.LR)
			d.steps++
			if d.Cfg.SyncEvery > 0 && d.steps%d.Cfg.SyncEvery == 0 {
				d.Target.CopyFrom(d.Online)
			}
		}
		start += chunk
	}
	d.loss = total / float64(len(batch))
	return d.loss
}

// Steps returns the number of single-experience SGD updates performed.
func (d *DQL) Steps() int64 { return d.steps }

// Loss returns the mean squared TD error of the last batch TrainBatch
// trained, 0 before the first.
func (d *DQL) Loss() float64 { return d.loss }

// RewardKind selects one of the Section 6.3 reward functions.
type RewardKind int

// Reward functions compared in the paper.
const (
	// RewardGlobalAge gives a fixed positive reward for selecting the
	// competing message with the largest global age, and zero otherwise.
	// This is the paper's default and the only one that converges (Fig. 12).
	RewardGlobalAge RewardKind = iota
	// RewardAccLatency is the reciprocal of the average accumulated latency
	// of messages delivered in the last period plus messages still in
	// transit, sampled periodically and applied to all following actions.
	RewardAccLatency
	// RewardLinkUtil is the fraction of links that transferred a message in
	// the previous cycle, applied to all actions in the next cycle.
	RewardLinkUtil
)

// String implements fmt.Stringer.
func (k RewardKind) String() string {
	switch k {
	case RewardGlobalAge:
		return "global_age"
	case RewardAccLatency:
		return "acc_latency"
	case RewardLinkUtil:
		return "link_util"
	}
	return fmt.Sprintf("RewardKind(%d)", int(k))
}

// RewardTracker computes per-decision rewards. For the global-age reward the
// value depends on the specific decision; for the two global rewards it is a
// network-wide value refreshed by OnCycle and shared by every decision in the
// period — exactly the distinction Section 6.3 identifies as the reason
// global rewards train poorly.
type RewardTracker struct {
	Kind RewardKind

	current float64
}

// rewardPeriod is RewardAccLatency's sampling period in cycles (paper: e.g.
// 10 cycles).
const rewardPeriod = 10

// NewRewardTracker creates a tracker for the given reward kind.
func NewRewardTracker(kind RewardKind) *RewardTracker {
	return &RewardTracker{Kind: kind}
}

// OnCycle refreshes period-based rewards; call it once per simulated cycle.
func (t *RewardTracker) OnCycle(n *noc.Network) {
	switch t.Kind {
	case RewardLinkUtil:
		t.current = n.LinkUtilization()
	case RewardAccLatency:
		if n.Cycle()%rewardPeriod != 0 {
			return
		}
		sum, count := n.TakeDeliveryWindow()
		// Average over delivered-this-period and in-transit messages;
		// including in-transit messages is the fix the paper describes for
		// the starvation incentive of a completed-only latency reward.
		inflight := n.InFlight()
		total := float64(count) + float64(inflight)
		if total == 0 {
			t.current = 1
			return
		}
		avg := (float64(sum) + float64(n.AvgInFlightAge()*float64(inflight))) / total
		if avg < 1 {
			avg = 1
		}
		t.current = 1 / avg
	}
}

// DecisionReward returns the reward for granting cands[chosen] at the given
// arbitration site.
func (t *RewardTracker) DecisionReward(ctx *noc.ArbContext, cands []noc.Candidate, chosen int) float64 {
	switch t.Kind {
	case RewardGlobalAge:
		oldest := cands[0].Msg.InjectCycle
		for _, c := range cands[1:] {
			if c.Msg.InjectCycle < oldest {
				oldest = c.Msg.InjectCycle
			}
		}
		if cands[chosen].Msg.InjectCycle == oldest {
			return 1
		}
		return 0
	default:
		return t.current
	}
}
