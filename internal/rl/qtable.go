package rl

import "math/rand"

// QTable is classic tabular Q-learning (Watkins 1992, as introduced in the
// paper's Section 2.2). The paper dismisses it for NoC arbitration because
// the state space — a vector of hundreds of feature values — cannot be
// enumerated; this implementation exists to make that argument measurable:
// its table grows with every distinct (discretized) state encountered, and
// the core.TabularAgent experiment reports that growth next to the fixed
// parameter count of the DQL network.
//
// States are identified by caller-provided 64-bit keys (typically a hash of
// the discretized state); distinct states that collide share an entry, which
// only helps the table look smaller than it is.
type QTable struct {
	// Actions is the number of actions per state.
	Actions int
	// Alpha is the learning rate of the tabular Bellman update.
	Alpha float64
	// Gamma is the discount factor.
	Gamma float64

	table map[uint64][]float64
}

// NewQTable creates an empty table.
func NewQTable(actions int, alpha, gamma float64) *QTable {
	if actions <= 0 {
		panic("rl: QTable needs at least one action")
	}
	if alpha <= 0 || alpha > 1 {
		panic("rl: QTable alpha must be in (0,1]")
	}
	return &QTable{
		Actions: actions,
		Alpha:   alpha,
		Gamma:   gamma,
		table:   make(map[uint64][]float64),
	}
}

// Row returns the Q-value row for the state, creating it zeroed on first use.
func (q *QTable) Row(state uint64) []float64 {
	row, ok := q.table[state]
	if !ok {
		row = make([]float64, q.Actions)
		q.table[state] = row
	}
	return row
}

// Peek returns the row without creating it (nil if the state is unknown).
func (q *QTable) Peek(state uint64) []float64 { return q.table[state] }

// Best returns the valid action with the highest Q-value in the state and
// that value. With an unknown state every action ties at zero and the first
// valid action is returned.
func (q *QTable) Best(state uint64, valid []int) (action int, value float64) {
	if len(valid) == 0 {
		panic("rl: Best needs at least one valid action")
	}
	row := q.Peek(state)
	if row == nil {
		return valid[0], 0
	}
	action, value = valid[0], row[valid[0]]
	for _, a := range valid[1:] {
		if row[a] > value {
			action, value = a, row[a]
		}
	}
	return action, value
}

// Update applies the tabular Bellman update
// Q(s,a) += alpha * (r + gamma*max_valid Q(s',a') - Q(s,a)).
// nextValid may be empty for terminal transitions.
func (q *QTable) Update(state uint64, action int, reward float64, next uint64, nextValid []int) {
	target := reward
	if len(nextValid) > 0 {
		_, best := q.Best(next, nextValid)
		target += float64(q.Gamma * best)
	}
	row := q.Row(state)
	row[action] += float64(q.Alpha * (target - row[action]))
}

// States returns the number of distinct state keys in the table.
func (q *QTable) States() int { return len(q.table) }

// Bytes estimates the table's memory footprint: 8 bytes per Q-value plus the
// 8-byte key, ignoring map overhead (a generous underestimate).
func (q *QTable) Bytes() int64 {
	return int64(len(q.table)) * int64(8+8*q.Actions)
}

// EpsilonGreedy picks Best with probability 1-eps, otherwise a uniformly
// random valid action.
func (q *QTable) EpsilonGreedy(rng *rand.Rand, state uint64, valid []int, eps float64) int {
	if rng.Float64() < eps {
		return valid[rng.Intn(len(valid))]
	}
	a, _ := q.Best(state, valid)
	return a
}
