package rl

import (
	"encoding/binary"
	"math"

	"mlnoc/internal/nn"
)

// verbatim is the StateCodec of rl's tests: a record is the state vector
// itself, its entry count, each entry's index and value bits, then the valid
// actions, all as uvarints. A verbatim with shapes refuses a state that is not
// a well-formed vector of its width; the zero verbatim takes any.
type verbatim struct{ in, out int }

func (c verbatim) InputSize() int  { return c.in }
func (c verbatim) ActionSize() int { return c.out }

// encode returns the record of state v with valid actions valid.
func encode(v nn.SparseVec, valid []int) []byte {
	rec := binary.AppendUvarint(nil, uint64(len(v.Idx)))
	for k, i := range v.Idx {
		rec = binary.AppendUvarint(rec, uint64(uint32(i)))
		rec = binary.AppendUvarint(rec, math.Float64bits(v.Val[k]))
	}
	for _, a := range valid {
		rec = binary.AppendUvarint(rec, uint64(a))
	}
	return rec
}

func (c verbatim) Expand(v nn.SparseVec, valid []int, rec []byte) (nn.SparseVec, []int) {
	next := func() uint64 {
		x, n := binary.Uvarint(rec)
		if n <= 0 {
			panic("rl: malformed test record")
		}
		rec = rec[n:]
		return x
	}
	n := int(next())
	if n < 0 || n > len(rec) {
		panic("rl: malformed test record")
	}
	if cap(v.Idx) < n || cap(v.Val) < n {
		v = nn.SparseVec{Idx: make([]int32, n), Val: make([]float64, n)}
	}
	v.Idx, v.Val = v.Idx[:n], v.Val[:n]
	for k := range n {
		v.Idx[k] = int32(uint32(next()))
		v.Val[k] = math.Float64frombits(next())
	}
	if c.in > 0 {
		if !wellFormed(v, c.in) {
			panic("rl: test record holds a malformed vector")
		}
	}
	valid = valid[:0]
	for len(rec) > 0 {
		valid = append(valid, int(next()))
	}
	return v, valid
}

// transition is e as the replay memory stores it under verbatim.
func transition(e Experience) Transition {
	return Transition{
		State:    encode(e.State, nil),
		Action:   e.Action,
		Reward:   e.Reward,
		Next:     encode(e.Next, e.NextValid),
		Terminal: e.Terminal,
	}
}

// observe stores e in d's replay memory through verbatim.
func observe(d *DQL, e Experience) {
	d.Replay.Codec = verbatim{}
	d.Observe(transition(e))
}

// wellFormed reports whether v is a vector of n elements the network takes:
// as many values as indices, indices strictly ascending within [0, n),
// values finite.
func wellFormed(v nn.SparseVec, n int) bool {
	if len(v.Idx) != len(v.Val) {
		return false
	}
	for k, i := range v.Idx {
		if i < 0 || int(i) >= n || k > 0 && i <= v.Idx[k-1] || math.IsNaN(v.Val[k]) || math.IsInf(v.Val[k], 0) {
			return false
		}
	}
	return true
}
