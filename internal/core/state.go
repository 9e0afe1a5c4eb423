package core

import (
	"fmt"

	"mlnoc/internal/nn"
	"mlnoc/internal/noc"
)

// StateSpec describes the layout of the router state vector (Section 4.4):
// for each of the spec's ports and each virtual channel, one block of
// feature elements. Buffers with no competing message — and ports a given
// router does not have — are zeroed, which is the paper's padding rule for
// sharing one agent across routers of different radix.
type StateSpec struct {
	// Ports lists the ports contributing state, in heatmap column order.
	Ports []noc.PortID
	// VCs is the number of virtual channels per port.
	VCs int
	// Features is the per-message feature set.
	Features FeatureSet
	// Norm holds the feature normalization caps.
	Norm NormConfig

	portIndex [noc.MaxPorts]int // PortID -> dense column, -1 if absent
}

// NewStateSpec builds a state spec over the given ports.
func NewStateSpec(ports []noc.PortID, vcs int, feats FeatureSet, norm NormConfig) *StateSpec {
	if len(ports) == 0 || vcs <= 0 || len(feats) == 0 {
		panic("core: state spec needs ports, VCs and features")
	}
	s := &StateSpec{Ports: ports, VCs: vcs, Features: feats, Norm: norm}
	for i := range s.portIndex {
		s.portIndex[i] = -1
	}
	for i, p := range ports {
		s.portIndex[p] = i
	}
	return s
}

// MeshSpec returns the Section 3.2 synthetic-traffic spec: five ports (core
// plus the four directions), the four mesh features, and the given VC count.
// With 3 VCs this yields the paper's 60-input agent.
func MeshSpec(vcs int) *StateSpec {
	return NewStateSpec(
		[]noc.PortID{noc.PortCore, noc.PortNorth, noc.PortSouth, noc.PortWest, noc.PortEast},
		vcs, MeshFeatures, DefaultNorm())
}

// APUSpec returns the Section 4 APU spec: six ports (core, memory and the
// four directions), seven VC classes and the full 12-element feature set,
// yielding the paper's 504-input agent.
func APUSpec() *StateSpec {
	return NewStateSpec(
		[]noc.PortID{noc.PortCore, noc.PortMem, noc.PortNorth, noc.PortSouth, noc.PortWest, noc.PortEast},
		7, AllFeatures, DefaultNorm())
}

// InputSize returns the state vector width: ports x VCs x feature elements.
func (s *StateSpec) InputSize() int { return len(s.Ports) * s.VCs * s.Features.Width() }

// ActionSize returns the number of actions: one Q-value per (port, VC)
// input-buffer slot.
func (s *StateSpec) ActionSize() int { return len(s.Ports) * s.VCs }

// Slot returns the action index of input buffer (port, vc). It panics if the
// port is not part of the spec.
func (s *StateSpec) Slot(port noc.PortID, vc int) int {
	col := s.portIndex[port]
	if col < 0 {
		panic(fmt.Sprintf("core: port %s not in state spec", port))
	}
	return col*s.VCs + vc
}

// SlotPort returns the (port, vc) of an action index.
func (s *StateSpec) SlotPort(slot int) (noc.PortID, int) {
	return s.Ports[slot/s.VCs], slot % s.VCs
}

// BuildSparse assembles the state of one arbitration as an nn.SparseVec: the
// features of every candidate message at its buffer's block. Candidates are
// taken in ascending Slot order whatever order they come in, which makes the
// list ascending as the Q-network requires (layer 0 sums in list order), and
// features that are zero are not listed — a buffer without a competing message
// contributes nothing. This is the one place states are built; the dense form
// is a scatter of it. Like append, it builds into v's storage when that has
// the capacity (len(cands) x Features.Width() entries always suffice) and
// returns the result, so a caller that recycles vectors builds without
// allocating; what v held is overwritten.
func (s *StateSpec) BuildSparse(v nn.SparseVec, net *noc.Network, now int64, cands []noc.Candidate) nn.SparseVec {
	fw := s.Features.Width()
	room := len(cands) * fw
	if cap(v.Idx) < room || cap(v.Val) < room {
		v = nn.SparseVec{Idx: make([]int32, room), Val: make([]float64, room)}
	}
	// Sort the candidates by slot: keys are slot<<16 | position, insertion-
	// sorted (a handful, mostly in order already), on the stack unless there
	// are more than a router's ports usually present.
	var stack [16]int
	order := stack[:0]
	if len(cands) > len(stack) {
		order = make([]int, 0, len(cands))
	}
	for i, c := range cands {
		key := s.Slot(c.Port, c.VC)<<16 | i
		j := len(order)
		order = append(order, key)
		for ; j > 0 && order[j-1] > key; j-- {
			order[j] = order[j-1]
		}
		order[j] = key
	}
	idx, val := v.Idx[:room], v.Val[:room]
	n, last := 0, -1
	for _, key := range order {
		slot := key >> 16
		if slot == last {
			continue // one message per buffer: a repeated slot adds nothing
		}
		last = slot
		// Extract into the free tail, then close up over the zeros.
		block := val[n : n+fw]
		s.Features.Extract(block, &s.Norm, net, now, cands[key&0xffff].Msg)
		for k, x := range block {
			// Written always, kept when non-zero: n never passes the element
			// being read, and the loop has no branch to mispredict.
			idx[n], val[n] = int32(slot*fw+k), x
			if x != 0 {
				n++
			}
		}
	}
	return nn.SparseVec{Idx: idx[:n], Val: val[:n]}
}

// buildStateStack is how many entries BuildStateInto's intermediate list holds
// on the stack: eight candidates' worth of the widest feature set. An
// arbitration with more spills to the heap.
const buildStateStack = 8 * 12

// BuildStateInto assembles the dense state vector for one arbitration into
// dst, which must have length InputSize, and returns it: the features of every
// candidate message at its buffer's block, all other elements zero. dst is
// zeroed and BuildSparse's list scattered into it, so a reused dst carries
// nothing over. The INT8 engine and the quantization study take states in
// this form.
func (s *StateSpec) BuildStateInto(dst []float64, net *noc.Network, now int64, cands []noc.Candidate) []float64 {
	var idx [buildStateStack]int32
	var val [buildStateStack]float64
	s.BuildSparse(nn.SparseVec{Idx: idx[:0], Val: val[:0]}, net, now, cands).ScatterInto(dst)
	return dst
}
