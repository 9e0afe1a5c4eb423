package core

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"

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
	// values is what Expand looks readings up in while Features and Norm
	// are still the ones NewStateSpec built it for.
	values *valueTable
}

// valueTable holds, for each feature of a set and every reading a one-byte
// varint encodes (-64 to 63), what Expand makes of it: the value
// NormConfig.scale gives it, the element of the message's block it goes to
// (a one-hot feature's category picks one of three; -1 marks a category that
// does not exist), and whether it is kept (non-zero). Looking a reading up replaces a
// division and a clamp, whose branches random readings mispredict, and gives
// the same bits.
type valueTable struct {
	feats FeatureSet
	norm  NormConfig
	cells []valueCell // [feature<<7 | varint byte]
}

type valueCell struct {
	val  float64
	at   int8
	keep uint8
}

// newValueTable tabulates what Expand makes of the one-byte readings of
// feats under norm, or returns nil for a set too wide for an int8 element.
func newValueTable(feats FeatureSet, norm NormConfig) *valueTable {
	if feats.Width() > math.MaxInt8 {
		return nil
	}
	t := &valueTable{feats: slices.Clone(feats), norm: norm, cells: make([]valueCell, len(feats)<<7)}
	el := 0
	for i, f := range feats {
		for b := range 1 << 7 {
			r, _ := binary.Varint([]byte{byte(b)})
			c := &t.cells[i<<7|b]
			switch {
			case f.Width() == 1:
				c.val, c.at = norm.scale(f, r), int8(el)
			case r >= 0 && r < 3:
				c.val, c.at = 1, int8(el+int(r))
			default:
				c.at = -1
			}
			if c.val != 0 {
				c.keep = 1
			}
		}
		el += f.Width()
	}
	return t
}

// NewStateSpec builds a state spec over the given ports.
func NewStateSpec(ports []noc.PortID, vcs int, feats FeatureSet, norm NormConfig) *StateSpec {
	if len(ports) == 0 || vcs <= 0 || len(feats) == 0 {
		panic("core: state spec needs ports, VCs and features")
	}
	s := &StateSpec{Ports: ports, VCs: vcs, Features: feats, Norm: norm, values: newValueTable(feats, norm)}
	for i := range s.portIndex {
		s.portIndex[i] = -1
	}
	for i, p := range ports {
		s.portIndex[p] = i
	}
	return s
}

// clone returns a copy of s that shares no storage with it but the value
// table, which nothing writes.
func (s *StateSpec) clone() *StateSpec {
	c := *s
	c.Ports = slices.Clone(s.Ports)
	c.Features = slices.Clone(s.Features)
	return &c
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

// Record appends to dst the record of one arbitration: for each candidate in
// the order given, its Slot and then one reading per feature of the spec's
// FeatureSet, the integer the state normalizes (Feature.read), each a
// binary.AppendVarint. Nothing is clipped or rounded, so Expand rebuilds from
// a record exactly the state the messages themselves give. On the APU a record
// takes about nine bytes a candidate, where its state takes a dozen entries
// of 12 bytes.
func (s *StateSpec) Record(dst []byte, net *noc.Network, now int64, cands []noc.Candidate) []byte {
	for _, c := range cands {
		dst = binary.AppendUvarint(dst, uint64(s.Slot(c.Port, c.VC)))
		for _, f := range s.Features {
			dst = binary.AppendVarint(dst, f.read(net, now, c.Msg))
		}
	}
	return dst
}

// Expand decodes a record written by Record into the state vector of its
// arbitration and the list of its candidates' slots, in the record's order
// (the actions that arbitration could take). The state holds the features of
// every candidate at its buffer's block, in ascending Slot order whatever
// order the record lists them in, which makes the list ascending as the
// Q-network requires (layer 0 sums in list order); features that are zero are
// not listed, and a buffer listed twice counts once. Each value is
// NormConfig.scale of its reading, or a one-hot feature's 1. Like append, Expand builds into v's
// and valid's storage when they have the capacity (a record of k candidates
// needs k x Features.Width() entries and k slots) and returns the results;
// what they held is overwritten. It panics on a record that Record could not
// have written for this spec.
func (s *StateSpec) Expand(v nn.SparseVec, valid []int, rec []byte) (nn.SparseVec, []int) {
	t := s.values
	if t != nil && (t.norm != s.Norm || !slices.Equal(t.feats, s.Features)) {
		t = nil // changed since NewStateSpec: compute every value
	}
	nf, fw := len(s.Features), s.Features.Width()
	// A candidate takes at least nf+1 bytes, so this many entries are
	// always room enough; only a vector with less room needs the exact count.
	room := len(rec) / (nf + 1) * fw
	if c := min(cap(v.Idx), cap(v.Val)); c < room {
		k := varints(rec)
		if k%(nf+1) != 0 {
			panic("core: malformed state record")
		}
		if room = k / (nf + 1) * fw; c < room {
			v = nn.SparseVec{Idx: make([]int32, room), Val: make([]float64, room)}
		}
	}
	idx, val := v.Idx[:room], v.Val[:room]
	// The engine hands candidates over in ascending slot order as a rule:
	// decode straight through while they come so.
	valid = valid[:0]
	n, last := 0, -1
	for p := 0; p < len(rec); {
		slot, q := s.slotAt(rec, p)
		if slot <= last {
			return s.expandUnordered(idx, val, valid[:0], rec, t)
		}
		valid = append(valid, slot)
		n, p = s.expandBlock(idx, val, n, slot*fw, rec, q, t)
		last = slot
	}
	return nn.SparseVec{Idx: idx[:n], Val: val[:n]}, valid
}

// expandUnordered is Expand for a record whose slots are not ascending, into
// storage Expand has sized.
func (s *StateSpec) expandUnordered(idx []int32, val []float64, valid []int, rec []byte, t *valueTable) (nn.SparseVec, []int) {
	// Sort the candidates by slot: keys are slot<<32 | where the candidate's
	// readings start, insertion-sorted (a handful, mostly in order already),
	// on the stack unless there are more than a router's ports usually hold.
	var stack [16]uint64
	order := stack[:0]
	for p := 0; p < len(rec); {
		slot, q := s.slotAt(rec, p)
		key := uint64(slot)<<32 | uint64(q)
		j := len(order)
		order = append(order, key)
		for ; j > 0 && order[j-1] > key; j-- {
			order[j] = order[j-1]
		}
		order[j] = key
		valid = append(valid, slot)
		// Skip the readings: each ends at a byte below 0x80.
		for k := 0; k < len(s.Features); q++ {
			if rec[q] < 0x80 {
				k++
			}
		}
		p = q
	}
	fw := s.Features.Width()
	n, last := 0, -1
	for _, key := range order {
		slot := int(key >> 32)
		if slot == last {
			continue // one message per buffer: a repeated slot adds nothing
		}
		last = slot
		n, _ = s.expandBlock(idx, val, n, slot*fw, rec, int(key&(1<<32-1)), t)
	}
	return nn.SparseVec{Idx: idx[:n], Val: val[:n]}, valid
}

// slotAt decodes the slot at rec[p:], returning it and the offset past it.
func (s *StateSpec) slotAt(rec []byte, p int) (int, int) {
	slot, n := uint64(rec[p]), 1
	if slot >= 0x80 {
		if slot, n = binary.Uvarint(rec[p:]); n <= 0 {
			panic("core: malformed state record")
		}
	}
	if slot >= uint64(s.ActionSize()) {
		panic("core: malformed state record")
	}
	return int(slot), p + n
}

// expandBlock decodes the readings at rec[p:] of the candidate whose block
// starts at element el into idx and val from entry n, non-zero values only,
// and returns the entries then filled and the offset past the readings. t
// is the spec's value table, nil when it may not be used.
func (s *StateSpec) expandBlock(idx []int32, val []float64, n, el int, rec []byte, p int, t *valueTable) (int, int) {
	for i := 0; i < len(s.Features); i++ {
		if t != nil {
			var k int
			if n, k = t.expand(idx, val, n, el, i, rec[p:]); i+k == len(s.Features) {
				return n, p + k
			}
			i, p = i+k, p+k
		}
		var x float64
		var at int
		x, at, p = s.slowReading(i, rec, p)
		idx[n], val[n] = int32(el+at), x
		if x != 0 {
			n++
		}
	}
	return n, p
}

// expand is expandBlock by table lookups, from feature i on for as long as
// the readings are one byte each and name existing one-hot categories: it
// returns the entries then filled and how many readings it took.
func (t *valueTable) expand(idx []int32, val []float64, n, el, i int, rec []byte) (int, int) {
	k := 0
	for ; i+k < len(t.feats) && k < len(rec); k++ {
		b := rec[k]
		if b >= 0x80 {
			break
		}
		c := &t.cells[(i+k)<<7|int(b)]
		if c.at < 0 {
			break
		}
		// Written always, kept when non-zero: n never passes the element
		// being written, and the loop has no branch to mispredict.
		idx[n], val[n] = int32(el+int(c.at)), c.val
		n += int(c.keep)
	}
	return n, k
}

// varints returns how many varints rec holds: each ends at its one byte
// below 0x80.
func varints(rec []byte) int {
	n := 0
	for _, b := range rec {
		if b < 0x80 {
			n++
		}
	}
	return n
}

// slowReading decodes the reading of feature i at rec[p:] without the value
// table: the value, its element in the message's block, and the offset past
// it. It panics on a one-hot category that does not exist.
func (s *StateSpec) slowReading(i int, rec []byte, p int) (x float64, at, end int) {
	r, n := binary.Varint(rec[min(p, len(rec)):])
	if n <= 0 {
		panic("core: malformed state record")
	}
	f := s.Features[i]
	at = s.Features[:i].Width()
	switch {
	case f.Width() == 1:
		x = s.Norm.scale(f, r)
	case r >= 0 && r < 3:
		x, at = 1, at+int(r)
	default:
		panic("core: malformed state record")
	}
	return x, at, p + n
}

// BuildSparse assembles the state of one arbitration as an nn.SparseVec: the
// Expand of its Record. Like append, it builds into v's storage when that has
// the capacity (len(cands) x Features.Width() entries always suffice) and
// returns the result, so a caller that reuses vectors builds without
// allocating; what v held is overwritten.
func (s *StateSpec) BuildSparse(v nn.SparseVec, net *noc.Network, now int64, cands []noc.Candidate) nn.SparseVec {
	var rec [recordStack]byte
	var valid [16]int
	v, _ = s.Expand(v, valid[:0], s.Record(rec[:0], net, now, cands))
	return v
}

// recordStack is how many bytes of record BuildSparse keeps on the stack:
// eight candidates of the widest feature set at two bytes a reading.
const recordStack = 8 * (1 + 2*NumFeatures)

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
