package core

import (
	"encoding/binary"
	"fmt"
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
	// values is what Expand decodes with while the spec is the one
	// NewStateSpec built it for.
	values *valueTable
}

// valueTable is a spec as Expand decodes with it: its shapes, and for each
// feature and each reading a record holds in one byte (0 to 254), the value
// NormConfig.scale gives it (a one-hot category's 1), its element in the
// message's block, and whether it is kept (non-zero); the escape byte 255
// and a one-hot category that does not exist have element -1. Looking a
// reading up replaces a division and a clamp and gives the same bits. Nothing
// writes a table once built, so a replay ring decodes with its agent's
// without checking the spec each draw. It takes 4 KB a feature.
type valueTable struct {
	feats       FeatureSet
	norm        NormConfig
	fw, actions int
	cells       [][escape + 1]valueCell
}

type valueCell struct {
	val  float64
	at   int32 // -1: slowReading
	keep int32
}

// newValueTable tabulates the one-byte readings of s's features.
func newValueTable(s *StateSpec) *valueTable {
	feats := slices.Clone(s.Features)
	t := &valueTable{feats: feats, norm: s.Norm, fw: feats.Width(), actions: s.ActionSize(), cells: make([][escape + 1]valueCell, len(feats))}
	el := 0
	for i, f := range feats {
		for r := range t.cells[i] {
			c := &t.cells[i][r]
			switch c.at = -1; {
			case r < escape && f.Width() == 1:
				c.val, c.at = s.Norm.scale(f, int64(r)), int32(el)
			case r < 3:
				c.val, c.at = 1, int32(el+r)
			}
			if c.val != 0 {
				c.keep = 1
			}
		}
		el += f.Width()
	}
	return t
}

// NewStateSpec builds a state spec over the given ports. A record holds a
// slot in one byte, so a spec has at most 256 (a network's ports and VCs
// make at most noc.MaxPorts x noc.MaxVCs).
func NewStateSpec(ports []noc.PortID, vcs int, feats FeatureSet, norm NormConfig) *StateSpec {
	if len(ports) == 0 || vcs <= 0 || len(feats) == 0 || len(ports)*vcs > 256 {
		panic("core: state spec needs ports, VCs and features, and at most 256 slots")
	}
	s := &StateSpec{Ports: ports, VCs: vcs, Features: feats, Norm: norm}
	for i := range s.portIndex {
		s.portIndex[i] = -1
	}
	for i, p := range ports {
		s.portIndex[p] = i
	}
	s.values = newValueTable(s)
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

// Record appends to dst the record of one arbitration: for each candidate in
// the order given, its Slot in one byte and then one reading per feature of
// the spec's FeatureSet, the integer the state normalizes (Feature.read): one
// byte when it is 0 to 254, else the escape byte 255 and its
// binary.AppendVarint. Nothing is clipped or rounded, so Expand rebuilds from
// a record exactly the state the messages themselves give. On the APU a
// record takes nine bytes a candidate (one reading in 600 escapes, into three
// bytes), where its state takes a dozen entries of 12 bytes.
func (s *StateSpec) Record(dst []byte, net *noc.Network, now int64, cands []noc.Candidate) []byte {
	for _, c := range cands {
		dst = append(dst, byte(s.Slot(c.Port, c.VC)))
		for _, f := range s.Features {
			if r := f.read(net, now, c.Msg); uint64(r) < escape {
				dst = append(dst, byte(r))
			} else {
				dst = binary.AppendVarint(append(dst, escape), r)
			}
		}
	}
	return dst
}

// escape is the byte that marks a reading Record writes as a varint.
const escape = 0xff

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
	if t.norm != s.Norm || t.actions != s.ActionSize() || !slices.Equal(t.feats, s.Features) {
		t = newValueTable(s) // changed since NewStateSpec
	}
	return t.Expand(v, valid, rec)
}

// InputSize, ActionSize and Expand make a table the rl.StateCodec of the spec
// it was built for.
func (t *valueTable) InputSize() int  { return t.actions * t.fw }
func (t *valueTable) ActionSize() int { return t.actions }

// Expand is StateSpec.Expand. The engine hands candidates over in ascending
// slot order as a rule, and a reading takes one byte but for one in
// hundreds: such a record holds a slot every nf+1 bytes, and lookup decodes
// it, in one loop a candidate. slowExpand decodes any other.
func (t *valueTable) Expand(v nn.SparseVec, valid []int, rec []byte) (nn.SparseVec, []int) {
	stride, p, last, ok := len(t.cells)+1, 0, -1, true
	for valid = valid[:0]; ok && p < len(rec); p += stride {
		slot := int(rec[p])
		valid, ok, last = append(valid, slot), slot > last && slot < t.actions, slot
	}
	// Any other record takes room for a candidate every nf+1 bytes and one
	// cut short, whatever decoding writes before it finds it malformed.
	k, ok := len(valid), ok && p == len(rec)
	if !ok {
		k = (len(rec) + stride - 1) / stride
	}
	if min(cap(v.Idx), cap(v.Val)) < k*t.fw {
		v = nn.SparseVec{Idx: make([]int32, k*t.fw), Val: make([]float64, k*t.fw)}
	}
	idx, val, n := v.Idx[:k*t.fw], v.Val[:k*t.fw], 0
	if ok {
		n, ok = t.lookup(idx, val, rec)
	}
	if !ok {
		valid = slices.Grow(valid[:0], k)[:k]
		n, k = t.slowExpand(idx, val, valid, rec)
		valid = valid[:k]
	}
	return nn.SparseVec{Idx: idx[:n], Val: val[:n]}, valid
}

// lookup decodes into idx and val, non-zero values only, a record whose
// readings take one byte each, by table lookups alone, in one loop a
// candidate: it reports false, having written what it may, at a reading the
// table does not hold.
func (t *valueTable) lookup(idx []int32, val []float64, rec []byte) (n int, ok bool) {
	cells, fw, val := t.cells, int32(t.fw), val[:len(idx)]
	for p := 0; p < len(rec); p++ {
		el := int32(rec[p]) * fw
		for i := range cells {
			p++
			c := &cells[i][rec[p]]
			if c.at < 0 {
				return n, false
			}
			// Written always, kept when non-zero: n never passes the element
			// being written, and the lookup has no branch to mispredict.
			idx[n], val[n] = el+c.at, c.val
			n += int(c.keep)
		}
	}
	return n, true
}

// slowExpand is lookup for any record, reading by reading through
// slowReading: it lists the candidates' slots in the record's order and
// decodes them in ascending slot order, the first of a repeated slot only
// (one message per buffer: a repeat adds nothing).
func (t *valueTable) slowExpand(idx []int32, val []float64, valid []int, rec []byte) (n, k int) {
	// Keys are slot<<32 | where the candidate's readings start,
	// insertion-sorted (a handful, mostly in order already), on the stack
	// unless there are more than a router's ports usually hold.
	var stack [16]uint64
	order := stack[:0]
	for p := 0; p < len(rec); k++ {
		slot := int(rec[p])
		if slot >= t.actions {
			panic("core: malformed state record")
		}
		valid[k], p = slot, p+1
		key := uint64(slot)<<32 | uint64(p)
		j := len(order)
		order = append(order, key)
		for ; j > 0 && order[j-1] > key; j-- {
			order[j] = order[j-1]
		}
		order[j] = key
		for range t.cells { // past the readings: an escape's varint ends below 0x80
			if p < len(rec) && rec[p] == escape {
				for p++; p < len(rec) && rec[p] >= 0x80; p++ {
				}
			}
			p++
		}
	}
	for j, key := range order {
		if j > 0 && key>>32 == order[j-1]>>32 {
			continue
		}
		p, el := int(key&(1<<32-1)), int32(key>>32)*int32(t.fw)
		for i := range t.cells {
			var c valueCell
			c, p = t.slowReading(i, rec, p)
			idx[n], val[n] = el+c.at, c.val
			n += int(c.keep)
		}
	}
	return n, k
}

// slowReading returns the cell of the reading of feature i at rec[p:], the
// table's or, for an escape, one it computes, and the offset past the
// reading. It panics on a one-hot category that does not exist.
func (t *valueTable) slowReading(i int, rec []byte, p int) (valueCell, int) {
	if p >= len(rec) {
		panic("core: malformed state record")
	}
	if c := t.cells[i][rec[p]]; c.at >= 0 {
		return c, p + 1
	}
	r, n := binary.Varint(rec[p+1:])
	f, c := t.feats[i], valueCell{at: int32(t.feats[:i].Width())}
	switch {
	case rec[p] != escape || n <= 0:
		panic("core: malformed state record")
	case f.Width() == 1:
		c.val = t.norm.scale(f, r)
	case r >= 0 && r < 3:
		c.val, c.at = 1, c.at+int32(r)
	default:
		panic("core: malformed state record")
	}
	if c.val != 0 {
		c.keep = 1
	}
	return c, p + 1 + n
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

// recordStack is how many bytes of record BuildSparse and Expand keep on the
// stack: eight candidates of the widest feature set at two bytes a reading.
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
