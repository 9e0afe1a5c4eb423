// Package core implements the paper's primary contribution: the RL-driven
// NoC arbitration framework and the human-distilled "RL-inspired" arbiters.
//
// It contains the Table 2 message features and their normalization, the
// Section 4.4 router state vector, the Algorithm 1 agent arbitration policy
// (deep Q-learning over state vectors), the Section 3.2 and Algorithm 2
// RL-inspired priority arbiters plus the Section 5.1 de-featured ablations,
// the weight heatmap analysis of Figs. 4 and 7, the training harness behind
// Figs. 12 and 13, and the Section 6.5 hill-climbing feature selection.
package core

import (
	"fmt"

	"mlnoc/internal/noc"
	"mlnoc/internal/stats"
)

// Feature identifies one of the Table 2 message features.
type Feature int

// The Table 2 features, in the paper's order.
const (
	FeatPayload      Feature = iota // size of the message in flits
	FeatLocalAge                    // cycles waited at the current router
	FeatDistance                    // hops from source to destination router
	FeatHopCount                    // hops traversed so far
	FeatInflight                    // outstanding requests from the source node
	FeatInterArrival                // gap between consecutive arrivals at the buffer
	FeatMsgType                     // one-hot: request / response / coherence
	FeatDstType                     // one-hot: core / cache / memory

	NumFeatures = 8
)

// String implements fmt.Stringer.
func (f Feature) String() string {
	switch f {
	case FeatPayload:
		return "payload size"
	case FeatLocalAge:
		return "local age"
	case FeatDistance:
		return "distance"
	case FeatHopCount:
		return "hop count"
	case FeatInflight:
		return "# in-flight msg"
	case FeatInterArrival:
		return "inter-arrival time"
	case FeatMsgType:
		return "message type"
	case FeatDstType:
		return "destination type"
	}
	return fmt.Sprintf("Feature(%d)", int(f))
}

// Width returns the number of state-vector elements the feature occupies:
// 1 for scalar features, 3 for the one-hot categorical features. With all
// eight features a message needs 12 elements (Section 4.3).
func (f Feature) Width() int {
	if f == FeatMsgType || f == FeatDstType {
		return 3
	}
	return 1
}

// FeatureSet is an ordered list of features used to build state vectors.
// Fig. 13's single-feature experiments use one-element sets; the full APU
// agent uses AllFeatures.
type FeatureSet []Feature

// AllFeatures is the complete Table 2 feature set (12 elements per message).
var AllFeatures = FeatureSet{
	FeatPayload, FeatLocalAge, FeatDistance, FeatHopCount,
	FeatInflight, FeatInterArrival, FeatMsgType, FeatDstType,
}

// MeshFeatures is the Section 3.2 synthetic-traffic feature set (4 elements
// per message): payload size, local age, distance, hop count.
var MeshFeatures = FeatureSet{FeatPayload, FeatLocalAge, FeatDistance, FeatHopCount}

// Width returns the total number of state-vector elements per message.
func (fs FeatureSet) Width() int {
	w := 0
	for _, f := range fs {
		w += f.Width()
	}
	return w
}

// Labels returns one label per state-vector element, expanding one-hot
// features ("message type: request", ...). Used for heatmap row labels.
func (fs FeatureSet) Labels() []string {
	var out []string
	for _, f := range fs {
		switch f {
		case FeatMsgType:
			out = append(out, "msg type: request", "msg type: response", "msg type: coherence")
		case FeatDstType:
			out = append(out, "dst type: core", "dst type: cache", "dst type: memory")
		default:
			out = append(out, f.String())
		}
	}
	return out
}

// NormConfig holds the normalization caps that map each scalar feature into
// [0,1]. Section 6.2 explains why normalization is required: unbounded
// features such as local age would otherwise dominate neuron sums and
// destabilize training.
type NormConfig struct {
	PayloadCap  float64
	LocalAgeCap float64
	DistanceCap float64
	HopCap      float64
	InflightCap float64
	GapCap      float64
}

// DefaultNorm returns normalization caps suitable for meshes up to 8x8 with
// messages up to 8 flits.
func DefaultNorm() NormConfig {
	return NormConfig{
		PayloadCap:  8,
		LocalAgeCap: 63,
		DistanceCap: 15,
		HopCap:      15,
		InflightCap: 32,
		GapCap:      63,
	}
}

// read returns the reading of feature f for message m: the integer the state
// normalizes (NormConfig.scale), or a one-hot feature's category.
func (f Feature) read(net *noc.Network, now int64, m *noc.Message) int64 {
	switch f {
	case FeatPayload:
		return int64(m.SizeFlits)
	case FeatLocalAge:
		return m.LocalAge(now)
	case FeatDistance:
		return int64(m.Distance)
	case FeatHopCount:
		return int64(m.HopCount)
	case FeatInflight:
		return int64(net.OutstandingFrom(m.Src))
	case FeatInterArrival:
		return m.ArrivalGap
	case FeatMsgType:
		return int64(m.Type)
	case FeatDstType:
		return int64(m.DstKind)
	}
	panic(fmt.Sprintf("core: unknown feature %v", f))
}

// scale returns the state-vector value of reading r of scalar feature f.
func (norm *NormConfig) scale(f Feature, r int64) float64 {
	x := float64(r)
	switch f {
	case FeatPayload:
		return stats.Clamp01(x / norm.PayloadCap)
	case FeatLocalAge:
		// Soft normalization la/(la+cap/2): stays in [0,1) like the paper's
		// normalization, but remains strictly increasing so a long-waiting
		// message's Q-value keeps growing instead of saturating — a hard
		// clamp lets the network starve a message it has ranked last once
		// its age passes the cap.
		return x / (x + float64(norm.LocalAgeCap/2))
	case FeatDistance:
		return stats.Clamp01(x / norm.DistanceCap)
	case FeatHopCount:
		return stats.Clamp01(x / norm.HopCap)
	case FeatInflight:
		return stats.Clamp01(x / norm.InflightCap)
	case FeatInterArrival:
		return stats.Clamp01(x / norm.GapCap)
	}
	panic(fmt.Sprintf("core: %v is not a scalar feature", f))
}
